(** Ricart-Agrawala with membership-leased grants: the
    partition-tolerant reference variant, and its non-tolerant
    ablation.

    The classical RA program ({!Ra_core}) wedges during a group
    partition: a hungry process waits on grants from peers it can no
    longer reach.  This variant subscribes to the simulated group
    membership service ({!Graybox.Protocol.S.on_view_change}) and
    degrades explicitly to {e per-group} mutual exclusion — the
    weak-ME1 regime the epoch monitors check:

    - the entry quorum is the {e current membership}, not all peers:
      a severed group keeps serving its own requests (a singleton
      group trivially so);
    - grants are {e leases} on continuous co-membership: each view
      change bumps a local view epoch and restarts the continuity
      clock of every (re)joining peer, and a grant counts only if it
      was recorded at or after the grantor's continuity epoch — a
      pre-partition grant from a peer that left and rejoined is void
      (the peer may have entered its own group's CS meanwhile), so
      the heal forces a fresh round with the peers that crossed it;
    - an eating process defers {e every} request until release.
      Classical RA replies to earlier-stamped requests even while
      eating — from legitimate states that branch is unreachable and
      after transient faults it is self-stabilizing repair, but after
      a heal it is a live hazard: the severed groups' timestamp
      orders never interleaved, so an "earlier" request from across
      the heal is a real competitor, not a corpse.  Deferring it
      until release keeps heal-crossing grants serialized; liveness
      is unaffected (release replies to everything deferred).

    With no view changes ever delivered, the quorum is all peers and
    every continuity epoch is 0: the program is Ricart-Agrawala with
    a slightly more patient eater.

    {b Known limit — buffered heals.}  The lease is enforced at
    {e receive} time: a grant recorded after the heal counts as fresh.
    Under a {e lossy} partition that is sound — nothing sent across
    the cut survives it.  Under a {e buffered} partition, a reply sent
    across the cut during the split is delivered at the heal, stamped
    with the post-heal epoch, and counted; the requester can combine
    it with own-group grants and enter against the other side's
    standing holder.  The partition bench measures exactly this
    (post-heal dual holders under [split-buf], none under lossy).
    Closing the hole needs an epoch fence {e on the message} — the
    fixed Request/Reply/Release alphabet cannot carry one, and
    receive-time stamping cannot reconstruct it, so the limit is
    documented and measured rather than patched around.  The
    during-split campaign gates run the lossy stream, where the lease
    is sound.

    The ablation ([ignore_rejoin = true], registered as the
    during-partition negative control) applies announcements that
    shrink its view but never un-suspects: heal-complete is ignored,
    each side keeps excluding only within its stale membership, and
    the first post-heal contention produces concurrent CS holders in
    a global epoch — exactly the dual-holder-survives-heal violation
    the cross-epoch obligation and per-epoch ME1 exist to catch. *)

module type CONFIG = sig
  val name : string

  val ignore_rejoin : bool
  (** [false] is the tolerant variant; [true] never applies a view
      change that grows the membership — the split-brain ablation. *)
end

module Make (C : CONFIG) : Graybox.Protocol.S = struct
  open Clocks
  module View = Graybox.View
  module Msg = Graybox.Msg

  type state = {
    self : Sim.Pid.t;
    n : int;
    mode : View.mode;
    clock : Logical_clock.t;
    req : Timestamp.t;
    local_req : Timestamp.t Sim.Pid.Map.t;
        (* j.REQ_k, sparse above Sim.Pid.dense_threshold like Ra_core *)
    received : Sim.Pid.Set.t;  (* requests pending reply *)
    members : Sim.Pid.Set.t;
        (* current view, self included; kept *empty* while pristine
           (the view is conceptually the full pid range — materializing
           n members in each of n processes is O(n^2) live heap across
           the system, which is pure GC ballast at load-bench scale) *)
    pristine : bool;
        (* no view change ever applied: the view is the full set and
           every continuity epoch is 0, so the lease checks reduce to
           classical RA — skipped entirely, keeping the no-membership
           fast path at ra's cost (the load bench runs it at n = 10k) *)
    view_epoch : int;  (* bumped at every applied view change *)
    co_since : int Sim.Pid.Map.t;
        (* epoch since which a peer has been continuously co-membered;
           absent reads 0 (together since the beginning) *)
    granted_in : int Sim.Pid.Map.t;
        (* epoch at which j.REQ_k was last written; absent reads 0 *)
  }

  let name = C.name

  let peers s = Sim.Pid.others ~self:s.self ~n:s.n

  let local_req_of s k =
    match Sim.Pid.Map.find_opt k s.local_req with
    | Some ts -> ts
    | None -> Timestamp.zero ~pid:k

  let co_since_of s k =
    match Sim.Pid.Map.find_opt k s.co_since with Some e -> e | None -> 0

  let granted_in_of s k =
    match Sim.Pid.Map.find_opt k s.granted_in with Some e -> e | None -> 0

  (* record j.REQ_k together with the epoch of the recording — the
     lease bookkeeping every local_req write goes through *)
  let record_local s k ts =
    { s with
      local_req = Sim.Pid.Map.add k ts s.local_req;
      granted_in =
        (* an absent entry reads 0 = the pristine epoch, so not
           writing it is the same lease *)
        (if s.pristine then s.granted_in
         else Sim.Pid.Map.add k s.view_epoch s.granted_in) }

  let init ~n self =
    { self;
      n;
      mode = View.Thinking;
      clock = Logical_clock.create ~pid:self;
      req = Timestamp.zero ~pid:self;
      local_req =
        (if n <= Sim.Pid.dense_threshold then
           List.fold_left
             (fun m k -> Sim.Pid.Map.add k (Timestamp.zero ~pid:k) m)
             Sim.Pid.Map.empty
             (Sim.Pid.others ~self ~n)
         else Sim.Pid.Map.empty);
      received = Sim.Pid.Set.empty;
      members = Sim.Pid.Set.empty (* pristine: conceptually full *);
      pristine = true;
      view_epoch = 0;
      co_since = Sim.Pid.Map.empty;
      granted_in = Sim.Pid.Map.empty }

  let view s =
    View.make ~self:s.self ~mode:s.mode ~req:s.req ~local_req:s.local_req
      ~clock:(Logical_clock.now s.clock)

  let refresh_req_if_thinking s =
    if s.mode = View.Thinking then { s with req = Logical_clock.read s.clock }
    else s

  let request_cs s =
    let clock, ts = Logical_clock.tick s.clock in
    let s = { s with clock; req = ts; mode = View.Hungry } in
    (s, List.map (fun k -> (k, Msg.Request ts)) (peers s))

  (* Entry quorum: every *co-membered* peer granted us, and each grant
     is leased — recorded no earlier than the peer's continuity epoch.
     Severed peers are not waited for; that is the explicit per-group
     degradation. *)
  let earliest s =
    if s.pristine then
      let rec go k =
        k >= s.n
        || ((k = s.self || Timestamp.lt s.req (local_req_of s k)) && go (k + 1))
      in
      go 0
    else
      let rec go k =
        k >= s.n
        || ((k = s.self
            || (not (Sim.Pid.Set.mem k s.members))
            || (Timestamp.lt s.req (local_req_of s k)
               && co_since_of s k <= granted_in_of s k))
           && go (k + 1))
      in
      go 0

  let try_enter s =
    if s.mode = View.Hungry && earliest s then
      let clock, _entry_ts = Logical_clock.tick s.clock in
      Some ({ s with clock; mode = View.Eating }, [])
    else None

  (* Release replies to *everything* deferred: the defer-while-eating
     rule above also defers earlier-stamped requests, so the release
     reply is their grant (a reply that turns out stale is absorbed by
     the postdating check on the other side). *)
  let release_cs s =
    let deferred = Sim.Pid.Set.elements s.received in
    let clock, ts = Logical_clock.tick s.clock in
    let s =
      { s with
        clock;
        mode = View.Thinking;
        req = ts;
        received = Sim.Pid.Set.empty }
    in
    (s, List.map (fun k -> (k, Msg.Reply ts)) deferred)

  let on_message ~from msg s =
    let ts = Msg.timestamp msg in
    let clock = Logical_clock.receive_event s.clock ts in
    let s = refresh_req_if_thinking { s with clock } in
    match msg with
    | Msg.Request req_k ->
      let s = record_local s from req_k in
      (* Thinking: reply.  Hungry: reply only to earlier requests.
         Eating: defer everything until release (see the module
         comment — replying to heal-crossing "earlier" requests while
         eating is the dual-holder hazard). *)
      let replies_now =
        s.mode = View.Thinking
        || (s.mode = View.Hungry && Timestamp.lt req_k s.req)
      in
      if replies_now then begin
        let s = { s with received = Sim.Pid.Set.remove from s.received } in
        (s, [ (from, Msg.Reply (Logical_clock.read s.clock)) ])
      end
      else ({ s with received = Sim.Pid.Set.add from s.received }, [])
    | Msg.Reply r | Msg.Release r ->
      if Timestamp.lt s.req r then (record_local s from r, [])
      else (s, [])

  let membership_aware = true

  let on_view_change ~members s =
    let incoming = Sim.Pid.Set.add s.self (Sim.Pid.Set.of_list members) in
    (* while pristine the stored set is empty but the view is the full
       pid range — compare against that, not the representation *)
    let unchanged =
      if s.pristine then Sim.Pid.Set.cardinal incoming = s.n
      else Sim.Pid.Set.equal incoming s.members
    in
    let current_cardinal =
      if s.pristine then s.n else Sim.Pid.Set.cardinal s.members
    in
    if unchanged then s
    else if
      C.ignore_rejoin && Sim.Pid.Set.cardinal incoming > current_cardinal
    then s (* the ablation: suspicion is sticky, heals never believed *)
    else begin
      let view_epoch = s.view_epoch + 1 in
      let co_since =
        (* peers entering the view restart their continuity clock:
           whatever they granted before they left is void *)
        Sim.Pid.Set.fold
          (fun k acc ->
            if s.pristine || Sim.Pid.Set.mem k s.members then acc
            else Sim.Pid.Map.add k view_epoch acc)
          incoming s.co_since
      in
      { s with members = incoming; pristine = false; view_epoch; co_since }
    end

  let random_ts ~n rng =
    Timestamp.make
      ~clock:(Stdext.Rng.int rng 64)
      ~pid:(Stdext.Rng.int rng n)

  (* Protocol variables corrupt exactly like Ra_core's; the membership
     bookkeeping (members, view_epoch, co_since, granted_in) mirrors
     the fault injector's own oracle and is left alone — corrupting it
     would amount to corrupting the simulated membership service, not
     this process. *)
  let corrupt rng s =
    let open Stdext in
    let mode =
      match Rng.int rng 3 with
      | 0 -> View.Thinking
      | 1 -> View.Hungry
      | _ -> View.Eating
    in
    let clock =
      if Rng.bool rng then Logical_clock.with_now s.clock (Rng.int rng 64)
      else s.clock
    in
    let req =
      if Rng.bool rng then Timestamp.make ~clock:(Rng.int rng 64) ~pid:s.self
      else s.req
    in
    let local_req =
      Sim.Pid.Map.map
        (fun ts -> if Rng.chance rng 0.5 then random_ts ~n:s.n rng else ts)
        s.local_req
    in
    let received =
      List.fold_left
        (fun acc k -> if Rng.bool rng then Sim.Pid.Set.add k acc else acc)
        Sim.Pid.Set.empty (peers s)
    in
    { s with mode; clock; req; local_req; received }

  let reset ~n self =
    let s = init ~n self in
    { s with mode = View.Hungry }

  let perturb ~n:_ s =
    let all_received = Sim.Pid.Set.of_list (peers s) in
    [ { s with mode = View.Hungry };
      { s with mode = View.Eating };
      { s with mode = View.Hungry; received = all_received };
      { s with received = all_received };
      reset ~n:s.n s.self ]

  let pp ppf s =
    Format.fprintf ppf "%s[%d %a req=%a lc=%d ve=%d mem={%a}]" C.name s.self
      View.pp_mode s.mode Timestamp.pp s.req
      (Logical_clock.now s.clock)
      s.view_epoch
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      (if s.pristine then Sim.Pid.range s.n
       else Sim.Pid.Set.elements s.members)
end

module Lease = Make (struct
  let name = "ra-lease"
  let ignore_rejoin = false
end)

module Stale = Make (struct
  let name = "ra-lease-stale"
  let ignore_rejoin = true
end)
