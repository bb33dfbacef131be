(** Ricart-Agrawala (paper §5.1): the one program behind [ra], its
    mutant [ra-mutant], [ra-synth], and the partition-tolerant
    [ra-lease] with its ablation [ra-lease-stale].  A {!variant}
    decides the three rules where they part, and nothing else:

    - what an eater answers a request.  The paper replies iff
      [t.j \/ REQ_k lt REQ_j], so an eater defers every later request
      until release.  The mutant replies whenever it is not hungry —
      including while eating — which lets two processes eat at once:
      a real bug this repository had during development, which the
      model checker finds within a dozen steps.  A leased eater defers
      every request, earlier ones included (see below);
    - which deferred requests a release answers: under the paper's
      rule those later than its own request, under a lease all;
    - membership leases, which only [Leased] keeps.

    {b Leases.}  The paper's program wedges during a group partition:
    a hungry process waits on grants from peers it can no longer
    reach.  [Leased] subscribes to the simulated group membership
    service ({!Graybox.Protocol.S.on_view_change}) and degrades
    explicitly to {e per-group} mutual exclusion, the weak-ME1 regime
    the epoch monitors check:

    - the entry quorum is the {e current view}, not all peers: a
      severed group keeps serving its own requests;
    - grants are {e leases} on continuous co-membership: each view
      change bumps a view epoch and restarts the continuity clock of
      every (re)joining peer, and a grant counts only if it was
      recorded at or after that epoch.  A pre-partition grant from a
      peer that left and rejoined is void (it may have entered its own
      group's CS meanwhile), so the heal forces a fresh round with the
      peers that crossed it;
    - an eater defers {e every} request.  From legitimate states the
      paper's eater-replies-to-earlier branch is unreachable, and after
      transient faults it is self-stabilizing repair; after a heal it
      is a live hazard: the severed groups' timestamp orders never
      interleaved, so an "earlier" request from across the heal is a
      real competitor.  Deferring it until release keeps heal-crossing
      grants serialized, and release answers everything deferred.

    With no view change ever applied the quorum is all peers and every
    epoch is 0: the program is the paper's with a more patient eater.
    [sticky] is the split-brain ablation: it applies views that shrink
    but never one that grows, so each side keeps excluding only within
    its stale membership and the first post-heal contention produces
    concurrent holders in a global epoch.

    {b Known limit — buffered heals.}  The lease is enforced at
    {e receive} time: a grant recorded after the heal counts as fresh.
    Under a {e lossy} partition that is sound — nothing sent across
    the cut survives it.  Under a {e buffered} one, a reply sent across
    the cut during the split is delivered at the heal, stamped with the
    post-heal epoch and counted, and the requester can combine it with
    own-group grants and enter against the other side's standing
    holder (the partition bench's post-heal dual holders under
    [split-buf]).  Closing the hole needs an epoch fence {e on the
    message}: the fixed Request/Reply/Release alphabet cannot carry
    one, and receive-time stamping cannot reconstruct it, so the limit
    is documented and measured rather than patched around.  The
    during-split campaign gates run the lossy stream, where the lease
    is sound. *)

type variant =
  | Paper
  | Reply_while_eating  (** the mutant *)
  | Leased of { sticky : bool }
      (** membership leases; [sticky] never applies a growing view *)

module type CONFIG = sig
  val name : string
  val variant : variant
end

module Make (C : CONFIG) : Graybox.Protocol.S = struct
  open Clocks
  module View = Graybox.View
  module Msg = Graybox.Msg

  type lease = {
    members : Sim.Pid.Set.t;  (* the current view, self included *)
    view_epoch : int;  (* bumped at every applied view change *)
    co_since : int Sim.Pid.Map.t;
        (* epoch since which a peer has been continuously co-membered;
           absent reads 0 (together since the beginning) *)
    granted_in : int Sim.Pid.Map.t;
        (* epoch at which j.REQ_k was last written; absent reads 0 *)
  }

  type state = {
    self : Sim.Pid.t;
    n : int;
    mode : View.mode;
    clock : Logical_clock.t;
    req : Timestamp.t;  (* REQ_j *)
    local_req : Timestamp.t Sim.Pid.Map.t;
        (* j.REQ_k; an absent key reads as [Timestamp.zero ~pid:k], so
           large systems start sparse (see {!Sim.Pid.dense_threshold})
           without changing a single observable value *)
    received : Sim.Pid.Set.t;  (* received(j.REQ_k): request pending reply *)
    lease : lease option;
        (* [None] until a view change applies: the view is then the full
           pid range and every epoch 0, so the lease checks are skipped
           and a process that never sees a view pays one word for them *)
  }

  let name = C.name

  let peers s = Sim.Pid.others ~self:s.self ~n:s.n

  let local_req_of s k =
    match Sim.Pid.Map.find_opt k s.local_req with
    | Some ts -> ts
    | None -> Timestamp.zero ~pid:k

  let epoch_of m k = match Sim.Pid.Map.find_opt k m with Some e -> e | None -> 0

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
      lease = None }

  let view s =
    View.make ~self:s.self ~mode:s.mode ~req:s.req ~local_req:s.local_req
      ~clock:(Logical_clock.now s.clock)

  let request_cs s =
    let clock, ts = Logical_clock.tick s.clock in
    let s = { s with clock; req = ts; mode = View.Hungry } in
    (s, List.map (fun k -> (k, Msg.Request ts)) (peers s))

  (* Peer k lets us in: REQ_j lt j.REQ_k, and under a lease only a
     co-member counts, with a grant recorded no earlier than the epoch
     since which it has been one.  Severed peers are not waited for. *)
  let admits s k =
    match s.lease with
    | None -> Timestamp.lt s.req (local_req_of s k)
    | Some l ->
      (not (Sim.Pid.Set.mem k l.members))
      || Timestamp.lt s.req (local_req_of s k)
         && epoch_of l.co_since k <= epoch_of l.granted_in k

  (* ∀k ≠ j: k admits us — an early-exit loop over the pid range rather
     than a materialized peers list: across the n-1 attempts a grant
     takes as replies trickle in, the expected total is O(n log n)
     reads (the failing k moves right as replies arrive), not O(n^2). *)
  let earliest s =
    let rec go k = k >= s.n || ((k = s.self || admits s k) && go (k + 1)) in
    go 0

  let try_enter s =
    if s.mode = View.Hungry && earliest s then begin
      let clock, _entry_ts = Logical_clock.tick s.clock in
      Some ({ s with clock; mode = View.Eating }, [])
    end
    else None

  (* Walking [received] (ascending, like the peers list it replaces)
     costs O(deferred), not O(n).  A leased eater deferred earlier
     requests too, so its release answers all of them (a reply that
     turns out stale is absorbed by the postdating check on the other
     side). *)
  let deferred s =
    match C.variant with
    | Leased _ -> Sim.Pid.Set.elements s.received
    | Paper | Reply_while_eating ->
      Sim.Pid.Set.fold
        (fun k acc ->
          if Timestamp.lt s.req (local_req_of s k) then k :: acc else acc)
        s.received []
      |> List.rev

  let release_cs s =
    let deferred = deferred s in
    let clock, ts = Logical_clock.tick s.clock in
    let s =
      { s with
        clock;
        mode = View.Thinking;
        req = ts;
        received = Sim.Pid.Set.empty }
    in
    (s, List.map (fun k -> (k, Msg.Reply ts)) deferred)

  (* the lease after a write of j.REQ_k: stamped with the current epoch *)
  let leased_write s k =
    match s.lease with
    | None -> None
    | Some l ->
      Some { l with granted_in = Sim.Pid.Map.add k l.view_epoch l.granted_in }

  let on_message ~from msg s =
    let clock = Logical_clock.receive_event s.clock (Msg.timestamp msg) in
    (* CS Release Spec: while thinking, REQ_j tracks the newest event. *)
    let req =
      if s.mode = View.Thinking then Logical_clock.read clock else s.req
    in
    match msg with
    | Msg.Request req_k ->
      (* Assignment, not max: receipt of the owner's (or its wrapper's)
         request repairs an arbitrarily corrupted copy. *)
      let local_req = Sim.Pid.Map.add from req_k s.local_req in
      (* Thinking: reply.  Hungry: reply only to earlier requests.
         Eating: the variant's rule (see the module comment). *)
      let replies_now =
        match (s.mode, C.variant) with
        | View.Thinking, _ | View.Eating, Reply_while_eating -> true
        | View.Hungry, _ | View.Eating, Paper -> Timestamp.lt req_k req
        | View.Eating, Leased _ -> false
      in
      let received =
        if replies_now then Sim.Pid.Set.remove from s.received
        else Sim.Pid.Set.add from s.received
      in
      ( { s with clock; req; local_req; received; lease = leased_write s from },
        if replies_now then [ (from, Msg.Reply (Logical_clock.read clock)) ]
        else [] )
    | Msg.Reply r | Msg.Release r ->
      (* A reply counts as a grant only if it postdates our request;
         stale replies (pre-fault leftovers, duplicates) are absorbed. *)
      if Timestamp.lt req r then
        ( { s with
            clock;
            req;
            local_req = Sim.Pid.Map.add from r s.local_req;
            lease = leased_write s from },
          [] )
      else ({ s with clock; req }, [])

  let membership_aware =
    match C.variant with Leased _ -> true | Paper | Reply_while_eating -> false

  let on_view_change ~members s =
    match C.variant with
    | Paper | Reply_while_eating -> s
    | Leased { sticky } ->
      let incoming = Sim.Pid.Set.add s.self (Sim.Pid.Set.of_list members) in
      (* before the first view change the view is the full pid range *)
      let l =
        match s.lease with
        | Some l -> l
        | None ->
          { members = Sim.Pid.Set.of_list (Sim.Pid.range s.n);
            view_epoch = 0;
            co_since = Sim.Pid.Map.empty;
            granted_in = Sim.Pid.Map.empty }
      in
      let grows =
        Sim.Pid.Set.cardinal incoming > Sim.Pid.Set.cardinal l.members
      in
      if Sim.Pid.Set.equal incoming l.members || (sticky && grows) then s
      else begin
        let view_epoch = l.view_epoch + 1 in
        (* peers entering the view restart their continuity clock:
           whatever they granted before they left is void *)
        let co_since =
          Sim.Pid.Set.fold
            (fun k acc ->
              if Sim.Pid.Set.mem k l.members then acc
              else Sim.Pid.Map.add k view_epoch acc)
            incoming l.co_since
        in
        let l = { l with members = incoming; view_epoch; co_since } in
        { s with lease = Some l }
      end

  let random_ts ~n rng =
    Timestamp.make
      ~clock:(Stdext.Rng.int rng 64)
      ~pid:(Stdext.Rng.int rng n)

  (* The lease is left alone: it mirrors the fault injector's own
     membership oracle, so corrupting it would corrupt the simulated
     membership service, not this process. *)
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
    (* REQ_j's domain is stamps of j's own clock: the pid component is
       structural, so "arbitrary corruption" randomizes the clock value
       only.  (A foreign pid would be outside the variable's domain, like
       assigning a string to an int.) *)
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
    (* Improper initialization: claims hungry with the zero request but
       told nobody. *)
    let s = init ~n self in
    { s with mode = View.Hungry }

  (* Everywhere-mode seeds: corruptions of the variables no message has
     justified — a mode nobody was told about, a received-set full of
     requests never sent.  Timestamps are left legitimate (zero-ish):
     the paper's reply rule intentionally replies to *earlier* requests
     even while eating, so clock corruption defeats any timestamp
     protocol; what separates the mutant is its behaviour on *later*
     requests, which these seeds expose within a handful of steps. *)
  let perturb ~n:_ s =
    let all_received = Sim.Pid.Set.of_list (peers s) in
    [ { s with mode = View.Hungry };
      { s with mode = View.Eating };
      { s with mode = View.Hungry; received = all_received };
      { s with received = all_received };
      reset ~n:s.n s.self ]
end
