(** The common machinery of Ricart-Agrawala, shared by the correct
    implementation ({!Ra_me}) and a deliberately faulty mutant
    ({!Ra_mutant}) used to validate the bounded model checker's
    discrimination (see test/test_mcheck.ml).  The single configuration
    point is the receive-request reply condition:

    - the paper's rule replies iff [t.j \/ REQ_k lt REQ_j] — an eating
      process defers every later request until release;
    - the mutant replies whenever it is not hungry — including while
      eating — which lets two processes eat at once.  This is a real
      bug this repository had during development; the model checker
      finds it within a dozen steps. *)

module type CONFIG = sig
  val name : string

  val defer_while_eating : bool
  (** [true] is the paper's rule; [false] is the mutant. *)
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
    req : Timestamp.t;  (* REQ_j *)
    local_req : Timestamp.t Sim.Pid.Map.t;
        (* j.REQ_k; an absent key reads as [Timestamp.zero ~pid:k], so
           large systems start sparse (see {!Sim.Pid.dense_threshold})
           without changing a single observable value *)
    received : Sim.Pid.Set.t;  (* received(j.REQ_k): request pending reply *)
  }

  let name = C.name

  let peers s = Sim.Pid.others ~self:s.self ~n:s.n

  let local_req_of s k =
    match Sim.Pid.Map.find_opt k s.local_req with
    | Some ts -> ts
    | None -> Timestamp.zero ~pid:k

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
      received = Sim.Pid.Set.empty }

  let view s =
    View.make ~self:s.self ~mode:s.mode ~req:s.req ~local_req:s.local_req
      ~clock:(Logical_clock.now s.clock)

  let request_cs s =
    let clock, ts = Logical_clock.tick s.clock in
    let s = { s with clock; req = ts; mode = View.Hungry } in
    (s, List.map (fun k -> (k, Msg.Request ts)) (peers s))

  (* ∀k ≠ j: REQ_j lt j.REQ_k — an early-exit loop over the pid range
     rather than a materialized peers list: across the n-1 attempts a
     grant takes as replies trickle in, the expected total is O(n log n)
     reads (the failing k moves right as replies arrive), not O(n^2). *)
  let earliest s =
    let rec go k =
      k >= s.n
      || ((k = s.self || Timestamp.lt s.req (local_req_of s k)) && go (k + 1))
    in
    go 0

  let try_enter s =
    if s.mode = View.Hungry && earliest s then begin
      let clock, _entry_ts = Logical_clock.tick s.clock in
      Some ({ s with clock; mode = View.Eating }, [])
    end
    else None

  (* Walking [received] (ascending, like the peers list it replaces)
     costs O(deferred), not O(n) — only processes that actually sent a
     pending request are candidates. *)
  let deferred_set s =
    Sim.Pid.Set.fold
      (fun k acc ->
        if Timestamp.lt s.req (local_req_of s k) then k :: acc else acc)
      s.received []
    |> List.rev

  let release_cs s =
    let deferred = deferred_set s in
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
      (* Reply iff t.j ∨ REQ_k lt REQ_j: an eating process defers every
         later request until it releases.  The mutant (defer_while_eating
         = false) also replies while eating — the seeded safety bug. *)
      let replies_now =
        if C.defer_while_eating then
          s.mode = View.Thinking || Timestamp.lt req_k req
        else s.mode <> View.Hungry || Timestamp.lt req_k req
      in
      let received =
        if replies_now then Sim.Pid.Set.remove from s.received
        else Sim.Pid.Set.add from s.received
      in
      ( { s with clock; req; local_req; received },
        if replies_now then [ (from, Msg.Reply (Logical_clock.read clock)) ]
        else [] )
    | Msg.Reply r | Msg.Release r ->
      (* A reply counts as a grant only if it postdates our request;
         stale replies (pre-fault leftovers, duplicates) are absorbed. *)
      if Timestamp.lt req r then
        ( { s with clock; req; local_req = Sim.Pid.Map.add from r s.local_req },
          [] )
      else ({ s with clock; req }, [])

  let random_ts ~n rng =
    Timestamp.make
      ~clock:(Stdext.Rng.int rng 64)
      ~pid:(Stdext.Rng.int rng n)

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

  let membership_aware = false
  let on_view_change ~members:_ s = s

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

  let pp ppf s =
    Format.fprintf ppf "ra[%d %a req=%a lc=%d recv={%a}]" s.self View.pp_mode
      s.mode Timestamp.pp s.req
      (Logical_clock.now s.clock)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      (Sim.Pid.Set.elements s.received)

end
