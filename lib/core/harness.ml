(** Composition of implementation □ wrapper □ client into a runnable
    node, plus the oracle layer the test monitors need.

    The box operator of the paper composes systems by unioning their
    actions; here that union is literal: a node's enabled actions are
    the protocol's client-driven actions, the client's think/eat
    ticks, and — when enabled — the wrapper's correction action, and
    the scheduler interleaves them.  The wrapper action reads only
    [P.view], never [P.state]: grep this file and {!Wrapper} for the
    graybox boundary.

    The oracle layer (vector clocks piggybacked on message envelopes
    and entry/request bookkeeping) exists solely for the monitors —
    it is invisible to protocol and wrapper and is never corrupted by
    fault injection, because it represents ground-truth causality
    rather than system state. *)

open Stdext
open Clocks

type wrapper_mode =
  | Off
  | On of { term : Wrapper.t; delta : int }
      (** [delta = 0] is the paper's [W]; [delta > 0] is [W'(δ)]. *)

type params = {
  n : int;
  wrapper : wrapper_mode;
  passive : Sim.Pid.t list;
      (** processes whose client never requests the critical section;
          they still participate in the protocol (receive, reply).
          TME permits this — and it is the situation in which
          Lamport's program needs the release echo (see
          {!Tme.Lamport_core}) *)
}

let params ?(wrapper = Off) ?(passive = []) ~n () =
  if n <= 1 then invalid_arg "Harness.params: need at least two processes";
  if List.exists (fun p -> p < 0 || p >= n) passive then
    invalid_arg "Harness.params: passive pid out of range";
  (match wrapper with
   | On { delta; _ } when delta < 0 ->
     invalid_arg "Harness.params: wrapper delta must be >= 0"
   | On _ | Off -> ());
  { n; wrapper; passive }

(** One CS entry, as recorded by the oracle for the FCFS monitor. *)
type entry_record = {
  entry_time : int;  (** engine time of the entry step *)
  entry_pid : Sim.Pid.t;
  entry_req : Timestamp.t;  (** the request this entry served *)
  entry_req_vc : Vector_clock.t;  (** causal stamp of that request *)
}

module Make (P : Protocol.S) = struct
  type envelope = { payload : Msg.t; ovc : Vector_clock.t }

  type node = {
    params : params;
    self : Sim.Pid.t;
    proto : P.state;
    view : View.t;  (** [P.view proto], recomputed wherever [proto] changes *)
    timer : int;  (** wrapper timeout counter, domain [0 .. δ] *)
    think_left : int;
    eat_left : int;
    client_rng : Rng.t;
    ovc : Vector_clock.t;  (** oracle vector clock *)
    req_vc : Vector_clock.t;  (** oracle stamp of the current request *)
    entries : int;  (** oracle CS-entry counter *)
  }

  let view node = node.view

  (* a client thinks for 2-8 ticks and eats for 1-3 (CS Spec: finite) *)
  let draw_think rng = Rng.int_in rng 2 8
  let draw_eat rng = Rng.int_in rng 1 3

  let make params ~client_seed self proto =
    let client_rng = Rng.create (client_seed + (7919 * (self + 1))) in
    { params;
      self;
      proto;
      view = P.view proto;
      timer = 0;
      think_left = draw_think client_rng;
      eat_left = 0;
      client_rng;
      ovc = Vector_clock.create ~n:params.n;
      req_vc = Vector_clock.create ~n:params.n;
      entries = 0 }

  let init params ~client_seed self =
    make params ~client_seed self (P.init ~n:params.n self)

  let wrap_sends node sends =
    List.map (fun (dst, m) -> (dst, { payload = m; ovc = node.ovc })) sends

  module Node = struct
    type state = node
    type msg = envelope

    (* Every action that changes [proto] refreshes [view] in the same
       record update, so [view] is a field read everywhere else. *)

    let receive ~self:_ ~from { payload; ovc } node =
      let proto, sends = P.on_message ~from payload node.proto in
      let node =
        { node with
          proto;
          view = P.view proto;
          ovc = Vector_clock.tick (Vector_clock.merge node.ovc ovc) node.self }
      in
      (node, wrap_sends node sends)

    (* The action closures below capture nothing — each reads
       everything from the node it is applied to — so the singleton
       action lists are allocated once at functor instantiation and
       [actions] allocates nothing beyond the occasional append.  The
       scheduler calls [actions] for every process at every step, so
       this is the simulator's hottest allocation site. *)

    let act_think =
      [ ("think", fun node -> ({ node with think_left = node.think_left - 1 }, []))
      ]

    let act_request_cs =
      [ ("request-cs",
         fun node ->
           let proto, sends = P.request_cs node.proto in
           let ovc = Vector_clock.tick node.ovc node.self in
           let node =
             { node with proto; view = P.view proto; ovc; req_vc = ovc }
           in
           (node, wrap_sends node sends)) ]

    let act_enter_cs =
      [ ("enter-cs",
         fun node ->
           match P.try_enter node.proto with
           | None -> (node, [])  (* guard raced with nothing: keep state *)
           | Some (proto, sends) ->
             let node =
               { node with
                 proto;
                 view = P.view proto;
                 ovc = Vector_clock.tick node.ovc node.self;
                 entries = node.entries + 1;
                 eat_left = draw_eat node.client_rng }
             in
             (node, wrap_sends node sends)) ]

    let act_eat =
      [ ("eat", fun node -> ({ node with eat_left = node.eat_left - 1 }, [])) ]

    let act_release_cs =
      [ ("release-cs",
         fun node ->
           let proto, sends = P.release_cs node.proto in
           let node =
             { node with
               proto;
               view = P.view proto;
               ovc = Vector_clock.tick node.ovc node.self;
               think_left = draw_think node.client_rng }
           in
           (node, wrap_sends node sends)) ]

    let act_wrapper_tick =
      [ ("wrapper-tick", fun node -> ({ node with timer = node.timer - 1 }, []))
      ]

    let act_wrapper_fire =
      [ (Wrapper.action_label,
         fun node ->
           match node.params.wrapper with
           | Off -> (node, []) (* unreachable: guarded by [wrapper_actions] *)
           | On { term; delta } ->
             (* enabled only once the timer has expired *)
             let sends = Wrapper.eval term node.view ~n:node.params.n in
             let node = { node with timer = delta } in
             (node, wrap_sends node sends)) ]

    let client_actions v node =
      match v.View.mode with
      | View.Thinking when List.mem node.self node.params.passive -> []
      | View.Thinking when node.think_left > 0 -> act_think
      | View.Thinking -> act_request_cs
      | View.Hungry ->
        (match P.try_enter node.proto with
         | None -> []
         | Some _ -> act_enter_cs)
      | View.Eating when node.eat_left > 0 -> act_eat
      | View.Eating -> act_release_cs

    let wrapper_actions v node =
      match node.params.wrapper with
      | Off -> []
      | On { term; delta } ->
        (* the term's guard at an expired timer enables the wrapper;
           the timer then rate-limits firing, and at delta > 0 a firing
           with no target still resets it, as the paper's W' does *)
        let n = node.params.n in
        if not (Wrapper.guard_holds term.guard v ~n) then []
        else if node.timer > 0 then act_wrapper_tick
        else if delta <> 0 || Wrapper.eval term v ~n <> [] then
          act_wrapper_fire
        else []

    let actions ~self:_ node =
      let v = node.view in
      match wrapper_actions v node with
      | [] -> client_actions v node
      | w -> (match client_actions v node with [] -> w | c -> c @ w)
  end

  module Run = Sim.Engine.Make (Node)

  let make_engine params ~seed =
    Run.create ~n:params.n ~seed
      ~init:(init params ~client_seed:(seed * 31 + 17))

  let view_trace trace =
    trace
    |> Sim.Trace.map_states view
    |> Sim.Trace.map_msgs (fun e -> e.payload)

  let views engine = Array.map view (Run.states engine)

  let total_entries engine =
    Array.fold_left (fun acc node -> acc + node.entries) 0 (Run.states engine)

  (** {2 Protocol-aware fault constructors} *)

  let corrupt_node rng node =
    let proto = P.corrupt rng node.proto in
    let timer =
      match node.params.wrapper with
      | Off -> node.timer
      | On { delta; _ } -> Rng.int rng (delta + 1)
    in
    { node with proto; view = P.view proto; timer }

  let fault_corrupt_process proc : (node, envelope) Sim.Faults.kind =
    Mutate_state { proc; f = corrupt_node }

  let fault_reset_process params proc : (node, envelope) Sim.Faults.kind =
    let f p = make params ~client_seed:(p + 101) p (P.reset ~n:params.n p) in
    Reset_state { proc; f }

  let fault_drop_requests chan ~count : (node, envelope) Sim.Faults.kind =
    Drop { chan; count; only = Some (fun e -> Msg.is_request e.payload) }

  let fault_drop_any chan ~count : (node, envelope) Sim.Faults.kind =
    Drop { chan; count; only = None }

  let fault_corrupt_messages params chan ~count :
      (node, envelope) Sim.Faults.kind =
    Corrupt_messages
      { chan;
        count;
        f =
          (fun rng e ->
            { e with payload = Msg.corrupt ~n:params.n rng e.payload }) }

  let fault_duplicate chan ~count : (node, envelope) Sim.Faults.kind =
    Duplicate { chan; count }

  let fault_reorder chan ~count : (node, envelope) Sim.Faults.kind =
    Reorder { chan; count }

  let fault_flush chan : (node, envelope) Sim.Faults.kind = Flush chan

  (* Not a fault at all from the protocol's point of view: the
     simulated group membership service announcing each process's
     connected group.  Lowered as [Mutate_state] so the engine stays
     protocol-agnostic; scheduled only for [membership_aware]
     protocols, so the rest see plans identical to before the GMS
     existed. *)
  let fault_view_change ~members_of : (node, envelope) Sim.Faults.kind =
    Mutate_state
      { proc = Any_proc;
        f =
          (fun _rng node ->
            let proto =
              P.on_view_change ~members:(members_of node.self) node.proto
            in
            { node with proto; view = P.view proto }) }
end
