(** Composition of implementation □ wrapper □ client into a runnable
    node, plus the oracle layer the test monitors need.

    The box operator of the paper composes systems by unioning their
    actions; here that union is literal: a node's enabled actions are
    the protocol's client-driven actions, the client's think/eat
    ticks, and — when enabled — the wrapper's correction action, and
    the scheduler interleaves them.  The wrapper action reads only
    [P.view], never [P.state]: this module and {!Wrapper} are the
    graybox boundary.

    The oracle layer (vector clocks piggybacked on message envelopes,
    request stamps, entry counters) exists solely for the monitors —
    it is invisible to protocol and wrapper and is never corrupted by
    fault injection, because it represents ground-truth causality
    rather than system state. *)

type wrapper_mode =
  | Off
  | On of { term : Wrapper.t; delta : int }
      (** the wrapper [term] — hand-written ({!Wrapper.w_refined}) or
          synthesized — under the timeout [delta]: [delta = 0] is the
          paper's [W], [delta > 0] is [W'(δ)].  The term's guard,
          evaluated at an expired timer, enables the wrapper.  While
          the timer runs the wrapper ticks it down; once it has
          expired the wrapper fires when [delta > 0] or its send list
          is nonempty, and firing resets the timer to [delta].  So at
          [delta > 0] a firing with no target still restarts the
          timeout, as the paper's [W'] does. *)

type params = {
  n : int;
  wrapper : wrapper_mode;
  passive : Sim.Pid.t list;
      (** processes whose client never requests the critical section;
          they still participate in the protocol (receive, reply).
          TME permits this — and it is the situation in which
          Lamport's program needs the release echo (see
          [Tme.Lamport_core]) *)
}

val params :
  ?wrapper:wrapper_mode -> ?passive:Sim.Pid.t list -> n:int -> unit -> params
(** [params ~n ()] with defaults: no wrapper, no passive processes.
    Every client thinks for a uniform 2–8 ticks and occupies the CS for
    1–3 (CS Spec: finite).
    @raise Invalid_argument on [n < 2], passive pids out of range, or
    a wrapper [delta < 0]. *)

(** One CS entry, as recorded by the oracle for the FCFS monitor. *)
type entry_record = {
  entry_time : int;  (** engine time of the entry step *)
  entry_pid : Sim.Pid.t;
  entry_req : Clocks.Timestamp.t;  (** the request this entry served *)
  entry_req_vc : Clocks.Vector_clock.t;  (** causal stamp of that request *)
}

module Make (P : Protocol.S) : sig
  (** Message envelope: the protocol payload plus the oracle's vector
      clock (never read by protocol or wrapper). *)
  type envelope = { payload : Msg.t; ovc : Clocks.Vector_clock.t }

  (** A full node: protocol state composed with its cached view,
      wrapper timer, client counters, and the oracle.

      [view] is [P.view proto], computed once wherever [proto] changes
      (receive, request, enter, release, corrupt, reset, view change)
      and read as a field by the scheduler's [actions], the wrapper and
      the streaming observers — a node is re-examined far more often
      than its protocol state changes.  The record is [private] so that
      only this module builds nodes: code elsewhere reads every field
      but cannot pair a [proto] with a stale [view]. *)
  type node = private {
    params : params;
    self : Sim.Pid.t;
    proto : P.state;
    view : View.t;  (** = [P.view proto], kept in step by every update *)
    timer : int;  (** wrapper timeout counter, domain [0 .. δ] *)
    think_left : int;
    eat_left : int;
    client_rng : Stdext.Rng.t;
    ovc : Clocks.Vector_clock.t;  (** oracle vector clock *)
    req_vc : Clocks.Vector_clock.t;  (** oracle stamp of current request *)
    entries : int;  (** oracle CS-entry counter *)
  }

  val view : node -> View.t
  (** The graybox projection of a composed node: its cached [view]
      field, equal to [P.view] of its protocol state. *)

  val init : params -> client_seed:int -> Sim.Pid.t -> node

  module Node : Sim.Engine.NODE with type state = node and type msg = envelope

  module Run : module type of Sim.Engine.Make (Node)

  val make_engine : params -> seed:int -> Run.t
  (** [make_engine params ~seed] is a fresh engine over [params.n]
      initial nodes.  Nothing is recorded unless a caller attaches
      {!Run.recorder}. *)

  val view_trace : (node, envelope) Sim.Trace.t -> (View.t, Msg.t) Sim.Trace.t
  (** A recorded trace ({!Run.recorder}) projected to spec level: views
      and bare messages. *)

  val views : Run.t -> View.t array
  (** Current views of all processes. *)

  val total_entries : Run.t -> int

  (** {2 Protocol-aware fault constructors}

      These lower the generic fault kinds onto this protocol's
      representation (its [corrupt]/[reset] hooks, request-payload
      recognition), plus wrapper-timer corruption where relevant. *)

  val corrupt_node : Stdext.Rng.t -> node -> node

  val fault_corrupt_process :
    Sim.Faults.proc_selector -> (node, envelope) Sim.Faults.kind

  val fault_reset_process :
    params -> Sim.Faults.proc_selector -> (node, envelope) Sim.Faults.kind

  val fault_drop_requests :
    Sim.Faults.chan_selector -> count:int -> (node, envelope) Sim.Faults.kind

  val fault_drop_any :
    Sim.Faults.chan_selector -> count:int -> (node, envelope) Sim.Faults.kind

  val fault_corrupt_messages :
    params -> Sim.Faults.chan_selector -> count:int ->
    (node, envelope) Sim.Faults.kind

  val fault_duplicate :
    Sim.Faults.chan_selector -> count:int -> (node, envelope) Sim.Faults.kind

  val fault_reorder :
    Sim.Faults.chan_selector -> count:int -> (node, envelope) Sim.Faults.kind

  val fault_flush : Sim.Faults.chan_selector -> (node, envelope) Sim.Faults.kind

  val fault_view_change :
    members_of:(Sim.Pid.t -> Sim.Pid.t list) -> (node, envelope) Sim.Faults.kind
  (** The group membership service speaking: every process receives
      {!Protocol.S.on_view_change} with [members_of self].  Scheduled
      by the scenario layer at partition open and heal, and only for
      [membership_aware] protocols — classical protocols never see
      these events, so their plans (and traces) are unchanged. *)
end
