(** The asynchronous execution engine.

    The paper's system model: processes communicate solely by message
    passing over FIFO channels; execution is asynchronous (every
    process at its own speed, arbitrary finite transmission delays).
    The engine realises this as a randomized interleaving scheduler: at
    each step it picks — deterministically from the seed — one enabled
    move, either the delivery of some channel's head message or an
    enabled internal action of some process.  Random interleaving makes
    every enabled move occur with probability 1 in long runs, which is
    the probabilistic counterpart of the weak fairness the UNITY
    [leads-to] obligations assume.

    The engine is a functor so that protocols, wrappers, and clients
    compose outside of it; it knows nothing about mutual exclusion. *)

module type NODE = sig
  type state
  (** A process's complete local state (protocol + any composed
      wrapper/client state). *)

  type msg

  val receive :
    self:Pid.t -> from:Pid.t -> msg -> state -> state * (Pid.t * msg) list
  (** [receive ~self ~from m s] handles delivery of [m], returning the
      new state and messages to send as [(destination, payload)]. *)

  val actions :
    self:Pid.t -> state -> (string * (state -> state * (Pid.t * msg) list)) list
  (** [actions ~self s] lists the internal actions currently enabled at
      [s], each with a label (used for trace readability and for
      attributing the messages it sends in {!Metrics}).  The scheduler
      picks at most one per step. *)
end

module Make (N : NODE) : sig
  type t

  val create : n:int -> seed:int -> init:(Pid.t -> N.state) -> t
  (** [create ~n ~seed ~init] builds the initial global state of [n]
      processes with empty channels ("Init" in the paper's Lspec).
      Each step draws one enabled move at random from the [seed]'s
      schedule stream, a pending delivery with weight 2 and an enabled
      internal action with weight 1; equal seeds give equal
      executions.  The engine keeps incremental move indexes (a Fenwick
      tree of per-process action counts and the network's live-channel
      index), so a step costs O(log n).
      @raise Invalid_argument if [n <= 0]. *)

  (** {2 Observation} *)

  val time : t -> int
  val n_processes : t -> int
  val state : t -> Pid.t -> N.state
  val states : t -> N.state array
  (** [states t] is a copy; mutating it does not affect the engine. *)

  val network : t -> N.msg Network.t
  (** [network t] is the engine's network itself, not a copy: read it,
      and mutate it only through {!apply_fault}. *)

  val metrics : t -> Metrics.t

  val crashed : t -> Pid.t -> bool
  (** [crashed t p] holds while a {!Faults.Crash} window covers [p]: the
      process takes no internal actions and receives no deliveries until
      its recovery time.  In lose-deliveries mode its inbound channels
      are drained at each step while the window lasts. *)

  val quiescent : t -> bool
  (** [quiescent t] holds when no move is enabled, no process is
      inside a crash window, {e and} no message is staged for later
      delivery (delayed or buffered behind a partition) — the
      execution is permanently quiescent: every future fault-free step
      is a [Stutter] that changes nothing.  The sound early-exit test
      for streaming runs (deadlocks). *)

  (** {2 Streaming observation}

      Observers are the engine's only output.  Each receives one
      {!Observer.step} on attachment ([Init]), after each [step] and
      after each [apply_fault].  An observer is a step sink; the folds
      it feeds keep their own state (see [Tme.Scenarios.run]), and a
      recorded trace is one more observer ({!recorder}). *)

  val add_observer : t -> (N.state, N.msg) Observer.sink -> unit
  (** [add_observer t f] registers [f] (called in registration order)
      and immediately feeds it an [Init] step of the current state:
      attached right after {!create}, [f] sees the run from its
      initial state. *)

  val recorder : t -> unit -> (N.state, N.msg) Trace.t
  (** [recorder t] attaches an observer that keeps one {!Trace.snapshot}
      per step it sees (a copy of the states and the network's
      contents, see {!Network.capture}) and returns the reader of the
      chronological trace so far.  Attach it right after {!create} to
      record from [Init]; recording costs O(n + occupied channels) per
      step in time and memory, so it is for the readers that need the
      trace itself (Lspec's clauses, the tests) at small n.  A verdict
      is a fold: attach an observer instead. *)

  (** {2 Mutation} *)

  val set_state : t -> Pid.t -> N.state -> unit
  (** Direct state override — exposed for tests and custom faults. *)

  val step : t -> (N.state, N.msg) Trace.event
  (** [step t] executes one scheduler move (or a [Stutter] when
      nothing is enabled), advances time by one, and notifies the
      observers.  The moves, in order, are the [d] channels with a
      deliverable head into a process outside any crash window, by
      (src, dst), then the [i] enabled actions of those processes, by
      pid and then in [N.actions] order; a draw [r] of
      [Rng.int (2d + i)] takes delivery [r / 2] when [r < 2d], else
      action [r - 2d]. *)

  val apply_fault : t -> (N.state, N.msg) Faults.kind -> unit
  (** [apply_fault t k] injects [k] now and notifies the observers of
      a [Fault] event.  Does not advance time. *)

  val run : ?plan:(N.state, N.msg) Faults.plan -> steps:int -> t -> unit
  (** [run ?plan ~steps t] executes [steps] scheduler steps, injecting
      each planned fault just before the step at its scheduled time. *)

  val run_until :
    ?plan:(N.state, N.msg) Faults.plan -> max_steps:int ->
    stop:(t -> bool) -> t -> int option
  (** [run_until ?plan ~max_steps ~stop t] steps until [stop t] holds
      (checked before each step, once the plan is exhausted), returning
      the time at which it held, or [None] after [max_steps]. *)
end
