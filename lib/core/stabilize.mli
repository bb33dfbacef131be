(** Convergence analysis: did the system stabilize, and how fast?

    "C is stabilizing to A iff every computation of C has a suffix
    that is a suffix of some computation of A that starts at an
    initial state of A."  Over a run's snapshots we judge the suffix
    behaviourally: from the convergence point onward, mutual exclusion
    is never violated, every hungry process is served, and every eater
    releases.

    A finite run always truncates some computation, so a process still
    hungry (or eating) at the end is judged against the run's own
    service.  The {e mean wait} is ⌈the mean⌉ of the hungry intervals
    served (closed into Eating) since the last fault, counting only
    those that began at or after it.  While the run is {e serving}
    (some process entered Eating within its last [max 300 mean wait]
    snapshots) the {e tail margin} is [max 300 (4 × mean wait)]
    snapshots; otherwise, and while nothing has been served since the
    fault, it is the floor, 300.  An interval still open at the end is
    in progress while it is shorter than the margin, and starving or
    stuck once it reaches it.  So a slow but healthy round (large [n],
    a wrapper's extra traffic) lifts the margin with the waits it
    actually served, while a deadlock, whether it wedges at the fault
    or after some service, is judged as with a fixed 300.

    The product computes the analysis one way: {!Online}, a fold fed
    one view snapshot at a time, so a run needs no recorded trace
    (O(n) state instead of O(steps × n)).  Its whole-trace
    restatements live in the test suite's oracle library
    ([test/oracle]); on the same snapshot sequence the fold equals
    them field for field, asserted across the protocol × wrapper ×
    seed grid. *)

type vtrace = (View.t, Msg.t) Sim.Trace.t

type analysis = {
  trace_len : int;
  last_fault_index : int option;
      (** index of the last injected fault, if any *)
  converged_index : int option;
      (** earliest index from which the legitimate-suffix criteria
          hold to the end of the trace *)
  recovery_steps : int option;
      (** simulated steps from the last fault (or trace start) to the
          convergence point; [Some 0] when never perturbed/immediate *)
  me1_violations : int;
      (** snapshots violating mutual exclusion after the last fault *)
  starving : Sim.Pid.t list;
      (** processes whose final hungry interval, still open at the
          end, spans at least [tail_margin] snapshots —
          deadlock/starvation witnesses *)
  tail_margin : int;
      (** the margin the open intervals were judged against:
          [max 300 (4 × mean wait)] while the run is serving, else 300
          (the rule above) *)
  recovered : bool;
      (** [converged_index] exists — the headline verdict *)
}

module Online : sig
  type t
  (** Mutable accumulator — create one per run. *)

  val create : unit -> t

  val feed : t -> time:int -> fault:bool -> repeat:bool -> View.t array -> unit
  (** [feed t ~time ~fault ~repeat views] consumes the next snapshot:
      its engine [time], whether it is a fault event, and the
      post-event views.  The array is read during the call only (safe
      to reuse).  [~repeat:true] promises that every view has the mode
      it had in the previous snapshot fed: such a snapshot costs O(1)
      (a fault adds O(n)), any other O(n).  [~repeat:false] is always
      correct. *)

  val analysis : t -> analysis
  (** The analysis of the snapshots fed so far. *)

  val latency : t -> int option
  (** The service round since the last fault fed (or the start): the
      simulated steps until every process has completed at least one
      critical-section entry after it — a recovery-latency measure
      that requires every process to be live again, so it scales with
      contention and ring size.  [None] while some process has not
      re-entered. *)
end

val pp : Format.formatter -> analysis -> unit
