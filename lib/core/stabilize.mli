(** Convergence analysis: did the system stabilize, and how fast?

    "C is stabilizing to A iff every computation of C has a suffix
    that is a suffix of some computation of A that starts at an
    initial state of A."  Over a recorded trace we judge the suffix
    behaviourally: from the convergence point onward, mutual exclusion
    is never violated, every hungry process is served, and every eater
    releases.  Obligations still open within [tail_margin] snapshots
    of the trace end are treated as in-progress rather than failed,
    since a finite trace always truncates some computation. *)

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
      (** processes whose final hungry interval exceeds [tail_margin]
          without being served — deadlock/starvation witnesses *)
  recovered : bool;
      (** [converged_index] exists — the headline verdict *)
}

val analyse : ?tail_margin:int -> vtrace -> analysis
(** [analyse ?tail_margin tr] computes the analysis.  [tail_margin]
    defaults to 300 snapshots. *)

(** Streaming analysis: the incremental restatement of {!analyse} and
    {!service_round_latency}, fed one view snapshot at a time so a run
    needs no recorded trace (O(n) state instead of O(steps × n)).  On
    the same snapshot sequence, {!Online.analysis} equals {!analyse}
    and {!Online.latency} equals {!service_round_latency} at
    [after = last fault index (or 0)] — field for field; the test
    suite asserts this across the protocol × wrapper × seed grid.
    This fold is what the product runs, streamed or over a recorded
    trace ({!Online.of_trace}); {!analyse} and {!service_round_latency}
    are its test oracles. *)
module Online : sig
  type t
  (** Mutable accumulator — create one per run. *)

  val create : ?tail_margin:int -> unit -> t
  (** Same [tail_margin] default (300) as {!analyse}. *)

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
  (** {!service_round_latency} measured from the last fault fed (or
      the start), maintained incrementally. *)

  val of_trace : ?tail_margin:int -> vtrace -> t
  (** Fold a recorded trace, every snapshot fed with [~repeat:false]:
      how a recorded scenario run computes its analysis. *)
end

val pp : Format.formatter -> analysis -> unit

val service_round_latency : vtrace -> after:int -> int option
(** [service_round_latency tr ~after] is the number of simulated steps
    from snapshot index [after] until every process has completed at
    least one critical-section entry strictly after [after] — a
    recovery-latency measure that requires every process to be live
    again, so it scales with contention and ring size.  [None] if some
    process never re-enters within the trace. *)

val service_times : ?after:int -> vtrace -> int list
(** [service_times ?after tr] lists the duration (in simulated steps)
    of every completed hungry-to-eating interval that starts at or
    after snapshot index [after] (default 0) — the per-request service
    latencies, for percentile reporting. *)
