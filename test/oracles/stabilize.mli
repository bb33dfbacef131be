(** The stabilization analysis over a whole recorded trace, and the
    replay of a recorded trace through the product's fold.  These are
    the test oracles {!Graybox.Stabilize.Online} is held to: on the
    same snapshot sequence, [Online.analysis] equals {!analyse} and
    [Online.latency] equals {!service_round_latency} at
    [after = last fault index (or 0)], field for field. *)

val analyse : Graybox.Stabilize.vtrace -> Graybox.Stabilize.analysis
(** [analyse tr] computes the analysis, open intervals judged against
    the tail margin the trace's served waits set (the rule is stated
    in {!Graybox.Stabilize}). *)

val service_round_latency : Graybox.Stabilize.vtrace -> after:int -> int option
(** [service_round_latency tr ~after] is the number of simulated steps
    from snapshot index [after] until every process has completed at
    least one critical-section entry strictly after [after] — a
    recovery-latency measure that requires every process to be live
    again, so it scales with contention and ring size.  [None] if some
    process never re-enters within the trace. *)

val service_times : ?after:int -> Graybox.Stabilize.vtrace -> int list
(** [service_times ?after tr] lists the duration (in simulated steps)
    of every completed hungry-to-eating interval that starts at or
    after snapshot index [after] (default 0) — the per-request service
    latencies.  The product derives them from its entry stream instead
    (bench T3: each entry after the last fault waited from when its
    process turned hungry, or from the fault if that came later); the
    two are held equal in the test suite. *)

module Online : sig
  val of_trace : Graybox.Stabilize.vtrace -> Graybox.Stabilize.Online.t
  (** Fold a recorded trace, every snapshot fed with [~repeat:false]:
      the fold's general O(n) path, against which the repeat path of a
      streamed run is checked. *)
end
