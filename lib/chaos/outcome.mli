(** Outcome classification of a chaos run.

    A run's {!Graybox.Stabilize.analysis} already answers "did the run
    converge to a legitimate suffix"; a campaign additionally wants to know {e
    how} a run failed, so every run is bucketed into one of five
    verdicts. *)

type verdict =
  | Recovered  (** converged to a legitimate suffix after the last fault *)
  | Me1_violation
      (** mutual exclusion violated after the last fault — the safety
          failure *)
  | Starvation
      (** some (but not all) processes hungry forever — a liveness
          failure *)
  | Deadlock  (** every process starving: the §4 scenario's signature *)
  | Unstable
      (** no legitimate suffix, yet no starving process and no ME1
          violation — e.g. churn that never settles *)

val all : verdict list

val label : verdict -> string
(** Short stable identifier, used in tables and JSON ([recovered],
    [me1-violation], [starvation], [deadlock], [unstable]). *)

val classify : n:int -> Graybox.Stabilize.analysis -> verdict
(** [classify ~n a] buckets an analysis over [n] processes.  The first
    matching rule wins: recovered, ME1 violation, deadlock (all [n]
    starving), starvation (some starving), unstable. *)

val is_failure : verdict -> bool
(** Everything except {!Recovered}. *)
