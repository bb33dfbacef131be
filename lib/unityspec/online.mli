(** Incremental monitors: the operators of {!Temporal}, consumable one
    snapshot at a time.

    Offline checking records the whole trace and then folds the
    operators over it; for long benchmark runs that is memory the
    engine need not spend.  An online monitor carries its own state,
    is fed each snapshot as it is produced, and yields at any moment
    the verdict of the corresponding offline operator on the prefix
    seen so far (exact equivalence is property-tested in the test
    suite).  Monitors are persistent values: [feed] returns a new
    monitor, so snapshotting a monitor is free. *)

type 'a t

val verdict : 'a t -> Temporal.verdict
(** [verdict m] is the offline verdict on the prefix fed so far. *)

val feed : 'a t -> 'a -> 'a t

val feed_all : 'a t -> 'a list -> 'a t

val run : 'a t -> 'a list -> Temporal.verdict
(** [run m tr] = [verdict (feed_all m tr)]. *)

val invariant : ?name:string -> ('a -> bool) -> 'a t

val step_invariant : ?name:string -> ('a -> 'a -> bool) -> 'a t

val unless : ?name:string -> ('a -> bool) -> ('a -> bool) -> 'a t
(** [unless ?name p q]. *)

val stable : ?name:string -> ('a -> bool) -> 'a t

val leads_to : ?name:string -> ('a -> bool) -> ('a -> bool) -> 'a t
(** [leads_to ?name p q]. *)

val leads_to_always : ?name:string -> ('a -> bool) -> ('a -> bool) -> 'a t
(** [leads_to_always ?name p q]. *)

val all : 'a t list -> 'a t
(** [all ms] conjoins monitors, combining verdicts with
    {!Temporal.both}. *)

val contramap : ('b -> 'a) -> 'a t -> 'b t
(** [contramap f m] adapts a monitor to a richer snapshot type — e.g.
    a view-level monitor to engine snapshots, or to an
    {!Sim.Observer} step stream. *)

val stateful :
  init:'s -> step:('s -> 'a -> 's * Temporal.verdict) -> 'a t
(** [stateful ~init ~step] builds a custom monitor from a state
    machine: each feed applies [step] to the carried state and the
    snapshot, yielding the new state and the verdict so far.  The
    verdict before any input is [Holds]; a [Violated] verdict latches
    (further input is ignored), like every safety monitor here.  For
    properties — such as FCFS over an entry stream — that no
    combination of the per-snapshot operators above expresses. *)
