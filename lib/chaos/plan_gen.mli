(** Randomized fault-plan generation over the protocol-independent
    {!Tme.Scenarios.fault_spec} vocabulary.

    A plan is a finite batch of transient faults — exactly the paper's
    §3.1 fault model ("any finite number of these faults") — sampled
    from a seeded {!Stdext.Rng} stream, so a campaign seed fully
    determines every plan it tries.  Every {!Tme.Scenarios.fault_spec}
    kind is in the draw pool (the test suite asserts that {!generate}
    eventually samples each constructor, so a new kind cannot be
    silently unsampled): message loss, duplication, corruption and
    reordering, channel flushes, windowed request loss (the §4
    deadlock injection), state corruption and improper
    reinitialization, crash/recover, process isolation — and, with
    [~partitions:true], healing group partitions and link delays.
    The partition family is opt-in so that default plan streams (and
    golden chaos reports) are unchanged draw for draw. *)

type config = { n : int; horizon : int; budget : int; partitions : bool }

val config :
  ?partitions:bool -> n:int -> horizon:int -> budget:int -> unit -> config
(** [config ~n ~horizon ~budget ()]: plans of [budget] fault events
    for an [n]-process run of [horizon] scheduler steps.  Fault times
    are kept inside the first ~60% of the horizon so every plan leaves
    a convergence tail.  [~partitions] (default [false]) adds
    {!Tme.Scenarios.Split} and {!Tme.Scenarios.Delay} to the draw
    pool.
    @raise Invalid_argument on [n < 2], [horizon < 10] or negative
    [budget]. *)

val generate : Stdext.Rng.t -> config -> Tme.Scenarios.fault_spec list
(** [generate rng cfg] samples one plan, sorted by injection time
    (stable, so same-time events keep their draw order).  Consumes a
    deterministic amount of [rng] per event. *)

val split_plan :
  Stdext.Rng.t -> config -> mode:Sim.Faults.heal_mode ->
  Tme.Scenarios.fault_spec list
(** [split_plan rng cfg ~mode] samples a plan holding exactly one
    group partition in the given heal mode (random two-sided group
    structure and window) — the campaign's partition-cell generator,
    where the cell must contain {e only} the partition so the gate
    genuinely tests heal recovery. *)

val spec_time : Tme.Scenarios.fault_spec -> int
(** Injection time of a spec (the window start for windowed kinds). *)

(** {2 Labels: the one text form of a plan}

    Campaign reports print {!spec_label}s and [graybox-cli run -f]
    reads them back with {!parse}: [parse (plan_label p) = Ok p] for
    every generated plan.  Per constructor: [drop-requests@T/K],
    [drop-requests@F-U], [drop@T/K], [duplicate@T/K],
    [corrupt-msgs@T/K], [reorder@T/K], [flush@T], [partition@F-U(pP)],
    [corrupt-state@T(PROCS)], [reset@T(PROCS)],
    [crash@F-U(PROCS[,lose])], [split@F-U({P,..}|..,lossy|buf)] and
    [delay@T(CHAN,DIST)], where PROCS is [any] or [pN], CHAN is [*],
    [pS->pD], [pS->*] or [*->pD], and DIST is [=D], [~uLO-HI],
    [~expMEAN/CAP] or [~expMEAN].  A heavy tail's label prints its cap
    only when the cap is not the generator's 120, and [parse] reads a
    label without one as cap 120, so every heavy tail round-trips. *)

val spec_label : Tme.Scenarios.fault_spec -> string
(** Compact one-token rendering, e.g. [crash@120-160(p2,lose)]. *)

val plan_label : Tme.Scenarios.fault_spec list -> string
(** Space-separated {!spec_label}s — the table/JSON rendering. *)

val parse : string -> (Tme.Scenarios.fault_spec list, string) result
(** [parse s] reads a space-separated plan of labels, and [burst@T] as
    the shorthand for {!Tme.Scenarios.burst}.  A negative number, a
    zero count, an empty window (crash and split windows are
    half-open, the others include [U]), a pid that is not a number or
    is in two split groups, a delay that names nothing (a self-channel
    [pN->pN], which no protocol sends on; a heavy-tail mean or cap of
    0), and any other token that is not a label are errors whose
    message names the token (and, for a token that is not a label, the
    accepted form). *)

val check :
  n:int -> steps:int -> Tme.Scenarios.fault_spec list -> (unit, string) result
(** [check ~n ~steps plan] holds when every fault starts before step
    [steps], every process a spec names is below [n], and every split
    cuts the [n] processes into at least two groups. *)

val pp_plan : Format.formatter -> Tme.Scenarios.fault_spec list -> unit
(** OCaml syntax for a whole plan (the JSON report's [shrunk_ocaml]),
    ready to drop into a test or an [examples/] program. *)
