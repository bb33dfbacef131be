(** The protocol registry: one metadata-driven dispatch layer.

    The paper's point is that a single graybox wrapper is {e reused}
    across many implementations — RA, the modified Lamport program,
    deliberately broken controls.  This module is the repository's
    rendering of that reuse as data: every implementation is one
    {!entry} carrying its module, its experimental {!role}, the chaos
    {!expectation} it should be swept under, a default wrapper delta,
    and its capabilities.  Scenarios, the chaos campaign, the model
    checker's CLI, and the bench harness all dispatch through the
    table, so adding protocol #9 (or a synthesized one) is a one-line
    registration, not a five-file hunt.

    The registry itself is name-agnostic: an entry's [name] is read
    off the protocol module ({!Protocol.S.name}), so each name literal
    exists exactly once in the tree — at the module that defines it.
    Registration happens at module-initialization time of the
    registration site ({!Tme.Scenarios}); every executable that talks
    about protocols links it, so the table is full before any [main]
    runs. *)

type role =
  | Reference
      (** an everywhere-implementation of Lspec: the wrapper is
          expected to rescue it from any transient fault *)
  | Negative_control
      (** deliberately not everywhere-correct (e.g. Lamport's
          unmodified program, the kept-reply RA mutant): wrapped runs
          must still fail, or the harness has lost its teeth *)
  | Ablation
      (** a partially-modified variant for the modification-ablation
          experiment: runs correctly from Init but is not gated on
          recovery *)
  | Synthesized
      (** a reference implementation registered {e with} a machine-found
          wrapper term ([wrapper_term]): the campaign and scenarios run
          it under that term instead of the hand-written [W'(δ)], so
          the synthesized wrapper faces the same chaos gates *)

type expectation =
  | Expect_recover  (** chaos gate: every wrapped run must recover *)
  | Expect_failure  (** chaos gate: at least one run must fail *)
  | Observe  (** informational only *)

(** What a {e wrapped} run of this protocol should do after a group
    partition ({!Sim.Faults.Split}) heals — the registry side of the
    PARTITION experiment, gated by the campaign's partition cells the
    same way {!expectation} gates the chaos cells. *)
type partition_expectation =
  | Recovers_after_heal
      (** every wrapped partition run must converge after the heal —
          including under the buffered heal-time message flood *)
  | Deadlocks
      (** under a {e lossy} heal at least one run must fail to
          recover (lost cross-partition messages leave unservable
          protocol state the wrapper cannot retract); the buffered
          cell is informational, since nothing is lost there *)
  | Partition_observe  (** measured, not gated *)

(** What a {e wrapped} run of this protocol should do {e while} a
    group partition is open — the during-partition half of the
    regime-epoch specs ({!Tme_spec.Epoch}); the heal side is
    {!partition_expectation}.  Gated by the campaign's during-split
    cells against the epoch monitors' safety verdict (per-group ME1
    plus the cross-heal dual-holder obligation). *)
type during_partition =
  | Weak_me1
      (** degrades explicitly to per-group mutual exclusion: every
          wrapped during-split run must be epoch-safe, {e and} at
          least one run must enter the CS while the split is open —
          availability inside severed groups is the point of the
          degradation *)
  | Wedge
      (** refuses service across the split rather than degrade: runs
          must still be epoch-safe (trivially, nobody new enters), but
          no during-split availability is required *)
  | Unsafe
      (** violates even per-group ME1 or lets dual holders survive the
          heal: at least one wrapped during-split run must be caught
          epoch-unsafe, or the epoch monitors have lost their teeth *)

type entry = {
  name : string;  (** {!Protocol.S.name} of [proto], the lookup key *)
  proto : (module Protocol.S);
  role : role;
  expectation : expectation;
      (** how a {e wrapped} chaos cell over this protocol is gated
          (unwrapped cells are demoted — see {!demote_unwrapped}) *)
  partition_expectation : partition_expectation;
      (** how the campaign's heal-recovery partition cells
          ([--partitions]) over this protocol are gated *)
  during_partition : during_partition;
      (** how the campaign's during-split cells are gated: the
          regime-epoch verdict expected while a partition is open *)
  default_delta : int;  (** wrapper timeout for default sweeps *)
  lspec_monitorable : bool;
      (** the Lspec / TME_Spec monitors apply to this implementation's
          views (false for the central-coordinator baseline, whose
          coordinator is not a specification-level process) *)
  por_safe : bool;
      (** partial-order reduction ([mcheck --por]) may be applied when
          model-checking mode-level invariants of this entry: [role =
          Reference].  The reduction itself guards its ample sets
          dynamically; this flag is {e policy}: negative controls and
          ablations exist to produce comparable counterexamples, so
          their sweeps stay exhaustive *)
  synthesizable : bool;
      (** [graybox-cli synth] accepts this entry as a synthesis
          target: the CEGIS loop ([Synth]) can enumerate wrapper
          candidates and certify one against the model-checking oracle
          ({!Mcheck.Oracle}).  [role = Reference &&
          lspec_monitorable]: the oracle's monitors need spec-level
          views (every [perturb] enumerates the safety leg's
          seeds) *)
  wrapper_term : Wrapper.t option;
      (** for [Synthesized] entries: the wrapper-DSL term this entry
          is run under — scenarios and the campaign use
          [On {term; delta}] with this term instead of the hand-written
          {!Wrapper.w_refined} wherever this is [Some] *)
  sweep_rank : int option;
      (** position in the default chaos sweep ([None] = not swept by
          default); {!default_sweep} orders by rank *)
  doc : string;  (** one-line description for listings *)
}

val entry :
  ?role:role ->
  ?expectation:expectation ->
  ?partition_expectation:partition_expectation ->
  ?during_partition:during_partition ->
  ?delta:int ->
  ?lspec_monitorable:bool ->
  ?wrapper_term:Wrapper.t ->
  ?sweep_rank:int ->
  doc:string ->
  (module Protocol.S) ->
  entry
(** Smart constructor.  [name] is taken from the module.  Defaults:
    [role = Reference]; [expectation] follows the role ([Reference |
    Synthesized -> Expect_recover], otherwise [Expect_failure]);
    [partition_expectation] likewise ([Reference ->
    Recovers_after_heal], [Negative_control -> Deadlocks], [Ablation |
    Synthesized -> Partition_observe] — a synthesized wrapper is
    certified against wedges, not partitions); [during_partition]
    likewise ([Reference | Ablation | Synthesized -> Wedge] — the
    classical programs block on severed quorums — [Negative_control ->
    Unsafe]); [delta = 8]; [lspec_monitorable = true];
    [wrapper_term] defaults to [None]; no sweep rank.  [por_safe] and
    [synthesizable] are derived, never set (see their fields). *)

val register : entry -> unit
(** Append to the table.  Registration order is the listing order of
    {!all}.
    @raise Invalid_argument on an empty name or a duplicate. *)

val all : ?role:role -> unit -> entry list
(** Every entry, in registration order; [?role] filters. *)

val names : ?role:role -> unit -> string list
(** [List.map (fun e -> e.name) (all ?role ())]. *)

val find : string -> entry option
val mem : string -> bool

val find_protocol : string -> (module Protocol.S) option
(** The module alone, for callers that only dispatch. *)

val default_sweep : unit -> string list
(** Names of the ranked entries, ordered by [sweep_rank] — the default
    chaos-campaign protocol list. *)

val default_reference : unit -> entry option
(** The first registered [Reference] — the canonical demo protocol
    (used for CLI defaults and the campaign's deadlock canary). *)

val por_safe_names : unit -> string list
(** Names of the entries for which [mcheck --por] is allowed; for
    capability error messages. *)

val synthesizable_names : unit -> string list
(** Names of the entries [graybox-cli synth] accepts; for capability
    error messages. *)

val role_label : role -> string
(** ["reference"], ["negative-control"], ["ablation"],
    ["synthesized"]. *)

val expectation_label : expectation -> string
(** ["recover"], ["fail"], ["observe"] — the labels the chaos report
    (and its JSON) uses. *)

val partition_expectation_label : partition_expectation -> string
(** ["recovers-after-heal"], ["deadlocks"], ["observe"]. *)

val during_partition_label : during_partition -> string
(** ["weak-me1"], ["wedge"], ["unsafe"]. *)

(** {2 The expectation lattice}

    Every campaign cell is gated by an {!expectation}, obtained by
    reading the entry's registered metadata through the demotions
    below.  This block is the {e only} statement of the rules — the
    campaign applies these functions verbatim and documents nothing of
    its own.

    Base readings:
    - a standard chaos cell is gated by [entry.expectation] directly;
    - a heal-recovery partition cell by {!expectation_of_partition}
      ([Recovers_after_heal -> Expect_recover], [Deadlocks ->
      Expect_failure], [Partition_observe -> Observe]);
    - a during-split cell by {!expectation_of_during} ([Weak_me1 |
      Wedge -> Expect_recover] over the {e epoch-safety} verdict —
      every run must satisfy per-group ME1 and the cross-heal
      obligation, with [Weak_me1] additionally requiring during-split
      CS entries in at least one run — and [Unsafe -> Expect_failure]:
      at least one run must be caught epoch-unsafe).

    Demotions, applied to the base reading:
    - {!demote_unwrapped}, for any cell run without the wrapper:
      [Expect_recover -> Observe] — only wrapped runs owe recovery (or
      epoch-safety); failure gates survive, since a protocol that is
      broken unwrapped must still demonstrate it;
    - {!demote_buffered}, for partition cells under a buffered heal:
      [Expect_failure -> Observe] — a buffered heal loses nothing, so
      an entry expected to deadlock (or to be epoch-unsafe) under loss
      may legitimately crawl back. *)

val expectation_of_partition : partition_expectation -> expectation

val expectation_of_during : during_partition -> expectation

val demote_unwrapped : expectation -> expectation

val demote_buffered : expectation -> expectation

val unknown_protocol_message : string -> string
(** [unknown_protocol_message name] is the one shared error string for
    a failed lookup: [unknown protocol "name" (known: ...)]. *)
