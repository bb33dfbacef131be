(** Bounded exhaustive exploration of a TME protocol: every
    interleaving, not a sampled schedule.

    The simulator runs one (seeded) schedule at a time; qcheck samples
    many; this module enumerates {e all} of them, breadth-first, up to
    a depth bound, with visited-state deduplication.  The client is
    maximally nondeterministic — a thinking process may request at any
    time, an eating process may release at any time — so the explored
    behaviours over-approximate every client the harness can express.

    The checker is built for throughput and scale.  Process states and
    messages are hash-consed to small integer ids (deep hashing paid
    once per {e distinct} value, never per state), a global state is a
    flat int array, successor keys are spliced from the parent's by
    int blits into reusable scratch buffers, and transitions are
    memoized on ids — in steady state a successor costs no allocation
    and no protocol call.  The visited set is {e sharded by hash
    range}: each shard owns a slice of key space with its own probe
    table and key arena, so with [jobs > 1] the admission phase runs
    one domain per shard with no locking.  When the resident key
    arenas outgrow [mem_budget] words they are streamed to per-shard
    temp files ({!Stdext.Blockfile}) and deduplication falls back to
    stored ~125-bit fingerprints — visited capacity is bounded by
    disk, not RAM, and [stats] reports both the resident peak and the
    bytes spilled.  Queue entries carry a compact parent pointer
    instead of a trace (the counterexample path is rebuilt only on
    violation), so per-state memory is O(1) words.  Results —
    including the trace and every [stats] field — are {e identical for
    every [jobs] value and every [shards] value}: parallelism and
    sharding change wall-clock, never the answer.

    [por] enables a conservative partial-order reduction: at states
    that have a {e quiet receiver} — a hungry process with entry
    disabled whose pending deliveries are all silent and
    mode-preserving — only that process's deliveries are explored.
    Sound for mode-level predicates such as ME1 (the skipped
    interleavings are permutations reaching the same states; see
    EXPERIMENTS.md for the ample-set argument), and still
    deterministic across [jobs] and [shards].  It is {e off} by
    default and gated per protocol by the registry's [por_safe] flag:
    negative controls and ablations keep exhaustive semantics.

    Two exploration modes mirror the paper's central distinction
    (Figure 1 / Theorem 1) between [C ⇒ A]init and [C ⇒ A]:

    - {!check_me1} / {!check_invariant} explore from the proper
      initial states — the [init] side;
    - {!check_everywhere} additionally seeds the frontier with a
      bounded enumeration of {e perturbed} states (per-process
      corruptions from {!Graybox.Protocol.S.perturb}, plus arbitrary
      in-flight messages), so an implementation that is only correct
      from initial states is exposed within a handful of steps even
      where the init-mode check at the same depth finds nothing.  The
      test suite demonstrates the discrimination on a mutant
      Ricart–Agrawala and on Lamport's unmodified program. *)



type stats = {
  name : string;  (** the invariant this exploration checked *)
  explored : int;  (** states whose predicate was evaluated *)
  visited : int;  (** distinct states admitted to the visited set *)
  frontier_peak : int;  (** widest BFS level *)
  depth_reached : int;
  truncated : bool;  (** hit the depth or state bound before closure *)
  peak_mem_words : int;
      (** peak resident visited-set words (hot key arenas plus the
          3-word per-state index; probe-table geometry excluded so the
          figure is identical across shard counts) *)
  spill_bytes : int;  (** bytes streamed to spill files, 0 if none *)
}

type 'v result =
  | Ok of stats
      (** no reachable violation within the bounds *)
  | Violation of {
      trace : string list;
      witness : 'v;
      path : 'v list;
      stats : stats;
    }
      (** [trace] is the action-label path from the initial state; in
          everywhere mode its first element names the seeding
          perturbation (["corrupt(p#i)"] or ["inflight(src->dst,m)"]).
          [path] is the state sequence the trace traverses — seed
          state first, violating state last, one entry per action
          label plus one — as data for counterexample-guided callers
          ({!Oracle}, [Synth]); like [trace] it is identical for every
          [jobs] and [shards] value. *)

val check_me1 :
  ?wrapper:Graybox.Wrapper.t ->
  (module Graybox.Protocol.S) -> n:int -> ?jobs:int -> ?shards:int ->
  ?max_depth:int -> ?max_states:int -> ?mem_budget:int -> ?spill_dir:string ->
  ?por:bool -> unit -> Graybox.View.t array result
(** [check_me1 proto ~n ()] explores the protocol with [n] processes
    from its initial states under every interleaving of client steps
    and FIFO deliveries, checking mutual exclusion (at most one eater)
    in every reachable state.  Default bounds: [max_depth = 30],
    [max_states = 200_000]; [max_states] is a hard bound on the
    visited set.  [jobs] (default 1) sets the expansion domain count
    and [shards] (default [min jobs 64], max 64) the visited-set shard
    count; every combination returns the same result.  [mem_budget]
    (default unlimited) caps resident visited-key words — beyond it,
    key arenas spill to temp blockfiles under [spill_dir] (default the
    system temp dir; files are removed on exit).  [por] (default
    false) enables the quiet-receiver partial-order reduction; only
    set it for protocols the registry marks [por_safe].

    [wrapper] (all four checks) box-composes a {!Graybox.Wrapper} DSL
    term with the protocol: every process gains a correction action
    that, when the term's guard holds of its view, sends the term's
    messages to the term's targets (state unchanged).  The checker
    abstracts the [W'(δ)] timer to zero — it explores the
    timer-expired interleavings, which contain every behaviour of the
    rate-limited wrapper — and never re-sends a correction that is
    already in flight on the same channel (the state space would
    otherwise be unbounded in the channel dimension).  [wrapper] and
    [por] are mutually exclusive: the ample-set argument ignores
    wrapper moves.
    @raise Invalid_argument when both are supplied. *)

val check_invariant :
  ?wrapper:Graybox.Wrapper.t ->
  (module Graybox.Protocol.S) -> n:int -> ?jobs:int -> ?shards:int ->
  ?max_depth:int -> ?max_states:int -> ?mem_budget:int -> ?spill_dir:string ->
  ?por:bool -> name:string -> (Graybox.View.t array -> bool) ->
  Graybox.View.t array result
(** [check_invariant proto ~n ~name p] checks an arbitrary view-level
    state predicate the same way.  [p] must be pure — with [jobs > 1]
    it runs on several domains at once — and must not retain its
    argument array, which is reused between states (the [witness] of a
    {!Violation} is a private copy).  [name] is echoed in [stats.name]
    so reports can say which invariant failed.  With [~por:true] the
    predicate must additionally depend on the views' {e modes} only
    (as ME1 does): the reduction treats mode-preserving deliveries as
    invisible. *)

val check_me1_everywhere :
  ?wrapper:Graybox.Wrapper.t ->
  (module Graybox.Protocol.S) -> n:int -> ?jobs:int -> ?shards:int ->
  ?max_depth:int -> ?max_states:int -> ?mem_budget:int -> ?spill_dir:string ->
  ?por:bool -> unit -> Graybox.View.t array result
(** Like {!check_me1}, but the frontier is seeded with perturbed
    states — every {!Graybox.Protocol.S.perturb} corruption of every
    process, plus single arbitrary in-flight messages on every
    channel — capped at 256 seeds beyond the initial state.  This is
    the paper's everywhere-exploration: a protocol that merely
    implements the spec from Init generally fails it. *)

val check_everywhere :
  ?wrapper:Graybox.Wrapper.t ->
  (module Graybox.Protocol.S) -> n:int -> ?jobs:int -> ?shards:int ->
  ?max_depth:int -> ?max_states:int -> ?mem_budget:int -> ?spill_dir:string ->
  ?por:bool -> name:string ->
  (Graybox.View.t array -> bool) -> Graybox.View.t array result
(** Everywhere-mode {!check_invariant}. *)

val replay :
  ?wrapper:Graybox.Wrapper.t ->
  (module Graybox.Protocol.S) -> n:int -> string list ->
  Graybox.View.t array option
(** [replay proto ~n trace] re-executes an init-mode counterexample
    trace (the labels of a {!Violation}) from the initial state and
    returns the views it ends in, or [None] if some label does not
    name an enabled transition — the independent check that a reported
    trace really is an execution.  Everywhere-mode traces start from a
    perturbed seed and cannot be replayed from Init.  [wrapper] makes
    the composed wrapper's [wrap(p)] labels replayable. *)

(** The model-checking oracle behind wrapper synthesis ([Synth]): one
    reusable answer to "is this candidate term a wrapper for P?",
    returned as data.  {!check} runs two legs:

    - {e safety}: everywhere-mode ME1 of the wrapped system over the
      state-corruption seed closure (in-flight-message seeds are
      excluded — a forged reply delivered in one step defeats any
      view-reading wrapper at this abstraction; message faults remain
      covered by the chaos campaign's statistical gates);
    - {e recovery}: from every §4 wedge seed (requests lost in flight;
      the all-lost wedge has {e no} enabled transition without a
      wrapper), the system must reach the CS again — from each
      singleton wedge(p), process [p] itself; from the all-lost wedge,
      {e some} process (enough to break the deadlock: candidates are
      pid-symmetric, and demanding the lowest-priority process would
      push the bounded search through every full CS rotation).

    Verdicts, counterexample traces and paths are identical for every
    [jobs] and [shards] value, so a synthesis transcript built on this
    oracle is deterministic by construction. *)
module Oracle : sig
  type obligation =
    | Safety  (** the candidate let ME1 break *)
    | Recovery of int
        (** process [p] could not reach the CS from its wedge(p) seed *)
    | Progress
        (** no process could reach the CS from the all-lost wedge *)

  type cex = {
    obligation : obligation;
    seed : string;  (** seeding perturbation (or wedge) label *)
    trace : string list;  (** action labels; empty for recovery *)
    path : Graybox.View.t array list;
        (** states along the trace (for recovery: the wedge state the
            candidate failed to leave) *)
    fired : (int * Graybox.View.t) list;
        (** the candidate's firings along the trace — (process, its
            view at the firing) — the states the counterexample blames
            on the candidate *)
    stats : stats list;
        (** exploration stats of every run up to and including the
            refuting one, so callers can account oracle work on
            refuted candidates too *)
  }

  type verdict =
    | Safe of stats list  (** both legs passed; one stats per run *)
    | Cex of cex

  val obligation_label : obligation -> string
  (** ["safety"], ["recovery(p)"], ["progress"]. *)

  val checker :
    (module Graybox.Protocol.S) -> n:int -> ?jobs:int -> ?shards:int ->
    ?safety_depth:int -> ?recovery_depth:int -> ?max_states:int ->
    ?mem_budget:int -> ?spill_dir:string -> unit ->
    Graybox.Wrapper.t -> verdict
  (** [checker proto ~n ()] is a reusable oracle: applied to a
      candidate, it certifies or refutes it.  Defaults:
      [safety_depth = 8], [recovery_depth = 14], [max_states =
      200_000].  [jobs]/[shards]/[mem_budget] tune the underlying
      explorations without changing any verdict.

      A checker owns one interning and transition-memo context and one
      workspace of run storage (visited-set slot arrays, arena pages
      and index buffers, candidate buckets and filters, frontier
      buffers), and runs every leg of every candidate it is given on
      them.  Each run resets the workspace when it starts; applying a
      checker to a new candidate drops the wrapper's memos, the only
      ones that depend on the candidate.  The verdict, its trace and
      path, and every [stats] field, [peak_mem_words] and
      [spill_bytes] included, are exactly those of a fresh checker:
      no result depends on storage history or interned-id numbering.

      - A checker is not thread-safe: apply it from one domain at a
        time (its own [jobs] may still fan each run out).
      - It lives as long as the caller keeps it, and there is no
        process-wide cache: two checkers share nothing.
      - Its intern tables grow to the union of the process states and
        messages that all its runs reach, and the checker's limit of
        2^20 distinct messages applies to that union.
      - It keeps the storage of its largest run until it is dropped.

      A leg whose run ends without a violation at [visited =
      max_states] did not search exhaustively: the state bound, not
      closure or depth, may have stopped it ([stats.truncated] does not
      say which bound bit).  A [Safe] whose safety leg is such a run,
      or a [Recovery]/[Progress] [Cex] whose refuting leg is, proves
      nothing; callers must read it as inconclusive ([Synth] does).
      @raise Invalid_argument on senseless arguments ([n] outside
      1..64, [shards] outside 1..64, [mem_budget < 1]) when the
      checker is built, and on [jobs < 1] or [max_states < 1] when it
      is applied. *)

  val check :
    (module Graybox.Protocol.S) -> n:int -> ?jobs:int -> ?shards:int ->
    ?safety_depth:int -> ?recovery_depth:int -> ?max_states:int ->
    ?mem_budget:int -> ?spill_dir:string ->
    Graybox.Wrapper.t -> verdict
  (** [check proto ~n candidate] is the one-shot form, [checker proto
      ~n () candidate]. *)
end
