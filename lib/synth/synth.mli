(** CEGIS over the wrapper DSL: enumerate level-2 guard terms in size
    order, prune with learned counterexamples, certify with the
    model-checking oracle.

    The paper derives its wrapper [W] by hand from the Lspec proof
    obligations; this module asks whether the harness can find it.
    The search space is {!Graybox.Wrapper}'s guard/send language —
    mode predicates, boolean connectives, peer-timestamp quantifiers,
    a target filter, and a send kind — and the specification is
    {!Mcheck.Oracle.check}: everywhere-mode ME1 over the corruption
    closure (safety) plus re-entry from every §4 wedge (recovery and
    progress).  The loop is classic counterexample-guided synthesis:

    - candidates are enumerated in {e size order} (ties broken by a
      fixed total order, targets restrictive-first), so the first
      certified term is size-minimal and, within its size tier, sends
      the least;
    - a {e safety} counterexample is generalized to its blamed
      firings: any future candidate reproducing one of those exact
      observable firings (same send kind, same view, same target set)
      is pruned without an oracle call;
    - a {e recovery}/{e progress} counterexample is generalized to a
      must-fire obligation: future candidates that cannot fire from
      any view of the stuck wedge are pruned — this single example
      eliminates whole guard families (wrong mode, never-true tests)
      after one oracle call;
    - the language has no timer: the oracle abstracts the timer to
      zero, so a timer gate would be invisible to certification — δ
      rate-limiting is applied at registration ([Harness.On]),
      exactly as [W'] refines [W] in the paper.

    Determinism: candidates are dispatched in fixed-width batches over
    {!Stdext.Pool.map} (input-ordered results) and admitted against
    the example set as of the previous batch, and the oracle's
    verdicts are themselves [jobs]/[shards]-invariant — so the full
    transcript, every count, and the synthesized term are identical
    for every [jobs] value.  A synthesis builds [min jobs 8] reusable
    checkers ({!Mcheck.Oracle.checker}), one per pool slot, and gives
    each a fixed slice of every batch, so no checker serves two
    domains at once; a reused checker's verdicts are a fresh
    oracle's, so the slicing cannot move the transcript either. *)

type config = {
  n : int;  (** ring size the oracle certifies at *)
  jobs : int;  (** pool width for fanning candidate checks *)
  max_size : int;  (** largest term size enumerated *)
  max_checks : int;  (** oracle-call budget *)
  safety_depth : int;
  recovery_depth : int;
  max_states : int;  (** per-oracle-run visited-state bound *)
}

val config :
  ?n:int -> ?jobs:int -> ?max_size:int -> ?max_checks:int ->
  ?safety_depth:int -> ?recovery_depth:int -> ?max_states:int -> unit ->
  config
(** Defaults: [n = 2], [jobs = 1], [max_size = 5], [max_checks = 64],
    [safety_depth = 8], [recovery_depth = 14], [max_states = 200_000].
    @raise Invalid_argument on senseless values ([n] outside 2..64,
    [max_size < 3], non-positive [jobs]/[max_checks]/[max_states]). *)

type outcome =
  | Certified  (** the oracle passed both legs *)
  | Refuted of Mcheck.Oracle.obligation  (** which leg failed *)
  | Inconclusive
      (** a leg ended without a violation after its visited set reached
          [max_states]: it did not search exhaustively, so its answer
          is neither a certificate nor a counterexample to learn from *)
  | Pruned_must_fire
      (** cannot fire from any view of a learned stuck wedge *)
  | Pruned_blamed
      (** reproduces a blamed firing of an earlier safety cex *)

type attempt = { index : int; term : Graybox.Wrapper.t; outcome : outcome }
(** One transcript line; [index] is the candidate's position in the
    enumeration (pruned candidates included). *)

type result = {
  synthesized : Graybox.Wrapper.t option;
      (** the first certified candidate, or [None] if the budget or
          the enumeration ran out *)
  attempts : attempt list;  (** in enumeration order *)
  enumerated : int;  (** total candidates in the enumerated space *)
  checked : int;  (** oracle calls spent *)
  pruned : int;  (** candidates rejected without an oracle call *)
  oracle_runs : int;  (** exploration runs across all oracle calls *)
  oracle_states : int;  (** states explored across all oracle calls *)
}

val candidates : config -> Graybox.Wrapper.t list
(** The search space: every term up to [max_size], in the order the
    loop tries them (351 terms at the default [max_size]). *)

val outcome_label : outcome -> string
(** ["certified"], ["cex-safety"], ["cex-recovery(p)"],
    ["cex-progress"], ["inconclusive"], ["pruned-must-fire"],
    ["pruned-blamed"]. *)

val synthesize : (module Graybox.Protocol.S) -> config -> result
(** [synthesize proto cfg] runs the loop to the first certified
    candidate or the budget's end.  For Ricart-Agrawala the result is
    {!Graybox.Wrapper.w_refined} — the paper's refined [W_j] — found
    after two oracle-informative batches (the test suite asserts the
    coincidence). *)
