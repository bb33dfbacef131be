(** UNITY temporal operators, checked over finite recorded traces.

    The paper states its specifications in UNITY (Chandy–Misra).  The
    clause monitors here need three operators: [p is invariant],
    primed-variable step relations, and [p ↝ q] (leads-to).  A
    simulator produces finite prefixes of computations, so the checkers
    come in two flavours:

    - {e safety} ([invariant], [step_invariant]) is decided
      definitively on a prefix — a violation is a violation;
    - {e liveness} ([leads_to]) can only be {e discharged} or left
      {e pending} on a prefix; the pending count at the end of a long
      run (with the system quiescent) is the empirical verdict.

    All checkers work on ['a list] traces for any snapshot type; the
    graybox layer instantiates ['a] with arrays of spec-level views. *)

type verdict =
  | Holds
  | Violated of { at : int; reason : string }
      (** safety violation at trace index [at] *)
  | Pending of { obligations : int list }
      (** liveness obligations opened at these indices and never
          discharged before the trace ended *)

val is_ok : verdict -> bool
(** [is_ok v] is [true] only for [Holds]. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** [pp_verdict] prints [holds], [violated at I: REASON], or
    [pending obligations at …] with each run of consecutive indices as
    one interval: [3-5,9,12-20]. *)

(** {2 Safety} *)

val invariant : ?name:string -> ('a -> bool) -> 'a list -> verdict
(** [invariant p tr]: [p] holds in every snapshot. *)

val step_invariant :
  ?name:string -> ('a -> 'a -> bool) -> 'a list -> verdict
(** [step_invariant r tr]: the relation [r previous next] holds for
    every consecutive snapshot pair — the form of the paper's
    primed-variable clauses such as [h.j ⇒ REQ'_j = REQ_j]. *)

(** {2 Liveness} *)

val leads_to : ?name:string -> p:('a -> bool) -> q:('a -> bool) -> 'a list -> verdict
(** [leads_to ~p ~q tr]: every snapshot satisfying [p] is followed
    (inclusively) by one satisfying [q].  Undischarged obligations are
    reported as [Pending]. *)

val ok_with_tail : trace_len:int -> margin:int -> verdict -> bool
(** [ok_with_tail ~trace_len ~margin v] accepts [Holds] and accepts
    [Pending] when every open obligation was opened within the final
    [margin] snapshots — the standard allowance when checking liveness
    on a finite prefix (the run simply ended mid-obligation).
    [Violated] is never accepted. *)

(** {2 Combinators} *)

val forall : (int -> verdict) -> int -> verdict
(** [forall f n] conjoins [f 0 … f (n-1)], returning the first
    non-[Holds] verdict — the paper's [(∀j :: …)] over process ids. *)

val forall_pairs : (int -> int -> verdict) -> int -> verdict
(** [forall_pairs f n] conjoins [f j k] over all ordered pairs
    [j ≠ k]. *)

val both : verdict -> verdict -> verdict
(** [both a b] conjoins two verdicts, preferring to report a violation
    over a pending obligation. *)

val all : verdict list -> verdict
