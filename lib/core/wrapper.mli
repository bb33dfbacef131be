(** The graybox stabilization wrapper for TME (paper §4), as a
    first-class guard/send language.

    The level-2 wrapper reestablishes mutual consistency between
    processes.  Its entire interface to the wrapped system is the
    specification-level {!View.t}:

    {v W_j  ::  h.j → (∀k : k ≠ j ∧ j.REQ_k lt REQ_j : send(REQ_j, j, k)) v}

    and its timeout refinement (an everywhere implementation of [W_j],
    hence by Theorem 4 itself a valid wrapper):

    {v W'_j ::  timer.j = 0 ∧ h.j →
          (∀k : k ≠ j ∧ j.REQ_k lt REQ_j : send(REQ_j, j, k));
          timer.j := δ v}

    Rather than hard-coding [W_j], this module defines the small AST
    it lives in — mode predicates, peer timestamp tests, boolean
    connectives, and a guarded broadcast — together with an evaluator,
    a printer in the paper's notation, and a size measure.
    {!w_refined} and {!w_unrefined} are the hand-written wrappers as
    closed terms; the synthesizer ([Synth]) enumerates the same
    language in size order and asks the model-checking oracle to
    certify candidates.  The timer is not part of the language: [W'_j]
    is a term under the harness's δ timer,
    [Harness.On { term = w_refined; delta }], and the harness runs a
    hand-written and a synthesized term the same way
    ({!Harness.wrapper_mode}).

    No level-1 wrapper is needed: Lspec already captures per-process
    internal consistency, so any everywhere implementation is
    internally consistent in every state (paper §4). *)

(** {2 The guard/send AST} *)

type mode_pred = Is_thinking | Is_hungry | Is_eating
(** The paper's [t.j] / [h.j] / [e.j]. *)

(** A per-peer timestamp test, evaluated at peer [k] of the view's
    process [j]. *)
type peer_test =
  | Any_peer  (** true — quantification over [k ≠ j] alone *)
  | Peer_lt_own  (** [j.REQ_k lt REQ_j] — the refined [W_j] test *)
  | Own_lt_peer  (** [REQ_j lt j.REQ_k] — the [earliest.j] ingredient *)

type guard =
  | Mode of mode_pred
  | Not of guard
  | And of guard * guard
  | Or of guard * guard
  | Exists_peer of peer_test  (** [∃k : k ≠ j : test] *)
  | Forall_peer of peer_test  (** [∀k : k ≠ j : test] *)

(** What the wrapper sends to each selected peer.  [Send_request] is
    the only correct choice for TME ([send(REQ_j, j, k)]); the reply
    and release kinds exist so the synthesizer can propose — and the
    oracle refute — reply-forging candidates. *)
type send = Send_request | Send_reply | Send_release

type t = {
  guard : guard;  (** when the wrapper fires *)
  target : peer_test;  (** which peers it corrects *)
  send : send;  (** what it sends them *)
}
(** A wrapper term: [guard → (∀k : k ≠ j ∧ target : send)]. *)

(** {2 Evaluation} *)

val guard_holds : guard -> View.t -> n:int -> bool
(** [guard_holds g v ~n] evaluates [g] over the view of a process
    among [n]; the quantifiers range over the view's peers [k ≠ j],
    [0 ≤ k < n].  It allocates nothing. *)

val term_targets : t -> View.t -> n:int -> Sim.Pid.t list
(** The peers a term would correct: empty unless the guard holds,
    otherwise the peers passing [t.target]. *)

val eval : t -> View.t -> n:int -> (Sim.Pid.t * Msg.t) list
(** [eval t v ~n] is the term's send list — the wrapper.  This
    function {e is} the wrapper: note its type mentions no
    implementation state. *)

(** {2 The hand-written wrappers as closed terms} *)

val w_unrefined : t
(** The paper's first, coarser [W_j]: [h.j → (∀k : k ≠ j : send(REQ_j, j, k))]. *)

val w_refined : t
(** The paper's final [W_j]: targets only [j.REQ_k lt REQ_j] peers. *)

(** {2 Measure, order, printing} *)

val guard_size : guard -> int

val size : t -> int
(** AST size: guard nodes (quantifiers pay for their test) + 2 for the
    target/send pair.  {!w_refined} has size 3; the synthesizer's
    size-ordered enumeration climbs to it. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val mode_pred_to_string : mode_pred -> string
val peer_test_to_string : peer_test -> string
val guard_to_string : guard -> string
val send_to_string : send -> string

val to_string : t -> string
(** The paper's notation, e.g. [w_refined]:
    ["h.j -> (forall k : j.REQ_k lt REQ_j : send(REQ_j, j, k))"]. *)

val pp : Format.formatter -> t -> unit

val action_label : string
(** The engine action label under which wrapper sends are attributed
    in {!Sim.Metrics} (["wrapper"]). *)
