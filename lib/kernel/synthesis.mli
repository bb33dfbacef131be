(** Automatic synthesis of stabilization wrappers (the research
    direction the paper closes with: "Another direction we are
    pursuing is automatic synthesis of graybox dependability").

    Given an action system [a] and a specification [spec] (typically
    [to_tsys a]'s legitimate part, but any same-space {!Tsys.t}), the
    synthesizer produces a correction action — a set of edges from
    illegitimate states back into the specification's initialized
    part — such that [a □ W] is stabilizing to [spec] under weak
    fairness ({!Actsys.is_fairly_stabilizing_to}).

    Under the plain path semantics no wrapper can ever help: box is
    union, so every behaviour of [a] survives composition.  Fairness
    is what makes synthesis meaningful — a correction enabled at every
    state of a would-be settlement region must eventually fire.
    Consequently a correction edge is needed at {e every} state of
    every "viable bad settlement" (a strongly connected state set
    that fairness allows and that contains an illegitimate
    transition), and at every illegitimate dead end.  {!needs_correction}
    computes that state set exactly (by subset enumeration — systems
    must be small); {!synthesize} turns it into a wrapper and verifies
    the result. *)

val needs_correction : Actsys.t -> spec:Tsys.t -> int list
(** [needs_correction a ~spec] lists the states at which a correction
    action must be enabled: members of viable bad settlements, and
    illegitimate dead ends.  Empty iff [a] is already fairly
    stabilizing to [spec]. *)

val correction_targets : spec:Tsys.t -> int list
(** [correction_targets ~spec] lists sensible states to correct {e to}:
    the specification's initialized reachable states. *)

val synthesize : ?target:int -> Actsys.t -> spec:Tsys.t -> Actsys.t option
(** [synthesize ?target a ~spec] returns the wrapper action system [w]
    (a single action named ["correct"], sending every state of
    {!needs_correction} to [target], default: the first correction
    target), or [None] when the spec has no initialized reachable
    state to escape to.  Postcondition (verified before returning,
    [assert]ed): [Actsys.box a w] is fairly stabilizing to [spec]. *)

val is_minimal : Actsys.t -> spec:Tsys.t -> wrapper:Actsys.t -> bool
(** [is_minimal a ~spec ~wrapper] checks that removing any single
    correction edge from [wrapper] — from whichever of its actions
    carries the edge, the others kept intact — breaks fair
    stabilization; a wrapper with no edges at all is vacuously
    non-minimal.  The synthesized wrapper is minimal in this
    edge-wise sense whenever every corrected state lies in some bad
    settlement on its own (which {!needs_correction} guarantees).
    Multi-action wrappers (e.g. one action per corrected region) are
    measured the same way, edge by edge. *)
