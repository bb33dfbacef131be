(** Executable monitors for Lspec (paper §3.2).

    Each function checks one clause of the local everywhere
    specification over a recorded view-level trace
    ([(View.t, Msg.t) Sim.Trace.t]).  Safety clauses are checked
    exactly; the [eventually send …] obligations are checked in their
    observable form — the inconsistency the send is meant to resolve
    must be transient.

    Everywhere implementations satisfy every clause from {e every}
    state, so these monitors must hold on fault-free traces {e and} on
    any trace suffix, including suffixes that start right after
    injected faults.  (Exception: a fault event itself may break the
    safety clauses at its own transition — monitors are therefore run
    on fault-free segments; see {!Stabilize} for the post-fault
    analysis.)

    A note on [j.REQ_k] for Lamport's program: the paper defines it
    through the relation [REQ_j lt j.REQ_k ≡ grant.j.k ∧ …], so the
    view's [local_req] is an encoding chosen to satisfy that relation;
    the invariant-I-style clauses are exact for Ricart–Agrawala (where
    [j.REQ_k] is a concrete variable) and encoding-faithful for
    Lamport. *)

type vtrace = (View.t, Msg.t) Sim.Trace.t

val structural : n:int -> vtrace -> Unityspec.Temporal.verdict
(** Exactly one of [t.j], [h.j], [e.j] — guaranteed by the [mode]
    variant type, checked for completeness. *)

val flow : n:int -> vtrace -> Unityspec.Temporal.verdict
(** [(t.j unless h.j) ∧ (h.j unless e.j) ∧ (e.j unless t.j)]. *)

val cs : n:int -> vtrace -> Unityspec.Temporal.verdict
(** [e.j ↝ ¬e.j]: the client leaves the critical section. *)

val request_safety : n:int -> vtrace -> Unityspec.Temporal.verdict
(** While [h.j] persists, [REQ_j] is unchanged. *)

val request_liveness : n:int -> vtrace -> Unityspec.Temporal.verdict
(** If [j] is hungry and some [k] has not heard [REQ_j] (nor is a
    request in flight to it), that situation is transient. *)

val reply_liveness : n:int -> vtrace -> Unityspec.Temporal.verdict
(** If [j] knows an earlier pending request of [k], then [k]'s request
    makes progress (Reply Spec's observable consequence). *)

val cs_entry_safety : n:int -> vtrace -> Unityspec.Temporal.verdict
(** [j] enters the CS only from a state where
    [∀k ≠ j : REQ_j lt j.REQ_k]. *)

val cs_entry_liveness : n:int -> vtrace -> Unityspec.Temporal.verdict
(** [(h.j ∧ (∀k : REQ_j lt j.REQ_k)) ↝ e.j]. *)

val cs_release : n:int -> vtrace -> Unityspec.Temporal.verdict
(** [t.j ⇒ REQ_j = ts.j]: while thinking, the request variable tracks
    the most current event's timestamp. *)

val timestamp_spec : n:int -> vtrace -> Unityspec.Temporal.verdict
(** Logical clocks are monotone, and a delivery pulls the receiver's
    clock to at least the message timestamp's clock value. *)

val communication_fifo : n:int -> vtrace -> Unityspec.Temporal.verdict
(** Channels evolve only by head-removal on delivery and tail-appends
    on sends (checked structurally between consecutive snapshots;
    fault transitions are exempt). *)

val init_spec : n:int -> vtrace -> Unityspec.Temporal.verdict
(** The paper's Init: all thinking, [REQ_j = 0], [ts.j = 0], empty
    channels — checked at the first snapshot. *)

val check_all : n:int -> vtrace -> Unityspec.Report.t
(** All clauses, as a named report. *)
