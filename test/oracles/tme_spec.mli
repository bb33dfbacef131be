(** TME_Spec (paper §3.1) over a whole recorded trace: ME1 mutual
    exclusion, ME2 starvation freedom, ME3 first-come first-serve,
    restated with the {!Unityspec} operators, and the replay of a
    recorded trace through the product's epoch fold.  These are the
    test oracles {!Graybox.Tme_spec.Epoch} is held to. *)

type vtrace = (Graybox.View.t, Graybox.Msg.t) Sim.Trace.t

val me1 : vtrace -> Unityspec.Temporal.verdict
(** [(∀j,k :: e.j ∧ e.k ⇒ j = k)]: at most one process eats. *)

val me2 : n:int -> vtrace -> Unityspec.Temporal.verdict
(** [(∀j :: h.j ↝ e.j)]: every hungry process eventually eats. *)

val me3 : Graybox.Harness.entry_record list -> Unityspec.Temporal.verdict
(** FCFS over the oracle entry log: if [a]'s request happened-before
    [b]'s request (exact, via oracle vector clocks), then [a]'s entry
    precedes [b]'s in the trace.  The log must be in trace order. *)

val check_all :
  n:int -> entries:Graybox.Harness.entry_record list -> vtrace ->
  Unityspec.Report.t
(** The three clauses under {!Graybox.Tme_spec.clauses}' labels. *)

module Epoch : sig
  val of_trace :
    timeline:Sim.Regime.timeline ->
    n:int ->
    entries:Graybox.Harness.entry_record list ->
    vtrace ->
    Graybox.Tme_spec.Epoch.report
  (** Offline recomputation: replay a recorded trace (entries fed at
      their ["enter-cs"] events) through the product's fold, every
      snapshot fed with [~repeat:false]. *)
end
