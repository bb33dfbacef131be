(** Executable monitors for TME_Spec (paper §3.1):
    ME1 mutual exclusion, ME2 starvation freedom, ME3 first-come
    first-serve.

    Theorem 5 states that every implementation of Lspec implements
    TME_Spec from initial states; these monitors are the empirical
    check — they must hold on every fault-free trace of a conforming
    implementation, and (by Theorem 8) on a suffix of every faulty
    trace of a wrapped one.

    The spec is computed one way in the product: {!Epoch}, one fold
    over a run's snapshots and CS entries, fed as the engine runs.  On
    a one-epoch timeline (a plan without effective split or crash
    windows) its report is the classical TME_Spec report
    ({!Epoch.tme_report}).  The test suite's oracle library
    ([test/oracle]) restates the clauses with the {!Unityspec}
    operators over a recorded trace, and replays a recorded trace
    through the fold; the fold is held to both. *)

val clauses :
  me1:Unityspec.Temporal.verdict ->
  me2:Unityspec.Temporal.verdict ->
  me3:Unityspec.Temporal.verdict ->
  Unityspec.Report.t
(** The three verdicts under every TME_Spec report's clause labels. *)

(** {2 Epoch-indexed monitors}

    The regime-epoch restatement of TME_Spec over a
    {!Sim.Regime.timeline}: during a [Global] epoch the classical
    clauses apply unchanged; during a [Split] epoch ME1 weakens to at
    most one CS holder {e per connected group}, ME2 opens no new
    obligations (a minority group may starve legitimately — open
    obligations still discharge whenever served), and ME3 compares
    only entries that could have communicated (same group, or either
    entry in a global epoch).  A cross-epoch {e heal obligation}
    watches every regime change: the eater set carried across the
    transition may violate the new topology (one holder per side of a
    heal); it is tolerated while it only shrinks and must reach a
    topology-legal state before the run ends — no dual-holder
    survives heal-complete.  A one-epoch timeline weakens nothing:
    the monitor then checks TME_Spec itself.

    {!Epoch.feed}/{!Epoch.feed_entry} take snapshots and entries as
    the engine runs; a streamed run that exits early and a recorded
    run that does not report equal fields (asserted across the
    registry × partition-plan grid in tests). *)

module Epoch : sig
  type row = {
    topo : Sim.Regime.topo;
    me1 : Unityspec.Temporal.verdict;
        (** per-group mutual exclusion during this epoch *)
    row_entries : int;  (** CS entries while this epoch governed *)
  }

  type report = {
    rows : row list;  (** one per epoch of the timeline, in order *)
    heal : Unityspec.Temporal.verdict;  (** the cross-epoch obligation *)
    me2 : Unityspec.Temporal.verdict;
    me3 : Unityspec.Temporal.verdict;
    split_entries : int;
        (** CS entries during [Split] epochs — the during-partition
            grant availability a tolerant protocol must keep nonzero *)
    snapshots : int;
  }

  type t
  (** Mutable accumulator — create one per run. *)

  val create : n:int -> timeline:Sim.Regime.timeline -> t
  (** [timeline] must be over the same [n] processes. *)

  val feed : t -> time:int -> repeat:bool -> View.t array -> unit
  (** Consume the next snapshot's [n] views (read during the call
      only).  [~repeat:true] promises that every view has the mode it
      had in the previous snapshot fed; such a snapshot costs O(1)
      when it falls in the same epoch as that one (an open hungry run
      extends lazily, settling at the next snapshot fed without the
      promise or at {!report}).  Any other snapshot costs O(n), and
      allocates only when it resumes a process's ME2 obligations after
      a gap (one closed interval).  [~repeat:false] is always
      correct. *)

  val feed_entry : t -> time:int -> Harness.entry_record -> unit
  (** Consume the next oracle CS entry, before the snapshot of the
      event that produced it.  ME3 compares the entry's request stamp
      with the maximal stamps of the earlier entries it may be
      compared with, not with every earlier entry, so an entry costs
      O(n) per maximal stamp: one process's requests are causally
      ordered, so there are few.  The per-group stamp sets a split
      epoch needs are kept only when the timeline has one. *)

  val report : t -> report
  (** O(n + snapshots). *)

  val tme_report : report -> Unityspec.Report.t
  (** ME1–ME3 under the {!clauses} labels: ME1 is the violation of
      the first epoch that has one, if any, and ME2 and ME3 are the
      report's own.  On a one-epoch timeline this is the classical
      report: ME1's index, ME2's obligations and ME3's verdict equal
      the whole-trace oracle's on the same run (asserted across the
      registry in tests); only ME1's reason is worded per epoch. *)

  val safe : report -> bool
  (** The safety half alone: every epoch's ME1 holds and the
      cross-epoch heal obligation holds.  This is the verdict the
      campaign's during-split cells gate on ({!Registry.during_partition}) —
      liveness and ordering are reported but not gated there. *)

  val pp : Format.formatter -> report -> unit
end
