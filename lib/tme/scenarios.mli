(** Packaged simulation scenarios.

    Everything downstream — tests, examples, the CLI, and the bench
    harness — runs experiments through this module, so a scenario is
    described once: protocol (as a first-class module), wrapper mode,
    process count, seed, horizon, and a protocol-independent fault
    script that is lowered onto the protocol's own corruption hooks.

    Every verdict a run reports comes from two folds:
    {!Graybox.Stabilize.Online} (the stabilization analysis and the
    recovery latency) and {!Graybox.Tme_spec.Epoch} (ME1–ME3, per
    regime epoch), fed by one engine observer on every run, recorded
    or not.  A run keeps its trace only on request ([~record:true]). *)

type fault_spec =
  | Drop_requests of { at : int; per_chan : int }
      (** lose request messages — the paper's §4 deadlock scenario when
          applied to all in-flight requests *)
  | Drop_requests_window of { from_t : int; until_t : int }
      (** lose {e every} request in flight during the window: the
          reliable §4 deadlock injection — any process that requests
          inside the window has its request lost to all peers *)
  | Drop_any of { at : int; per_chan : int }
  | Duplicate of { at : int; per_chan : int }
  | Corrupt_messages of { at : int; per_chan : int }
  | Reorder of { at : int; per_chan : int }
  | Flush of { at : int }
  | Partition of { pid : Sim.Pid.t; from_t : int; until_t : int }
      (** process {e isolation} (not a group partition — that is
          {!Split}): every message to or from the one selected process
          is lost while the window lasts, modelling a single process
          falling off the network and recovering.  The chaos label for
          this spec remains ["partition"] for golden-report
          stability. *)
  | Corrupt_state of { at : int; procs : Sim.Faults.proc_selector }
  | Reset_state of { at : int; procs : Sim.Faults.proc_selector }
  | Crash of
      { procs : Sim.Faults.proc_selector;
        from_t : int;
        until_t : int;
        lose : bool }
      (** crash/recover ({!Sim.Faults.Crash}): the selected processes
          take no steps during [\[from_t, until_t)]; with [lose] their
          inbound messages are lost meanwhile, otherwise delivery merely
          stalls until recovery *)
  | Split of
      { groups : Sim.Pid.t list list;
        from_t : int;
        until_t : int;
        mode : Sim.Faults.heal_mode }
      (** group partition that heals ({!Sim.Faults.Split}): every
          channel between different groups is down for the window
          (unlisted pids form an implicit remainder group).
          [Lossy] loses cross-partition traffic; [Buffered] holds it
          and floods it in at the heal.  Lowering also schedules a
          {!Sim.Faults.Heal} marker at [until_t], so
          [recovery_latency] measures from the heal — the quantity the
          PARTITION experiment reports. *)
  | Delay of { at : int; chan : Sim.Faults.chan_selector; dist : Sim.Faults.delay_dist }
      (** from [at] on, messages over the selected channels are
          delivered only after a per-message delay drawn from [dist]
          (seeded by the engine's fault RNG — runs stay
          seed-deterministic).  Per-channel FIFO is preserved. *)

val burst : at:int -> fault_spec list
(** [burst ~at] is a compound transient fault: state corruption of
    every process plus message corruption and loss — the stress case
    for stabilization. *)

type result = {
  protocol : string;
  n : int;
  seed : int;
  steps : int;
  wrapper : Graybox.Harness.wrapper_mode;
  vtrace : (Graybox.View.t, Graybox.Msg.t) Sim.Trace.t;
      (** the view trace, kept only by a [~record:true] run (else
          empty) *)
  entry_log : Graybox.Harness.entry_record list;
      (** the oracle's CS entries in run order; with [entry_since]
          they give the post-fault service times (bench T3) *)
  total_entries : int;
  analysis : Graybox.Stabilize.analysis;
      (** equal to the whole-trace oracle's analysis of the recorded
          trace (asserted in tests); empty on a bare run *)
  recovery_latency : int option;
      (** steps from the last fault until every process completed a
          fresh CS entry ({!Graybox.Stabilize.Online.latency});
          measured from the trace start on fault-free runs *)
  epoch_spec : Graybox.Tme_spec.Epoch.report;
      (** the TME_Spec report, one row per regime epoch of the
          {!Sim.Regime} timeline the lowered plan induces.  A plan
          without effective split or crash windows has one epoch, and
          the report is then the classical one
          ({!Graybox.Tme_spec.Epoch.tme_report}, equal to the
          whole-trace oracle's in ME1's index, ME2's obligations and
          ME3's verdict).  Runs that exit early and recorded runs
          report it equally (asserted in tests); like [analysis] it
          is always present, and empty (no snapshots) on a bare
          run. *)
  sent_total : int;
  wrapper_sends : int;
  protocol_sends : int;  (** [sent_total - wrapper_sends] *)
  delivered : int;
  sim_steps : int;
}

val run :
  ?wrapper:Graybox.Harness.wrapper_mode ->
  ?faults:fault_spec list ->
  ?record:bool ->
  ?streaming:bool ->
  ?passive:Sim.Pid.t list ->
  (module Graybox.Protocol.S) ->
  n:int -> seed:int -> steps:int -> result
(** [run proto ~n ~seed ~steps] executes one scenario.  Clients think
    for 2–8 steps and eat for 1–3 (as every {!Graybox.Harness} client
    does).  The analysis, recovery latency, epoch report and entry log
    are computed by an engine observer while the run proceeds.

    By default nothing is recorded ([vtrace] is empty), and the run
    exits early once the system is permanently quiescent (deadlocked
    with no pending recovery), feeding the rest of the horizon
    synthetically — [sim_steps] then reports how far the engine
    actually ran.  [~record:true] keeps the view trace (for
    {!lspec_report} and the test oracles) and runs the full horizon;
    every other field is the same.  [~streaming:false] attaches no
    observer: a bare run whose analysis and epoch report are empty and
    whose entry log is empty — use it for throughput measurements
    only. *)

val lspec_report : result -> Unityspec.Report.t
(** Lspec clause verdicts over the scenario's recorded trace — only
    meaningful on fault-free runs (see {!Graybox.Lspec}).
    @raise Invalid_argument on a run that kept no trace (made without
    [~record:true]). *)

val find_protocol : string -> (module Graybox.Protocol.S) option
(** Alias for {!Graybox.Registry.find_protocol}.  This module is the
    {e registration site}: loading it fills {!Graybox.Registry} with
    every implementation — the references ([ra], [ra-gcl], [lamport],
    [central]), the modification ablations ([lamport-m1],
    [lamport-m12]), the negative controls ([lamport-unmod], the
    kept-reply RA safety mutant, and the sticky-suspicion
    [ra-lease-stale]), the partition-tolerant [ra-lease], and the
    synthesized-wrapper [ra-synth] —
    together with their roles, chaos expectations, and capabilities.  Enumerate and dispatch through
    {!Graybox.Registry.all}; there is no separate protocol list here
    to drift from it. *)

val wrapped : delta:int -> unit -> Graybox.Harness.wrapper_mode
(** [On {term = w_refined; delta}]: the paper's hand-written [W]
    ([delta = 0]) or [W'(δ)]. *)

val wrapped_term : term:Graybox.Wrapper.t -> delta:int -> unit ->
  Graybox.Harness.wrapper_mode
(** [On {term; delta}] — any wrapper-DSL term (a registry entry's
    [wrapper_term], a synthesized candidate, {!Graybox.Wrapper.w_unrefined})
    under the same [δ]-timer discipline as {!wrapped}. *)

val wrapped_entry :
  Graybox.Registry.entry -> delta:int -> Graybox.Harness.wrapper_mode
(** The wrapper an entry runs under: its registered [wrapper_term]
    ([ra-synth]), else {!wrapped}.  The campaign, [graybox-cli run -w]
    and bench PARTITION all choose an entry's wrapper here. *)
