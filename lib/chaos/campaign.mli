(** The chaos-campaign runner: an adversarial sweep over the fault
    space.

    A campaign fixes a process count, horizon, and wrapper timeout,
    samples [seeds] random fault plans (each of [budget] events, all
    derived from [base_seed] — same seed, same report, bit for bit),
    and runs every plan against every {e cell}: protocol × wrapper
    mode.  Outcomes are classified with {!Outcome.classify} and
    recovery latencies aggregated with {!Stdext.Stats}.

    Cells carry expectations that turn the sweep into a CI gate:
    wrapped everywhere-implementations must recover from {e every}
    generated plan (the paper's §3.1 claim, tested as a property);
    negative controls (e.g. [lamport-unmod]) must fail at least once
    (otherwise the campaign has lost its teeth); unwrapped correct
    protocols are observed without gating.  A deterministic §4
    deadlock canary (unwrapped RA under windowed request loss) is
    included by default as a guaranteed-failing baseline.

    Every gated-or-expected failure is handed to {!Shrink} and reported
    as a minimal, seed-confirmed reproducer. *)

type expectation = Graybox.Registry.expectation =
  | Expect_recover  (** gate: every run must recover *)
  | Expect_failure  (** gate: at least one run must fail *)
  | Observe  (** informational only *)
(** Re-export of {!Graybox.Registry.expectation}: which gate a cell is
    swept under is protocol metadata, owned by the registry. *)

val expectation_label : expectation -> string

type config = {
  base_seed : int;
  seeds : int;  (** plans per cell *)
  budget : int;  (** fault events per plan *)
  n : int;
  steps : int;
  delta : int;  (** wrapper timeout for wrapped cells *)
  protocols : string list;
  include_unwrapped : bool;
  deadlock_canary : bool;
  shrink : bool;
  shrink_max_runs : int;  (** runs a shrink may spend: 300 *)
  max_counterexamples : int;  (** failing rows shrunk: 3 *)
  jobs : int;
      (** worker domains for the sweep (and shrinking); the report is
          identical for every value ({!Stdext.Pool.map} preserves input
          order and each run is an isolated function of the config) *)
  partitions : bool;
      (** add the partition fault family to the sweep: generated plans
          may contain group partitions and link delays
          ({!Plan_gen.config}[ ~partitions:true]), and each protocol
          gains extra partition cells — the heal-recovery pair
          [/split-lossy] and [/split-buf] (one group partition per
          run, gated by
          {!Graybox.Registry.entry.partition_expectation}), and the
          [/during-split] cells (wrapped, plus unwrapped when
          [include_unwrapped]) sharing the lossy plan stream and gated
          by {!Graybox.Registry.entry.during_partition} against the
          regime-epoch safety verdict.  All gate readings and the
          unwrapped/buffered demotions are the registry's expectation
          lattice — see {!Graybox.Registry.expectation_of_during}'s
          doc block. *)
}

val default_protocols : string list
(** {!Graybox.Registry.default_sweep} — the acceptance sweep: every
    registry entry with a sweep rank, in rank order (both wrapped
    everywhere-implementations plus the negative control). *)

val config :
  ?base_seed:int -> ?seeds:int -> ?budget:int -> ?n:int -> ?steps:int ->
  ?delta:int -> ?protocols:string list -> ?include_unwrapped:bool ->
  ?deadlock_canary:bool -> ?shrink:bool -> ?jobs:int -> ?partitions:bool ->
  unit -> config
(** Defaults: seed 1, 50 seeds, budget 6, n = 4, 4000 steps, δ = 8,
    protocols [lamport; ra; lamport-unmod], unwrapped cells and the
    deadlock canary included, shrinking on (300 runs, 3 counterexamples),
    [jobs = 1] (serial), partitions off.  Every run is analysed online
    by engine observers (a default {!Tme.Scenarios.run}): no trace is
    recorded, and a permanently deadlocked run exits early.
    @raise Invalid_argument on an empty protocol list, [seeds <= 0],
    [steps < 100], [jobs < 1], or [delta < 0]. *)

exception Unknown_protocol of string
(** Raised by {!run} when a configured protocol name does not
    {!resolve}; carries the unknown name. *)

val resolve : string -> (module Graybox.Protocol.S) option
(** {!Graybox.Registry.find_protocol}: every registered implementation
    resolves, including the negative controls. *)

val known_protocols : unit -> string list
(** {!Graybox.Registry.names} — every name {!resolve} accepts, for
    error messages; by construction it cannot drift from the
    resolver. *)

type row = {
  row_seed : int;
  row_plan : Tme.Scenarios.fault_spec list;
  row_verdict : Outcome.verdict;
  row_latency : int option;
  row_epoch : (bool * int) option;
      (** during-split cells only — the cells that gate on it
          ([cell_during <> None]): (epoch-safety verdict, during-split
          CS entries) from {!Graybox.Tme_spec.Epoch}.  [None] on every
          other cell, even a [/split-lossy] row whose run a
          [/during-split] row shares, so reports stay byte-identical *)
}

type latency_stats = {
  samples : int;
  lat_mean : float;
  lat_median : float;
  lat_p95 : float;
  lat_max : float;
}

type cell = {
  cell_label : string;
  cell_protocol : string;
  cell_wrapped : bool;
  cell_expect : expectation;
  cell_during : Graybox.Registry.during_partition option;
      (** [Some] marks a during-split cell, whose expectation gates the
          rows' epoch-safety verdicts rather than their outcomes *)
  rows : row list;
  counts : (Outcome.verdict * int) list;  (** one entry per {!Outcome.all} *)
  latency : latency_stats option;  (** over recovered rows; [None] if none *)
  cell_ok : bool;  (** the cell's expectation was met *)
}

type counterexample = {
  cx_cell : string;
  cx_protocol : string;
  cx_wrapper : Graybox.Harness.wrapper_mode;
  cx_seed : int;
  cx_verdict : Outcome.verdict;
  cx_shrink : Shrink.result;
}

type report = {
  report_config : config;
  cells : cell list;
  counterexamples : counterexample list;
  gate_ok : bool;
      (** every cell met its expectation and every shrunk counterexample
          re-failed under its original seed — the CI exit status *)
  scenario_runs : int;
      (** how many scenarios {!run} executed: the distinct ones among
          all cells' rows, which is fewer than the rows when cells
          repeat a scenario.  Not part of {!to_json}. *)
}

val run : config -> report
(** Runs the campaign.  A {e scenario} — protocol, wrapper mode, seed
    and plan — is the whole input of a row's run, so [run] executes
    each distinct scenario exactly once (fanned out over [jobs]
    domains) and rebuilds every cell's rows from the shared runs.
    In a partition campaign each wrapped [/during-split] cell reads
    its epoch verdicts off the runs of its [/split-lossy] sibling, so
    [scenario_runs] is at most the row count minus [seeds] per
    protocol: 601 runs for 721 rows in the six-protocol, 20-seed
    partition campaign.  The report is identical for every [jobs]
    value. *)

val summary_table : report -> Stdext.Tabular.t
(** One row per cell: verdict counts, recovery-latency median/p95, and
    the gate verdict. *)

val during_table : report -> Stdext.Tabular.t
(** One row per during-split cell: the registered during-partition
    level, epoch-safe run count, total during-split CS entries, and the
    gate verdict.  Empty when the campaign ran without partitions. *)

val has_during_cells : report -> bool
(** Whether {!during_table} has any rows to show. *)

val pp_counterexample : config -> Format.formatter -> counterexample -> unit
(** Human-readable rendering, ending in the [graybox-cli run] line
    (shell-quoted plan labels, {!Plan_gen.parse}'s syntax) that
    replays the shrunk plan under the campaign's [n], [steps], seed and
    wrapper. *)

val to_json : report -> Jsonx.t
(** The machine-readable report (config, cells with per-run rows,
    shrunk counterexamples, gate verdict). *)
