(* The four benchmark workloads.  Each one is built from a seed, has a
   timed call (the user-visible operation) and a traced set that re-runs
   the same inputs through the probe and the layer split.  Sizes keep one
   call at about 2 s on a 2-core machine, so a run of 25 s takes a
   median over several calls. *)

open Stdext

(* What one call produced: a digest of its simulated output, the work
   it did, its deterministic results, and the correctness checks it
   failed. *)
type outcome = {
  digest : string;
  units : int;
      (* campaign rows (chaos), grants (load), explored states (mcheck,
         synth) *)
  exact : (string * float) list;
  failed_share : float;
  problems : string list;
}

type layer = (string * float * string) list  (* name, value, unit *)

type traced = {
  outcomes : outcome list;
  extra_problems : string list;
  layer : layer;
}

type instance = { call : unit -> outcome; trace : unit -> traced }

type t = {
  name : string;
  jobs : int;  (* domains the timed call uses *)
  prepare : seed:int -> instance;  (* input construction, part of set-up *)
}

let protocol name =
  match Tme.Scenarios.find_protocol name with
  | Some p -> p
  | None -> failwith ("perfbench: unregistered protocol " ^ name)

let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let check cond msg = if cond then [] else [ msg ]

(* Exact nearest-rank percentiles of a sample. *)
let percentiles xs ps =
  let v = Vec.create () in
  List.iter (Vec.push v) xs;
  Stats.percentiles v ps

let count name n = (name, float_of_int n, "count")

(* Scratch space in the working directory: benchmark records and the
   spill files of the out-of-core check. *)
let work_dir = "_perfbench"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755

(* ------------------------------------------------------------------ *)
(* Layer helpers shared by the traced sets                             *)

(* The untraced call at jobs 1, timed, with its allocation. *)
let measured f =
  Gc.compact ();
  let s0 = Gc.quick_stat () in
  let r, dt = Probe.time f in
  let s1 = Gc.quick_stat () in
  ( r,
    dt,
    [ ("gc.minor_words", s1.Gc.minor_words -. s0.Gc.minor_words, "count");
      count "gc.major_collections"
        (s1.Gc.major_collections - s0.Gc.major_collections) ] )

(* A call through the protocol probe, with the counters it moved. *)
let probed f =
  Gc.compact ();
  Probe.reset ();
  let r, dt = Probe.time f in
  (r, dt, Probe.counts ())

let protocol_layer (c : Probe.counts) =
  List.mapi
    (fun i fn -> count ("tme.protocol.calls." ^ fn) c.Probe.c_calls.(i))
    (Array.to_list Probe.fns)
  @ [ count "tme.protocol.sends" c.Probe.c_sends;
      ("tme.protocol.self_s", c.Probe.c_self_s, "s") ]

(* The layer that drives the protocol — the simulator on load and
   chaos, the checker on mcheck and synth: traced time minus protocol
   self time. *)
let engine_layer ~traced_s (c : Probe.counts) ~units =
  let self = traced_s -. c.Probe.c_self_s in
  [ ("engine.self_s", self, "s");
    count "engine.units" units;
    ("engine.ns_per_unit", self *. 1e9 /. float_of_int units, "ns") ]

(* Amdahl's serial fraction from the jobs-1 and jobs-2 times. *)
let serial_fraction ~j1_s ~j2_s =
  ("stdext.pool.serial_fraction", (2. *. j2_s /. j1_s) -. 1., "share")

let single_domain = ("stdext.pool.serial_fraction", 1., "share")

let span = Probe.span

(* ------------------------------------------------------------------ *)
(* chaos: the CI partition campaign                                    *)

let chaos_seeds = 20

let chaos_protocols =
  [ "lamport"; "ra"; Tme.Lamport_unmodified.name; Tme.Ra_mutant.name;
    Tme.Ra_lease.Lease.name; Tme.Ra_lease.Stale.name ]

module C = Chaos.Campaign

let chaos_config ~seed ~jobs =
  C.config ~base_seed:seed ~seeds:chaos_seeds ~budget:4 ~n:4 ~steps:4000
    ~delta:8 ~protocols:chaos_protocols ~partitions:true ~shrink:true ~jobs ()

let epoch_safe (r : C.row) =
  match r.C.row_epoch with Some (ok, _) -> ok | None -> true

(* Gated rows are the rows of cells that expect recovery; a row misses
   when it did not recover (or, in a during-split cell, was
   epoch-unsafe). *)
let gate_misses (report : C.report) =
  List.fold_left
    (fun (gated, missed) (c : C.cell) ->
      if c.C.cell_expect <> C.Expect_recover then (gated, missed)
      else
        let miss (r : C.row) =
          if c.C.cell_during <> None then not (epoch_safe r)
          else r.C.row_verdict <> Chaos.Outcome.Recovered
        in
        ( gated + List.length c.C.rows,
          missed + List.length (List.filter miss c.C.rows) ))
    (0, 0) report.C.cells

let chaos_outcome (report : C.report) =
  let rows = List.concat_map (fun (c : C.cell) -> c.C.rows) report.C.cells in
  let recovery =
    List.concat_map
      (fun (c : C.cell) ->
        if c.C.cell_wrapped && c.C.cell_expect = C.Expect_recover then
          List.filter_map
            (fun (r : C.row) ->
              if r.C.row_verdict = Chaos.Outcome.Recovered then
                Option.map float_of_int r.C.row_latency
              else None)
            c.C.rows
        else [])
      report.C.cells
  in
  let p = percentiles recovery [ 50.; 99. ] in
  let shrink_runs =
    List.fold_left
      (fun a (cx : C.counterexample) -> a + cx.C.cx_shrink.Chaos.Shrink.runs)
      0 report.C.counterexamples
  in
  let gated, missed = gate_misses report in
  let failed_share =
    if gated = 0 then 0. else float_of_int missed /. float_of_int gated
  in
  (* A negative control that no plan of this seed's sample breaks is a
     property of the sample (ra-mutant's ME1 bug needs a rare schedule),
     not a wrong output: it is an exact result, so [compare] still fails
     when it changes for a seed. *)
  let controls_missed =
    List.length
      (List.filter
         (fun (c : C.cell) ->
           c.C.cell_expect = C.Expect_failure && not c.C.cell_ok)
         report.C.cells)
  in
  { digest = digest [ Chaos.Jsonx.to_string (C.to_json report) ];
    units = List.length rows;
    exact =
      [ ("cells", float_of_int (List.length report.C.cells));
        ("rows", float_of_int (List.length rows));
        ( "counterexamples",
          float_of_int (List.length report.C.counterexamples) );
        ("shrink_runs", float_of_int shrink_runs);
        ("recovery_p50_steps", List.nth p 0);
        ("recovery_p99_steps", List.nth p 1);
        ("recovery_samples", float_of_int (List.length recovery));
        ("controls_missed", float_of_int controls_missed);
        ("failed_share", failed_share) ];
    failed_share;
    problems =
      List.concat_map
        (fun (cx : C.counterexample) ->
          check cx.C.cx_shrink.Chaos.Shrink.confirmed
            (Printf.sprintf "chaos: counterexample %s not confirmed"
               cx.C.cx_cell))
        report.C.counterexamples }

(* The wrapper a campaign cell composes, as [Chaos.Campaign] chooses it. *)
let cell_wrapper cfg (c : C.cell) =
  if not c.C.cell_wrapped then Graybox.Harness.Off
  else
    match Graybox.Registry.find c.C.cell_protocol with
    | Some { Graybox.Registry.wrapper_term = Some term; _ } ->
      Tme.Scenarios.wrapped_term ~term ~delta:cfg.C.delta ()
    | _ -> Tme.Scenarios.wrapped ~delta:cfg.C.delta ()

type replayed = {
  verdict : Chaos.Outcome.verdict;
  steps : int;
  wrapper_sends : int;
  row_s : float;
}

(* Re-run every campaign row serially through the probed protocol. *)
let replay cfg (report : C.report) ~streaming =
  let name = if streaming then "replay(streaming)" else "replay(plain)" in
  span ~workload:"chaos" name (fun () ->
      List.concat_map
        (fun (c : C.cell) ->
          let proto = Probe.wrap (protocol c.C.cell_protocol) in
          let wrapper = cell_wrapper cfg c in
          List.map
            (fun (r : C.row) ->
              let res, row_s =
                span ~workload:"chaos" "row" (fun () ->
                    Probe.time (fun () ->
                        Tme.Scenarios.run proto ~wrapper ~faults:r.C.row_plan
                          ~streaming ~record:false ~n:cfg.C.n ~seed:r.C.row_seed
                          ~steps:cfg.C.steps))
              in
              ( r,
                { verdict =
                    Chaos.Outcome.classify ~n:cfg.C.n
                      res.Tme.Scenarios.analysis;
                  steps = res.Tme.Scenarios.sim_steps;
                  wrapper_sends = res.Tme.Scenarios.wrapper_sends;
                  row_s } ))
            c.C.rows)
        report.C.cells)

let reshrink cfg (report : C.report) =
  List.map
    (fun (cx : C.counterexample) ->
      let sc =
        { Chaos.Shrink.protocol = cx.C.cx_protocol;
          proto = protocol cx.C.cx_protocol;
          wrapper = cx.C.cx_wrapper;
          n = cfg.C.n;
          seed = cx.C.cx_seed;
          steps = cfg.C.steps }
      in
      ( cx,
        span ~workload:"chaos" "shrink" (fun () ->
            Chaos.Shrink.shrink ~max_runs:cfg.C.shrink_max_runs sc
              cx.C.cx_shrink.Chaos.Shrink.original) ))
    report.C.counterexamples

let chaos_trace ~seed () =
  let campaign jobs =
    span ~workload:"chaos" (Printf.sprintf "campaign(jobs=%d)" jobs) (fun () ->
        C.run (chaos_config ~seed ~jobs))
  in
  let r2, j2_s = Probe.time (fun () -> campaign 2) in
  let r1, j1_s, gc = measured (fun () -> campaign 1) in
  let cfg = r1.C.report_config in
  let stream, stream_s, counts =
    probed (fun () -> replay cfg r1 ~streaming:true)
  in
  let plain, plain_s, _ = probed (fun () -> replay cfg r1 ~streaming:false) in
  let shrinks, shrink_s = Probe.time (fun () -> reshrink cfg r1) in
  let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs in
  let steps_stream = sum (fun (_, p) -> p.steps) stream in
  let steps_plain = sum (fun (_, p) -> p.steps) plain in
  let sends = sum (fun (_, p) -> p.wrapper_sends) stream in
  let rows = List.length stream in
  let early =
    List.fold_left2
      (fun a (_, s) (_, p) -> if s.steps < p.steps then a + 1 else a)
      0 stream plain
  in
  (* observers and monitors: the streaming replay minus the plain one,
     per step *)
  let observer_s =
    stream_s
    -. (plain_s *. float_of_int steps_stream /. float_of_int steps_plain)
  in
  let row_ms =
    percentiles (List.map (fun (_, p) -> p.row_s *. 1e3) stream) [ 50.; 99. ]
  in
  let problems =
    List.concat_map
      (fun ((r : C.row), p) ->
        check (p.verdict = r.C.row_verdict)
          (Printf.sprintf
             "chaos: replay of seed %d classifies %s, campaign said %s"
             r.C.row_seed
             (Chaos.Outcome.label p.verdict)
             (Chaos.Outcome.label r.C.row_verdict)))
      stream
    @ List.concat_map
        (fun ((cx : C.counterexample), res) ->
          check (res = cx.C.cx_shrink)
            (Printf.sprintf "chaos: re-shrinking %s gave another result"
               cx.C.cx_cell))
        shrinks
  in
  { outcomes = [ chaos_outcome r2; chaos_outcome r1 ];
    extra_problems = problems;
    layer =
      gc @ protocol_layer counts
      @ engine_layer ~traced_s:stream_s counts ~units:steps_stream
      @ [ serial_fraction ~j1_s ~j2_s;
          ("trace_overhead", stream_s /. (j1_s -. shrink_s), "ratio");
          ("sim.observer.share", observer_s /. stream_s, "share");
          ("sim.observer.self_s", observer_s, "s");
          count "chaos.rows" rows;
          ("chaos.row_ms_p50", List.nth row_ms 0, "ms");
          ("chaos.row_ms_p99", List.nth row_ms 1, "ms");
          ( "chaos.early_exit_share",
            float_of_int early /. float_of_int rows,
            "share" );
          count "chaos.shrink_runs"
            (sum (fun (_, r) -> r.Chaos.Shrink.runs) shrinks);
          ("chaos.shrink_s", shrink_s, "s");
          ("chaos.shrink_share", shrink_s /. j1_s, "share");
          count "core.wrapper.sends" sends;
          ( "core.wrapper.sends_per_1k_steps",
            float_of_int sends *. 1000. /. float_of_int steps_stream,
            "ratio" ) ] }

let chaos =
  { name = "chaos";
    jobs = 2;
    prepare =
      (fun ~seed ->
        let cfg = chaos_config ~seed ~jobs:2 in
        { call = (fun () -> chaos_outcome (C.run cfg));
          trace = chaos_trace ~seed }) }

(* ------------------------------------------------------------------ *)
(* load: open-loop Poisson arrivals into RA at n = 1000                *)

let load_n = 1000

(* A fixed request count: a run's cost is dominated by RA's 2(n-1)
   messages per request, so a fixed step horizon (a Poisson number of
   requests) would make the time vary by seed.  The step bound is twice
   the expected arrival span and never binds. *)
let load_requests = 200

let load_max_steps = 2 * load_requests * 5 * load_n

let load_outcome (r : Tme.Load.result) =
  let p = Tme.Load.percentiles r [ 50.; 99. ] in
  let requests = r.Tme.Load.requests and grants = r.Tme.Load.grants in
  let failed_share =
    if requests = 0 then 1.
    else 1. -. (float_of_int grants /. float_of_int requests)
  in
  { digest =
      digest
        [ string_of_int r.Tme.Load.steps_run;
          string_of_int requests;
          String.concat ","
            (Array.to_list (Array.map string_of_int r.Tme.Load.latencies)) ];
    units = grants;
    exact =
      [ ("steps", float_of_int r.Tme.Load.steps_run);
        ("requests", float_of_int requests);
        ("grants", float_of_int grants);
        ("grant_p50_steps", List.nth p 0);
        ("grant_p99_steps", List.nth p 1);
        ("grant_samples", float_of_int grants);
        ("failed_share", failed_share) ];
    failed_share;
    problems =
      check
        (requests > 0 && grants = requests)
        (Printf.sprintf "load: %d of %d requests granted" grants requests) }

let load_trace run ra () =
  let plain, plain_s, gc =
    measured (fun () -> span ~workload:"load" "load.run" (fun () -> run ra))
  in
  let traced, traced_s, counts =
    probed (fun () ->
        span ~workload:"load" "load.run(traced)" (fun () ->
            run (Probe.wrap ra)))
  in
  { outcomes = [ load_outcome plain; load_outcome traced ];
    extra_problems = [];
    layer =
      gc @ protocol_layer counts
      @ engine_layer ~traced_s counts ~units:traced.Tme.Load.steps_run
      @ [ single_domain;
          ("trace_overhead", traced_s /. plain_s, "ratio");
          ( "load.msgs_per_grant",
            float_of_int counts.Probe.c_sends
            /. float_of_int traced.Tme.Load.grants,
            "ratio" ) ] }

let load =
  { name = "load";
    jobs = 1;
    prepare =
      (fun ~seed ->
        let ra = protocol "ra" in
        let run proto =
          Tme.Load.run proto ~n:load_n ~seed
            ~rate:(0.2 /. float_of_int load_n)
            ~max_requests:load_requests ~max_steps:load_max_steps ()
        in
        { call = (fun () -> load_outcome (run ra));
          trace = load_trace run ra }) }

(* ------------------------------------------------------------------ *)
(* mcheck: one BFS of RA at n = 4                                      *)

let mcheck_depth = 10

(* States explored by the workload's check: a change of this count is a
   change of the checker's semantics, not of its speed. *)
let mcheck_explored = 429_433

(* The spill run's resident budget, in words: under a third of the
   in-RAM peak, so most of the visited set goes to disk. *)
let mcheck_mem_budget = 4_000_000

let mcheck_run ?mem_budget proto ~jobs =
  let spill_dir =
    Option.map
      (fun _ ->
        ensure_work_dir ();
        work_dir)
      mem_budget
  in
  Mcheck.check_me1 proto ~n:4 ~max_depth:mcheck_depth ~max_states:2_000_000
    ~jobs ~shards:jobs ?mem_budget ?spill_dir ()

let stats_of = function
  | Mcheck.Ok s -> s
  | Mcheck.Violation { stats; _ } -> stats

let stats_line (s : Mcheck.stats) =
  Printf.sprintf
    "%s explored=%d visited=%d frontier=%d depth=%d truncated=%b mem=%d \
     spill=%d"
    s.Mcheck.name s.Mcheck.explored s.Mcheck.visited s.Mcheck.frontier_peak
    s.Mcheck.depth_reached s.Mcheck.truncated s.Mcheck.peak_mem_words
    s.Mcheck.spill_bytes

let mcheck_outcome r =
  let s = stats_of r in
  let ok = match r with Mcheck.Ok _ -> true | Mcheck.Violation _ -> false in
  let failed_share = if ok then 0. else 1. in
  { digest = digest [ string_of_bool ok; stats_line s ];
    units = s.Mcheck.explored;
    exact =
      [ ("explored", float_of_int s.Mcheck.explored);
        ("visited", float_of_int s.Mcheck.visited);
        ("frontier_peak", float_of_int s.Mcheck.frontier_peak);
        ("peak_mem_words", float_of_int s.Mcheck.peak_mem_words);
        ("failed_share", failed_share) ];
    failed_share;
    problems =
      check ok "mcheck: ME1 violation"
      @ check
          (s.Mcheck.explored = mcheck_explored)
          (Printf.sprintf "mcheck: explored %d states, expected %d"
             s.Mcheck.explored mcheck_explored) }

let mcheck_trace () =
  let ra = protocol "ra" in
  let run ?mem_budget label proto ~jobs =
    span ~workload:"mcheck" label (fun () -> mcheck_run ?mem_budget proto ~jobs)
  in
  let r2, j2_s = Probe.time (fun () -> run "check_me1(jobs=2)" ra ~jobs:2) in
  let r1, j1_s, gc = measured (fun () -> run "check_me1(jobs=1)" ra ~jobs:1) in
  let rt, traced_s, counts =
    probed (fun () -> run "check_me1(traced)" (Probe.wrap ra) ~jobs:1)
  in
  let rs, spill_s =
    Probe.time (fun () ->
        run ~mem_budget:mcheck_mem_budget "check_me1(spill)" ra ~jobs:2)
  in
  let s = stats_of r2 and sp = stats_of rs in
  let no_mem (x : Mcheck.stats) =
    { x with Mcheck.peak_mem_words = 0; spill_bytes = 0 }
  in
  let explored = float_of_int s.Mcheck.explored in
  { outcomes = [ mcheck_outcome r2; mcheck_outcome r1; mcheck_outcome rt ];
    extra_problems =
      check (sp.Mcheck.spill_bytes > 0) "mcheck: the spill run never spilled"
      @ check (no_mem sp = no_mem s)
          "mcheck: spilled results differ from in-RAM";
    layer =
      gc @ protocol_layer counts
      @ engine_layer ~traced_s counts ~units:s.Mcheck.explored
      @ [ serial_fraction ~j1_s ~j2_s;
          ("trace_overhead", traced_s /. j1_s, "ratio");
          count "mcheck.runs" 1;
          count "mcheck.explored" s.Mcheck.explored;
          count "mcheck.visited" s.Mcheck.visited;
          count "mcheck.frontier_peak" s.Mcheck.frontier_peak;
          count "mcheck.peak_mem_words" s.Mcheck.peak_mem_words;
          count "mcheck.spill_bytes" sp.Mcheck.spill_bytes;
          ("mcheck.states_per_s", explored /. j2_s, "1/s");
          ("mcheck.states_per_s_j1", explored /. j1_s, "1/s");
          ("mcheck.speedup_j2", j1_s /. j2_s, "ratio");
          ("mcheck.spill_overhead_s", spill_s -. j2_s, "s") ] }

let mcheck =
  { name = "mcheck";
    jobs = 2;
    prepare =
      (fun ~seed:_ ->
        let ra = protocol "ra" in
        { call = (fun () -> mcheck_outcome (mcheck_run ra ~jobs:2));
          trace = mcheck_trace }) }

(* ------------------------------------------------------------------ *)
(* synth: CEGIS for RA's wrapper at n = 3                              *)

let synth_config =
  Synth.config ~n:3 ~jobs:1 ~safety_depth:6 ~recovery_depth:10 ()

let synth_outcome (r : Synth.result) =
  let found =
    match r.Synth.synthesized with
    | Some w -> Graybox.Wrapper.equal w Graybox.Wrapper.w_refined
    | None -> false
  in
  let failed_share = if found then 0. else 1. in
  { digest =
      digest
        (Printf.sprintf "enumerated=%d checked=%d pruned=%d runs=%d states=%d"
           r.Synth.enumerated r.Synth.checked r.Synth.pruned r.Synth.oracle_runs
           r.Synth.oracle_states
        :: List.map
             (fun (a : Synth.attempt) ->
               Printf.sprintf "%d %s %s" a.Synth.index
                 (Synth.outcome_label a.Synth.outcome)
                 (Graybox.Wrapper.to_string a.Synth.term))
             r.Synth.attempts);
    units = r.Synth.oracle_states;
    exact =
      [ ("enumerated", float_of_int r.Synth.enumerated);
        ("checked", float_of_int r.Synth.checked);
        ("pruned", float_of_int r.Synth.pruned);
        ("oracle_runs", float_of_int r.Synth.oracle_runs);
        ("oracle_states", float_of_int r.Synth.oracle_states);
        ("failed_share", failed_share) ];
    failed_share;
    problems = check found "synth: the result is not the refined wrapper W" }

(* Re-certify every checked candidate of the transcript with the
   oracle: whether it reproduces the recorded verdict, the runs' stats,
   and the call's time. *)
let recertify proto (r : Synth.result) =
  let cfg = synth_config in
  List.filter_map
    (fun (a : Synth.attempt) ->
      match a.Synth.outcome with
      | Synth.Pruned_must_fire | Synth.Pruned_blamed -> None
      | want ->
        let v, dt =
          span ~workload:"synth" "oracle" (fun () ->
              Probe.time (fun () ->
                  Mcheck.Oracle.check proto ~n:cfg.Synth.n ~jobs:1
                    ~safety_depth:cfg.Synth.safety_depth
                    ~recovery_depth:cfg.Synth.recovery_depth
                    ~max_states:cfg.Synth.max_states a.Synth.term))
        in
        let got, stats =
          match v with
          | Mcheck.Oracle.Safe ss -> (Synth.Certified, ss)
          | Mcheck.Oracle.Cex c ->
            (Synth.Refuted c.Mcheck.Oracle.obligation, c.Mcheck.Oracle.stats)
        in
        Some (a, got = want, stats, dt))
    r.Synth.attempts

let synth_trace () =
  let ra = protocol "ra" in
  let synthesize label proto =
    span ~workload:"synth" label (fun () -> Synth.synthesize proto synth_config)
  in
  let plain, plain_s, gc = measured (fun () -> synthesize "synthesize" ra) in
  let traced, traced_s, counts =
    probed (fun () -> synthesize "synthesize(traced)" (Probe.wrap ra))
  in
  let calls = recertify ra plain in
  let all_stats = List.concat_map (fun (_, _, ss, _) -> ss) calls in
  let sum f = List.fold_left (fun a s -> a + f s) 0 all_stats in
  let max_of f = List.fold_left (fun a s -> max a (f s)) 0 all_stats in
  let oracle_s = List.fold_left (fun a (_, _, _, dt) -> a +. dt) 0. calls in
  let oracle_ms =
    percentiles (List.map (fun (_, _, _, dt) -> dt *. 1e3) calls) [ 50. ]
  in
  let explored = sum (fun s -> s.Mcheck.explored) in
  let tried = plain.Synth.checked + plain.Synth.pruned in
  { outcomes = [ synth_outcome plain; synth_outcome traced ];
    extra_problems =
      List.concat_map
        (fun ((a : Synth.attempt), same, _, _) ->
          check same
            (Printf.sprintf "synth: oracle re-check of candidate %d disagrees"
               a.Synth.index))
        calls
      @ check
          (explored = plain.Synth.oracle_states)
          "synth: re-certified state count differs";
    layer =
      gc @ protocol_layer counts
      @ engine_layer ~traced_s counts ~units:traced.Synth.oracle_states
      @ [ single_domain;
          ("trace_overhead", traced_s /. plain_s, "ratio");
          count "mcheck.runs" (List.length all_stats);
          count "mcheck.explored" explored;
          count "mcheck.visited" (sum (fun s -> s.Mcheck.visited));
          count "mcheck.frontier_peak"
            (max_of (fun s -> s.Mcheck.frontier_peak));
          count "mcheck.peak_mem_words"
            (max_of (fun s -> s.Mcheck.peak_mem_words));
          count "synth.enumerated" plain.Synth.enumerated;
          count "synth.checked" plain.Synth.checked;
          count "synth.pruned" plain.Synth.pruned;
          ( "synth.prune_ratio",
            float_of_int plain.Synth.pruned /. float_of_int tried,
            "share" );
          ("synth.oracle_share", oracle_s /. plain_s, "share");
          ("synth.oracle_s", oracle_s, "s");
          ("synth.oracle_ms_p50", List.nth oracle_ms 0, "ms");
          count "synth.oracle_calls" (List.length calls);
          ("synth.self_s", plain_s -. oracle_s, "s");
          ( "synth.oracle_states_per_s",
            float_of_int explored /. oracle_s,
            "1/s" ) ] }

let synth =
  { name = "synth";
    jobs = 1;
    prepare =
      (fun ~seed:_ ->
        let ra = protocol "ra" in
        { call = (fun () -> synth_outcome (Synth.synthesize ra synth_config));
          trace = synth_trace }) }

let all = [ chaos; load; mcheck; synth ]

let find name = List.find_opt (fun w -> w.name = name) all
