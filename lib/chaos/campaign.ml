open Stdext
module S = Tme.Scenarios
module Registry = Graybox.Registry

(* Expectations are registry metadata (each protocol declares how its
   wrapped cells are gated); re-exported here so campaign clients can
   keep pattern-matching without opening Graybox. *)
type expectation = Graybox.Registry.expectation =
  | Expect_recover
  | Expect_failure
  | Observe

let expectation_label = Registry.expectation_label

type config = {
  base_seed : int;
  seeds : int;
  budget : int;
  n : int;
  steps : int;
  delta : int;
  protocols : string list;
  include_unwrapped : bool;
  deadlock_canary : bool;
  shrink : bool;
  shrink_max_runs : int;
  max_counterexamples : int;
  jobs : int;
  partitions : bool;
}

(* The acceptance sweep, in declared order: every protocol with a
   [sweep_rank] (both wrapped everywhere-implementations plus the
   negative control). *)
let default_protocols = Registry.default_sweep ()

let config ?(base_seed = 1) ?(seeds = 50) ?(budget = 6) ?(n = 4) ?(steps = 4000)
    ?(delta = 8) ?(protocols = default_protocols) ?(include_unwrapped = true)
    ?(deadlock_canary = true) ?(shrink = true) ?(shrink_max_runs = 300)
    ?(max_counterexamples = 3) ?(jobs = 1) ?(partitions = false) () =
  if seeds <= 0 then invalid_arg "Campaign.config: need seeds > 0";
  if steps < 100 then invalid_arg "Campaign.config: need steps >= 100";
  if protocols = [] then invalid_arg "Campaign.config: need a protocol";
  if jobs < 1 then invalid_arg "Campaign.config: need jobs >= 1";
  { base_seed; seeds; budget; n; steps; delta; protocols; include_unwrapped;
    deadlock_canary; shrink; shrink_max_runs; max_counterexamples; jobs;
    partitions }

exception Unknown_protocol of string

let resolve = Registry.find_protocol

let known_protocols () = Registry.names ()

type row = {
  row_seed : int;
  row_plan : S.fault_spec list;
  row_verdict : Outcome.verdict;
  row_latency : int option;
  row_epoch : (bool * int) option;
      (* during-split cells only: (epoch-safe, during-split CS entries)
         from the regime-epoch monitors; [None] on every other cell,
         even one whose run it shares, so the reports stay
         byte-identical *)
}

let epoch_safe r = match r.row_epoch with Some (ok, _) -> ok | None -> true

let split_grants r = match r.row_epoch with Some (_, g) -> g | None -> 0

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
  cell_during : Registry.during_partition option;
      (* [Some] marks a during-split cell: the expectation then gates
         the rows' epoch-safety verdicts, not their outcome verdicts *)
  rows : row list;
  counts : (Outcome.verdict * int) list;
  latency : latency_stats option;
  cell_ok : bool;
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
  scenario_runs : int;
}

(* Decorrelate the plan stream from the engine's scheduling stream,
   which is seeded with the bare run seed. *)
let plan_seed run_seed = (run_seed * 1_000_003) + 7919

let run_seed cfg i = cfg.base_seed + i

let plans cfg =
  let gen_cfg =
    Plan_gen.config ~partitions:cfg.partitions ~n:cfg.n ~horizon:cfg.steps
      ~budget:cfg.budget ()
  in
  List.init cfg.seeds (fun i ->
      let seed = run_seed cfg i in
      (seed, Plan_gen.generate (Rng.create (plan_seed seed)) gen_cfg))

(* Partition-gate cells hold exactly one Split each (mode fixed per
   cell, random group structure and window per seed) so the gate tests
   heal recovery and nothing else.  The two modes share the plan-seed
   stream, so a lossy cell and its buffered sibling see the same
   partitions — only the fate of cross-partition traffic differs. *)
let split_plans cfg ~mode =
  let gen_cfg =
    Plan_gen.config ~n:cfg.n ~horizon:cfg.steps ~budget:1 ()
  in
  List.init cfg.seeds (fun i ->
      let seed = run_seed cfg i in
      (seed, Plan_gen.split_plan (Rng.create (plan_seed seed)) gen_cfg ~mode))

(* The row of one scenario run, with the epoch verdict whenever the
   plan cuts the run into more than one regime epoch; cells that do not
   gate on it drop it again. *)
let run_row ~cfg ~proto ~wrapper (seed, plan) =
  let r =
    S.run proto ~wrapper ~faults:plan ~streaming:true ~n:cfg.n ~seed
      ~steps:cfg.steps
  in
  let module E = Graybox.Tme_spec.Epoch in
  let e = r.S.epoch_spec in
  { row_seed = seed;
    row_plan = plan;
    row_verdict = Outcome.classify ~n:cfg.n r.S.analysis;
    row_latency = r.S.recovery_latency;
    row_epoch =
      (match e.E.rows with
       | [ _ ] -> None
       | _ -> Some (E.safe e, e.E.split_entries)) }

let latency_stats rows =
  (* One sorted pass serves median, p95, and max (p100 is the maximum
     under the nearest-rank formula); the mean folds over the same Vec.
     Values agree exactly with the former median/percentile/min_max
     list calls — the golden campaign reports don't move. *)
  let v = Vec.create () in
  List.iter
    (fun r ->
      if r.row_verdict = Outcome.Recovered then
        Option.iter (fun l -> Vec.push v (float_of_int l)) r.row_latency)
    rows;
  match Stats.percentiles v [ 50.; 95.; 100. ] with
  | [ med; p95; max_ ] when Vec.length v > 0 ->
    let total = ref 0. in
    Vec.iter (fun x -> total := !total +. x) v;
    Some
      { samples = Vec.length v;
        lat_mean = !total /. float_of_int (Vec.length v);
        lat_median = med;
        lat_p95 = p95;
        lat_max = max_ }
  | _ -> None

(* A cell's expectation gates outcome verdicts; a during-split cell's
   expectation gates the epoch-safety verdicts instead, with [Weak_me1]
   additionally requiring during-split availability (the registry's
   lattice doc is the single statement of these readings). *)
let cell_ok ~during expect rows =
  match during with
  | None -> (
    match expect with
    | Expect_recover ->
      List.for_all (fun r -> r.row_verdict = Outcome.Recovered) rows
    | Expect_failure ->
      List.exists (fun r -> Outcome.is_failure r.row_verdict) rows
    | Observe -> true)
  | Some d -> (
    match expect with
    | Expect_recover ->
      List.for_all epoch_safe rows
      && (d <> Registry.Weak_me1
         || List.exists (fun r -> split_grants r > 0) rows)
    | Expect_failure -> List.exists (fun r -> not (epoch_safe r)) rows
    | Observe -> true)

let make_cell ~label ~protocol ~wrapped ~expect ~during rows =
  let counts =
    List.map
      (fun v ->
        (v, List.length (List.filter (fun r -> r.row_verdict = v) rows)))
      Outcome.all
  in
  { cell_label = label;
    cell_protocol = protocol;
    cell_wrapped = wrapped;
    cell_expect = expect;
    cell_during = during;
    rows;
    counts;
    latency = latency_stats rows;
    cell_ok = cell_ok ~during expect rows }

let canary_plan cfg =
  let from_t = max 1 (cfg.steps / 10) in
  [ S.Drop_requests_window { from_t; until_t = from_t + 60 } ]

(* One planned cell: everything [run] needs to execute and label it. *)
type cell_spec = {
  sp_label : string;
  sp_protocol : string;
  sp_wrapped : bool;
  sp_expect : expectation;
  sp_during : Registry.during_partition option;
  sp_proto : (module Graybox.Protocol.S);
  sp_wrapper : Graybox.Harness.wrapper_mode;
  sp_seeded : (int * S.fault_spec list) list;
}

let cells_of_config cfg =
  let seeded = plans cfg in
  let proto_cells =
    List.concat_map
      (fun name ->
        match Registry.find name with
        | None -> raise (Unknown_protocol name)
        | Some e ->
          let proto = e.Registry.proto in
          let wrapped = S.wrapped_entry e ~delta:cfg.delta in
          let wrapped_cell =
            { sp_label = Printf.sprintf "%s+W'(%d)" name cfg.delta;
              sp_protocol = name;
              sp_wrapped = true;
              sp_expect = e.Registry.expectation;
              sp_during = None;
              sp_proto = proto;
              sp_wrapper = wrapped;
              sp_seeded = seeded }
          in
          let unwrapped_cell =
            { sp_label = name;
              sp_protocol = name;
              sp_wrapped = false;
              sp_expect = Registry.demote_unwrapped e.Registry.expectation;
              sp_during = None;
              sp_proto = proto;
              sp_wrapper = Graybox.Harness.Off;
              sp_seeded = seeded }
          in
          if cfg.include_unwrapped then [ wrapped_cell; unwrapped_cell ]
          else [ wrapped_cell ])
      cfg.protocols
  in
  let partition_cells =
    if not cfg.partitions then []
    else begin
      let lossy = split_plans cfg ~mode:Sim.Faults.Lossy in
      let buffered = split_plans cfg ~mode:Sim.Faults.Buffered in
      List.concat_map
        (fun name ->
          match Registry.find name with
          | None -> raise (Unknown_protocol name)
          | Some e ->
            let wrapped = S.wrapped_entry e ~delta:cfg.delta in
            let heal_expect =
              Registry.expectation_of_partition e.Registry.partition_expectation
            in
            let during = e.Registry.during_partition in
            let during_expect = Registry.expectation_of_during during in
            let cell ~suffix ~wrapped:w ~expect ~during ~seeded =
              { sp_label =
                  (if w then
                     Printf.sprintf "%s+W'(%d)/%s" name cfg.delta suffix
                   else Printf.sprintf "%s/%s" name suffix);
                sp_protocol = name;
                sp_wrapped = w;
                sp_expect = expect;
                sp_during = during;
                sp_proto = e.Registry.proto;
                sp_wrapper = (if w then wrapped else Graybox.Harness.Off);
                sp_seeded = seeded }
            in
            [ cell ~suffix:"split-lossy" ~wrapped:true ~expect:heal_expect
                ~during:None ~seeded:lossy;
              cell ~suffix:"split-buf" ~wrapped:true
                ~expect:(Registry.demote_buffered heal_expect)
                ~during:None ~seeded:buffered;
              (* the during-split cells share the lossy plan stream, so
                 their epochs line up with the lossy heal cell's runs;
                 the wrapped one repeats exactly the split-lossy cell's
                 scenarios, so [run] executes them once and reads both
                 the heal verdict and the epoch verdict off each run *)
              cell ~suffix:"during-split" ~wrapped:true ~expect:during_expect
                ~during:(Some during) ~seeded:lossy ]
            @ (if cfg.include_unwrapped then
                 [ cell ~suffix:"during-split" ~wrapped:false
                     ~expect:(Registry.demote_unwrapped during_expect)
                     ~during:(Some during) ~seeded:lossy ]
               else []))
        cfg.protocols
    end
  in
  let canary =
    (* the deterministic §4 deadlock baseline runs on the canonical
       reference protocol (the first registered Reference) *)
    if not cfg.deadlock_canary then []
    else
      match Registry.default_reference () with
      | None -> []
      | Some e ->
        [ { sp_label = Printf.sprintf "%s/deadlock-canary" e.Registry.name;
            sp_protocol = e.Registry.name;
            sp_wrapped = false;
            sp_expect = Expect_failure;
            sp_during = None;
            sp_proto = e.Registry.proto;
            sp_wrapper = Graybox.Harness.Off;
            sp_seeded = [ (cfg.base_seed, canary_plan cfg) ] } ]
  in
  proto_cells @ partition_cells @ canary

(* Shrink the first failing row of each cell, unexpected failures
   first, within the global counterexample cap. *)
let counterexamples_of cfg cells =
  if not cfg.shrink then []
  else begin
    let priority c =
      match c.cell_expect with
      | Expect_recover -> 0
      | Expect_failure -> 1
      | Observe -> 2
    in
    let candidates =
      (* during-split cells are excluded: they share the lossy heal
         cell's plan stream (the wrapped one shares its very runs, so
         any outcome failure of it shrinks there), and their own gate
         reads the epoch monitors, which the verdict-driven shrinker
         cannot re-confirm *)
      List.stable_sort
        (fun a b -> compare (priority a) (priority b))
        (List.filter
           (fun c ->
             c.cell_during = None
             && List.exists (fun r -> Outcome.is_failure r.row_verdict) c.rows)
           cells)
    in
    candidates
    |> List.filteri (fun i _ -> i < cfg.max_counterexamples)
    |> Pool.map ~jobs:cfg.jobs (fun c ->
           let r =
             List.find (fun r -> Outcome.is_failure r.row_verdict) c.rows
           in
           let entry = Option.get (Registry.find c.cell_protocol) in
           let wrapper =
             if c.cell_wrapped then S.wrapped_entry entry ~delta:cfg.delta
             else Graybox.Harness.Off
           in
           let scenario =
             { Shrink.protocol = c.cell_protocol;
               proto = entry.Registry.proto;
               wrapper;
               n = cfg.n;
               seed = r.row_seed;
               steps = cfg.steps }
           in
           { cx_cell = c.cell_label;
             cx_protocol = c.cell_protocol;
             cx_wrapper = wrapper;
             cx_seed = r.row_seed;
             cx_verdict = r.row_verdict;
             cx_shrink =
               Shrink.shrink ~max_runs:cfg.shrink_max_runs scenario r.row_plan })
  end

(* A scenario — protocol, wrapped or not, seed, plan — is the whole
   input of a row's run within one campaign (the wrapper is a function
   of the protocol and [cfg]), and a run is an isolated deterministic
   function of it.  So [run] executes each distinct scenario once, in
   order of first occurrence, as one {!Pool.map} work list that crosses
   cell boundaries, and rebuilds every cell's rows from the shared runs
   by key.  [Pool.map] returns results in input order, so the report
   (and its JSON) is identical for every [jobs] value. *)
let run cfg =
  let specs = cells_of_config cfg in
  let ids = Hashtbl.create 1024 in
  let distinct = ref [] in
  let keyed =
    List.map
      (fun spec ->
        List.map
          (fun ((seed, plan) as sp) ->
            let key = (spec.sp_protocol, spec.sp_wrapped, seed, plan) in
            match Hashtbl.find_opt ids key with
            | Some i -> i
            | None ->
              let i = Hashtbl.length ids in
              Hashtbl.add ids key i;
              distinct := (spec.sp_proto, spec.sp_wrapper, sp) :: !distinct;
              i)
          spec.sp_seeded)
      specs
  in
  let runs =
    Array.of_list
      (Pool.map ~jobs:cfg.jobs
         (fun (proto, wrapper, sp) -> run_row ~cfg ~proto ~wrapper sp)
         (List.rev !distinct))
  in
  let cells =
    List.map2
      (fun spec ids ->
        let row i =
          let r = runs.(i) in
          if spec.sp_during = None && r.row_epoch <> None then
            { r with row_epoch = None }
          else r
        in
        make_cell ~label:spec.sp_label ~protocol:spec.sp_protocol
          ~wrapped:spec.sp_wrapped ~expect:spec.sp_expect
          ~during:spec.sp_during (List.map row ids))
      specs keyed
  in
  let counterexamples = counterexamples_of cfg cells in
  let gate_ok =
    List.for_all (fun c -> c.cell_ok) cells
    && List.for_all (fun cx -> cx.cx_shrink.Shrink.confirmed) counterexamples
  in
  { report_config = cfg;
    cells;
    counterexamples;
    gate_ok;
    scenario_runs = Array.length runs }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let count_of cell v = List.assoc v cell.counts

let summary_table report =
  let t =
    Tabular.create
      [ "cell"; "expect"; "runs"; "recovered"; "me1"; "starv"; "dead";
        "unstable"; "lat-med"; "lat-p95"; "ok" ]
  in
  List.iter
    (fun c ->
      let lat f =
        match c.latency with
        | None -> "-"
        | Some l -> Tabular.cell_float ~decimals:0 (f l)
      in
      Tabular.add_row t
        [ c.cell_label;
          expectation_label c.cell_expect;
          Tabular.cell_int (List.length c.rows);
          Tabular.cell_int (count_of c Outcome.Recovered);
          Tabular.cell_int (count_of c Outcome.Me1_violation);
          Tabular.cell_int (count_of c Outcome.Starvation);
          Tabular.cell_int (count_of c Outcome.Deadlock);
          Tabular.cell_int (count_of c Outcome.Unstable);
          lat (fun l -> l.lat_median);
          lat (fun l -> l.lat_p95);
          Tabular.cell_bool c.cell_ok ])
    report.cells;
  t

(* The during-split companion table: epoch-safety and during-split
   availability per cell, only populated when partition cells ran. *)
let during_table report =
  let t =
    Tabular.create
      [ "cell"; "during"; "expect"; "runs"; "epoch-safe"; "split-grants";
        "ok" ]
  in
  List.iter
    (fun c ->
      match c.cell_during with
      | None -> ()
      | Some d ->
        let safe = List.length (List.filter epoch_safe c.rows) in
        let grants =
          List.fold_left (fun acc r -> acc + split_grants r) 0 c.rows
        in
        Tabular.add_row t
          [ c.cell_label;
            Registry.during_partition_label d;
            expectation_label c.cell_expect;
            Tabular.cell_int (List.length c.rows);
            Tabular.cell_int safe;
            Tabular.cell_int grants;
            Tabular.cell_bool c.cell_ok ])
    report.cells;
  t

let has_during_cells report =
  List.exists (fun c -> c.cell_during <> None) report.cells

(* The [graybox-cli run] line that replays the shrunk plan: [run -w]
   picks the entry's wrapper as the campaign does, and labels hold no
   single quote. *)
let run_line cfg cx =
  let plan = cx.cx_shrink.Shrink.shrunk in
  Printf.sprintf "graybox-cli run -p %s -n %d --seed %d --steps %d%s%s"
    cx.cx_protocol cfg.n cx.cx_seed cfg.steps
    (match cx.cx_wrapper with
     | Graybox.Harness.Off -> ""
     | Graybox.Harness.On { delta; _ } -> Printf.sprintf " -w %d" delta)
    (if plan = [] then "" else " -f '" ^ Plan_gen.plan_label plan ^ "'")

let pp_counterexample cfg ppf cx =
  Format.fprintf ppf
    "@[<v>counterexample: %s (seed %d, verdict %s)@,\
     original (%d events): %s@,\
     shrunk   (%d events, %d runs, confirmed %b):@,  %s@]"
    cx.cx_cell cx.cx_seed
    (Outcome.label cx.cx_verdict)
    (List.length cx.cx_shrink.Shrink.original)
    (Plan_gen.plan_label cx.cx_shrink.Shrink.original)
    (List.length cx.cx_shrink.Shrink.shrunk)
    cx.cx_shrink.Shrink.runs cx.cx_shrink.Shrink.confirmed (run_line cfg cx)

let json_of_row r =
  Jsonx.Obj
    ([ ("seed", Jsonx.Int r.row_seed);
       ("plan", Jsonx.List (List.map (fun s -> Jsonx.String (Plan_gen.spec_label s)) r.row_plan));
       ("verdict", Jsonx.String (Outcome.label r.row_verdict));
       ("recovery_latency", Jsonx.of_int_option r.row_latency) ]
    @
    (* epoch fields exist only on during-split rows, so non-partition
       reports keep their golden bytes *)
    match r.row_epoch with
    | None -> []
    | Some (ok, grants) ->
      [ ("epoch_safe", Jsonx.Bool ok); ("split_entries", Jsonx.Int grants) ])

let json_of_cell c =
  Jsonx.Obj
    ([ ("cell", Jsonx.String c.cell_label);
       ("protocol", Jsonx.String c.cell_protocol);
       ("wrapped", Jsonx.Bool c.cell_wrapped);
       ("expect", Jsonx.String (expectation_label c.cell_expect)) ]
    @ (match c.cell_during with
      | None -> []
      | Some d ->
        [ ("during", Jsonx.String (Registry.during_partition_label d)) ])
    @ [
      ( "counts",
        Jsonx.Obj
          (List.map (fun (v, k) -> (Outcome.label v, Jsonx.Int k)) c.counts) );
      ( "latency",
        match c.latency with
        | None -> Jsonx.Null
        | Some l ->
          Jsonx.Obj
            [ ("samples", Jsonx.Int l.samples);
              ("mean", Jsonx.Float l.lat_mean);
              ("median", Jsonx.Float l.lat_median);
              ("p95", Jsonx.Float l.lat_p95);
              ("max", Jsonx.Float l.lat_max) ] );
      ("ok", Jsonx.Bool c.cell_ok);
      ("runs", Jsonx.List (List.map json_of_row c.rows)) ])

let json_of_counterexample cx =
  let plan_json plan =
    Jsonx.List (List.map (fun s -> Jsonx.String (Plan_gen.spec_label s)) plan)
  in
  Jsonx.Obj
    [ ("cell", Jsonx.String cx.cx_cell);
      ("seed", Jsonx.Int cx.cx_seed);
      ("verdict", Jsonx.String (Outcome.label cx.cx_verdict));
      ("original", plan_json cx.cx_shrink.Shrink.original);
      ("shrunk", plan_json cx.cx_shrink.Shrink.shrunk);
      ( "shrunk_ocaml",
        Jsonx.String (Format.asprintf "%a" Plan_gen.pp_plan cx.cx_shrink.Shrink.shrunk) );
      ("shrink_runs", Jsonx.Int cx.cx_shrink.Shrink.runs);
      ("confirmed", Jsonx.Bool cx.cx_shrink.Shrink.confirmed) ]

let to_json report =
  let cfg = report.report_config in
  Jsonx.Obj
    [ ( "config",
        Jsonx.Obj
          [ ("base_seed", Jsonx.Int cfg.base_seed);
            ("seeds", Jsonx.Int cfg.seeds);
            ("budget", Jsonx.Int cfg.budget);
            ("n", Jsonx.Int cfg.n);
            ("steps", Jsonx.Int cfg.steps);
            ("delta", Jsonx.Int cfg.delta);
            ( "protocols",
              Jsonx.List (List.map (fun p -> Jsonx.String p) cfg.protocols) );
            ("include_unwrapped", Jsonx.Bool cfg.include_unwrapped);
            ("deadlock_canary", Jsonx.Bool cfg.deadlock_canary) ] );
      ("cells", Jsonx.List (List.map json_of_cell report.cells));
      ( "counterexamples",
        Jsonx.List (List.map json_of_counterexample report.counterexamples) );
      ("gate_ok", Jsonx.Bool report.gate_ok) ]
