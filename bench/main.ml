(* The experiment harness: regenerates every result table of the
   reproduction (see DESIGN.md §4 and EXPERIMENTS.md).

   The paper (DSN 2001) is conceptual and contains no quantitative
   evaluation; its "results" are Figure 1, Theorems 1-10 and
   Corollary 11, plus informal claims about the wrapper (recovers the
   §4 deadlock; the timeout delta trades repeated requests for
   recovery latency; one wrapper serves every implementation).  Each
   table below operationalizes one of those.  Every table is a
   deterministic function of the code — no timing — and its expected
   output is committed under bench/expected/; throughput is
   perfbench's business.

   Usage:  dune exec bench/main.exe            (all tables)
           dune exec bench/main.exe t3 t4      (a subset)            *)

open Stdext

(* Worker domains for the seed sweeps; set by
   --jobs N (default: the whole machine).  Every table prints the same
   numbers for every value — the sweeps are seed-deterministic and
   Pool.map preserves input order. *)
let jobs = ref (Pool.default_jobs ())

let seeds = [ 101; 202; 303 ]

(* Protocol dispatch goes through Graybox.Registry (filled by
   Tme.Scenarios, which this binary links): roles and capabilities
   drive which protocols each table sweeps, and the ablation /
   negative-control modules are referenced directly rather than by
   name, so the registry and its registration site stay the only
   places that spell protocol names. *)
module Registry = Graybox.Registry

let proto name = Option.get (Registry.find_protocol name)
let proto_name (module P : Graybox.Protocol.S) = P.name
let entry_of name = Option.get (Registry.find name)

let ra = proto "ra"
let lamport = proto "lamport"

let mean_opt xs =
  (* mean over the Some values; "-" if none *)
  match List.filter_map Fun.id xs with
  | [] -> None
  | ys -> Some (Stats.mean_int ys)

let cell_opt_float = function
  | None -> "-"
  | Some m -> Tabular.cell_float ~decimals:0 m

let cell_mean_opt xs = cell_opt_float (mean_opt xs)

(* ------------------------------------------------------------------ *)
(* T1: Figure 1 and Theorem 1, model-checked                           *)

let t1 () =
  let open Kernel in
  let table = Tabular.create [ "claim"; "checked"; "expected" ] in
  let row claim value expected =
    Tabular.add_row table [ claim; Tabular.cell_bool value; expected ]
  in
  row "[C => A]init" (Tsys.implements_from_init Fig1.c Fig1.a) "yes";
  row "[C => A] (everywhere)" (Tsys.everywhere_implements Fig1.c Fig1.a) "no";
  row "A stabilizing to A" (Tsys.is_stabilizing_to Fig1.a Fig1.a) "yes";
  row "C stabilizing to A" (Tsys.is_stabilizing_to Fig1.c Fig1.a) "no";
  row "Theorem 1 hypotheses"
    (Theorem1.hypotheses_hold ~c:Theorem1.c ~a:Theorem1.a ~w:Theorem1.w
       ~w':Theorem1.w')
    "yes";
  row "C box W' stabilizing to A"
    (Tsys.is_stabilizing_to (Tsys.box Theorem1.c Theorem1.w') Theorem1.a)
    "yes";
  (match Tsys.stabilization_counterexample Fig1.c Fig1.a with
   | Some w ->
     Tabular.add_row table
       [ "witness (no legit suffix)";
         String.concat "->" (List.map (Tsys.name Fig1.c) w);
         "s*" ]
   | None -> Tabular.add_row table [ "witness"; "none"; "s*" ]);
  Tabular.print ~title:"T1: Figure 1 counterexample + Theorem 1 (exact)" table

(* ------------------------------------------------------------------ *)
(* T2: fault-coverage matrix (Theorem 8, Corollary 11)                 *)

let fault_classes =
  [ ("drop-requests (deadlock)",
     fun at -> [ Tme.Scenarios.Drop_requests_window { from_t = at; until_t = at + 60 } ]);
    ("message loss", fun at -> [ Tme.Scenarios.Drop_any { at; per_chan = 5 } ]);
    ("duplication", fun at -> [ Tme.Scenarios.Duplicate { at; per_chan = 3 } ]);
    ("message corruption",
     fun at -> [ Tme.Scenarios.Corrupt_messages { at; per_chan = 3 } ]);
    ("reordering", fun at -> [ Tme.Scenarios.Reorder { at; per_chan = 3 } ]);
    ("channel flush", fun at -> [ Tme.Scenarios.Flush { at } ]);
    ("state corruption",
     fun at -> [ Tme.Scenarios.Corrupt_state { at; procs = Sim.Faults.Any_proc } ]);
    ("improper init",
     fun at -> [ Tme.Scenarios.Reset_state { at; procs = Sim.Faults.Proc 1 } ]);
    ("partition",
     fun at -> [ Tme.Scenarios.Partition { pid = 1; from_t = at; until_t = at + 80 } ]);
    ("burst", fun at -> Tme.Scenarios.burst ~at) ]

let coverage proto ~wrapper faults =
  let outcomes =
    List.map
      (fun seed ->
        let r =
          Tme.Scenarios.run proto ~n:4 ~seed ~steps:9000 ~wrapper
            ~faults:(faults 800)
        in
        (r.analysis.recovered, r.recovery_latency))
      seeds
  in
  let recovered = List.for_all fst outcomes in
  let latency = mean_opt (List.map snd outcomes) in
  (recovered, latency)

let t2 () =
  (* the default chaos sweep, as columns: unwrapped + wrapped for the
     recovery-gated protocols, wrapped only for the negative control *)
  let configs =
    List.concat_map
      (fun name ->
        let e = entry_of name in
        let p = e.Registry.proto in
        let wrapped = (name ^ "+W", p, Tme.Scenarios.wrapped ~delta:4 ()) in
        if e.Registry.expectation = Registry.Expect_failure then [ wrapped ]
        else [ (name, p, Graybox.Harness.Off); wrapped ])
      (Registry.default_sweep ())
  in
  let table =
    Tabular.create
      ("fault class" :: List.map (fun (name, _, _) -> name) configs)
  in
  let rows =
    Pool.map ~jobs:!jobs
      (fun (fname, faults) ->
        let cells =
          List.map
            (fun (_, proto, wrapper) ->
              let recovered, latency = coverage proto ~wrapper faults in
              if recovered then
                Printf.sprintf "ok(%s)" (cell_opt_float latency)
              else "STUCK")
            configs
        in
        fname :: cells)
      fault_classes
  in
  List.iter (Tabular.add_row table) rows;
  Tabular.print
    ~title:
      "T2: recovery per fault class (3 seeds each; ok(latency in steps) or \
       STUCK)"
    table

(* ------------------------------------------------------------------ *)
(* T3: stabilization scalability in n                                  *)

let t3 () =
  (* one protocol list drives both the column headers and the rows, so
     adding a protocol cannot desynchronize them: the recovery-gated
     (Reference) members of the default chaos sweep *)
  let protos =
    List.filter
      (fun e -> e.Registry.role = Registry.Reference)
      (List.map entry_of (Registry.default_sweep ()))
  in
  let table =
    Tabular.create
      ("n"
      :: List.concat_map
           (fun e ->
             List.map
               (fun suffix -> e.Registry.name ^ suffix)
               [ "+W recovery"; "+W svc p50"; "+W svc p95"; "+W wrapper msgs" ])
           protos)
  in
  let rows =
    Pool.map ~jobs:!jobs
    (fun n ->
      let steps = 6000 + (1500 * n) in
      let measure proto =
        let runs =
          List.map
            (fun seed ->
              Tme.Scenarios.run proto ~n ~seed ~steps
                ~wrapper:(Tme.Scenarios.wrapped ~delta:4 ())
                ~faults:(Tme.Scenarios.burst ~at:1000))
            seeds
        in
        let latency =
          mean_opt (List.map (fun r -> r.Tme.Scenarios.recovery_latency) runs)
        in
        let wmsgs =
          Stats.mean_int (List.map (fun r -> r.Tme.Scenarios.wrapper_sends) runs)
        in
        (* post-fault per-request service latencies, pooled over seeds *)
        let services =
          List.concat_map
            (fun r ->
              let after =
                Option.value ~default:0
                  r.Tme.Scenarios.analysis.Graybox.Stabilize.last_fault_index
              in
              List.map float_of_int
                (Graybox.Stabilize.service_times ~after r.Tme.Scenarios.vtrace))
            runs
        in
        (latency, Stats.percentile 50. services, Stats.percentile 95. services, wmsgs)
      in
      string_of_int n
      :: List.concat_map
           (fun e ->
             let lat, p50, p95, w = measure e.Registry.proto in
             [ cell_opt_float lat;
               Tabular.cell_float ~decimals:0 p50;
               Tabular.cell_float ~decimals:0 p95;
               Tabular.cell_float ~decimals:0 w ])
           protos)
    [ 2; 3; 5; 8; 12 ]
  in
  List.iter (Tabular.add_row table) rows;
  Tabular.print
    ~title:
      "T3: recovery latency, post-fault service-latency percentiles, and \
       wrapper traffic vs n (burst fault, 3 seeds pooled)"
    table

(* ------------------------------------------------------------------ *)
(* T4: W'(delta) timeout tuning + refined/unrefined ablation           *)

let t4 () =
  let faults at =
    [ Tme.Scenarios.Drop_requests_window { from_t = at; until_t = at + 60 } ]
  in
  let table =
    Tabular.create
      [ "wrapper"; "msgs/1k steps (fault-free)"; "msgs/1k steps (faulty)";
        "recovered"; "recovery latency" ]
  in
  let measure term delta =
    let wrapper = Tme.Scenarios.wrapped_term ~term ~delta () in
    let clean =
      List.map
        (fun seed ->
          (Tme.Scenarios.run ra ~n:4 ~seed ~steps:6000 ~wrapper).wrapper_sends)
        seeds
    in
    let faulty =
      List.map
        (fun seed ->
          Tme.Scenarios.run ra ~n:4 ~seed ~steps:9000 ~wrapper
            ~faults:(faults 800))
        seeds
    in
    let per_1k sends steps = Stats.mean_int sends *. 1000. /. float_of_int steps in
    ( per_1k clean 6000,
      per_1k (List.map (fun r -> r.Tme.Scenarios.wrapper_sends) faulty) 9000,
      List.for_all (fun r -> r.Tme.Scenarios.analysis.recovered) faulty,
      mean_opt (List.map (fun r -> r.Tme.Scenarios.recovery_latency) faulty) )
  in
  let rows =
    Pool.map ~jobs:!jobs
      (fun delta ->
        let clean, faulty, recovered, latency =
          measure Graybox.Wrapper.w_refined delta
        in
        [ (if delta = 0 then "W (refined)" else Printf.sprintf "W'(%d)" delta);
          Tabular.cell_float clean;
          Tabular.cell_float faulty;
          Tabular.cell_bool recovered;
          cell_opt_float latency ])
      [ 0; 1; 2; 4; 8; 16; 32; 64 ]
  in
  List.iter (Tabular.add_row table) rows;
  Tabular.add_sep table;
  let clean, faulty, recovered, latency =
    measure Graybox.Wrapper.w_unrefined 4
  in
  Tabular.add_row table
    [ "W'(4) unrefined (ablation)";
      Tabular.cell_float clean;
      Tabular.cell_float faulty;
      Tabular.cell_bool recovered;
      cell_opt_float latency ];
  Tabular.print
    ~title:
      "T4: the timeout wrapper W'(delta) on Ricart-Agrawala (deadlock fault, \
       3 seeds)"
    table

(* ------------------------------------------------------------------ *)
(* T5: message complexity per CS entry                                 *)

let t5 () =
  (* every Reference implementation, measured against its textbook
     per-entry message count where one is known *)
  let references = Registry.all ~role:Registry.Reference () in
  let formula name =
    match name with
    | "ra" | "ra-gcl" -> Some ("2(n-1)", fun n -> 2 * (n - 1))
    | "lamport" -> Some ("3(n-1)", fun n -> 3 * (n - 1))
    | _ -> None
  in
  let table =
    Tabular.create
      ("n"
      :: List.concat_map
           (fun e ->
             e.Registry.name
             ::
             (match formula e.Registry.name with
              | Some (label, _) -> [ label ]
              | None -> []))
           references
      @ [ "wrapper W'(16)" ])
  in
  let rows =
    Pool.map ~jobs:!jobs
    (fun n ->
      let per_entry proto ~wrapper =
        let runs =
          List.map
            (fun seed ->
              Tme.Scenarios.run proto ~n ~seed ~steps:9000 ~wrapper)
            seeds
        in
        let protocol =
          Stats.mean
            (List.map
               (fun r ->
                 float_of_int r.Tme.Scenarios.protocol_sends
                 /. float_of_int (max 1 r.Tme.Scenarios.total_entries))
               runs)
        in
        let wrapper_per_entry =
          Stats.mean
            (List.map
               (fun r ->
                 float_of_int r.Tme.Scenarios.wrapper_sends
                 /. float_of_int (max 1 r.Tme.Scenarios.total_entries))
               runs)
        in
        (protocol, wrapper_per_entry)
      in
      let _, wrap_m =
        per_entry ra ~wrapper:(Tme.Scenarios.wrapped ~delta:16 ())
      in
      string_of_int n
      :: List.concat_map
           (fun e ->
             let measured, _ =
               per_entry e.Registry.proto ~wrapper:Graybox.Harness.Off
             in
             Tabular.cell_float measured
             ::
             (match formula e.Registry.name with
              | Some (_, f) -> [ Tabular.cell_int (f n) ]
              | None -> []))
           references
      @ [ Tabular.cell_float wrap_m ])
    [ 3; 5; 8 ]
  in
  List.iter (Tabular.add_row table) rows;
  Tabular.print
    ~title:
      "T5: protocol messages per CS entry, fault-free (3 seeds); wrapper \
       column = extra W'(16) messages per entry"
    table

(* ------------------------------------------------------------------ *)
(* T6: specification-monitor conformance (Theorem 5)                   *)

let t6 () =
  let table =
    Tabular.create
      [ "protocol"; "Lspec safety"; "Lspec liveness"; "ME1"; "ME2"; "ME3" ]
  in
  let verdict_cell ~trace_len v =
    match v with
    | Unityspec.Temporal.Violated _ -> "VIOLATED"
    | v ->
      if Unityspec.Temporal.ok_with_tail ~trace_len ~margin:150 v then "ok"
      else "pending"
  in
  List.iter
    (fun (e : Registry.entry) ->
      let name = e.Registry.name and proto = e.Registry.proto in
      let r = Tme.Scenarios.run proto ~n:4 ~seed:11 ~steps:6000 in
      let lspec = Tme.Scenarios.lspec_report r in
      let safety_ok = Unityspec.Report.safe lspec in
      let liveness_ok =
        List.for_all
          (fun (e : Unityspec.Report.entry) ->
            Unityspec.Temporal.ok_with_tail
              ~trace_len:(List.length r.vtrace) ~margin:150 e.verdict)
          lspec
      in
      (* ME1-ME3 from the run's one TME_Spec report: fault-free, so
         one epoch, the classical clauses *)
      let ep = r.epoch_spec in
      Tabular.add_row table
        ([ name;
           (if safety_ok then "ok" else "VIOLATED");
           (if liveness_ok then "ok" else "pending") ]
        @ List.map
            (fun (c : Unityspec.Report.entry) ->
              verdict_cell ~trace_len:ep.Graybox.Tme_spec.Epoch.snapshots
                c.verdict)
            (Graybox.Tme_spec.Epoch.tme_report ep)))
    (List.filter (fun e -> e.Registry.lspec_monitorable) (Registry.all ()));
  Tabular.print
    ~title:
      "T6: Lspec and TME_Spec monitors on fault-free runs (Theorem 5); \
       non-Lspec-monitorable registry entries omitted"
    table

(* ------------------------------------------------------------------ *)
(* T8: RVC extension                                                   *)

let t8 () =
  let table =
    Tabular.create
      [ "configuration"; "recovered"; "recovery steps"; "resets";
        "ill-formed at end" ]
  in
  let run (wrapper, corrupt, label) =
    let outcomes =
      List.map
        (fun seed ->
          Rvc.System.run
            ?corrupt_at:(if corrupt then Some 500 else None)
            { Rvc.System.n = 4; bound = 60; wrapper }
            ~seed ~steps:5000)
        seeds
    in
    [ label;
      Tabular.cell_bool
        (List.for_all (fun o -> o.Rvc.System.recovered) outcomes);
      cell_mean_opt (List.map (fun o -> o.Rvc.System.recovery_steps) outcomes);
      Tabular.cell_float ~decimals:0
        (Stats.mean_int (List.map (fun o -> o.Rvc.System.resets) outcomes));
      Tabular.cell_float ~decimals:1
        (Stats.mean_int (List.map (fun o -> o.Rvc.System.ill_at_end) outcomes)) ]
  in
  let rows =
    Pool.map ~jobs:!jobs run
      [ (true, false, "wrapped, fault-free (overflow recycling)");
        (true, true, "wrapped, all clocks corrupted at t=500");
        (false, true, "unwrapped, all clocks corrupted at t=500") ]
  in
  List.iter (Tabular.add_row table) rows;
  Tabular.print
    ~title:"T8: resettable vector clocks (level-1 reset wrapper; 3 seeds)"
    table

(* ------------------------------------------------------------------ *)
(* T9: Lamport modification ablation                                   *)

let t9 () =
  (* the ablation ladder names its rungs by experiment stage, not by
     registry name; the modules are referenced directly *)
  let variants =
    [ ("m0 (original)", (module Tme.Lamport_unmodified : Graybox.Protocol.S));
      ("m1 (dedup insert)", (module Tme.Lamport_ablation.M1));
      ("m1+2 (<= head)", (module Tme.Lamport_ablation.M12));
      ("m1+2+3 (release echo)", lamport) ]
  in
  let table =
    Tabular.create
      ("fault class (all with W'(4))" :: List.map fst variants)
  in
  let rows =
    Pool.map ~jobs:!jobs
      (fun (fname, faults) ->
        let cells =
          List.map
            (fun (_, proto) ->
              let recovered, latency =
                coverage proto ~wrapper:(Tme.Scenarios.wrapped ~delta:4 ())
                  faults
              in
              if recovered then Printf.sprintf "ok(%s)" (cell_opt_float latency)
              else "STUCK")
            variants
        in
        fname :: cells)
      fault_classes
  in
  List.iter (Tabular.add_row table) rows;
  Tabular.print
    ~title:
      "T9: which of the paper's Lamport modifications rescues which fault \
       class (wrapped, 3 seeds)"
    table;
  (* the release echo (modification 3) matters exactly when some
     process never requests: nothing else ever purges a phantom queue
     entry naming it *)
  let passive_seeds = List.init 12 (fun i -> i + 1) in
  let table2 =
    Tabular.create [ "variant"; "recovered (state corruption, passive peer)" ]
  in
  List.iter
    (fun (label, proto) ->
      let ok =
        List.length
          (List.filter Fun.id
             (Pool.map ~jobs:!jobs
                (fun seed ->
                  (Tme.Scenarios.run proto ~n:4 ~seed ~steps:9000
                     ~passive:[ 3 ]
                     ~wrapper:(Tme.Scenarios.wrapped ~delta:4 ())
                     ~faults:
                       [ Tme.Scenarios.Corrupt_state
                           { at = 800; procs = Sim.Faults.Any_proc } ])
                    .analysis.recovered)
                passive_seeds))
      in
      Tabular.add_row table2
        [ label; Printf.sprintf "%d/%d" ok (List.length passive_seeds) ])
    [ ("m1+2 (no release echo)",
       (module Tme.Lamport_ablation.M12 : Graybox.Protocol.S));
      ("m1+2+3 (release echo)", lamport) ];
  Tabular.print
    ~title:
      "T9b: the release echo is needed when a peer never requests \
       (process 3 passive, 12 corruption draws)"
    table2

(* ------------------------------------------------------------------ *)
(* T10: whitebox contrast (Dijkstra's K-state ring)                    *)

let t10 () =
  let table =
    Tabular.create
      [ "system"; "stabilization designed..."; "recovered"; "recovery steps" ]
  in
  let kstate_recoveries =
    Pool.map ~jobs:!jobs
      (fun seed ->
        (Kstate.run ~corrupt_at:500 ~n:5 ~k:6 ~seed ~steps:4000 ())
          .Kstate.recovery_steps)
      seeds
  in
  Tabular.add_row table
    [ "Dijkstra K-state ring (n=5)"; "into the implementation (whitebox)";
      Tabular.cell_bool (List.for_all Option.is_some kstate_recoveries);
      cell_mean_opt kstate_recoveries ];
  let tme_recoveries =
    Pool.map ~jobs:!jobs
      (fun seed ->
        (Tme.Scenarios.run ra ~n:5 ~seed ~steps:10000
           ~wrapper:(Tme.Scenarios.wrapped ~delta:4 ())
           ~faults:(Tme.Scenarios.burst ~at:500))
          .Tme.Scenarios.recovery_latency)
      seeds
  in
  Tabular.add_row table
    [ "RA + graybox wrapper (n=5)"; "by a spec-derived wrapper (graybox)";
      Tabular.cell_bool (List.for_all Option.is_some tme_recoveries);
      cell_mean_opt tme_recoveries ];
  Tabular.print
    ~title:
      "T10: whitebox vs graybox stabilization, side by side (state \
       corruption of every process, 3 seeds)"
    table

(* ------------------------------------------------------------------ *)
(* T11: exhaustive safety within bounds (model checker)                *)

let t11 () =
  let table =
    Tabular.create
      [ "protocol"; "n"; "depth"; "states explored"; "ME1 verdict" ]
  in
  let row name proto n depth =
    match Mcheck.check_me1 proto ~n ~max_depth:depth () with
    | Mcheck.Ok stats ->
      Tabular.add_row table
        [ name; string_of_int n; string_of_int depth;
          string_of_int stats.Mcheck.explored; "safe (exhaustive)" ]
    | Mcheck.Violation { trace; stats; _ } ->
      Tabular.add_row table
        [ name; string_of_int n; string_of_int depth;
          string_of_int stats.Mcheck.explored;
          Printf.sprintf "VIOLATED in %d steps" (List.length trace) ]
  in
  let row_p proto n depth = row (proto_name proto) proto n depth in
  row_p (module Tme.Ra_me : Graybox.Protocol.S) 2 30;
  row_p (module Tme.Ra_me) 3 14;
  row_p (module Gcl.Ra_gcl) 2 24;
  row_p (module Tme.Lamport_me) 2 24;
  row_p (module Tme.Lamport_me) 3 12;
  Tabular.add_sep table;
  row
    (proto_name (module Tme.Ra_mutant) ^ " (reply while eating)")
    (module Tme.Ra_mutant) 2 20;
  Tabular.print
    ~title:
      "T11: mutual exclusion under ALL schedules (bounded exhaustive \
       exploration; the mutant row validates the checker)"
    table

(* ------------------------------------------------------------------ *)
(* partition: heal-recovery latency                                   *)

let partition_bench () =
  (* Recovery latency measured FROM THE HEAL (the Split lowering plants
     a Heal marker at until_t), swept over partition width (size of the
     split-off group), heal mode, and the registry's default sweep —
     wrapped with each entry's default delta.  The buffered mode is the
     stress case: everything queued during the window floods in at the
     heal, and the wrapper must drain the stale traffic on top of
     re-establishing service.  The lossy mode is the discriminating
     case: protocols that are not everywhere-implementations stay stuck
     (lost releases leave phantom queue entries no wrapper retracts). *)
  (* the long horizon and wide tail margin keep truncation out of the
     verdicts: a slow-but-served hungry interval still open at the
     trace end would otherwise read as starvation.  True deadlock is
     unaffected — a lossy-split victim stays hungry for the entire
     remaining horizon, far beyond any margin. *)
  let n = 6 and from_t = 800 and until_t = 1200 and steps = 20000 in
  let tail_margin = 2000 in
  let widths = [ 1; 2; 3 ] in
  let modes = [ Sim.Faults.Lossy; Sim.Faults.Buffered ] in
  (* the default sweep plus every entry registered with a non-wedge
     during-partition level: the epoch columns below are the
     instrument those levels are measured with (ra-lease's per-group
     service, the split-brain ablations' unsafety) *)
  let sweep =
    let base = Registry.default_sweep () in
    let extra =
      Registry.all ()
      |> List.filter (fun (e : Registry.entry) ->
             e.Registry.during_partition <> Registry.Wedge
             && not (List.mem e.Registry.name base))
      |> List.map (fun (e : Registry.entry) -> e.Registry.name)
    in
    List.map entry_of (base @ extra)
  in
  let grid =
    List.concat_map
      (fun (e : Registry.entry) ->
        List.concat_map
          (fun width -> List.map (fun mode -> (e, width, mode)) modes)
          widths)
      sweep
  in
  let measure ((e : Registry.entry), width, mode) =
    let faults =
      [ Tme.Scenarios.Split
          { groups = [ List.init width Fun.id ]; from_t; until_t; mode } ]
    in
    let runs =
      List.map
        (fun seed ->
          Tme.Scenarios.run e.Registry.proto ~n ~seed ~steps ~streaming:true
            ~tail_margin
            ~wrapper:(Tme.Scenarios.wrapped_entry e ~delta:e.Registry.default_delta)
            ~faults)
        seeds
    in
    let recovered =
      List.for_all (fun r -> r.Tme.Scenarios.analysis.recovered) runs
    in
    let latency =
      mean_opt (List.map (fun r -> r.Tme.Scenarios.recovery_latency) runs)
    in
    (* during-split service, from the regime-epoch monitors: whether
       every seed's weakened per-epoch spec held, and how many CS
       entries the protocol granted while the partition was up —
       0 for a wedging protocol, >0 for a partition-tolerant one. *)
    let epoch_safe =
      List.for_all
        (fun r -> Graybox.Tme_spec.Epoch.safe r.Tme.Scenarios.epoch_spec)
        runs
    in
    let split_grants =
      List.fold_left
        (fun acc r ->
          acc + r.Tme.Scenarios.epoch_spec.Graybox.Tme_spec.Epoch.split_entries)
        0 runs
    in
    (e, width, mode, recovered, latency, epoch_safe, split_grants)
  in
  let rows = Pool.map ~jobs:!jobs measure grid in
  let mode_label = function
    | Sim.Faults.Lossy -> "lossy"
    | Sim.Faults.Buffered -> "buffered"
  in
  let table =
    Tabular.create
      [ "protocol+W'(delta)"; "width"; "heal mode"; "recovered";
        "latency after heal"; "during"; "epoch-safe"; "split grants" ]
  in
  List.iter
    (fun ((e : Registry.entry), width, mode, recovered, latency, epoch_safe,
          split_grants) ->
      Tabular.add_row table
        [ Printf.sprintf "%s+W'(%d)" e.Registry.name e.Registry.default_delta;
          Printf.sprintf "%d|%d" width (n - width);
          mode_label mode;
          Tabular.cell_bool recovered;
          cell_opt_float latency;
          Registry.during_partition_label e.Registry.during_partition;
          Tabular.cell_bool epoch_safe;
          Tabular.cell_int split_grants ])
    rows;
  Tabular.print
    ~title:
      (Printf.sprintf
         "PARTITION: recovery latency after heal vs partition width and heal \
          mode (n=%d, window %d-%d, 3 seeds)"
         n from_t until_t)
    table

(* ------------------------------------------------------------------ *)
(* load: open-loop latency percentiles                                 *)

let load_bench () =
  (* Every reference protocol under the same open-loop Poisson
     workload at rate 0.2/n per step (constant offered load as n
     grows, since a grant costs O(n) steps).  Latency percentiles are
     exact (one sorted sample) and measured from each request's
     intended arrival — see EXPERIMENTS.md on coordinated omission.

     Sample sizes: a pX.Y figure computed from fewer than ~2/(1-q)
     samples is just the maximum wearing a suit (the old 80-request
     default produced 62 grants, making p99 and p99.9 the same order
     statistic).  The latency rows (n = 100 and 1000) inject 2000
     requests so p99.9 rests on real tail mass; the n = 10000 row
     tracks throughput scale at 200 requests (2000 would need 1e8
     steps at this rate), and any percentile its sample count cannot
     support is reported as '-', not as a lookalike.  Every row is
     seed-deterministic. *)
  let sizes = [ (100, 2000); (1_000, 2000); (10_000, 200) ] in
  let references = Registry.all ~role:Registry.Reference () in
  let measure (e : Registry.entry) (n, requests) =
    let r =
      Tme.Load.run e.Registry.proto ~n ~seed:42
        ~rate:(0.2 /. float_of_int n)
        ~max_requests:requests
        ~max_steps:(((5 * requests) + 400) * n)
        ()
    in
    let ps = Tme.Load.percentiles r [ 50.; 99.; 99.9 ] in
    let supported =
      Stats.suppress_unsupported ~samples:r.Tme.Load.grants
        [ 50.; 99.; 99.9 ] ps
    in
    (e, n, r, supported)
  in
  let rows =
    Pool.map ~jobs:!jobs
      (fun (e, size) -> measure e size)
      (List.concat_map (fun e -> List.map (fun size -> (e, size)) sizes)
         references)
  in
  let table =
    Tabular.create
      [ "protocol"; "n"; "steps"; "granted";
        "p50"; "p99"; "p99.9" ]
  in
  let pct ps i =
    match List.nth_opt ps i with
    | Some (Some p) -> Tabular.cell_float ~decimals:0 p
    | _ -> "-"
  in
  List.iter
    (fun ((e : Registry.entry), n, (r : Tme.Load.result), ps) ->
      Tabular.add_row table
        [ e.Registry.name; string_of_int n;
          string_of_int r.Tme.Load.steps_run;
          Printf.sprintf "%d/%d" r.Tme.Load.grants r.Tme.Load.requests;
          pct ps 0; pct ps 1; pct ps 2 ])
    rows;
  Tabular.print
    ~title:
      "LOAD: open-loop Poisson workload (rate 0.2/n per step, 2000 requests \
       on the latency rows; latency in steps from intended arrival, '-' = \
       too few samples for that percentile)"
    table

(* ------------------------------------------------------------------ *)
(* synth: CEGIS wrapper synthesis                                     *)

let synth_bench () =
  (* Two measurements per synthesizable protocol:

     1. The CEGIS loop itself — candidates tried vs pruned (the
        cex-pruning ratio is the point of the counterexample cache:
        every pruned candidate is an oracle run the examples paid for
        already) and the oracle's state count.  The transcript is
        jobs-invariant, so every count is a stable number.

     2. The synthesized term's runtime overhead vs the hand-written
        refined W at the same δ, under the T4 fault (a dropped-requests
        window): wrapper sends per 1k steps, seed-averaged.  The
        synthesized term should tie the hand-written wrapper exactly
        when synthesis rediscovers it (matches = true). *)
  let faults at =
    [ Tme.Scenarios.Drop_requests_window { from_t = at; until_t = at + 60 } ]
  in
  let cfg = Synth.config ~n:2 () in
  let measure (e : Registry.entry) =
    let r = Synth.synthesize e.Registry.proto cfg in
    let sends wrapper =
      Stats.mean_int
        (List.map
           (fun seed ->
             (Tme.Scenarios.run e.Registry.proto ~n:4 ~seed ~steps:9000
                ~wrapper ~faults:(faults 800))
               .Tme.Scenarios.wrapper_sends)
           seeds)
      *. 1000. /. 9000.
    in
    let overhead =
      match r.Synth.synthesized with
      | None -> None
      | Some term ->
        let synth_rate =
          sends (Tme.Scenarios.wrapped_term ~term ~delta:4 ())
        in
        let hand_rate = sends (Tme.Scenarios.wrapped ~delta:4 ()) in
        Some (synth_rate, hand_rate)
    in
    (e, r, overhead)
  in
  let rows =
    List.map measure
      (List.filter
         (fun (e : Registry.entry) -> e.Registry.synthesizable)
         (Registry.all ()))
  in
  let table =
    Tabular.create
      [ "protocol"; "space"; "checked"; "pruned"; "prune ratio";
        "oracle states"; "term"; "matches W";
        "sends/1k (synth)"; "sends/1k (hand)" ]
  in
  List.iter
    (fun ((e : Registry.entry), (r : Synth.result), overhead) ->
      let tried = r.Synth.checked + r.Synth.pruned in
      Tabular.add_row table
        [ e.Registry.name;
          Tabular.cell_int r.Synth.enumerated;
          Tabular.cell_int r.Synth.checked;
          Tabular.cell_int r.Synth.pruned;
          Tabular.cell_float
            (if tried = 0 then 0.
             else float_of_int r.Synth.pruned /. float_of_int tried);
          Tabular.cell_int r.Synth.oracle_states;
          (match r.Synth.synthesized with
           | Some w -> Graybox.Wrapper.to_string w
           | None -> "-");
          Tabular.cell_bool
            (match r.Synth.synthesized with
             | Some w -> Graybox.Wrapper.equal w Graybox.Wrapper.w_refined
             | None -> false);
          (match overhead with
           | Some (s, _) -> Tabular.cell_float s
           | None -> "-");
          (match overhead with
           | Some (_, h) -> Tabular.cell_float h
           | None -> "-") ])
    rows;
  Tabular.print
    ~title:
      "SYNTH: CEGIS wrapper synthesis per synthesizable protocol (n=2 \
       oracle; prune ratio = counterexample-pruned / tried; sends/1k = \
       wrapper sends per 1k steps under the T4 fault at delta=4, \
       synthesized term vs hand-written refined W)"
    table

(* ------------------------------------------------------------------ *)

let all_tables =
  [ ("t1", t1); ("t2", t2); ("t3", t3); ("t4", t4); ("t5", t5); ("t6", t6);
    ("t8", t8); ("t9", t9); ("t10", t10); ("t11", t11);
    ("partition", partition_bench); ("load", load_bench);
    ("synth", synth_bench) ]

let () =
  let usage () =
    Printf.eprintf
      "usage: main.exe [--jobs N] [table ...]  (tables: %s)\n"
      (String.concat ", " (List.map fst all_tables));
    exit 2
  in
  let set_jobs s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> jobs := n
    | Some n ->
      Printf.eprintf "--jobs: need at least 1 worker, got %d\n" n;
      exit 2
    | None ->
      Printf.eprintf "--jobs: not a number: %s\n" s;
      exit 2
  in
  let rec parse = function
    | [] -> []
    | "--jobs" :: v :: rest -> set_jobs v; parse rest
    | [ "--jobs" ] ->
      Printf.eprintf "--jobs: missing argument\n";
      exit 2
    | arg :: rest when String.starts_with ~prefix:"--jobs=" arg ->
      set_jobs (String.sub arg 7 (String.length arg - 7));
      parse rest
    | arg :: _ when String.starts_with ~prefix:"-" arg -> usage ()
    | arg :: rest -> arg :: parse rest
  in
  let requested =
    match parse (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst all_tables
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt (String.lowercase_ascii name) all_tables with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown table %s (known: %s)\n" name
          (String.concat ", " (List.map fst all_tables));
        exit 2)
    requested
