(* Regime epochs: plan-derived topology segmentation, online/offline
   equivalence of the epoch-indexed spec monitors across the registry,
   and the during-split campaign gates. *)

module Regime = Sim.Regime
module Faults = Sim.Faults
module Epoch = Graybox.Tme_spec.Epoch
module Registry = Graybox.Registry
module S = Tme.Scenarios
module Campaign = Chaos.Campaign

(* plan values for the syntactic derivation only — never executed *)
let split ?(mode = Faults.Lossy) ~from_t ~until_t groups : (unit, unit) Faults.event =
  Faults.at from_t (Faults.Split { groups; from_t; until_t; mode })

let crash ~at ~until_t proc : (unit, unit) Faults.event =
  Faults.at at
    (Faults.Crash { proc = Faults.Proc proc; until_t; lose_deliveries = false })

let topo_label t = Printf.sprintf "e%d:%s@%d" t.Regime.epoch (Regime.groups_label t) t.Regime.since

let timeline_label tl =
  String.concat " " (List.map topo_label (Regime.epochs tl))

(* ------------------------------------------------------------------ *)
(* Segmentation                                                        *)

let test_trivial () =
  let tl = Regime.trivial ~n:4 in
  Alcotest.(check bool) "trivial is trivial" false (Regime.nontrivial tl);
  Alcotest.(check string) "one global epoch" "e0:{0,1,2,3}@0" (timeline_label tl);
  let empty = Regime.of_plan ~n:4 ([] : (unit, unit) Faults.plan) in
  Alcotest.(check string) "empty plan = trivial" (timeline_label tl)
    (timeline_label empty)

let test_split_segmentation () =
  let tl = Regime.of_plan ~n:4 [ split ~from_t:100 ~until_t:200 [ [ 0; 1 ] ] ] in
  Alcotest.(check bool) "nontrivial" true (Regime.nontrivial tl);
  Alcotest.(check string) "three epochs"
    "e0:{0,1,2,3}@0 e1:{0,1}|{2,3}@100 e2:{0,1,2,3}@200" (timeline_label tl);
  (* [at] keys on the epoch boundaries *)
  List.iter
    (fun (t, e) ->
      Alcotest.(check int) (Printf.sprintf "at %d" t) e (Regime.at tl t).Regime.epoch)
    [ (0, 0); (99, 0); (100, 1); (199, 1); (200, 2); (10_000, 2) ]

let test_degenerate_plans () =
  let trivial = timeline_label (Regime.trivial ~n:4) in
  let zero_width =
    Regime.of_plan ~n:4 [ split ~from_t:100 ~until_t:100 [ [ 0; 1 ] ] ]
  in
  Alcotest.(check string) "zero-width window ignored" trivial
    (timeline_label zero_width);
  let no_cut =
    Regime.of_plan ~n:4 [ split ~from_t:100 ~until_t:200 [ [ 3; 1; 0; 2 ] ] ]
  in
  Alcotest.(check string) "non-partitioning groups ignored" trivial
    (timeline_label no_cut)

let test_adjacent_merge () =
  let tl =
    Regime.of_plan ~n:4
      [ split ~from_t:100 ~until_t:200 [ [ 0; 1 ] ];
        split ~from_t:200 ~until_t:300 [ [ 1; 0 ] ] ]
  in
  Alcotest.(check string) "back-to-back identical splits merge"
    "e0:{0,1,2,3}@0 e1:{0,1}|{2,3}@100 e2:{0,1,2,3}@300" (timeline_label tl)

let test_overlap_refines () =
  let tl =
    Regime.of_plan ~n:4
      [ split ~from_t:100 ~until_t:300 [ [ 0; 1 ] ];
        split ~from_t:200 ~until_t:400 [ [ 0; 2 ] ] ]
  in
  Alcotest.(check string) "overlap is the pairwise refinement"
    "e0:{0,1,2,3}@0 e1:{0,1}|{2,3}@100 e2:{0}|{1}|{2}|{3}@200 \
     e3:{0,2}|{1,3}@300 e4:{0,1,2,3}@400"
    (timeline_label tl)

let test_crash_live () =
  let tl = Regime.of_plan ~n:3 [ crash ~at:50 ~until_t:120 1 ] in
  Alcotest.(check bool) "crash window is nontrivial" true (Regime.nontrivial tl);
  let during = Regime.at tl 80 and after = Regime.at tl 200 in
  Alcotest.(check bool) "dead during window" false during.Regime.live.(1);
  Alcotest.(check bool) "alive after" true after.Regime.live.(1)

let test_group_ops () =
  let tl = Regime.of_plan ~n:5 [ split ~from_t:10 ~until_t:20 [ [ 0; 3 ] ] ] in
  let topo = Regime.at tl 15 in
  Alcotest.(check (list int)) "group of 3" [ 0; 3 ] (Regime.group_members topo 3);
  Alcotest.(check (list int)) "remainder group" [ 1; 2; 4 ]
    (Regime.group_members topo 2);
  Alcotest.(check bool) "same group" true (Regime.same_group topo 0 3);
  Alcotest.(check bool) "cross group" false (Regime.same_group topo 0 4);
  Alcotest.(check int) "group_of out of range" (-1) (Regime.group_of topo 9)

let test_cursor_agrees_with_at () =
  let tl =
    Regime.of_plan ~n:4
      [ split ~from_t:100 ~until_t:300 [ [ 0; 1 ] ];
        split ~from_t:200 ~until_t:400 [ [ 0; 2 ] ] ]
  in
  let c = Regime.cursor tl in
  for t = 0 to 500 do
    Alcotest.(check int)
      (Printf.sprintf "advance %d" t)
      (Regime.at tl t).Regime.epoch (Regime.advance c t).Regime.epoch
  done;
  (* earlier times read the current epoch, not a rewind *)
  Alcotest.(check int) "monotone" (Regime.at tl 500).Regime.epoch
    (Regime.advance c 0).Regime.epoch

(* ------------------------------------------------------------------ *)
(* Online == offline equivalence                                       *)

(* Every registered protocol, both heal modes, >= 10 seeds: a run that
   streams (and may exit early), a recorded run of the full horizon,
   and the recorded trace replayed through the fold without repeat
   hints (the oracle [Epoch.of_trace]) must produce the same report —
   verdict for verdict, reason for reason.  Odd seeds run unwrapped so
   the streaming early-exit (synthetic tail feed) is on the tested
   path. *)
let test_online_offline_equivalence () =
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun mode ->
          for seed = 0 to 9 do
            let wrapper =
              if seed mod 2 = 0 then S.wrapped ~delta:e.Registry.default_delta ()
              else Graybox.Harness.Off
            in
            let faults =
              [ S.Split { groups = [ [ 0; 1 ] ]; from_t = 300; until_t = 600; mode } ]
            in
            let run record =
              S.run e.Registry.proto ~n:4 ~seed ~steps:1200 ~record ~wrapper ~faults
            in
            let recorded = run true in
            let on = (run false).S.epoch_spec in
            let replayed =
              Oracles.Tme_spec.Epoch.of_trace
                ~timeline:
                  (Regime.of_plan ~n:4 [ split ~mode ~from_t:300 ~until_t:600 [ [ 0; 1 ] ] ])
                ~n:4 ~entries:recorded.S.entry_log recorded.S.vtrace
            in
            let label =
              Printf.sprintf "%s seed %d %s" e.Registry.name seed
                (match mode with
                 | Faults.Lossy -> "lossy"
                 | Faults.Buffered -> "buffered")
            in
            if List.length on.Epoch.rows < 2 then
              Alcotest.fail (label ^ ": split plan produced a one-epoch report");
            Alcotest.(check int)
              (label ^ " prints a line per row and per verdict")
              (List.length on.Epoch.rows + 4)
              (List.length
                 (String.split_on_char '\n' (Format.asprintf "%a" Epoch.pp on)));
            List.iter
              (fun (what, (off : Epoch.report)) ->
                Alcotest.(check string)
                  (label ^ " rendering (" ^ what ^ ")")
                  (Format.asprintf "%a" Epoch.pp off)
                  (Format.asprintf "%a" Epoch.pp on);
                Alcotest.(check bool)
                  (label ^ " structurally (" ^ what ^ ")") true (off = on))
              [ ("recorded", recorded.S.epoch_spec); ("replayed", replayed) ]
          done)
        [ Faults.Lossy; Faults.Buffered ])
    (Registry.all ())

(* ------------------------------------------------------------------ *)
(* The epoch fold against an independent reference                     *)

(* The streamed and the replayed report share one fold, so the
   equivalence above cannot see that fold drift from the spec.  This
   reference restates it the direct, list-based way: ME1 lists each
   snapshot's eaters and filters them per group; ME2 keeps, per
   process, every index at which it was hungry in a global epoch and
   has not eaten since (a gated leads-to), and conjoins the processes'
   verdicts; ME3 compares vector clocks componentwise. *)
module Reference = struct
  open Unityspec

  let vc_lt a b =
    let xs = Clocks.Vector_clock.to_list a
    and ys = Clocks.Vector_clock.to_list b in
    List.length xs = List.length ys && List.for_all2 ( <= ) xs ys && xs <> ys

  let eater_pids views =
    List.filter (fun j -> Graybox.View.eating views.(j))
      (List.init (Array.length views) Fun.id)

  let crowded eaters g =
    List.length (List.filter (fun k -> List.mem k g) eaters) > 1

  let me1_ok (topo : Regime.topo) eaters =
    not (List.exists (crowded eaters) topo.Regime.groups)

  let label pids = "{" ^ String.concat "," (List.map string_of_int pids) ^ "}"

  type t = {
    cursor : Regime.cursor;
    rows : (Regime.topo * Temporal.verdict ref * int ref) array;
    mutable cur_epoch : int;
    mutable idx : int;
    mutable obligation : (int list * int * int) option;
    me2_open : int list array;
        (** per process, its open obligations, most recent first *)
    mutable me3 : Temporal.verdict;
    mutable earlier : (Graybox.Harness.entry_record * Regime.topo) list;
    mutable entry_idx : int;
    mutable split_entries : int;
  }

  let create ~n ~timeline =
    { cursor = Regime.cursor timeline;
      rows =
        Array.of_list
          (List.map
             (fun t -> (t, ref Temporal.Holds, ref 0))
             (Regime.epochs timeline));
      cur_epoch = 0;
      idx = 0;
      obligation = None;
      me2_open = Array.make n [];
      me3 = Temporal.Holds;
      earlier = [];
      entry_idx = 0;
      split_entries = 0 }

  let feed m ~time views =
    let topo = Regime.advance m.cursor time in
    let eaters = eater_pids views in
    if topo.Regime.epoch <> m.cur_epoch then begin
      m.cur_epoch <- topo.Regime.epoch;
      if (not (me1_ok topo eaters)) && m.obligation = None then
        m.obligation <- Some (eaters, time, m.idx)
    end;
    let _, me1, _ = m.rows.(topo.Regime.epoch) in
    let legal = me1_ok topo eaters in
    let tolerated =
      match m.obligation with
      | Some (held, _, _) -> List.for_all (fun k -> List.mem k held) eaters
      | None -> false
    in
    if legal then m.obligation <- None;
    if (not legal) && (not tolerated) && !me1 = Temporal.Holds then
      me1 :=
        Temporal.Violated
          { at = m.idx;
            reason =
              Printf.sprintf
                "ME1[epoch %d]: concurrent CS holders %s in group %s"
                topo.Regime.epoch (label eaters)
                (label (List.find (crowded eaters) topo.Regime.groups)) };
    Array.iteri
      (fun j v ->
        if Graybox.View.eating v then m.me2_open.(j) <- []
        else if topo.Regime.phase = Regime.Global && Graybox.View.hungry v then
          m.me2_open.(j) <- m.idx :: m.me2_open.(j))
      views;
    m.idx <- m.idx + 1

  let feed_entry m ~time (e : Graybox.Harness.entry_record) =
    let topo = Regime.advance m.cursor time in
    let _, _, entries = m.rows.(topo.Regime.epoch) in
    incr entries;
    if topo.Regime.phase = Regime.Split then
      m.split_entries <- m.split_entries + 1;
    let comparable (prev : Graybox.Harness.entry_record) prev_topo =
      topo.Regime.phase = Regime.Global
      || prev_topo.Regime.phase = Regime.Global
      || Regime.same_group topo e.entry_pid prev.entry_pid
    in
    if
      m.me3 = Temporal.Holds
      && List.exists
           (fun ((prev : Graybox.Harness.entry_record), prev_topo) ->
             comparable prev prev_topo && vc_lt e.entry_req_vc prev.entry_req_vc)
           m.earlier
    then
      m.me3 <-
        Temporal.Violated
          { at = m.entry_idx;
            reason =
              Printf.sprintf
                "entry %d by process %d served a request that happened-before \
                 an already-served one"
                m.entry_idx e.entry_pid };
    m.earlier <- (e, topo) :: m.earlier;
    m.entry_idx <- m.entry_idx + 1

  let report m : Epoch.report =
    { rows =
        Array.to_list m.rows
        |> List.map (fun (topo, me1, entries) ->
               { Epoch.topo; me1 = !me1; row_entries = !entries });
      heal =
        (match m.obligation with
         | Some (held, time, idx) ->
           Temporal.Violated
             { at = idx;
               reason =
                 Printf.sprintf
                   "CS holders %s spanning the regime change at time %d were \
                    never resolved to one"
                   (label held) time }
         | None -> Temporal.Holds);
      me2 =
        Temporal.all
          (Array.to_list m.me2_open
          |> List.map (function
               | [] -> Temporal.Holds
               | open_ -> Temporal.Pending { obligations = List.rev open_ }));
      me3 = m.me3;
      split_entries = m.split_entries;
      snapshots = m.idx }
end

(* A random run as the monitors see it: a timeline of 1-3 split
   windows and up to two crash windows over n in 2..6, then stretches
   of constant modes (long ones, like a wedged run's tail, which the
   windows' ends mostly fall inside) with random CS entries fed before
   a stretch's first snapshot.  An entry's request vector clock is
   random noise over a floor that rises by [drift] per stretch.  With
   no drift, some entry soon lands below an earlier one; with drift the
   stamps are mostly ordered, so ME3 keeps checking over longer
   histories of incomparable stamps and stamps from other groups of a
   split. *)
type stretch = {
  modes : Graybox.View.mode array;
  len : int;
  entries : (int * int list) list;  (** entry pid, request vector clock *)
}

type fold_input = {
  fn : int;
  plan : (unit, unit) Faults.plan;
  stretches : stretch list;
  drift : int;
}

let gen_fold_input =
  let open QCheck2.Gen in
  let* fn = 2 -- 6 in
  let* drift = 0 -- 2 in
  let* stretches =
    list_size (1 -- 12)
      (let* modes =
         array_repeat fn
           (frequencyl
              [ (3, Graybox.View.Thinking); (3, Graybox.View.Hungry);
                (2, Graybox.View.Eating) ])
       in
       let* len = frequency [ (3, 1 -- 8); (1, 20 -- 120) ] in
       let* entries =
         list_size (0 -- 2) (pair (0 -- (fn - 1)) (list_repeat fn (0 -- 2)))
       in
       return { modes; len; entries })
  in
  let horizon = List.fold_left (fun acc st -> acc + st.len) 0 stretches in
  let window =
    let* a = 0 -- horizon and* b = 0 -- horizon in
    return (min a b, max a b + 1)
  in
  let* splits =
    list_size (1 -- 3)
      (let* groups = list_size (1 -- 2) (list_size (1 -- fn) (0 -- (fn - 1)))
       and* from_t, until_t = window
       and* buffered = bool in
       let mode = if buffered then Faults.Buffered else Faults.Lossy in
       return
         (Faults.at from_t (Faults.Split { groups; from_t; until_t; mode })))
  in
  let* crashes =
    list_size (0 -- 2)
      (let* p = 0 -- (fn - 1) and* from_t, until_t = window in
       let proc = Faults.Proc p in
       return
         (Faults.at from_t
            (Faults.Crash { proc; until_t; lose_deliveries = false })))
  in
  return { fn; plan = splits @ crashes; stretches; drift }

let print_fold_input i =
  let timeline = Regime.of_plan ~n:i.fn i.plan in
  let stretch st =
    String.concat ""
      (List.map (fun (p, _) -> Printf.sprintf "[entry %d]" p) st.entries
      @ Array.to_list (Array.map Graybox.View.mode_to_string st.modes))
    ^ Printf.sprintf "x%d" st.len
  in
  Printf.sprintf "n=%d drift=%d timeline: %s\nstretches: %s" i.fn i.drift
    (timeline_label timeline)
    (String.concat " " (List.map stretch i.stretches))

(* The fold is fed as the streaming observer feeds it: a snapshot
   whose modes repeat the previous snapshot's is flagged a repeat. *)
let feed_both i =
  let timeline = Regime.of_plan ~n:i.fn i.plan in
  let m = Epoch.create ~n:i.fn ~timeline in
  let r = Reference.create ~n:i.fn ~timeline in
  let time = ref 0 in
  let prev_modes = ref [||] in
  List.iteri
    (fun k st ->
      List.iter
        (fun (pid, vc) ->
          let e =
            { Graybox.Harness.entry_time = !time;
              entry_pid = pid;
              entry_req = Clocks.Timestamp.zero ~pid;
              entry_req_vc =
                Clocks.Vector_clock.of_list
                  (List.map (fun c -> c + (k * i.drift)) vc) }
          in
          Epoch.feed_entry m ~time:!time e;
          Reference.feed_entry r ~time:!time e)
        st.entries;
      let views =
        Array.mapi
          (fun self mode ->
            Graybox.View.make ~self ~mode
              ~req:(Clocks.Timestamp.zero ~pid:self)
              ~local_req:Sim.Pid.Map.empty ~clock:0)
          st.modes
      in
      for s = 1 to st.len do
        let repeat = s > 1 || st.modes = !prev_modes in
        Epoch.feed m ~time:!time ~repeat views;
        Reference.feed r ~time:!time views;
        incr time
      done;
      prev_modes := st.modes)
    i.stretches;
  (Epoch.report m, Reference.report r)

let prop_fold_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"epoch fold == list-based reference"
       ~print:print_fold_input gen_fold_input (fun i ->
         let (got : Epoch.report), (want : Epoch.report) = feed_both i in
         let check name pp g w =
           if g <> w then
             QCheck2.Test.fail_reportf "%s: fold %a, reference %a" name pp g
               pp w
         in
         let verdict = Unityspec.Temporal.pp_verdict
         and int = Format.pp_print_int in
         List.iteri
           (fun k ((g : Epoch.row), (w : Epoch.row)) ->
             check (Printf.sprintf "row %d ME1" k) verdict g.me1 w.me1;
             check (Printf.sprintf "row %d entries" k) int g.row_entries
               w.row_entries)
           (List.combine got.rows want.rows);
         check "heal" verdict got.heal want.heal;
         check "ME2" verdict got.me2 want.me2;
         check "ME3" verdict got.me3 want.me3;
         check "split entries" int got.split_entries want.split_entries;
         check "snapshots" int got.snapshots want.snapshots;
         true))

(* A hungry run that crosses a split: its global snapshots before and
   after the split stay open as two intervals (the split snapshots open
   nothing), and eating after the heal discharges both. *)
let test_me2_run_across_split () =
  let n = 2 in
  let timeline = Regime.of_plan ~n [ split ~from_t:3 ~until_t:6 [ [ 0 ] ] ] in
  let views mode =
    Array.init n (fun self ->
        Graybox.View.make ~self
          ~mode:(if self = 0 then mode else Graybox.View.Thinking)
          ~req:(Clocks.Timestamp.zero ~pid:self)
          ~local_req:Sim.Pid.Map.empty ~clock:0)
  in
  let m = Epoch.create ~n ~timeline in
  let r = Reference.create ~n ~timeline in
  let feed time mode =
    Epoch.feed m ~time ~repeat:false (views mode);
    Reference.feed r ~time (views mode)
  in
  let verdict =
    Alcotest.testable Unityspec.Temporal.pp_verdict ( = )
  in
  for time = 0 to 8 do
    feed time Graybox.View.Hungry
  done;
  Alcotest.check verdict "open across the split"
    (Unityspec.Temporal.Pending { obligations = [ 0; 1; 2; 6; 7; 8 ] })
    (Epoch.report m).Epoch.me2;
  Alcotest.check verdict "reference agrees" (Reference.report r).Epoch.me2
    (Epoch.report m).Epoch.me2;
  feed 9 Graybox.View.Eating;
  Alcotest.check verdict "discharged by eating" Unityspec.Temporal.Holds
    (Epoch.report m).Epoch.me2;
  Alcotest.check verdict "reference agrees" (Reference.report r).Epoch.me2
    (Epoch.report m).Epoch.me2

(* ------------------------------------------------------------------ *)
(* During-split campaign gates                                         *)

(* The tolerant variant must pass its weak-ME1 gate with nonzero
   during-split grants; the never-heals ablation must be caught; and
   the whole report — per-epoch verdicts included — must be invariant
   in the worker count. *)
let during_cfg ~jobs =
  Campaign.config ~seeds:8 ~budget:4 ~n:4 ~steps:1200
    ~protocols:[ "ra-lease"; "ra-lease-stale" ]
    ~shrink:false ~jobs ~partitions:true ()

let find_cell report ~protocol ~wrapped ~during =
  match
    List.find_opt
      (fun (c : Campaign.cell) ->
        c.Campaign.cell_protocol = protocol
        && c.Campaign.cell_wrapped = wrapped
        && (c.Campaign.cell_during <> None) = during)
      report.Campaign.cells
  with
  | Some c -> c
  | None -> Alcotest.fail (Printf.sprintf "no %s cell (wrapped=%b)" protocol wrapped)

let test_during_gates () =
  let report = Campaign.run (during_cfg ~jobs:2) in
  Alcotest.(check bool) "campaign gate" true report.Campaign.gate_ok;
  Alcotest.(check bool) "during table present" true
    (Campaign.has_during_cells report);
  let lease = find_cell report ~protocol:"ra-lease" ~wrapped:true ~during:true in
  Alcotest.(check bool) "ra-lease during gate" true lease.Campaign.cell_ok;
  let grants =
    List.fold_left
      (fun acc (r : Campaign.row) ->
        match r.Campaign.row_epoch with
        | Some (_, entries) -> acc + entries
        | None -> acc)
      0 lease.Campaign.rows
  in
  Alcotest.(check bool) "serves during the split" true (grants > 0);
  List.iter
    (fun (r : Campaign.row) ->
      match r.Campaign.row_epoch with
      | Some (safe, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "ra-lease epoch-safe (seed %d)" r.Campaign.row_seed)
          true safe
      | None -> Alcotest.fail "during cell row without epoch verdict")
    lease.Campaign.rows;
  let stale =
    find_cell report ~protocol:"ra-lease-stale" ~wrapped:true ~during:true
  in
  Alcotest.(check bool) "ablation cell gated as failure" true
    (stale.Campaign.cell_expect = Campaign.Expect_failure);
  Alcotest.(check bool) "ablation caught" true stale.Campaign.cell_ok;
  Alcotest.(check bool) "some stale run is epoch-unsafe" true
    (List.exists
       (fun (r : Campaign.row) ->
         match r.Campaign.row_epoch with Some (safe, _) -> not safe | None -> false)
       stale.Campaign.rows);
  (* non-during cells never carry epoch verdicts (byte-identity) *)
  List.iter
    (fun (c : Campaign.cell) ->
      if c.Campaign.cell_during = None then
        List.iter
          (fun (r : Campaign.row) ->
            Alcotest.(check bool) "no epoch verdict outside during cells" true
              (r.Campaign.row_epoch = None))
          c.Campaign.rows)
    report.Campaign.cells

let test_during_jobs_invariant () =
  let render jobs =
    Chaos.Jsonx.to_string (Campaign.to_json (Campaign.run (during_cfg ~jobs)))
  in
  Alcotest.(check bool) "jobs=1 == jobs=4" true (render 1 = render 4)

let () =
  Alcotest.run "regime"
    [ ( "segmentation",
        [ Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "split" `Quick test_split_segmentation;
          Alcotest.test_case "degenerate" `Quick test_degenerate_plans;
          Alcotest.test_case "adjacent-merge" `Quick test_adjacent_merge;
          Alcotest.test_case "overlap-refines" `Quick test_overlap_refines;
          Alcotest.test_case "crash-live" `Quick test_crash_live;
          Alcotest.test_case "group-ops" `Quick test_group_ops;
          Alcotest.test_case "cursor" `Quick test_cursor_agrees_with_at ] );
      ( "equivalence",
        [ Alcotest.test_case "online==offline" `Slow
            test_online_offline_equivalence;
          prop_fold_matches_reference;
          Alcotest.test_case "ME2 run across a split" `Quick
            test_me2_run_across_split ] );
      ( "during-gates",
        [ Alcotest.test_case "tolerant-passes-ablation-caught" `Slow
            test_during_gates;
          Alcotest.test_case "jobs-invariant" `Slow test_during_jobs_invariant ] )
    ]
