(* Tests for the chaos-campaign engine: plan generation, outcome
   classification, counterexample shrinking, and campaign determinism. *)

module Rng = Stdext.Rng
module Plan_gen = Chaos.Plan_gen
module Outcome = Chaos.Outcome
module Shrink = Chaos.Shrink
module Campaign = Chaos.Campaign

(* ------------------------------------------------------------------ *)
(* Plan generation                                                     *)

let test_plan_gen_budget () =
  let cfg = Plan_gen.config ~n:4 ~horizon:2000 ~budget:7 () in
  let plan = Plan_gen.generate (Rng.create 5) cfg in
  Alcotest.(check int) "budget events" 7 (List.length plan);
  let empty = Plan_gen.generate (Rng.create 5) { cfg with budget = 0 } in
  Alcotest.(check int) "zero budget" 0 (List.length empty)

let test_plan_gen_deterministic () =
  let cfg = Plan_gen.config ~n:4 ~horizon:4000 ~budget:6 () in
  let render seed =
    Plan_gen.plan_label (Plan_gen.generate (Rng.create seed) cfg)
  in
  Alcotest.(check string) "same seed same plan" (render 11) (render 11);
  (* not a constant generator: some nearby seed must differ *)
  let base = render 1 in
  Alcotest.(check bool) "seeds matter" true
    (List.exists (fun s -> render s <> base) [ 2; 3; 4; 5; 6 ])

let test_plan_gen_times_bounded () =
  let cfg = Plan_gen.config ~n:4 ~horizon:1000 ~budget:40 () in
  let plan = Plan_gen.generate (Rng.create 9) cfg in
  List.iter
    (fun spec ->
      let t = Plan_gen.spec_time spec in
      Alcotest.(check bool)
        (Printf.sprintf "fault at %d leaves a convergence tail" t)
        true
        (t >= 0 && t <= cfg.Plan_gen.horizon * 3 / 5))
    plan;
  (* sorted by injection time *)
  let times = List.map Plan_gen.spec_time plan in
  Alcotest.(check (list int)) "sorted" (List.sort compare times) times

let test_plan_gen_validation () =
  Alcotest.check_raises "n < 2" (Invalid_argument "Plan_gen.config: need n >= 2")
    (fun () -> ignore (Plan_gen.config ~n:1 ~horizon:1000 ~budget:3 ()))

(* Exhaustive by construction: adding a fault_spec constructor breaks
   this match, forcing the new kind into the coverage assertion. *)
let spec_tag = function
  | Tme.Scenarios.Drop_requests _ -> "drop-requests"
  | Tme.Scenarios.Drop_requests_window _ -> "drop-requests-window"
  | Tme.Scenarios.Drop_any _ -> "drop-any"
  | Tme.Scenarios.Duplicate _ -> "duplicate"
  | Tme.Scenarios.Corrupt_messages _ -> "corrupt-messages"
  | Tme.Scenarios.Reorder _ -> "reorder"
  | Tme.Scenarios.Flush _ -> "flush"
  | Tme.Scenarios.Partition _ -> "partition"
  | Tme.Scenarios.Corrupt_state _ -> "corrupt-state"
  | Tme.Scenarios.Reset_state _ -> "reset-state"
  | Tme.Scenarios.Crash _ -> "crash"
  | Tme.Scenarios.Split _ -> "split"
  | Tme.Scenarios.Delay _ -> "delay"

let all_tags =
  [ "drop-requests"; "drop-requests-window"; "drop-any"; "duplicate";
    "corrupt-messages"; "reorder"; "flush"; "partition"; "corrupt-state";
    "reset-state"; "crash"; "split"; "delay" ]

let sampled_tags cfg seeds =
  List.fold_left
    (fun acc seed ->
      List.fold_left
        (fun acc spec -> (spec_tag spec :: acc))
        acc
        (Plan_gen.generate (Rng.create seed) cfg))
    [] (List.init seeds Fun.id)
  |> List.sort_uniq compare

let test_plan_gen_samples_every_kind () =
  (* with partitions on, every fault_spec constructor is eventually
     generated *)
  let cfg = Plan_gen.config ~partitions:true ~n:4 ~horizon:2000 ~budget:8 () in
  let seen = sampled_tags cfg 200 in
  List.iter
    (fun tag ->
      Alcotest.(check bool) (tag ^ " sampled") true (List.mem tag seen))
    all_tags;
  (* with partitions off (the default), the partition family never
     appears — default plan streams are unchanged *)
  let seen_default =
    sampled_tags (Plan_gen.config ~n:4 ~horizon:2000 ~budget:8 ()) 200
  in
  Alcotest.(check bool) "no split by default" false
    (List.mem "split" seen_default);
  Alcotest.(check bool) "no delay by default" false
    (List.mem "delay" seen_default)

let test_plan_gen_partition_labels () =
  Alcotest.(check string) "split label" "split@120-200({0,1}|{2},buf)"
    (Plan_gen.spec_label
       (Tme.Scenarios.Split
          { groups = [ [ 0; 1 ]; [ 2 ] ];
            from_t = 120;
            until_t = 200;
            mode = Sim.Faults.Buffered }));
  Alcotest.(check string) "delay label" "delay@80(p0->p2,~exp30)"
    (Plan_gen.spec_label
       (Tme.Scenarios.Delay
          { at = 80;
            chan = Sim.Faults.Chan (0, 2);
            dist = Sim.Faults.Heavy_tail { mean = 30; cap = 120 } }));
  Alcotest.(check string) "fixed delay label" "delay@5(*,=3)"
    (Plan_gen.spec_label
       (Tme.Scenarios.Delay
          { at = 5; chan = Sim.Faults.Any_chan; dist = Sim.Faults.Fixed 3 }))

let test_plan_gen_split_plan () =
  let cfg = Plan_gen.config ~n:4 ~horizon:2000 ~budget:5 () in
  let check_mode mode =
    match Plan_gen.split_plan (Rng.create 3) cfg ~mode with
    | [ Tme.Scenarios.Split { groups; from_t; until_t; mode = m } ] ->
      Alcotest.(check bool) "mode honoured" true (m = mode);
      Alcotest.(check bool) "window ordered" true (from_t < until_t);
      Alcotest.(check bool) "proper cut" true (List.length groups >= 2)
    | _ -> Alcotest.fail "split_plan must hold exactly one Split"
  in
  check_mode Sim.Faults.Lossy;
  check_mode Sim.Faults.Buffered;
  (* the two modes share the partition geometry: same seed, same groups *)
  match
    ( Plan_gen.split_plan (Rng.create 3) cfg ~mode:Sim.Faults.Lossy,
      Plan_gen.split_plan (Rng.create 3) cfg ~mode:Sim.Faults.Buffered )
  with
  | ( [ Tme.Scenarios.Split { groups = g1; from_t = f1; until_t = u1; _ } ],
      [ Tme.Scenarios.Split { groups = g2; from_t = f2; until_t = u2; _ } ] ) ->
    Alcotest.(check bool) "same geometry" true (g1 = g2 && f1 = f2 && u1 = u2)
  | _ -> Alcotest.fail "split_plan must hold exactly one Split"

(* ------------------------------------------------------------------ *)
(* The text form of a plan: labels parse back                          *)

let prop_labels_round_trip =
  (* every plan the campaign can draw, at every process count, prints
     to labels that parse back to the same plan *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"parse (plan_label p) = p"
       QCheck2.Gen.(
         quad small_nat (int_range 2 8) (int_range 10 20_000) (int_range 0 3))
       (fun (seed, n, horizon, variant) ->
         let cfg =
           Plan_gen.config ~partitions:(variant = 1) ~n ~horizon ~budget:6 ()
         in
         let rng = Rng.create seed in
         let plan =
           match variant with
           | 0 | 1 -> Plan_gen.generate rng cfg
           | 2 -> Plan_gen.split_plan rng cfg ~mode:Sim.Faults.Lossy
           | _ -> Plan_gen.split_plan rng cfg ~mode:Sim.Faults.Buffered
         in
         Plan_gen.parse (Plan_gen.plan_label plan) = Ok plan))

let test_parse_accepts () =
  let parses s want =
    Alcotest.(check bool) (s ^ " parses") true (Plan_gen.parse s = Ok want)
  in
  parses "burst@1000" (Tme.Scenarios.burst ~at:1000);
  parses "" [];
  parses "  flush@3   corrupt-state@5(any) "
    [ Tme.Scenarios.Flush { at = 3 };
      Tme.Scenarios.Corrupt_state { at = 5; procs = Sim.Faults.Any_proc } ];
  (* unlisted pids join the remainder group when the split is lowered *)
  parses "split@5-10({0},lossy)"
    [ Tme.Scenarios.Split
        { groups = [ [ 0 ] ]; from_t = 5; until_t = 10; mode = Sim.Faults.Lossy } ];
  (* a request-loss or isolation window includes its last step *)
  parses "drop-requests@50-50"
    [ Tme.Scenarios.Drop_requests_window { from_t = 50; until_t = 50 } ];
  (* a heavy tail prints its cap unless it is the generator's 120 *)
  let heavy cap =
    [ Tme.Scenarios.Delay
        { at = 400;
          chan = Sim.Faults.Any_chan;
          dist = Sim.Faults.Heavy_tail { mean = 5; cap } } ]
  in
  Alcotest.(check string) "cap 40 printed" "delay@400(*,~exp5/40)"
    (Plan_gen.plan_label (heavy 40));
  parses "delay@400(*,~exp5/40)" (heavy 40);
  Alcotest.(check string) "cap 120 omitted" "delay@400(*,~exp5)"
    (Plan_gen.plan_label (heavy 120));
  parses "delay@400(*,~exp5)" (heavy 120)

let test_parse_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (Result.is_error (Plan_gen.parse s)))
    [ "burst:1000"; "burst"; "burst@"; "burst@-5"; "burst@0x10"; "nope@5";
      "flush@5(p1)"; "crash@5-10"; "drop@5"; "drop@5/0"; "drop@5/-1";
      "drop-requests@60-50"; "partition@9-5(p1)"; "crash@5-5(p1)";
      "split@5-5({0}|{1},lossy)"; "split@10-5({0}|{1},buf)";
      "split@5-10({0,x}|{1},lossy)"; "split@5-10({0}|{0},lossy)";
      "split@5-10(0|1,lossy)"; "split@5-10({0}|{1},leaky)";
      "split@5-10({0}|{1})"; "crash@5-10(p1,keep)"; "crash@5-10(1)";
      "crash@5-10(p1"; "corrupt-state@5(px)"; "delay@5(p0->p1)";
      "delay@5(p0-p1,=3)"; "delay@5(*->*,=3)"; "delay@5(*,~u9)";
      "delay@5(*,~u9-3)"; "delay@5(*,exp3)"; "delay@5(*,~exp3/)";
      "delay@5(*,~exp3/-40)"; "delay@5(*,~exp3/4/5)";
      (* labels that name nothing: a mean of 0 would run as 1, a cap of
         0 delays nothing, and no protocol sends to itself *)
      "delay@5(*,~exp0)"; "delay@5(*,~exp5/0)"; "delay@5(p0->p0,=1)" ];
  List.iter
    (fun s ->
      match Plan_gen.parse s with
      | Error msg ->
        Alcotest.(check bool) (s ^ ": the message names the token") true
          (String.starts_with ~prefix:(s ^ ": ") msg)
      | Ok _ -> Alcotest.fail (s ^ " accepted"))
    [ "delay@5(*,~exp0)"; "delay@5(*,~exp5/0)"; "delay@5(p0->p0,=1)" ];
  match Plan_gen.parse "flush@3 burst:1000" with
  | Error msg ->
    Alcotest.(check bool) "the message names the token and the form" true
      (String.starts_with ~prefix:"burst:1000: expected" msg
      && String.ends_with ~suffix:"burst@TIME" msg)
  | Ok _ -> Alcotest.fail "old spelling accepted"

let test_plan_check () =
  let check ?(n = 4) ?(steps = 1000) s =
    match Plan_gen.parse s with
    | Ok plan -> Result.is_ok (Plan_gen.check ~n ~steps plan)
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " fits n=4, 1000 steps") true (check s))
    [ "split@5-10({0}|{1,2,3},lossy)"; "split@5-10({0},buf)"; "crash@5-10(p3)";
      "corrupt-state@999(any)"; "delay@5(p0->p3,=2)"; "drop@5/3";
      "split@900-5000({0}|{1},lossy)" ];
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " does not fit") false (check s))
    [ "split@5-10({4}|{0},lossy)"; "split@5-10({0,1,2,3},lossy)";
      "crash@5-10(p4)"; "partition@5-9(p4)"; "corrupt-state@5(p4)";
      "reset@5(p9)"; "delay@5(p4->*,=3)"; "delay@5(*->p4,=3)";
      "delay@5(p0->p4,=3)"; "flush@1000"; "burst@1000";
      "split@5000-6000({0}|{1,2,3},lossy)" ]

(* The committed golden reports, read back through a minimal JSON
   reader (enough for Jsonx's output: no exponents, simple escapes). *)
type json =
  | Null
  | Bool of bool
  | Num of int
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let read_json s =
  let pos = ref 0 in
  let next () =
    let c = s.[!pos] in
    incr pos;
    c
  in
  let rec ws () =
    if !pos < String.length s && s.[!pos] <= ' ' then begin
      incr pos;
      ws ()
    end
  in
  let str () =
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        Buffer.add_char b
          (match next () with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  (* comma-separated items up to [close] *)
  let rec items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    ws ();
    if s.[!pos] = close then begin
      incr pos;
      []
    end
    else
      let x = item () in
      ws ();
      if next () = ',' then x :: items close item else [ x ]
  in
  let rec value () =
    ws ();
    match next () with
    | '{' ->
      Obj
        (items '}' (fun () ->
             ignore (next ());
             let k = str () in
             ws ();
             ignore (next ());
             (k, value ())))
    | '[' -> Arr (items ']' value)
    | '"' -> Str (str ())
    | _ -> (
      let start = !pos - 1 in
      while !pos < String.length s && not (String.contains ",]}" s.[!pos]) do
        incr pos
      done;
      match String.sub s start (!pos - start) with
      | "true" -> Bool true
      | "false" -> Bool false
      | "null" -> Null
      | w ->
        (* floats (latency statistics) are never read here *)
        Num (Option.value ~default:0 (int_of_string_opt w)))
  in
  value ()

let field k = function
  | Obj kv -> (match List.assoc_opt k kv with Some v -> v | None -> Null)
  | _ -> Null

let to_str = function Str s -> s | _ -> Alcotest.fail "expected a string"
let to_int = function Num i -> i | _ -> Alcotest.fail "expected a number"
let to_list = function Arr l -> l | _ -> Alcotest.fail "expected a list"

let golden_reports =
  lazy
  (List.map
    (fun path ->
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (path, read_json s))
    [ "golden_campaign.json"; "golden_partition_campaign.json" ])

let parse_labels labels =
  match Plan_gen.parse (String.concat " " (List.map to_str labels)) with
  | Ok plan -> plan
  | Error e -> Alcotest.fail e

let test_golden_labels_round_trip () =
  List.iter
    (fun (path, report) ->
      let plans =
        List.concat_map
          (fun cell -> List.map (field "plan") (to_list (field "runs" cell)))
          (to_list (field "cells" report))
        @ List.concat_map
            (fun cx -> [ field "original" cx; field "shrunk" cx ])
            (to_list (field "counterexamples" report))
      in
      List.iter
        (fun labels ->
          List.iter
            (fun l ->
              let printed =
                match Plan_gen.parse (to_str l) with
                | Ok plan -> Plan_gen.plan_label plan
                | Error e -> e
              in
              Alcotest.(check string) (path ^ ": label prints back") (to_str l)
                printed)
            (to_list labels))
        plans;
      (* the OCaml rendering of a shrunk plan is the parsed labels' *)
      List.iter
        (fun cx ->
          Alcotest.(check string) (path ^ ": shrunk_ocaml")
            (to_str (field "shrunk_ocaml" cx))
            (Format.asprintf "%a" Plan_gen.pp_plan
               (parse_labels (to_list (field "shrunk" cx)))))
        (to_list (field "counterexamples" report)))
    (Lazy.force golden_reports)

let test_golden_rows_rerun () =
  (* every row, rerun from its parsed plan with its cell's protocol,
     wrapper and seed, gives its recorded verdict, latency and epoch
     fields: a report's labels are enough to replay it *)
  List.iter
    (fun (path, report) ->
      let cfg = field "config" report in
      let n = to_int (field "n" cfg) and steps = to_int (field "steps" cfg) in
      let delta = to_int (field "delta" cfg) in
      List.iter
        (fun cell ->
          let entry =
            Option.get (Graybox.Registry.find (to_str (field "protocol" cell)))
          in
          let wrapper =
            if field "wrapped" cell = Bool true then
              Tme.Scenarios.wrapped_entry entry ~delta
            else Graybox.Harness.Off
          in
          List.iter
            (fun row ->
              let seed = to_int (field "seed" row) in
              let r =
                Tme.Scenarios.run entry.Graybox.Registry.proto ~wrapper
                  ~faults:(parse_labels (to_list (field "plan" row)))
                  ~n ~seed ~steps
              in
              let what = Printf.sprintf "%s: %s seed %d" path
                  (to_str (field "cell" cell)) seed in
              Alcotest.(check string) (what ^ " verdict")
                (to_str (field "verdict" row))
                (Outcome.label (Outcome.classify ~n r.Tme.Scenarios.analysis));
              Alcotest.(check (option int)) (what ^ " latency")
                (match field "recovery_latency" row with
                 | Num l -> Some l
                 | _ -> None)
                r.Tme.Scenarios.recovery_latency;
              match field "epoch_safe" row with
              | Null -> ()
              | safe ->
                let e = r.Tme.Scenarios.epoch_spec in
                Alcotest.(check (pair bool int)) (what ^ " epoch fields")
                  (safe = Bool true, to_int (field "split_entries" row))
                  ( Graybox.Tme_spec.Epoch.safe e,
                    e.Graybox.Tme_spec.Epoch.split_entries ))
            (to_list (field "runs" cell)))
        (to_list (field "cells" report)))
    (Lazy.force golden_reports)

(* ------------------------------------------------------------------ *)
(* Outcome classification                                              *)

let analysis ?(me1 = 0) ?(starving = []) ~recovered () =
  { Graybox.Stabilize.trace_len = 100;
    last_fault_index = Some 10;
    converged_index = (if recovered then Some 20 else None);
    recovery_steps = (if recovered then Some 10 else None);
    me1_violations = me1;
    starving;
    tail_margin = 300;
    recovered }

let verdict = Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Outcome.label v))
    ( = )

let verdict' = Alcotest.testable
    (fun ppf e -> Format.pp_print_string ppf (Campaign.expectation_label e))
    ( = )

let test_outcome_classify () =
  let check msg want a =
    Alcotest.check verdict msg want (Outcome.classify ~n:4 a)
  in
  check "recovered" Outcome.Recovered (analysis ~recovered:true ());
  check "me1 wins over starvation" Outcome.Me1_violation
    (analysis ~me1:2 ~starving:[ 0; 1; 2; 3 ] ~recovered:false ());
  check "all starving = deadlock" Outcome.Deadlock
    (analysis ~starving:[ 0; 1; 2; 3 ] ~recovered:false ());
  check "some starving" Outcome.Starvation
    (analysis ~starving:[ 2 ] ~recovered:false ());
  check "no witness" Outcome.Unstable (analysis ~recovered:false ())

let test_outcome_labels () =
  let labels = List.map Outcome.label Outcome.all in
  Alcotest.(check (list string)) "stable labels"
    [ "recovered"; "me1-violation"; "starvation"; "deadlock"; "unstable" ]
    labels;
  Alcotest.(check bool) "recovered is success" false
    (Outcome.is_failure Outcome.Recovered);
  Alcotest.(check bool) "deadlock is failure" true
    (Outcome.is_failure Outcome.Deadlock)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

let ra_scenario ~wrapper =
  match Campaign.resolve "ra" with
  | None -> Alcotest.fail "ra protocol missing"
  | Some proto ->
    { Shrink.protocol = "ra"; proto; wrapper; n = 4; seed = 42; steps = 1500 }

let test_shrink_reduces_deadlock_plan () =
  let sc = ra_scenario ~wrapper:Graybox.Harness.Off in
  (* the §4 deadlock injection buried in noise the shrinker must strip *)
  let plan =
    [ Tme.Scenarios.Duplicate { at = 60; per_chan = 2 };
      Tme.Scenarios.Drop_requests_window { from_t = 150; until_t = 210 };
      Tme.Scenarios.Crash
        { procs = Sim.Faults.Proc 1; from_t = 300; until_t = 320; lose = false };
      Tme.Scenarios.Reorder { at = 400; per_chan = 1 } ]
  in
  Alcotest.(check bool) "plan fails unwrapped" true (Shrink.fails sc plan);
  let r = Shrink.shrink sc plan in
  Alcotest.(check bool) "confirmed" true r.Shrink.confirmed;
  Alcotest.(check bool) "minimal reproducer"
    true
    (List.length r.Shrink.shrunk <= 3);
  Alcotest.(check bool) "shrunk plan still fails" true
    (Shrink.fails sc r.Shrink.shrunk)

let test_shrink_split_window_and_groups () =
  (* a lossy group partition deadlocks the unwrapped reference; the
     shrinker must strip the noise, keep a Split, and the minimal plan
     must re-fail under the original seed (satellite: windowed-kind
     shrinking preserves reproduction) *)
  let sc = ra_scenario ~wrapper:Graybox.Harness.Off in
  let plan =
    [ Tme.Scenarios.Duplicate { at = 60; per_chan = 2 };
      Tme.Scenarios.Split
        { groups = [ [ 0 ]; [ 1 ]; [ 2; 3 ] ];
          from_t = 150;
          until_t = 450;
          mode = Sim.Faults.Lossy };
      Tme.Scenarios.Reorder { at = 500; per_chan = 1 } ]
  in
  Alcotest.(check bool) "plan fails" true (Shrink.fails sc plan);
  let r = Shrink.shrink sc plan in
  Alcotest.(check bool) "confirmed" true r.Shrink.confirmed;
  let split_until =
    List.filter_map
      (function
        | Tme.Scenarios.Split { until_t; _ } -> Some until_t
        | _ -> None)
      r.Shrink.shrunk
  in
  Alcotest.(check int) "a split survives shrinking" 1
    (List.length split_until);
  Alcotest.(check bool) "window no wider than the original" true
    (List.hd split_until <= 450);
  Alcotest.(check bool) "shrunk plan still fails under the same seed" true
    (Shrink.fails sc r.Shrink.shrunk)

let test_shrink_crash_window () =
  (* same property for the other windowed kind: a long lose-deliveries
     crash of one process kills unwrapped RA; the shrunk plan keeps a
     crash and re-fails *)
  let sc = ra_scenario ~wrapper:Graybox.Harness.Off in
  let plan =
    [ Tme.Scenarios.Flush { at = 50 };
      Tme.Scenarios.Crash
        { procs = Sim.Faults.Proc 1; from_t = 100; until_t = 400; lose = true } ]
  in
  if Shrink.fails sc plan then begin
    let r = Shrink.shrink sc plan in
    Alcotest.(check bool) "confirmed" true r.Shrink.confirmed;
    Alcotest.(check bool) "a crash survives shrinking" true
      (List.exists
         (function Tme.Scenarios.Crash _ -> true | _ -> false)
         r.Shrink.shrunk);
    Alcotest.(check bool) "shrunk plan still fails under the same seed" true
      (Shrink.fails sc r.Shrink.shrunk)
  end
  else Alcotest.fail "crash plan must fail unwrapped"

let test_shrink_passing_plan_not_confirmed () =
  let sc =
    ra_scenario
      ~wrapper:(Graybox.Harness.On { term = Graybox.Wrapper.w_refined; delta = 8 })
  in
  let r = Shrink.shrink sc [ Tme.Scenarios.Flush { at = 100 } ] in
  Alcotest.(check bool) "nothing to shrink" false r.Shrink.confirmed

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)

let small_config () =
  Campaign.config ~base_seed:7 ~seeds:3 ~budget:3 ~n:4 ~steps:1200
    ~protocols:[ "lamport" ] ~include_unwrapped:false ~deadlock_canary:false
    ~shrink:false ()

let test_campaign_deterministic () =
  let render () =
    Chaos.Jsonx.to_string (Campaign.to_json (Campaign.run (small_config ())))
  in
  Alcotest.(check string) "same seed same report" (render ()) (render ())

let test_campaign_wrapped_lamport_recovers () =
  let report = Campaign.run (small_config ()) in
  Alcotest.(check int) "one cell" 1 (List.length report.Campaign.cells);
  let cell = List.hd report.Campaign.cells in
  Alcotest.(check bool) "wrapped" true cell.Campaign.cell_wrapped;
  List.iter
    (fun row ->
      Alcotest.check verdict "recovers" Outcome.Recovered
        row.Campaign.row_verdict)
    cell.Campaign.rows;
  Alcotest.(check bool) "gate ok" true report.Campaign.gate_ok

let test_campaign_parallel_matches_serial () =
  (* the tentpole determinism claim: a multi-cell sweep (with a failing
     negative control, so shrinking runs too) renders to byte-identical
     JSON whatever the worker count *)
  let cfg jobs =
    Campaign.config ~base_seed:7 ~seeds:3 ~budget:3 ~n:4 ~steps:1200
      ~protocols:[ "lamport"; "lamport-unmod" ] ~include_unwrapped:true
      ~deadlock_canary:true ~jobs ()
  in
  let render jobs =
    Chaos.Jsonx.to_string (Campaign.to_json (Campaign.run (cfg jobs)))
  in
  Alcotest.(check string) "parallel report == serial report" (render 1)
    (render 3)

let test_campaign_jobs_validation () =
  Alcotest.check_raises "jobs = 0 rejected"
    (Invalid_argument "Campaign.config: need jobs >= 1") (fun () ->
      ignore (Campaign.config ~jobs:0 ()))

let test_campaign_delta_validation () =
  Alcotest.check_raises "delta < 0 rejected"
    (Invalid_argument "Campaign.config: need delta >= 0") (fun () ->
      ignore (Campaign.config ~delta:(-1) ()))

let test_campaign_synth_rows_equal_hand_written () =
  (* one definition of a firing: the harness runs ra-synth's registered
     term exactly as it runs the hand-written W'(delta) on ra, so the two
     wrapped cells agree row for row (seed, plan, verdict, latency) *)
  let cfg =
    Campaign.config ~seeds:6 ~budget:4 ~steps:2000
      ~protocols:[ "ra"; "ra-synth" ] ~include_unwrapped:false
      ~deadlock_canary:false ~shrink:false ~jobs:2 ()
  in
  let report = Campaign.run cfg in
  let rows label =
    match
      List.find_opt
        (fun c -> c.Campaign.cell_label = label)
        report.Campaign.cells
    with
    | Some c -> c.Campaign.rows
    | None -> Alcotest.failf "no cell %s" label
  in
  let hand = rows "ra+W'(8)" and synth = rows "ra-synth+W'(8)" in
  Alcotest.(check int) "six rows" 6 (List.length hand);
  List.iter2
    (fun (h : Campaign.row) (s : Campaign.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "row of seed %d identical" h.Campaign.row_seed)
        true
        (h.Campaign.row_seed = s.Campaign.row_seed
         && h.Campaign.row_plan = s.Campaign.row_plan
         && h.Campaign.row_verdict = s.Campaign.row_verdict
         && h.Campaign.row_latency = s.Campaign.row_latency))
    hand synth

let test_campaign_unknown_protocol () =
  Alcotest.check_raises "unknown protocol is a typed error"
    (Campaign.Unknown_protocol "nope") (fun () ->
      ignore (Campaign.run (Campaign.config ~protocols:[ "nope" ] ())));
  Alcotest.(check bool) "known_protocols lists the registry" true
    (List.mem "ra" (Campaign.known_protocols ())
    && List.mem "ra-mutant" (Campaign.known_protocols ()))

let test_campaign_negative_control_fails () =
  let cfg =
    Campaign.config ~base_seed:7 ~seeds:3 ~budget:3 ~n:4 ~steps:1200
      ~protocols:[ "lamport-unmod" ] ~include_unwrapped:true
      ~deadlock_canary:false ~shrink:false ()
  in
  let report = Campaign.run cfg in
  List.iter
    (fun cell ->
      Alcotest.(check bool)
        (cell.Campaign.cell_label ^ " expects failure and gets one")
        true
        (cell.Campaign.cell_expect = Campaign.Expect_failure
        && cell.Campaign.cell_ok))
    report.Campaign.cells

(* ------------------------------------------------------------------ *)
(* Partition campaign cells                                            *)

let partition_config ?(jobs = 1) () =
  Campaign.config ~base_seed:7 ~seeds:5 ~budget:3 ~n:4 ~steps:1200
    ~protocols:[ "lamport"; "lamport-unmod" ] ~include_unwrapped:false
    ~deadlock_canary:false ~shrink:false ~partitions:true ~jobs ()

let find_cell report label =
  match
    List.find_opt
      (fun c -> c.Campaign.cell_label = label)
      report.Campaign.cells
  with
  | Some c -> c
  | None -> Alcotest.fail ("missing cell " ^ label)

let test_campaign_partition_cells () =
  let report = Campaign.run (partition_config ()) in
  (* two extra cells per protocol, gated by the registry's partition
     expectation *)
  let lossy = find_cell report "lamport+W'(8)/split-lossy" in
  Alcotest.check verdict' "reference recovers from lossy splits"
    Campaign.Expect_recover lossy.Campaign.cell_expect;
  Alcotest.(check bool) "and does" true lossy.Campaign.cell_ok;
  let neg_lossy = find_cell report "lamport-unmod+W'(8)/split-lossy" in
  Alcotest.check verdict' "negative control must deadlock"
    Campaign.Expect_failure neg_lossy.Campaign.cell_expect;
  Alcotest.(check bool) "and does" true neg_lossy.Campaign.cell_ok;
  (* the buffered sibling demotes Expect_failure to Observe: nothing is
     lost under a buffered heal, so recovery is legitimate there *)
  let neg_buf = find_cell report "lamport-unmod+W'(8)/split-buf" in
  Alcotest.check verdict' "buffered heal is observe-only for the control"
    Campaign.Observe neg_buf.Campaign.cell_expect;
  let buf = find_cell report "lamport+W'(8)/split-buf" in
  Alcotest.check verdict' "reference still gated under buffered heal"
    Campaign.Expect_recover buf.Campaign.cell_expect;
  Alcotest.(check bool) "gate ok" true report.Campaign.gate_ok;
  (* every partition-cell row holds exactly one Split of the cell's mode *)
  List.iter
    (fun row ->
      match row.Campaign.row_plan with
      | [ Tme.Scenarios.Split { mode = Sim.Faults.Lossy; _ } ] -> ()
      | _ -> Alcotest.fail "split-lossy rows must hold one lossy Split")
    lossy.Campaign.rows

let test_campaign_partitions_parallel_matches_serial () =
  let render jobs =
    Chaos.Jsonx.to_string
      (Campaign.to_json (Campaign.run (partition_config ~jobs ())))
  in
  Alcotest.(check string) "partition sweep byte-identical across jobs"
    (render 1) (render 3)

(* A partition campaign over the benchmark's six protocols, with
   unwrapped cells, the canary and shrinking, pinned byte for byte to a
   committed report that the per-cell run loop produced.  Each wrapped
   during-split cell repeats its split-lossy sibling's scenarios, so
   the 145 rows take 145 - 6 x 4 = 121 runs. *)
let test_campaign_partition_golden () =
  let golden =
    let ic = open_in_bin "golden_partition_campaign.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    String.trim s
  in
  List.iter
    (fun jobs ->
      let report =
        Campaign.run
          (Campaign.config ~base_seed:7 ~seeds:4 ~budget:3 ~n:4 ~steps:1200
             ~protocols:
               [ "lamport"; "ra"; "lamport-unmod"; "ra-mutant"; "ra-lease";
                 "ra-lease-stale" ]
             ~partitions:true ~jobs ())
      in
      let label what = Printf.sprintf "%s (jobs=%d)" what jobs in
      Alcotest.(check string) (label "byte-identical to golden") golden
        (Chaos.Jsonx.to_string (Campaign.to_json report));
      Alcotest.(check int) (label "rows") 145
        (List.fold_left
           (fun acc c -> acc + List.length c.Campaign.rows)
           0 report.Campaign.cells);
      Alcotest.(check int) (label "scenario runs") 121
        report.Campaign.scenario_runs)
    [ 1; 3 ]

(* ------------------------------------------------------------------ *)
(* Partitioned/delayed scenario runs                                   *)

let partition_faults =
  [ Tme.Scenarios.Split
      { groups = [ [ 0 ] ];
        from_t = 200;
        until_t = 320;
        mode = Sim.Faults.Buffered };
    Tme.Scenarios.Delay
      { at = 400;
        chan = Sim.Faults.Any_chan;
        dist = Sim.Faults.Heavy_tail { mean = 5; cap = 40 } } ]

let lamport_run ~record =
  match Graybox.Registry.find "lamport" with
  | None -> Alcotest.fail "lamport missing"
  | Some e ->
    Tme.Scenarios.run e.Graybox.Registry.proto ~n:4 ~seed:9 ~steps:2500
      ~record
      ~wrapper:(Tme.Scenarios.wrapped ~delta:8 ())
      ~faults:partition_faults

let test_scenarios_partition_deterministic () =
  let key r =
    (r.Tme.Scenarios.analysis, r.Tme.Scenarios.recovery_latency)
  in
  (* same seed, same run — partitions and heavy-tail delays draw all
     their randomness from the seeded fault stream *)
  Alcotest.(check bool) "seed-deterministic" true
    (key (lamport_run ~record:false) = key (lamport_run ~record:false));
  (* and the streamed analysis agrees with the recorded one on the
     new fault kinds, field for field *)
  Alcotest.(check bool) "streaming == recorded" true
    (key (lamport_run ~record:true) = key (lamport_run ~record:false))

let test_scenarios_split_plants_heal_marker () =
  let r = lamport_run ~record:true in
  let faults =
    List.filter_map
      (fun s ->
        match s.Sim.Trace.event with
        | Sim.Trace.Fault { label } -> Some (s.Sim.Trace.time, label)
        | _ -> None)
      r.Tme.Scenarios.vtrace
  in
  Alcotest.(check (list (pair int string)))
    "split lowers to split + heal; delay is one event"
    [ (200, "split"); (320, "heal"); (400, "delay") ]
    faults;
  (* latency is measured from the last fault event — the delay here,
     after the heal — so convergence is never billed the window *)
  match r.Tme.Scenarios.analysis.Graybox.Stabilize.last_fault_index with
  | Some i ->
    let snap = List.nth r.Tme.Scenarios.vtrace i in
    Alcotest.(check int) "re-based at the last marker" 400
      snap.Sim.Trace.time
  | None -> Alcotest.fail "fault events must be recorded"

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let test_jsonx_rendering () =
  let j =
    Chaos.Jsonx.Obj
      [ ("s", Chaos.Jsonx.String "a\"b\n");
        ("i", Chaos.Jsonx.Int 3);
        ("f", Chaos.Jsonx.Float 0.5);
        ("nan", Chaos.Jsonx.Float nan);
        ("l", Chaos.Jsonx.List [ Chaos.Jsonx.Bool true; Chaos.Jsonx.Null ]) ]
  in
  Alcotest.(check string) "escaping and nan"
    {|{"s":"a\"b\n","i":3,"f":0.5,"nan":null,"l":[true,null]}|}
    (Chaos.Jsonx.to_string j)

let () =
  Alcotest.run "chaos"
    [ ( "plan_gen",
        [ Alcotest.test_case "budget" `Quick test_plan_gen_budget;
          Alcotest.test_case "deterministic" `Quick test_plan_gen_deterministic;
          Alcotest.test_case "times bounded" `Quick test_plan_gen_times_bounded;
          Alcotest.test_case "validation" `Quick test_plan_gen_validation;
          Alcotest.test_case "samples every kind" `Quick
            test_plan_gen_samples_every_kind;
          Alcotest.test_case "partition labels" `Quick
            test_plan_gen_partition_labels;
          Alcotest.test_case "split_plan" `Quick test_plan_gen_split_plan ] );
      ( "plan-syntax",
        [ prop_labels_round_trip;
          Alcotest.test_case "parse accepts" `Quick test_parse_accepts;
          Alcotest.test_case "parse rejects" `Quick test_parse_rejects;
          Alcotest.test_case "check against n and steps" `Quick test_plan_check;
          Alcotest.test_case "golden labels print back" `Quick
            test_golden_labels_round_trip;
          Alcotest.test_case "golden rows rerun from labels" `Quick
            test_golden_rows_rerun ] );
      ( "outcome",
        [ Alcotest.test_case "classify" `Quick test_outcome_classify;
          Alcotest.test_case "labels" `Quick test_outcome_labels ] );
      ( "shrink",
        [ Alcotest.test_case "reduces deadlock plan" `Quick
            test_shrink_reduces_deadlock_plan;
          Alcotest.test_case "split window/groups" `Quick
            test_shrink_split_window_and_groups;
          Alcotest.test_case "crash window" `Quick test_shrink_crash_window;
          Alcotest.test_case "passing plan" `Quick
            test_shrink_passing_plan_not_confirmed ] );
      ( "campaign",
        [ Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "wrapped lamport recovers" `Quick
            test_campaign_wrapped_lamport_recovers;
          Alcotest.test_case "negative control fails" `Quick
            test_campaign_negative_control_fails;
          Alcotest.test_case "parallel report == serial" `Quick
            test_campaign_parallel_matches_serial;
          Alcotest.test_case "ra-synth rows == ra rows" `Quick
            test_campaign_synth_rows_equal_hand_written;
          Alcotest.test_case "jobs validation" `Quick
            test_campaign_jobs_validation;
          Alcotest.test_case "delta validation" `Quick
            test_campaign_delta_validation;
          Alcotest.test_case "unknown protocol" `Quick
            test_campaign_unknown_protocol;
          Alcotest.test_case "partition cells" `Quick
            test_campaign_partition_cells;
          Alcotest.test_case "partition parallel == serial" `Quick
            test_campaign_partitions_parallel_matches_serial;
          Alcotest.test_case "partition golden report" `Quick
            test_campaign_partition_golden ] );
      ( "scenarios",
        [ Alcotest.test_case "partition determinism/streaming" `Quick
            test_scenarios_partition_deterministic;
          Alcotest.test_case "heal marker" `Quick
            test_scenarios_split_plants_heal_marker ] );
      ("jsonx", [ Alcotest.test_case "rendering" `Quick test_jsonx_rendering ])
    ]
