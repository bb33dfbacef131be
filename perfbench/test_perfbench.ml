(* The benchmark harness's own tests: the protocol probe must not
   change what it measures, and [compare] must reach the right verdict
   on synthetic records. *)

open Perfbench

let ra = Option.get (Tme.Scenarios.find_protocol "ra")

let probe_transparent_load () =
  let run proto =
    Tme.Load.run proto ~n:8 ~seed:3 ~rate:(0.2 /. 8.) ~max_requests:200
      ~max_steps:(((5 * 200) + 400) * 8) ()
  in
  let plain = run ra in
  Probe.reset ();
  let probed = run (Probe.wrap ra) in
  Alcotest.(check bool) "identical load results" true (plain = probed);
  let c = Probe.counts () in
  Alcotest.(check int) "the probe counted requests" plain.Tme.Load.requests
    c.Probe.c_calls.(1);
  Alcotest.(check bool) "the probe counted sends" true (c.Probe.c_sends > 0)

let probe_transparent_mcheck () =
  let run proto = Mcheck.check_me1 proto ~n:2 ~max_depth:10 () in
  let plain = run ra in
  Probe.reset ();
  let probed = run (Probe.wrap ra) in
  Alcotest.(check bool) "identical checker results" true (plain = probed);
  Alcotest.(check bool) "safe" true
    (match plain with Mcheck.Ok _ -> true | _ -> false);
  Alcotest.(check bool) "the probe counted messages" true
    ((Probe.counts ()).Probe.c_calls.(0) > 0)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let metric name unit_ ~lower bound =
  { Spec.name; unit_; lower_is_better = lower; bound }

let spec =
  { Spec.run_seconds = 1;
    end_to_end =
      [ metric "wall_s" "s" ~lower:true (Some 0.1);
        metric "work_per_s" "1/s" ~lower:false (Some 0.1) ];
    per_layer = [ metric "engine.self_s" "s" ~lower:true None ] }

(* One BENCH line per sample of wall-clock time. *)
let bench ?(digest = "d0") ?(failed_share = 0.) walls =
  List.map
    (fun wall ->
      let m v u = Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ] in
      let record =
        Json.Obj
          [ ("workload", Json.Str "load");
            ("seed", Json.Num 1.);
            ("digest", Json.Str digest);
            ( "metrics",
              Json.Obj
                [ ("wall_s", m wall "s"); ("work_per_s", m (1000. /. wall) "1/s") ]
            );
            ( "exact",
              Json.Obj
                [ ("steps", Json.Num 1000.);
                  ("failed_share", Json.Num failed_share) ] );
            ("layer", Json.Obj [ ("engine.self_s", m (wall /. 2.) "s") ]) ]
      in
      Json.Obj
        [ ("workloads", Json.Arr [ record ]); ("traced", Json.Arr [ record ]) ])
    walls

let steady = [ 1.0; 1.01; 0.99; 1.0; 1.02 ]
let scaled k = List.map (fun w -> w *. k) steady

let verdicts r =
  List.map (fun row -> Compare.verdict_label row.Compare.verdict) r.Compare.rows

let compare_case ~old ~new_ ~verdicts:want ~failed () =
  let r = Compare.run spec ~old ~new_ in
  Alcotest.(check (list string)) "verdicts" want (verdicts r);
  Alcotest.(check bool) "failed" failed (Compare.failed r)

let compare_layers () =
  let r = Compare.run spec ~old:(bench steady) ~new_:(bench (scaled 1.3)) in
  Alcotest.(check int) "one layer row, reported not gated" 1
    (List.length r.Compare.layers)

let compare_drift () =
  let r = Compare.run spec ~old:(bench steady) ~new_:(bench ~digest:"d1" steady) in
  Alcotest.(check bool) "digest drift reported" true (r.Compare.drift <> []);
  Alcotest.(check bool) "drift fails" true (Compare.failed r);
  Alcotest.(check (list string)) "timings unchanged" [ "same"; "same" ]
    (verdicts r)

let compare_failed_rise () =
  let r =
    Compare.run spec ~old:(bench steady) ~new_:(bench ~failed_share:0.1 steady)
  in
  Alcotest.(check bool) "rise reported" true (r.Compare.failed_rise <> []);
  Alcotest.(check bool) "rise fails" true (Compare.failed r)

let quartiles_like_python () =
  let q = Alcotest.(option (pair (float 1e-12) (float 1e-12))) in
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  Alcotest.check q "q1, q3" (Some (2.75, 8.25))
    (Compare.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q "one sample" None (Compare.quartiles [ 1. ])

let json_round_trip () =
  let v =
    Json.Obj
      [ ("t", Json.Num 1.2034000000000001);
        ("n", Json.Num 3.);
        ("neg", Json.Num (-0.5e-9));
        ("s", Json.Str "a \"q\"\n\\");
        ("l", Json.Arr [ Json.Null; Json.Bool true; Json.Obj [] ]) ]
  in
  Alcotest.(check bool) "parse (print v) = v" true
    (Json.of_string (Json.to_string v) = v)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "perfbench"
    [ ( "probe",
        [ case "transparent on load" probe_transparent_load;
          case "transparent on mcheck" probe_transparent_mcheck ] );
      ( "compare",
        [ case "unchanged"
            (compare_case ~old:(bench steady) ~new_:(bench steady)
               ~verdicts:[ "same"; "same" ] ~failed:false);
          case "regression"
            (compare_case ~old:(bench steady) ~new_:(bench (scaled 1.3))
               ~verdicts:[ "WORSE"; "WORSE" ] ~failed:true);
          case "improvement"
            (compare_case ~old:(bench steady) ~new_:(bench (scaled 0.7))
               ~verdicts:[ "better"; "better" ] ~failed:false);
          case "unresolved"
            (compare_case
               ~old:(bench [ 1.0; 1.5; 0.6; 1.2; 0.8 ])
               ~new_:(bench (scaled 1.05))
               ~verdicts:[ "unresolved"; "unresolved" ] ~failed:false);
          case "digest drift" compare_drift;
          case "failed_share rise" compare_failed_rise;
          case "layer metrics" compare_layers;
          case "quartiles" quartiles_like_python ] );
      ("json", [ case "round trip" json_round_trip ]) ]
