(* Integration tests: whole-system simulations checking the paper's
   claims end to end.

   - Theorem 5: fault-free runs of Lspec implementations satisfy
     TME_Spec (and the Lspec clause monitors themselves).
   - Theorem 8 / Corollary 11: the *same* wrapper stabilizes both
     Ricart-Agrawala and modified Lamport after every fault class,
     including the paper's §4 deadlock scenario.
   - Negative control: the unmodified Lamport program (which only
     implements Lspec from initial states) is not stabilized by the
     wrapper.
   - W'(δ) is a valid wrapper for every δ and trades messages for
     recovery latency. *)

open Tme
module T = Unityspec.Temporal

let ra = Option.get (Graybox.Registry.find_protocol "ra")
let lamport = Option.get (Graybox.Registry.find_protocol "lamport")
let unmod = Option.get (Graybox.Registry.find_protocol "lamport-unmod")
let central = Option.get (Graybox.Registry.find_protocol "central")

let liveness_ok (r : Scenarios.result) v =
  T.ok_with_tail ~trace_len:(List.length r.vtrace) ~margin:120 v

let deadlock_faults =
  [ Scenarios.Drop_requests_window { from_t = 500; until_t = 560 } ]

(* ------------------------------------------------------------------ *)
(* Theorem 5: fault-free conformance                                    *)

let check_fault_free_conformance proto name () =
  let r = Scenarios.run proto ~n:4 ~seed:11 ~steps:5000 ~record:true in
  let lspec = Scenarios.lspec_report r in
  List.iter
    (fun (e : Unityspec.Report.entry) ->
      match e.verdict with
      | T.Violated _ ->
        Alcotest.failf "%s: Lspec clause %s violated: %s" name e.clause
          (Format.asprintf "%a" T.pp_verdict e.verdict)
      | T.Holds -> ()
      | T.Pending _ as v ->
        if not (liveness_ok r v) then
          Alcotest.failf "%s: Lspec clause %s has early pending obligations"
            name e.clause)
    lspec;
  let tme = Oracles.Scenarios.tme_report r in
  List.iter
    (fun (e : Unityspec.Report.entry) ->
      match e.verdict with
      | T.Violated _ -> Alcotest.failf "%s: %s violated" name e.clause
      | v ->
        if not (liveness_ok r v) then
          Alcotest.failf "%s: %s pending too early" name e.clause)
    tme;
  Alcotest.(check bool) "made progress" true (r.total_entries > 50)

let test_central_fault_free_me1 () =
  let r = Scenarios.run central ~n:4 ~seed:11 ~steps:5000 ~record:true in
  Alcotest.(check bool) "ME1" true (T.is_ok (Oracles.Tme_spec.me1 r.Scenarios.vtrace))
[@@warning "-33"]

(* Lemma 6 (interference freedom): Lspec box W everywhere implements
   Lspec — empirically, a *wrapped* fault-free run still satisfies
   every Lspec clause and TME_Spec: the wrapper's redundant requests
   disturb nothing. *)
let test_interference_freedom proto name () =
  let r =
    Scenarios.run proto ~n:4 ~seed:19 ~steps:5000 ~record:true
      ~wrapper:(Scenarios.wrapped ~delta:0 ())
  in
  (* the eager wrapper floods the network, so service latency (and
     hence open liveness obligations at the trace tail) stretches to a
     few hundred steps; safety must be untouched and liveness must
     still discharge outside that window *)
  let tail_ok v =
    T.ok_with_tail ~trace_len:(List.length r.vtrace) ~margin:700 v
  in
  List.iter
    (fun (e : Unityspec.Report.entry) ->
      match e.verdict with
      | T.Violated _ ->
        Alcotest.failf "%s+W: Lspec clause %s violated" name e.clause
      | v ->
        if not (tail_ok v) then
          Alcotest.failf "%s+W: clause %s pending too early" name e.clause)
    (Scenarios.lspec_report r);
  Alcotest.(check bool) "ME1 under wrapper" true
    (T.is_ok (Oracles.Tme_spec.me1 r.vtrace));
  Alcotest.(check bool) "ME3 under wrapper" true
    (T.is_ok (Oracles.Tme_spec.me3 r.entry_log));
  Alcotest.(check bool) "wrapper did send" true (r.wrapper_sends > 0)

(* ------------------------------------------------------------------ *)
(* §4 deadlock scenario                                                 *)

let test_deadlock_strands_unwrapped_ra () =
  let r = Scenarios.run ra ~n:4 ~seed:2 ~steps:6000 ~faults:deadlock_faults in
  Alcotest.(check bool) "not recovered" false r.analysis.recovered;
  Alcotest.(check bool) "someone starves" true (r.analysis.starving <> [])

let recovers proto ~wrapper ~faults ~seed () =
  let r = Scenarios.run proto ~n:4 ~seed ~steps:8000 ~faults ~wrapper in
  Alcotest.(check bool)
    (Printf.sprintf "recovered (%s)" r.protocol)
    true r.analysis.recovered;
  Alcotest.(check (list int)) "nobody starves" [] r.analysis.starving

let test_wrapper_recovers_ra_deadlock () =
  recovers ra ~wrapper:(Scenarios.wrapped ~delta:0 ()) ~faults:deadlock_faults
    ~seed:2 ()

let test_wrapper_recovers_ra_deadlock_with_timeout () =
  recovers ra ~wrapper:(Scenarios.wrapped ~delta:16 ()) ~faults:deadlock_faults
    ~seed:2 ()

let test_wrapper_recovers_lamport_deadlock () =
  recovers lamport ~wrapper:(Scenarios.wrapped ~delta:8 ())
    ~faults:deadlock_faults ~seed:2 ()

let test_unrefined_wrapper_also_recovers () =
  recovers ra
    ~wrapper:
      (Scenarios.wrapped_term ~term:Graybox.Wrapper.w_unrefined ~delta:8 ())
    ~faults:deadlock_faults ~seed:2 ()

(* ------------------------------------------------------------------ *)
(* Fault-class coverage (Theorem 8)                                     *)

let fault_classes =
  [ ("drop-requests", deadlock_faults);
    ("drop-any", [ Scenarios.Drop_any { at = 500; per_chan = 5 } ]);
    ("duplicate", [ Scenarios.Duplicate { at = 500; per_chan = 3 } ]);
    ("corrupt-msgs", [ Scenarios.Corrupt_messages { at = 500; per_chan = 3 } ]);
    ("reorder", [ Scenarios.Reorder { at = 500; per_chan = 3 } ]);
    ("flush", [ Scenarios.Flush { at = 500 } ]);
    ("corrupt-state",
     [ Scenarios.Corrupt_state { at = 500; procs = Sim.Faults.Any_proc } ]);
    ("improper-init",
     [ Scenarios.Reset_state { at = 500; procs = Sim.Faults.Proc 1 } ]);
    ("burst", Scenarios.burst ~at:500) ]

let coverage_case proto pname (fname, faults) =
  Alcotest.test_case (Printf.sprintf "%s recovers from %s" pname fname) `Quick
    (fun () ->
      recovers proto ~wrapper:(Scenarios.wrapped ~delta:4 ()) ~faults ~seed:5 ())

(* ------------------------------------------------------------------ *)
(* Reusability (Corollary 11): the SAME wrapper value                   *)

let test_reusability_same_wrapper () =
  let wrapper = Scenarios.wrapped ~delta:4 () in
  List.iter
    (fun proto ->
      let r =
        Scenarios.run proto ~n:4 ~seed:3 ~steps:8000 ~wrapper
          ~faults:(Scenarios.burst ~at:1000)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s recovered with the shared wrapper" r.protocol)
        true r.analysis.recovered)
    [ ra; lamport ]

(* ------------------------------------------------------------------ *)
(* Negative control                                                     *)

let test_negative_control_fault_free_ok () =
  let r = Scenarios.run unmod ~n:4 ~seed:11 ~steps:5000 ~record:true in
  Alcotest.(check bool) "ME1 fault-free" true (T.is_ok (Oracles.Tme_spec.me1 r.vtrace));
  Alcotest.(check bool) "recovered (trivially)" true r.analysis.recovered

let test_negative_control_not_stabilized () =
  (* the wrapper must fail to rescue the unmodified program for at
     least one corruption draw, while rescuing the modified one for
     every draw tried *)
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let outcome proto seed =
    (Scenarios.run proto ~n:4 ~seed ~steps:8000
       ~wrapper:(Scenarios.wrapped ~delta:8 ())
       ~faults:(Scenarios.burst ~at:1000))
      .analysis.recovered
  in
  let unmod_failures =
    List.filter (fun seed -> not (outcome unmod seed)) seeds
  in
  Alcotest.(check bool) "unmodified program gets stuck for some fault" true
    (unmod_failures <> []);
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "modified recovers (seed %d)" seed)
        true (outcome lamport seed))
    seeds

(* ------------------------------------------------------------------ *)
(* W'(δ): overhead/latency trade-off                                    *)

let test_timeout_reduces_wrapper_traffic () =
  let wrapper_sends delta =
    (Scenarios.run ra ~n:4 ~seed:7 ~steps:5000
       ~wrapper:(Scenarios.wrapped ~delta ()))
      .wrapper_sends
  in
  let eager = wrapper_sends 0 in
  let lazy_ = wrapper_sends 32 in
  Alcotest.(check bool)
    (Printf.sprintf "delta=32 (%d) well below delta=0 (%d)" lazy_ eager)
    true
    (lazy_ * 4 < eager)

let test_refined_cheaper_than_unrefined () =
  let sends term =
    (Scenarios.run ra ~n:4 ~seed:7 ~steps:5000
       ~wrapper:(Scenarios.wrapped_term ~term ~delta:4 ()))
      .wrapper_sends
  in
  Alcotest.(check bool) "refined <= unrefined" true
    (sends Graybox.Wrapper.w_refined <= sends Graybox.Wrapper.w_unrefined)

(* ------------------------------------------------------------------ *)
(* Message complexity sanity                                            *)

let msgs_per_entry proto ~n =
  let r = Scenarios.run proto ~n ~seed:13 ~steps:8000 in
  float_of_int r.protocol_sends /. float_of_int (max 1 r.total_entries)

let test_message_complexity_shape () =
  let n = 5 in
  let ra_m = msgs_per_entry ra ~n in
  let lam_m = msgs_per_entry lamport ~n in
  let cen_m = msgs_per_entry central ~n in
  (* RA: 2(n-1) .. 3(n-1); Lamport: about 3(n-1); central: about 3 *)
  Alcotest.(check bool)
    (Printf.sprintf "ra %.1f in band" ra_m)
    true
    (ra_m >= 1.5 *. float_of_int (n - 1) && ra_m <= 3.2 *. float_of_int (n - 1));
  Alcotest.(check bool)
    (Printf.sprintf "lamport %.1f > ra %.1f" lam_m ra_m)
    true (lam_m > ra_m);
  Alcotest.(check bool)
    (Printf.sprintf "central %.1f < ra %.1f" cen_m ra_m)
    true (cen_m < ra_m);
  Alcotest.(check bool) (Printf.sprintf "central %.1f ~ 3" cen_m) true
    (cen_m >= 2.0 && cen_m <= 4.5)

(* ------------------------------------------------------------------ *)
(* Determinism and misc                                                 *)

let test_scenarios_deterministic () =
  let run () =
    let r =
      Scenarios.run ra ~n:4 ~seed:21 ~steps:3000
        ~wrapper:(Scenarios.wrapped ~delta:4 ())
        ~faults:(Scenarios.burst ~at:500)
    in
    (r.total_entries, r.sent_total, r.wrapper_sends, r.analysis.recovered)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical replay" true (a = b)

let test_no_record_mode () =
  (* recording is on request: a default run keeps no trace *)
  let r = Scenarios.run ra ~n:3 ~seed:1 ~steps:2000 in
  Alcotest.(check int) "no trace" 0 (List.length r.vtrace);
  Alcotest.check_raises "no Lspec verdicts over a trace not kept"
    (Invalid_argument
       "Scenarios.lspec_report: the run kept no trace (use ~record:true)")
    (fun () -> ignore (Scenarios.lspec_report r));
  Alcotest.(check bool) "still counts messages" true (r.sent_total > 0)

let test_find_protocol () =
  Alcotest.(check bool) "ra found" true (Scenarios.find_protocol "ra" <> None);
  Alcotest.(check bool) "unknown" true (Scenarios.find_protocol "nope" = None)

let test_me3_holds_fault_free_runs () =
  List.iter
    (fun proto ->
      let r = Scenarios.run proto ~n:4 ~seed:17 ~steps:5000 in
      Alcotest.(check bool)
        (Printf.sprintf "ME3 (%s)" r.protocol)
        true
        (T.is_ok (Oracles.Tme_spec.me3 r.entry_log)))
    [ ra; lamport ]

let test_post_convergence_suffix_satisfies_safety () =
  let r =
    Scenarios.run ra ~n:4 ~seed:3 ~steps:8000 ~record:true
      ~wrapper:(Scenarios.wrapped ~delta:4 ())
      ~faults:(Scenarios.burst ~at:1000)
  in
  match r.analysis.converged_index with
  | None -> Alcotest.fail "expected convergence"
  | Some i ->
    let suffix = List.filteri (fun j _ -> j >= i) r.vtrace in
    Alcotest.(check bool) "ME1 on suffix" true (T.is_ok (Oracles.Tme_spec.me1 suffix));
    (match Graybox.Lspec.flow ~n:4 suffix with
     | T.Violated _ -> Alcotest.fail "Flow Spec must hold after convergence"
     | _ -> ());
    (match Graybox.Lspec.cs_entry_safety ~n:4 suffix with
     | T.Violated _ ->
       Alcotest.fail "CS Entry safety must hold after convergence"
     | _ -> ())

(* Modification ablation: m1+2 loses to phantom entries naming a
   passive (never-requesting) process; the release echo (m3) is what
   recovers those, and the full variant recovers every draw. *)
let test_release_echo_needed_with_passive_peer () =
  let m12 = Option.get (Scenarios.find_protocol "lamport-m12") in
  let outcome proto seed =
    (Scenarios.run proto ~n:4 ~seed ~steps:9000 ~passive:[ 3 ]
       ~wrapper:(Scenarios.wrapped ~delta:4 ())
       ~faults:
         [ Scenarios.Corrupt_state { at = 800; procs = Sim.Faults.Any_proc } ])
      .analysis.recovered
  in
  let seeds = List.init 12 (fun i -> i + 1) in
  Alcotest.(check bool) "m1+2 gets stuck for some draw" true
    (List.exists (fun seed -> not (outcome m12 seed)) seeds);
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "m1+2+3 recovers (seed %d)" seed)
        true (outcome lamport seed))
    seeds

let test_passive_process_never_requests () =
  let r = Scenarios.run ra ~n:3 ~seed:4 ~steps:4000 ~passive:[ 2 ] ~record:true in
  let always_thinking =
    List.for_all
      (fun (snap : (Graybox.View.t, Graybox.Msg.t) Sim.Trace.snapshot) ->
        Graybox.View.thinking snap.states.(2))
      r.vtrace
  in
  Alcotest.(check bool) "process 2 never leaves thinking" true always_thinking;
  Alcotest.(check bool) "others still served" true (r.total_entries > 30)

let test_partition_recovery () =
  let faults =
    [ Scenarios.Partition { pid = 1; from_t = 500; until_t = 600 } ]
  in
  List.iter
    (fun proto ->
      let r =
        Scenarios.run proto ~n:4 ~seed:6 ~steps:9000 ~faults
          ~wrapper:(Scenarios.wrapped ~delta:4 ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s recovers from partition" r.protocol)
        true r.analysis.recovered)
    [ ra; lamport ]

(* ------------------------------------------------------------------ *)
(* Liveness: the tail margin scales with the run's own service         *)

(* A fault-free service round outgrows any fixed margin as n grows;
   the margin the served waits set must judge every one of these 400
   runs recovered. *)
let test_fault_free_grid_recovers () =
  let flagged =
    List.concat_map
      (fun name ->
        let e = Option.get (Graybox.Registry.find name) in
        List.concat_map
          (fun wrapper ->
            List.concat_map
              (fun n ->
                List.filter_map
                  (fun seed ->
                    let r =
                      Scenarios.run e.Graybox.Registry.proto ~n ~seed
                        ~steps:4000 ~wrapper
                    in
                    if r.analysis.recovered then None
                    else
                      Some
                        (Printf.sprintf "%s n=%d seed %d (wrapped %b)" name n
                           seed (wrapper <> Graybox.Harness.Off)))
                  (List.init 10 (fun i -> i + 1)))
              [ 4; 8; 12; 16 ])
          [ Graybox.Harness.Off; Scenarios.wrapped_entry e ~delta:8 ])
      [ "ra"; "ra-gcl"; "lamport"; "ra-lease"; "ra-synth" ]
  in
  Alcotest.(check (list string)) "no fault-free run flagged" [] flagged

(* ...and every starvation the repo knows to be real is still caught *)
let test_real_starvation_flagged () =
  let flagged ?(wrapper = Graybox.Harness.Off) ?(faults = []) ?(seed = 1) name
      ~n ~steps ~starving =
    let e = Option.get (Graybox.Registry.find name) in
    let r =
      Scenarios.run e.Graybox.Registry.proto ~n ~seed ~steps ~wrapper ~faults
    in
    let what = Printf.sprintf "%s n=%d seed %d" name n seed in
    Alcotest.(check bool) (what ^ " not recovered") false r.analysis.recovered;
    Alcotest.(check (list int)) (what ^ " starving") starving r.analysis.starving
  in
  let all n = List.init n Fun.id in
  (* central's coordinator is starved by its own clients, whose waits
     stay short: the mean wait keeps the margin far below p0's *)
  flagged "central" ~n:8 ~steps:4000 ~starving:[ 0 ];
  (* W, an Lspec wrapper, wedges central *)
  flagged "central" ~n:4 ~steps:4000 ~starving:(all 4)
    ~wrapper:(Scenarios.wrapped ~delta:8 ());
  List.iter
    (fun n ->
      flagged "ra" ~n ~steps:8000 ~starving:(all n)
        ~faults:[ Scenarios.Drop_requests_window { from_t = 800; until_t = 860 } ])
    [ 8; 16 ];
  flagged "lamport-unmod" ~n:8 ~steps:8000 ~starving:(all 8)
    ~wrapper:(Scenarios.wrapped ~delta:8 ())
    ~faults:
      [ Scenarios.Split
          { groups = [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ] ];
            from_t = 1000;
            until_t = 1400;
            mode = Sim.Faults.Lossy } ];
  (* a wedge after service: this plan serves 31 entries, the last near
     snapshot 2,664, then none.  Cut at 3,700 steps every open wait is
     shorter than the margin the served waits set (1,436), but nobody
     has been served for a mean wait (359), so the margin is the floor
     and all 8 starve: a deadlock *)
  flagged "lamport-unmod" ~n:8 ~seed:54 ~steps:3700 ~starving:(all 8)
    ~wrapper:(Scenarios.wrapped ~delta:8 ())
    ~faults:
      (Result.get_ok
         (Chaos.Plan_gen.parse
            "duplicate@1603/2 drop-requests@1828/1 drop-requests@2092-2120 \
             reset@2177(p6)"))

(* Random fault storms: the wrapped protocols always come back. *)
let prop_random_storms proto pname =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:8
       ~name:(Printf.sprintf "%s + W recovers from random storms" pname)
       QCheck2.Gen.(pair (1 -- 1000) (300 -- 900))
       (fun (seed, at) ->
         let r =
           Scenarios.run proto ~n:3 ~seed ~steps:9000
             ~wrapper:(Scenarios.wrapped ~delta:4 ())
             ~faults:(Scenarios.burst ~at)
         in
         r.analysis.recovered))

let () =
  Alcotest.run "stabilization"
    [ ( "theorem5",
        [ Alcotest.test_case "ra fault-free conformance" `Quick
            (check_fault_free_conformance ra "ra");
          Alcotest.test_case "lamport fault-free conformance" `Quick
            (check_fault_free_conformance lamport "lamport");
          Alcotest.test_case "central ME1" `Quick test_central_fault_free_me1;
          Alcotest.test_case "ME3 fault-free" `Quick test_me3_holds_fault_free_runs;
          Alcotest.test_case "Lemma 6: ra+W interference-free" `Quick
            (test_interference_freedom ra "ra");
          Alcotest.test_case "Lemma 6: lamport+W interference-free" `Quick
            (test_interference_freedom lamport "lamport") ] );
      ( "deadlock",
        [ Alcotest.test_case "unwrapped ra strands" `Quick
            test_deadlock_strands_unwrapped_ra;
          Alcotest.test_case "W recovers ra" `Quick test_wrapper_recovers_ra_deadlock;
          Alcotest.test_case "W'(16) recovers ra" `Quick
            test_wrapper_recovers_ra_deadlock_with_timeout;
          Alcotest.test_case "W recovers lamport" `Quick
            test_wrapper_recovers_lamport_deadlock;
          Alcotest.test_case "unrefined W recovers" `Quick
            test_unrefined_wrapper_also_recovers ] );
      ( "fault-coverage-ra",
        List.map (coverage_case ra "ra") fault_classes );
      ( "fault-coverage-lamport",
        List.map (coverage_case lamport "lamport") fault_classes );
      ( "reusability",
        [ Alcotest.test_case "same wrapper, both protocols" `Quick
            test_reusability_same_wrapper ] );
      ( "negative-control",
        [ Alcotest.test_case "fault-free ok" `Quick
            test_negative_control_fault_free_ok;
          Alcotest.test_case "wrapper insufficient" `Quick
            test_negative_control_not_stabilized ] );
      ( "timeout",
        [ Alcotest.test_case "traffic falls with delta" `Quick
            test_timeout_reduces_wrapper_traffic;
          Alcotest.test_case "refined cheaper" `Quick
            test_refined_cheaper_than_unrefined ] );
      ( "complexity",
        [ Alcotest.test_case "message complexity shape" `Quick
            test_message_complexity_shape ] );
      ( "infra",
        [ Alcotest.test_case "deterministic" `Quick test_scenarios_deterministic;
          Alcotest.test_case "no-record mode" `Quick test_no_record_mode;
          Alcotest.test_case "find_protocol" `Quick test_find_protocol;
          Alcotest.test_case "post-convergence safety" `Quick
            test_post_convergence_suffix_satisfies_safety ] );
      ( "ablation",
        [ Alcotest.test_case "release echo needed" `Quick
            test_release_echo_needed_with_passive_peer;
          Alcotest.test_case "passive stays thinking" `Quick
            test_passive_process_never_requests;
          Alcotest.test_case "partition recovery" `Quick test_partition_recovery ] );
      ( "liveness",
        [ Alcotest.test_case "fault-free grid recovers (n 4-16)" `Quick
            test_fault_free_grid_recovers;
          Alcotest.test_case "real starvation still flagged" `Quick
            test_real_starvation_flagged ] );
      ( "storms",
        [ prop_random_storms ra "ra"; prop_random_storms lamport "lamport" ] ) ]
