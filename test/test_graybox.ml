(* Tests for the graybox core: the view abstraction, the wire
   vocabulary, the wrapper (checked against the paper's W definition),
   and the Lspec / TME-Spec monitors and stabilization analysis over
   hand-built traces. *)

open Graybox
open Clocks

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let ts c p = Timestamp.make ~clock:c ~pid:p

let mk_view ?(clock = 0) ~self ~mode ~req locals =
  let local_req =
    List.fold_left
      (fun m (k, t) -> Sim.Pid.Map.add k t m)
      Sim.Pid.Map.empty locals
  in
  View.make ~self ~mode ~req ~local_req ~clock

(* ------------------------------------------------------------------ *)
(* Msg                                                                 *)

let test_msg_accessors () =
  let m = Msg.Request (ts 3 1) in
  Alcotest.(check bool) "is_request" true (Msg.is_request m);
  Alcotest.(check bool) "not reply" false (Msg.is_reply m);
  Alcotest.(check bool) "ts" true (Timestamp.equal (Msg.timestamp m) (ts 3 1));
  Alcotest.(check string) "pp" "req(3.1)" (Msg.to_string m);
  Alcotest.(check string) "rel" "rel(0.2)" (Msg.to_string (Msg.Release (ts 0 2)))

let test_msg_compare () =
  Alcotest.(check bool) "request before reply" true
    (Msg.compare (Msg.Request (ts 9 9)) (Msg.Reply (ts 0 0)) < 0);
  Alcotest.(check bool) "equal" true
    (Msg.equal (Msg.Reply (ts 1 2)) (Msg.Reply (ts 1 2)))

let prop_msg_corrupt_in_domain =
  qtest "corrupt stays in the message domain"
    QCheck2.Gen.(pair small_int (0 -- 20))
    (fun (seed, clock) ->
      let rng = Stdext.Rng.create seed in
      let m = Msg.corrupt ~n:4 rng (Msg.Request (ts clock 0)) in
      let t = Msg.timestamp m in
      t.Timestamp.clock >= 0 && t.Timestamp.pid >= 0 && t.Timestamp.pid < 4)

(* ------------------------------------------------------------------ *)
(* View                                                                 *)

let test_view_predicates () =
  let v = mk_view ~self:0 ~mode:View.Hungry ~req:(ts 2 0) [] in
  Alcotest.(check bool) "hungry" true (View.hungry v);
  Alcotest.(check bool) "not thinking" false (View.thinking v);
  Alcotest.(check string) "mode string" "h" (View.mode_to_string v.View.mode)

let test_view_local_req_default () =
  let v = mk_view ~self:0 ~mode:View.Thinking ~req:(ts 0 0) [] in
  Alcotest.(check bool) "defaults to zero" true
    (Timestamp.equal (View.local_req v 3) (Timestamp.zero ~pid:3))

let test_view_earliest () =
  let v =
    mk_view ~self:0 ~mode:View.Hungry ~req:(ts 1 0)
      [ (1, ts 5 1); (2, ts 9 2) ]
  in
  Alcotest.(check bool) "earliest" true (View.earliest v ~peers:[ 1; 2 ]);
  let v2 =
    mk_view ~self:0 ~mode:View.Hungry ~req:(ts 10 0)
      [ (1, ts 5 1); (2, ts 9 2) ]
  in
  Alcotest.(check bool) "not earliest" false (View.earliest v2 ~peers:[ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Wrapper: the paper's W                                               *)

let targets term v ~n = Wrapper.term_targets term v ~n ~timer:0

let test_wrapper_not_hungry_silent () =
  let v = mk_view ~self:0 ~mode:View.Thinking ~req:(ts 5 0) [ (1, ts 0 1) ] in
  Alcotest.(check (list int)) "thinking: no targets" []
    (targets Wrapper.w_refined v ~n:3);
  let v = { v with View.mode = View.Eating } in
  Alcotest.(check (list int)) "eating: no targets" []
    (targets Wrapper.w_refined v ~n:3)

let test_wrapper_refined_targets () =
  (* j.REQ_1 lt REQ_j: resend to 1; j.REQ_2 is newer: skip *)
  let v =
    mk_view ~self:0 ~mode:View.Hungry ~req:(ts 5 0)
      [ (1, ts 2 1); (2, ts 8 2) ]
  in
  Alcotest.(check (list int)) "only stale peer" [ 1 ]
    (targets Wrapper.w_refined v ~n:3);
  match Wrapper.eval Wrapper.w_refined v ~n:3 ~timer:0 with
  | [ (1, Msg.Request r) ] ->
    Alcotest.(check bool) "sends REQ_j" true (Timestamp.equal r (ts 5 0))
  | _ -> Alcotest.fail "expected a single request to 1"

let test_wrapper_unrefined_targets () =
  let v =
    mk_view ~self:0 ~mode:View.Hungry ~req:(ts 5 0)
      [ (1, ts 2 1); (2, ts 8 2) ]
  in
  Alcotest.(check (list int)) "all peers" [ 1; 2 ]
    (targets Wrapper.w_unrefined v ~n:3)

let test_wrapper_consistent_state_silent () =
  (* everyone's copy is past REQ_j: the refined wrapper is quiet *)
  let v =
    mk_view ~self:1 ~mode:View.Hungry ~req:(ts 3 1)
      [ (0, ts 7 0); (2, ts 4 2) ]
  in
  Alcotest.(check (list int)) "no stale copies" []
    (targets Wrapper.w_refined v ~n:3)

let prop_wrapper_refined_subset_unrefined =
  qtest "refined targets are a subset of unrefined"
    QCheck2.Gen.(
      let* req_c = 0 -- 10 in
      let* l1 = 0 -- 10 in
      let* l2 = 0 -- 10 in
      return (req_c, l1, l2))
    (fun (req_c, l1, l2) ->
      let v =
        mk_view ~self:0 ~mode:View.Hungry ~req:(ts req_c 0)
          [ (1, ts l1 1); (2, ts l2 2) ]
      in
      let r = targets Wrapper.w_refined v ~n:3 in
      let u = targets Wrapper.w_unrefined v ~n:3 in
      List.for_all (fun k -> List.mem k u) r)

let prop_wrapper_sends_own_request =
  qtest "wrapper messages carry REQ_j verbatim"
    QCheck2.Gen.(pair (0 -- 10) (0 -- 10))
    (fun (req_c, l1) ->
      let v =
        mk_view ~self:0 ~mode:View.Hungry ~req:(ts req_c 0) [ (1, ts l1 1) ]
      in
      List.for_all
        (fun (_, m) ->
          match m with
          | Msg.Request r -> Timestamp.equal r (ts req_c 0)
          | Msg.Reply _ | Msg.Release _ -> false)
        (Wrapper.eval Wrapper.w_refined v ~n:2 ~timer:0))

(* ------------------------------------------------------------------ *)
(* Monitors over hand-built traces                                      *)

let snap ?(event = Sim.Trace.Stutter) time states channels :
    (View.t, Msg.t) Sim.Trace.snapshot =
  { Sim.Trace.time; event; states; channels = lazy channels }

let two_views m0 m1 =
  [| mk_view ~self:0 ~mode:m0 ~req:(ts 1 0) [ (1, ts 2 1) ];
     mk_view ~self:1 ~mode:m1 ~req:(ts 2 1) [ (0, ts 1 0) ] |]

let test_me1_detects_double_eating () =
  let tr =
    [ snap 0 (two_views View.Thinking View.Thinking) [];
      snap 1 (two_views View.Eating View.Eating) [] ]
  in
  match Tme_spec.me1 tr with
  | Unityspec.Temporal.Violated { at = 1; _ } -> ()
  | _ -> Alcotest.fail "expected ME1 violation at 1"

let test_me2_pending_and_discharged () =
  let tr =
    [ snap 0 (two_views View.Hungry View.Thinking) [];
      snap 1 (two_views View.Eating View.Thinking) [] ]
  in
  Alcotest.(check bool) "discharged" true
    (Unityspec.Temporal.is_ok (Tme_spec.me2 ~n:2 tr));
  let stuck =
    [ snap 0 (two_views View.Hungry View.Thinking) [];
      snap 1 (two_views View.Hungry View.Thinking) [] ]
  in
  match Tme_spec.me2 ~n:2 stuck with
  | Unityspec.Temporal.Pending _ -> ()
  | _ -> Alcotest.fail "expected pending starvation"

let test_me3_causal_violation () =
  let vc0 = Vector_clock.of_list [ 1; 0 ] in
  let vc1 = Vector_clock.of_list [ 1; 1 ] in
  (* entry by 1 (request vc1) then entry by 0 whose request vc0 hb vc1:
     order respects causality only if vc0's entry came first *)
  let entries_ok : Harness.entry_record list =
    [ { entry_time = 1; entry_pid = 0; entry_req = ts 1 0; entry_req_vc = vc0 };
      { entry_time = 2; entry_pid = 1; entry_req = ts 2 1; entry_req_vc = vc1 } ]
  in
  Alcotest.(check bool) "causal order ok" true
    (Unityspec.Temporal.is_ok (Tme_spec.me3 entries_ok));
  let entries_bad =
    [ { Harness.entry_time = 1; entry_pid = 1; entry_req = ts 2 1; entry_req_vc = vc1 };
      { Harness.entry_time = 2; entry_pid = 0; entry_req = ts 1 0; entry_req_vc = vc0 } ]
  in
  match Tme_spec.me3 entries_bad with
  | Unityspec.Temporal.Violated _ -> ()
  | _ -> Alcotest.fail "expected FCFS violation"

let test_me3_concurrent_requests_any_order () =
  let vc_a = Vector_clock.of_list [ 1; 0 ] in
  let vc_b = Vector_clock.of_list [ 0; 1 ] in
  let entries : Harness.entry_record list =
    [ { entry_time = 1; entry_pid = 1; entry_req = ts 2 1; entry_req_vc = vc_b };
      { entry_time = 2; entry_pid = 0; entry_req = ts 1 0; entry_req_vc = vc_a } ]
  in
  Alcotest.(check bool) "concurrent: any order fine" true
    (Unityspec.Temporal.is_ok (Tme_spec.me3 entries))

let test_lspec_flow_catches_illegal_transition () =
  let tr =
    [ snap 0 (two_views View.Thinking View.Thinking) [];
      snap 1 (two_views View.Eating View.Thinking) [] ]
  in
  match Lspec.flow ~n:2 tr with
  | Unityspec.Temporal.Violated _ -> ()
  | _ -> Alcotest.fail "thinking -> eating must violate Flow Spec"

let test_lspec_flow_exempts_faults () =
  let tr =
    [ snap 0 (two_views View.Thinking View.Thinking) [];
      snap ~event:(Sim.Trace.Fault { label = "mutate" }) 1
        (two_views View.Eating View.Thinking) [] ]
  in
  Alcotest.(check bool) "fault step exempt" true
    (Unityspec.Temporal.is_ok (Lspec.flow ~n:2 tr))

let test_lspec_request_safety () =
  let v req = [| mk_view ~self:0 ~mode:View.Hungry ~req [];
                 mk_view ~self:1 ~mode:View.Thinking ~req:(ts 0 1) [] |] in
  let ok_tr = [ snap 0 (v (ts 1 0)) []; snap 1 (v (ts 1 0)) [] ] in
  Alcotest.(check bool) "frozen req ok" true
    (Unityspec.Temporal.is_ok (Lspec.request_safety ~n:2 ok_tr));
  let bad_tr = [ snap 0 (v (ts 1 0)) []; snap 1 (v (ts 5 0)) [] ] in
  match Lspec.request_safety ~n:2 bad_tr with
  | Unityspec.Temporal.Violated _ -> ()
  | _ -> Alcotest.fail "changing REQ while hungry must violate"

let test_lspec_cs_entry_safety () =
  let hungry_stale =
    [| mk_view ~self:0 ~mode:View.Hungry ~req:(ts 5 0) [ (1, ts 1 1) ];
       mk_view ~self:1 ~mode:View.Thinking ~req:(ts 1 1) [ (0, ts 5 0) ] |]
  in
  let entered =
    [| mk_view ~self:0 ~mode:View.Eating ~req:(ts 5 0) [ (1, ts 1 1) ];
       mk_view ~self:1 ~mode:View.Thinking ~req:(ts 1 1) [ (0, ts 5 0) ] |]
  in
  let tr = [ snap 0 hungry_stale []; snap 1 entered [] ] in
  match Lspec.cs_entry_safety ~n:2 tr with
  | Unityspec.Temporal.Violated _ -> ()
  | _ -> Alcotest.fail "entering while not earliest must violate"

let test_lspec_cs_release () =
  let good =
    [| mk_view ~clock:4 ~self:0 ~mode:View.Thinking ~req:(ts 4 0) [];
       mk_view ~clock:0 ~self:1 ~mode:View.Thinking ~req:(ts 0 1) [] |]
  in
  Alcotest.(check bool) "req tracks clock" true
    (Unityspec.Temporal.is_ok (Lspec.cs_release ~n:2 [ snap 0 good [] ]));
  let bad =
    [| mk_view ~clock:4 ~self:0 ~mode:View.Thinking ~req:(ts 1 0) [];
       mk_view ~clock:0 ~self:1 ~mode:View.Thinking ~req:(ts 0 1) [] |]
  in
  match Lspec.cs_release ~n:2 [ snap 0 bad [] ] with
  | Unityspec.Temporal.Violated _ -> ()
  | _ -> Alcotest.fail "stale REQ while thinking must violate"

let test_lspec_fifo_catches_head_insertion () =
  let states = two_views View.Thinking View.Thinking in
  let tr =
    [ snap 0 states [ (0, 1, [ Msg.Reply (ts 1 0) ]) ];
      snap 1 states [ (0, 1, [ Msg.Reply (ts 9 0); Msg.Reply (ts 1 0) ]) ] ]
  in
  match Lspec.communication_fifo ~n:2 tr with
  | Unityspec.Temporal.Violated _ -> ()
  | _ -> Alcotest.fail "front insertion must violate FIFO"

let test_lspec_fifo_allows_appends_and_delivery () =
  let states = two_views View.Thinking View.Thinking in
  let tr =
    [ snap 0 states [ (0, 1, [ Msg.Reply (ts 1 0) ]) ];
      snap 1 states [ (0, 1, [ Msg.Reply (ts 1 0); Msg.Reply (ts 2 0) ]) ];
      snap 2
        ~event:(Sim.Trace.Deliver { src = 0; dst = 1; msg = Msg.Reply (ts 1 0) })
        states
        [ (0, 1, [ Msg.Reply (ts 2 0) ]) ] ]
  in
  Alcotest.(check bool) "fifo ok" true
    (Unityspec.Temporal.is_ok (Lspec.communication_fifo ~n:2 tr))

let test_lspec_init_spec () =
  let init_views =
    [| mk_view ~clock:0 ~self:0 ~mode:View.Thinking ~req:(ts 0 0)
         [ (1, ts 0 1) ];
       mk_view ~clock:0 ~self:1 ~mode:View.Thinking ~req:(ts 0 1)
         [ (0, ts 0 0) ] |]
  in
  Alcotest.(check bool) "proper init" true
    (Unityspec.Temporal.is_ok (Lspec.init_spec ~n:2 [ snap 0 init_views [] ]));
  let bad = two_views View.Hungry View.Thinking in
  match Lspec.init_spec ~n:2 [ snap 0 bad [] ] with
  | Unityspec.Temporal.Violated { at = 0; _ } -> ()
  | _ -> Alcotest.fail "hungry start must violate Init"

(* ------------------------------------------------------------------ *)
(* Stabilize                                                            *)

let test_stabilize_clean_trace () =
  let states = two_views View.Thinking View.Thinking in
  let tr = List.init 10 (fun i -> snap i states []) in
  let a = Stabilize.analyse tr in
  Alcotest.(check bool) "recovered" true a.Stabilize.recovered;
  Alcotest.(check (option int)) "no fault" None a.Stabilize.last_fault_index;
  Alcotest.(check int) "no violations" 0 a.Stabilize.me1_violations

let test_stabilize_detects_starvation () =
  let stuck = two_views View.Hungry View.Thinking in
  let tr = List.init 50 (fun i -> snap i stuck []) in
  let a = Stabilize.analyse ~tail_margin:10 tr in
  Alcotest.(check bool) "not recovered" false a.Stabilize.recovered;
  Alcotest.(check (list int)) "process 0 starves" [ 0 ] a.Stabilize.starving

let test_stabilize_recovery_after_fault () =
  let thinking = two_views View.Thinking View.Thinking in
  let double = two_views View.Eating View.Eating in
  let tr =
    [ snap 0 thinking [];
      snap ~event:(Sim.Trace.Fault { label = "mutate" }) 1 double [];
      snap 2 double []; (* still violating *)
      snap 3 thinking [];
      snap 4 thinking [];
      snap 5 thinking [] ]
  in
  let a = Stabilize.analyse ~tail_margin:2 tr in
  Alcotest.(check bool) "recovered" true a.Stabilize.recovered;
  Alcotest.(check (option int)) "fault at 1" (Some 1) a.Stabilize.last_fault_index;
  Alcotest.(check int) "violations counted" 2 a.Stabilize.me1_violations;
  match a.Stabilize.recovery_steps with
  | Some s -> Alcotest.(check bool) "positive recovery" true (s >= 2)
  | None -> Alcotest.fail "expected recovery steps"

let test_stabilize_empty_trace () =
  let a = Stabilize.analyse [] in
  Alcotest.(check bool) "not recovered" false a.Stabilize.recovered;
  Alcotest.(check int) "len" 0 a.Stabilize.trace_len

let test_service_round_latency () =
  let e0 = two_views View.Eating View.Thinking in
  let e1 = two_views View.Thinking View.Eating in
  let t = two_views View.Thinking View.Thinking in
  let tr = [ snap 0 t []; snap 1 e0 []; snap 2 t []; snap 3 e1 []; snap 4 t [] ] in
  Alcotest.(check (option int)) "both served by t=3" (Some 3)
    (Stabilize.service_round_latency tr ~after:0);
  Alcotest.(check (option int)) "never after 3" None
    (Stabilize.service_round_latency tr ~after:3)

let test_lspec_timestamp_monotone_violation () =
  (* a clock going backwards must violate Timestamp Spec *)
  let v clock =
    [| mk_view ~clock ~self:0 ~mode:View.Hungry ~req:(ts 1 0) [];
       mk_view ~clock:0 ~self:1 ~mode:View.Thinking ~req:(ts 0 1) [] |]
  in
  let tr = [ snap 0 (v 5) []; snap 1 (v 3) [] ] in
  (match Lspec.timestamp_spec ~n:2 tr with
   | Unityspec.Temporal.Violated _ -> ()
   | _ -> Alcotest.fail "clock regression must violate");
  Alcotest.(check bool) "monotone ok" true
    (Unityspec.Temporal.is_ok
       (Lspec.timestamp_spec ~n:2 [ snap 0 (v 3) []; snap 1 (v 5) [] ]))

let test_lspec_timestamp_receive_rule () =
  (* a delivery whose receiver's clock stays below the message stamp *)
  let v clock =
    [| mk_view ~clock ~self:0 ~mode:View.Thinking ~req:(ts clock 0) [];
       mk_view ~clock:0 ~self:1 ~mode:View.Thinking ~req:(ts 0 1) [] |]
  in
  let deliver =
    Sim.Trace.Deliver { src = 1; dst = 0; msg = Msg.Request (ts 9 1) }
  in
  let tr = [ snap 0 (v 0) []; snap ~event:deliver 1 (v 2) [] ] in
  match Lspec.timestamp_spec ~n:2 tr with
  | Unityspec.Temporal.Violated _ -> ()
  | _ -> Alcotest.fail "receive rule must pull the clock forward"

let test_lspec_request_liveness_detects_and_discharges () =
  (* j hungry, k unaware, no request in flight: pending; then k hears *)
  let unaware =
    [| mk_view ~self:0 ~mode:View.Hungry ~req:(ts 5 0) [ (1, ts 9 1) ];
       mk_view ~self:1 ~mode:View.Thinking ~req:(ts 0 1) [ (0, ts 1 0) ] |]
  in
  let heard =
    [| unaware.(0);
       mk_view ~self:1 ~mode:View.Thinking ~req:(ts 0 1) [ (0, ts 5 0) ] |]
  in
  (match Lspec.request_liveness ~n:2 [ snap 0 unaware [] ] with
   | Unityspec.Temporal.Pending _ -> ()
   | _ -> Alcotest.fail "expected an open obligation");
  Alcotest.(check bool) "discharged once heard" true
    (Unityspec.Temporal.is_ok
       (Lspec.request_liveness ~n:2 [ snap 0 unaware []; snap 1 heard [] ]));
  (* a request in flight also silences the clause *)
  let in_flight =
    [ snap 0 unaware [ (0, 1, [ Msg.Request (ts 5 0) ]) ] ]
  in
  Alcotest.(check bool) "in-flight request counts" true
    (Unityspec.Temporal.is_ok (Lspec.request_liveness ~n:2 in_flight))

let test_service_times () =
  let h = two_views View.Hungry View.Thinking in
  let e = two_views View.Eating View.Thinking in
  let t = two_views View.Thinking View.Thinking in
  (* hungry at 1-2, eats at 3; hungry again at 5, aborted to thinking *)
  let tr =
    [ snap 0 t []; snap 1 h []; snap 2 h []; snap 3 e []; snap 4 t [];
      snap 5 h []; snap 6 t [] ]
  in
  Alcotest.(check (list int)) "one completed service of 2 steps" [ 2 ]
    (Stabilize.service_times tr);
  Alcotest.(check (list int)) "after cutoff excludes it" []
    (Stabilize.service_times ~after:4 tr)

(* ------------------------------------------------------------------ *)
(* Harness                                                              *)

let test_harness_params_validation () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Harness.params: need at least two processes")
    (fun () -> ignore (Harness.params ~n:1 ()));
  Alcotest.check_raises "bad passive"
    (Invalid_argument "Harness.params: passive pid out of range") (fun () ->
      ignore (Harness.params ~passive:[ 7 ] ~n:3 ()))

module HR = Harness.Make (Tme.Ra_me)

let test_harness_entry_log_matches_counter () =
  let params = Harness.params ~n:3 () in
  let engine = HR.make_engine params ~seed:5 in
  HR.Run.run ~steps:2500 engine;
  Alcotest.(check int) "entry log length = oracle counter"
    (HR.total_entries engine)
    (List.length (HR.entry_log engine));
  (* every logged entry carries the request active just before it *)
  List.iter
    (fun (e : Harness.entry_record) ->
      Alcotest.(check bool) "entry pid in range" true
        (e.entry_pid >= 0 && e.entry_pid < 3))
    (HR.entry_log engine)

let test_harness_view_trace_shape () =
  let params = Harness.params ~n:3 () in
  let engine = HR.make_engine params ~seed:5 in
  HR.Run.run ~steps:500 engine;
  let tr = HR.view_trace engine in
  Alcotest.(check int) "init + steps snapshots" 501 (List.length tr);
  List.iter
    (fun (snapshot : (View.t, Msg.t) Sim.Trace.snapshot) ->
      Alcotest.(check int) "3 views" 3 (Array.length snapshot.states))
    tr

let () =
  Alcotest.run "graybox"
    [ ( "msg",
        [ Alcotest.test_case "accessors" `Quick test_msg_accessors;
          Alcotest.test_case "compare" `Quick test_msg_compare;
          prop_msg_corrupt_in_domain ] );
      ( "view",
        [ Alcotest.test_case "predicates" `Quick test_view_predicates;
          Alcotest.test_case "local_req default" `Quick test_view_local_req_default;
          Alcotest.test_case "earliest" `Quick test_view_earliest ] );
      ( "wrapper",
        [ Alcotest.test_case "silent unless hungry" `Quick
            test_wrapper_not_hungry_silent;
          Alcotest.test_case "refined targets" `Quick test_wrapper_refined_targets;
          Alcotest.test_case "unrefined targets" `Quick
            test_wrapper_unrefined_targets;
          Alcotest.test_case "consistent: silent" `Quick
            test_wrapper_consistent_state_silent;
          prop_wrapper_refined_subset_unrefined;
          prop_wrapper_sends_own_request ] );
      ( "tme_spec",
        [ Alcotest.test_case "ME1 violation" `Quick test_me1_detects_double_eating;
          Alcotest.test_case "ME2" `Quick test_me2_pending_and_discharged;
          Alcotest.test_case "ME3 causal" `Quick test_me3_causal_violation;
          Alcotest.test_case "ME3 concurrent" `Quick
            test_me3_concurrent_requests_any_order ] );
      ( "lspec",
        [ Alcotest.test_case "flow violation" `Quick
            test_lspec_flow_catches_illegal_transition;
          Alcotest.test_case "flow fault-exempt" `Quick test_lspec_flow_exempts_faults;
          Alcotest.test_case "request safety" `Quick test_lspec_request_safety;
          Alcotest.test_case "entry safety" `Quick test_lspec_cs_entry_safety;
          Alcotest.test_case "cs release" `Quick test_lspec_cs_release;
          Alcotest.test_case "fifo violation" `Quick
            test_lspec_fifo_catches_head_insertion;
          Alcotest.test_case "fifo ok" `Quick
            test_lspec_fifo_allows_appends_and_delivery;
          Alcotest.test_case "init spec" `Quick test_lspec_init_spec;
          Alcotest.test_case "timestamp monotone" `Quick
            test_lspec_timestamp_monotone_violation;
          Alcotest.test_case "timestamp receive rule" `Quick
            test_lspec_timestamp_receive_rule;
          Alcotest.test_case "request liveness" `Quick
            test_lspec_request_liveness_detects_and_discharges ] );
      ( "stabilize",
        [ Alcotest.test_case "clean trace" `Quick test_stabilize_clean_trace;
          Alcotest.test_case "starvation" `Quick test_stabilize_detects_starvation;
          Alcotest.test_case "recovery" `Quick test_stabilize_recovery_after_fault;
          Alcotest.test_case "empty" `Quick test_stabilize_empty_trace;
          Alcotest.test_case "service round" `Quick test_service_round_latency;
          Alcotest.test_case "service times" `Quick test_service_times ] );
      ( "harness",
        [ Alcotest.test_case "params validation" `Quick
            test_harness_params_validation;
          Alcotest.test_case "entry log" `Quick
            test_harness_entry_log_matches_counter;
          Alcotest.test_case "view trace shape" `Quick
            test_harness_view_trace_shape ] ) ]
