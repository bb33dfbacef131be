(* Tests for the UNITY temporal operators and the clause-report
   container, including cross-checks of the operators' laws on random
   boolean traces. *)

open Unityspec

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let ok = Temporal.is_ok

(* ------------------------------------------------------------------ *)
(* Safety operators                                                    *)

let test_invariant () =
  Alcotest.(check bool) "holds" true (ok (Temporal.invariant (fun x -> x > 0) [ 1; 2; 3 ]));
  (match Temporal.invariant ~name:"positive" (fun x -> x > 0) [ 1; 0; 3 ] with
   | Temporal.Violated { at = 1; reason } ->
     Alcotest.(check bool) "reason names clause" true
       (String.length reason > 0 && String.sub reason 0 8 = "positive")
   | _ -> Alcotest.fail "expected violation at 1");
  Alcotest.(check bool) "empty trace" true
    (ok (Temporal.invariant (fun _ -> false) []))

let test_step_invariant () =
  Alcotest.(check bool) "monotone" true
    (ok (Temporal.step_invariant (fun a b -> a <= b) [ 1; 2; 2; 5 ]));
  (match Temporal.step_invariant (fun a b -> a <= b) [ 1; 0 ] with
   | Temporal.Violated { at = 1; _ } -> ()
   | _ -> Alcotest.fail "expected violation at 1");
  Alcotest.(check bool) "singleton" true
    (ok (Temporal.step_invariant (fun _ _ -> false) [ 1 ]))

(* ------------------------------------------------------------------ *)
(* Liveness operators                                                  *)

let test_leads_to () =
  let p x = x = 1 and q x = x = 9 in
  Alcotest.(check bool) "discharged" true (ok (Temporal.leads_to ~p ~q [ 1; 0; 9 ]));
  Alcotest.(check bool) "p equals q point" true
    (ok (Temporal.leads_to ~p ~q:(fun x -> x = 1) [ 1 ]));
  (match Temporal.leads_to ~p ~q [ 0; 1; 0; 1 ] with
   | Temporal.Pending { obligations } ->
     Alcotest.(check (list int)) "both open" [ 1; 3 ] obligations
   | _ -> Alcotest.fail "expected pending");
  Alcotest.(check bool) "multiple discharged by one q" true
    (ok (Temporal.leads_to ~p ~q [ 1; 1; 1; 9 ]))

let test_ok_with_tail () =
  let v = Temporal.Pending { obligations = [ 98; 99 ] } in
  Alcotest.(check bool) "tail allowed" true
    (Temporal.ok_with_tail ~trace_len:100 ~margin:5 v);
  Alcotest.(check bool) "early not allowed" false
    (Temporal.ok_with_tail ~trace_len:100 ~margin:1 v);
  Alcotest.(check bool) "violated never" false
    (Temporal.ok_with_tail ~trace_len:100 ~margin:100
       (Temporal.Violated { at = 0; reason = "x" }));
  Alcotest.(check bool) "holds always" true
    (Temporal.ok_with_tail ~trace_len:100 ~margin:0 Temporal.Holds)

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)

let test_both_and_all () =
  let viol = Temporal.Violated { at = 2; reason = "boom" } in
  let pend = Temporal.Pending { obligations = [ 1 ] } in
  Alcotest.(check bool) "holds both" true (ok (Temporal.both Temporal.Holds Temporal.Holds));
  (match Temporal.both pend viol with
   | Temporal.Violated _ -> ()
   | _ -> Alcotest.fail "violation dominates");
  (match Temporal.both pend (Temporal.Pending { obligations = [ 1; 4 ] }) with
   | Temporal.Pending { obligations } ->
     Alcotest.(check (list int)) "merged dedup" [ 1; 4 ] obligations
   | _ -> Alcotest.fail "expected pending");
  match Temporal.all [ Temporal.Holds; pend; Temporal.Holds ] with
  | Temporal.Pending _ -> ()
  | _ -> Alcotest.fail "pending survives all"

let test_forall () =
  let v = Temporal.forall (fun i -> if i = 2 then Temporal.Violated { at = 0; reason = "i2" } else Temporal.Holds) 4 in
  (match v with
   | Temporal.Violated { reason = "i2"; _ } -> ()
   | _ -> Alcotest.fail "expected i2 violation");
  Alcotest.(check bool) "all hold" true (ok (Temporal.forall (fun _ -> Temporal.Holds) 3))

let test_forall_pairs () =
  let seen = ref [] in
  let _ =
    Temporal.forall_pairs
      (fun j k ->
        seen := (j, k) :: !seen;
        Temporal.Holds)
      3
  in
  Alcotest.(check int) "6 ordered pairs" 6 (List.length !seen);
  Alcotest.(check bool) "no diagonal" true
    (List.for_all (fun (j, k) -> j <> k) !seen)

(* ------------------------------------------------------------------ *)
(* Law cross-checks on random traces                                   *)

let gen_trace = QCheck2.Gen.(list_size (1 -- 30) (0 -- 3))

let test_leads_to_reflexive =
  qtest "p leads_to p" gen_trace (fun tr ->
      ok (Temporal.leads_to ~p:(fun x -> x = 2) ~q:(fun x -> x = 2) tr))

let test_leads_to_weakening =
  qtest "leads_to weakens target" gen_trace (fun tr ->
      let p x = x = 1 in
      let q x = x = 2 in
      let q' x = x >= 2 in
      (not (ok (Temporal.leads_to ~p ~q tr)))
      || ok (Temporal.leads_to ~p ~q:q' tr))

(* ------------------------------------------------------------------ *)
(* Report                                                              *)

let test_report () =
  let r =
    Report.of_list
      [ ("a", Temporal.Holds);
        ("b", Temporal.Pending { obligations = [ 3 ] });
        ("c", Temporal.Violated { at = 1; reason = "bad" }) ]
  in
  Alcotest.(check bool) "not all hold" false (Report.all_hold r);
  Alcotest.(check bool) "not safe" false (Report.safe r);
  Alcotest.(check int) "failures" 2 (List.length (Report.failures r));
  Alcotest.(check int) "violations" 1 (List.length (Report.violations r));
  Alcotest.(check int) "pending" 1 (List.length (Report.pending r));
  let safe_r = Report.of_list [ ("a", Temporal.Holds); ("b", Temporal.Pending { obligations = [] }) ] in
  Alcotest.(check bool) "safe with pending" true (Report.safe safe_r);
  Alcotest.(check bool) "merge" true
    (List.length (Report.merge r safe_r) = 5);
  Alcotest.(check bool) "to_string nonempty" true
    (String.length (Report.to_string r) > 0)

let test_pp_verdict () =
  let show v = Format.asprintf "%a" Temporal.pp_verdict v in
  let pending obligations = show (Temporal.Pending { obligations }) in
  Alcotest.(check string) "holds" "holds" (show Temporal.Holds);
  Alcotest.(check string) "violated" "violated at 3: ME1 fails"
    (show (Temporal.Violated { at = 3; reason = "ME1 fails" }));
  Alcotest.(check string) "one run" "pending obligations at 3602-4000"
    (pending (List.init 399 (fun i -> 3602 + i)));
  Alcotest.(check string) "runs and singles"
    "pending obligations at 1,3-5,9-10,12" (pending [ 1; 3; 4; 5; 9; 10; 12 ])

let () =
  Alcotest.run "unityspec"
    [ ( "safety",
        [ Alcotest.test_case "invariant" `Quick test_invariant;
          Alcotest.test_case "step_invariant" `Quick test_step_invariant ] );
      ( "liveness",
        [ Alcotest.test_case "leads_to" `Quick test_leads_to;
          Alcotest.test_case "ok_with_tail" `Quick test_ok_with_tail ] );
      ( "combinators",
        [ Alcotest.test_case "both/all" `Quick test_both_and_all;
          Alcotest.test_case "forall" `Quick test_forall;
          Alcotest.test_case "forall_pairs" `Quick test_forall_pairs ] );
      ("laws", [ test_leads_to_reflexive; test_leads_to_weakening ]);
      ( "report",
        [ Alcotest.test_case "report" `Quick test_report;
          Alcotest.test_case "pp_verdict intervals" `Quick test_pp_verdict ] ) ]
