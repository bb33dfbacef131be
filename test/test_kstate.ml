(* Tests for Dijkstra's K-state ring: the whitebox-stabilization
   contrast case.  Privilege counting, fault-free legitimacy, recovery
   from arbitrary counter corruption (Dijkstra's theorem, empirically),
   and validation of the K >= n + 1 precondition. *)

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let test_privileges_counting () =
  (* all equal: only the bottom is privileged *)
  Alcotest.(check int) "uniform" 1
    (Kstate.privileges ~counters:[| 3; 3; 3; 3 |] ~k:5);
  (* mid-circulation: the new value has propagated halfway; only the
     frontier machine is privileged *)
  Alcotest.(check int) "one step" 1
    (Kstate.privileges ~counters:[| 4; 4; 3; 3 |] ~k:5);
  (* fully scrambled: several privileges *)
  Alcotest.(check bool) "scrambled has several" true
    (Kstate.privileges ~counters:[| 0; 2; 1; 4 |] ~k:5 > 1)

let test_privileges_never_zero =
  qtest "at least one machine is always privileged"
    QCheck2.Gen.(list_size (return 5) (0 -- 5))
    (fun xs ->
      Kstate.privileges ~counters:(Array.of_list xs) ~k:6 >= 1)

let test_run_validates () =
  Alcotest.check_raises "k too small"
    (Invalid_argument "Kstate.run: need k >= n + 1") (fun () ->
      ignore (Kstate.run ~n:5 ~k:5 ~seed:1 ~steps:10 ()));
  Alcotest.check_raises "n too small"
    (Invalid_argument "Kstate.run: need n >= 2") (fun () ->
      ignore (Kstate.run ~n:1 ~k:5 ~seed:1 ~steps:10 ()))

let test_fault_free_legitimate () =
  let o = Kstate.run ~n:4 ~k:5 ~seed:3 ~steps:2000 () in
  Alcotest.(check bool) "stabilized (trivially)" true
    (o.Kstate.stabilized_at <> None);
  Alcotest.(check int) "one privilege at end" 1 o.Kstate.privileges_at_end;
  Alcotest.(check bool) "token moved" true (o.Kstate.moves > 20)

let test_recovers_from_corruption () =
  List.iter
    (fun seed ->
      let o = Kstate.run ~corrupt_at:300 ~n:5 ~k:6 ~seed ~steps:3000 () in
      Alcotest.(check bool)
        (Printf.sprintf "stabilized (seed %d)" seed)
        true
        (o.Kstate.stabilized_at <> None);
      Alcotest.(check int) "single privilege" 1 o.Kstate.privileges_at_end)
    [ 1; 2; 3; 4; 5; 6 ]

(* Every field of the outcome on a seed x configuration grid
   ((n, k, corrupt_at, steps, seed): recoveries, a fault-free ring, a
   run cut before it stabilizes, and a two-machine ring, which has one
   privilege in every state, so it is legitimate across the fault and
   counts as stabilized from the fault on) and on the million-step run of
   [graybox-cli kstate --steps 1000000].  The values were computed by
   recording each run and scanning the trace back from its end; the
   fold must reproduce them exactly. *)
let pinned_outcomes =
  let o stabilized_at recovery_steps privileges_at_end moves =
    { Kstate.stabilized_at; recovery_steps; privileges_at_end; moves }
  in
  [ ((4, 6, Some 500, 3000, 1), o (Some 516) (Some 15) 1 217);
    ((4, 6, Some 500, 3000, 2), o (Some 512) (Some 11) 1 210);
    ((4, 6, Some 500, 3000, 3), o (Some 512) (Some 11) 1 217);
    ((5, 6, Some 100, 2000, 1), o (Some 186) (Some 85) 1 128);
    ((5, 6, Some 100, 2000, 2), o (Some 163) (Some 62) 1 129);
    ((5, 6, Some 100, 2000, 3), o (Some 158) (Some 57) 1 119);
    ((3, 4, None, 1000, 1), o (Some 0) (Some 0) 1 102);
    ((3, 4, None, 1000, 2), o (Some 0) (Some 0) 1 94);
    ((3, 4, None, 1000, 3), o (Some 0) (Some 0) 1 103);
    ((8, 9, Some 500, 600, 1), o (Some 550) (Some 49) 1 29);
    ((8, 9, Some 500, 600, 2), o None None 2 37);
    ((8, 9, Some 500, 600, 3), o (Some 575) (Some 74) 1 37);
    ((2, 3, Some 300, 1000, 1), o (Some 301) (Some 0) 1 148);
    ((2, 3, Some 300, 1000, 2), o (Some 301) (Some 0) 1 176);
    ((2, 3, Some 300, 1000, 3), o (Some 301) (Some 0) 1 158);
    ((4, 6, Some 500, 1000000, 1), o (Some 516) (Some 15) 1 72253) ]

let test_outcomes_pinned () =
  List.iter
    (fun ((n, k, corrupt_at, steps, seed), want) ->
      let got = Kstate.run ?corrupt_at ~n ~k ~seed ~steps () in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d k=%d steps=%d seed=%d" n k steps seed)
        true (got = want))
    pinned_outcomes

let prop_recovers_from_random_corruption =
  qtest ~count:15 "K-state always stabilizes after corruption"
    QCheck2.Gen.(pair (1 -- 500) (100 -- 600))
    (fun (seed, at) ->
      let o = Kstate.run ~corrupt_at:at ~n:4 ~k:5 ~seed ~steps:4000 () in
      o.Kstate.stabilized_at <> None && o.Kstate.privileges_at_end = 1)

let () =
  Alcotest.run "kstate"
    [ ( "kstate",
        [ Alcotest.test_case "privilege counting" `Quick test_privileges_counting;
          test_privileges_never_zero;
          Alcotest.test_case "validates" `Quick test_run_validates;
          Alcotest.test_case "fault-free" `Quick test_fault_free_legitimate;
          Alcotest.test_case "recovers" `Quick test_recovers_from_corruption;
          Alcotest.test_case "outcomes pinned" `Quick test_outcomes_pinned;
          prop_recovers_from_random_corruption ] ) ]
