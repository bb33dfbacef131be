(* Tests for the resettable-vector-clock extension: the clock algebra,
   the level-1 reset wrapper with its epoch "exception", and the
   gossiping system's stabilization under corruption. *)

open Clocks

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Clock algebra                                                       *)

let test_create_well_formed () =
  let c = Rvc.Clock.create ~n:3 ~bound:10 ~self:1 in
  Alcotest.(check bool) "well formed" true (Rvc.Clock.well_formed c);
  Alcotest.(check int) "epoch 0" 0 (Rvc.Clock.epoch c);
  Alcotest.(check int) "self" 1 (Rvc.Clock.self c);
  Alcotest.(check int) "bound" 10 (Rvc.Clock.bound c)

let test_create_validates () =
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Rvc.create: bound must be >= 1") (fun () ->
      ignore (Rvc.Clock.create ~n:2 ~bound:0 ~self:0));
  Alcotest.check_raises "bad self"
    (Invalid_argument "Rvc.create: self out of range") (fun () ->
      ignore (Rvc.Clock.create ~n:2 ~bound:5 ~self:2))

let test_local_event_ticks_self () =
  let c = Rvc.Clock.create ~n:3 ~bound:10 ~self:1 in
  let c = Rvc.Clock.local_event c in
  Alcotest.(check int) "own component" 1 (Vector_clock.get (Rvc.Clock.vector c) 1);
  Alcotest.(check int) "others zero" 0 (Vector_clock.get (Rvc.Clock.vector c) 0)

let test_overflow_makes_ill_formed () =
  let c = ref (Rvc.Clock.create ~n:2 ~bound:3 ~self:0) in
  for _ = 1 to 3 do
    c := Rvc.Clock.local_event !c
  done;
  Alcotest.(check bool) "at bound still fine" true (Rvc.Clock.well_formed !c);
  c := Rvc.Clock.local_event !c;
  Alcotest.(check bool) "overflow ill-formed" false (Rvc.Clock.well_formed !c);
  Alcotest.(check bool) "wrapper guard fires" true (Rvc.Clock.needs_reset !c)

let test_reset_bumps_epoch_and_zeroes () =
  let c = Rvc.Clock.create ~n:2 ~bound:1 ~self:0 in
  let c = Rvc.Clock.local_event (Rvc.Clock.local_event c) in
  Alcotest.(check bool) "ill" true (Rvc.Clock.needs_reset c);
  let c' = Rvc.Clock.reset c in
  Alcotest.(check bool) "well formed" true (Rvc.Clock.well_formed c');
  Alcotest.(check int) "epoch bumped" 1 (Rvc.Clock.epoch c');
  Alcotest.(check (list int)) "zeroed" [ 0; 0 ]
    (Vector_clock.to_list (Rvc.Clock.vector c'))

let test_receive_same_epoch_merges () =
  let a = Rvc.Clock.create ~n:2 ~bound:10 ~self:0 in
  let b = Rvc.Clock.create ~n:2 ~bound:10 ~self:1 in
  let b = Rvc.Clock.local_event (Rvc.Clock.local_event b) in
  let a = Rvc.Clock.receive a (Rvc.Clock.read b) in
  Alcotest.(check int) "merged b's component" 2
    (Vector_clock.get (Rvc.Clock.vector a) 1);
  Alcotest.(check int) "own ticked" 1 (Vector_clock.get (Rvc.Clock.vector a) 0)

let test_receive_newer_epoch_adopts () =
  let a = Rvc.Clock.create ~n:2 ~bound:10 ~self:0 in
  let a = Rvc.Clock.local_event a in
  let b = Rvc.Clock.reset (Rvc.Clock.create ~n:2 ~bound:10 ~self:1) in
  let b, stamp = Rvc.Clock.send b in
  ignore b;
  let a = Rvc.Clock.receive a stamp in
  Alcotest.(check int) "epoch adopted" 1 (Rvc.Clock.epoch a);
  (* a restarted from the stamp: old component gone *)
  Alcotest.(check int) "restarted" 1 (Vector_clock.get (Rvc.Clock.vector a) 0)

let test_receive_stale_epoch_ignored () =
  let a = Rvc.Clock.reset (Rvc.Clock.create ~n:2 ~bound:10 ~self:0) in
  let stale : Rvc.Clock.stamp =
    { epoch = 0; vec = Vector_clock.of_list [ 9; 9 ] }
  in
  let a = Rvc.Clock.receive a stale in
  Alcotest.(check int) "content ignored" 0
    (Vector_clock.get (Rvc.Clock.vector a) 1)

let test_hb_same_epoch () =
  let a : Rvc.Clock.stamp = { epoch = 2; vec = Vector_clock.of_list [ 1; 0 ] } in
  let b : Rvc.Clock.stamp = { epoch = 2; vec = Vector_clock.of_list [ 1; 1 ] } in
  Alcotest.(check (option bool)) "ordered" (Some true) (Rvc.Clock.hb a b);
  Alcotest.(check (option bool)) "not reversed" (Some false) (Rvc.Clock.hb b a)

let test_hb_cross_epoch_incomparable () =
  let a : Rvc.Clock.stamp = { epoch = 1; vec = Vector_clock.of_list [ 9; 9 ] } in
  let b : Rvc.Clock.stamp = { epoch = 2; vec = Vector_clock.of_list [ 0; 0 ] } in
  Alcotest.(check (option bool)) "incomparable" None (Rvc.Clock.hb a b)

let prop_reset_always_recovers =
  qtest "reset always yields a well-formed clock with a newer epoch"
    QCheck2.Gen.small_int
    (fun seed ->
      let rng = Stdext.Rng.create seed in
      let c = Rvc.Clock.corrupt rng (Rvc.Clock.create ~n:4 ~bound:8 ~self:2) in
      let c' = Rvc.Clock.reset c in
      Rvc.Clock.well_formed c' && Rvc.Clock.epoch c' > Rvc.Clock.epoch c - 1)

let prop_receive_preserves_well_formedness_under_bound =
  qtest "same-epoch receive keeps components at the max of inputs"
    QCheck2.Gen.(list_size (1 -- 10) (0 -- 3))
    (fun ticks ->
      let a = ref (Rvc.Clock.create ~n:4 ~bound:100 ~self:0) in
      let b = ref (Rvc.Clock.create ~n:4 ~bound:100 ~self:1) in
      List.iter
        (fun k ->
          if k mod 2 = 0 then a := Rvc.Clock.local_event !a
          else b := Rvc.Clock.local_event !b)
        ticks;
      let merged = Rvc.Clock.receive !a (Rvc.Clock.read !b) in
      Vector_clock.leq (Rvc.Clock.vector !b) (Rvc.Clock.vector merged))

(* ------------------------------------------------------------------ *)
(* System stabilization                                                *)

let params ~wrapper = { Rvc.System.n = 4; bound = 40; wrapper }

let test_system_wrapped_recovers_from_corruption () =
  let o =
    Rvc.System.run ~corrupt_at:300 (params ~wrapper:true) ~seed:5 ~steps:4000
  in
  Alcotest.(check bool) "recovered" true o.Rvc.System.recovered;
  Alcotest.(check bool) "used resets" true (o.Rvc.System.resets > 0);
  Alcotest.(check bool) "hb sound after recovery" true o.Rvc.System.hb_sound

let test_system_unwrapped_stays_broken () =
  let o =
    Rvc.System.run ~corrupt_at:300 (params ~wrapper:false) ~seed:5 ~steps:4000
  in
  Alcotest.(check bool) "not recovered" false o.Rvc.System.recovered;
  Alcotest.(check int) "no resets available" 0 o.Rvc.System.resets;
  Alcotest.(check bool) "still ill-formed at end" true (o.Rvc.System.ill_at_end > 0)

let test_system_fault_free_overflow_recycles () =
  (* even without injected faults, ticks overflow the bound and the
     wrapper must keep recycling epochs *)
  let o = Rvc.System.run (params ~wrapper:true) ~seed:9 ~steps:6000 in
  Alcotest.(check int) "no ill-formed clocks at end" 0 o.Rvc.System.ill_at_end;
  Alcotest.(check bool) "epochs advanced" true (o.Rvc.System.final_epoch > 0);
  Alcotest.(check bool) "resets happened" true (o.Rvc.System.resets > 0)

let test_system_deterministic () =
  let run () =
    Rvc.System.run ~corrupt_at:200 (params ~wrapper:true) ~seed:7 ~steps:2000
  in
  Alcotest.(check bool) "same outcome" true (run () = run ())

(* Every field of the outcome on a seed x configuration grid
   ((n, bound, wrapper, corrupt_at, steps, seed): wrapped recoveries,
   a bound of 5 that resets constantly, an unwrapped run that never
   recovers, a fault-free run, and two runs at bound 3 whose
   hb-soundness check fails: a stamp sent before the fault and
   delivered after recovery shares its (sender, epoch) with later
   ones) and on the 100,000-step run of
   [graybox-cli rvc --steps 100000].  The values were computed by
   recording each run and judging the whole trace, with hb soundness
   checked over every pair of post-recovery deliveries; the fold must
   reproduce them exactly. *)
let pinned_outcomes =
  let o recovered recovery_steps resets ill_at_end final_epoch hb_sound =
    { Rvc.System.recovered; recovery_steps; resets; ill_at_end; final_epoch;
      hb_sound }
  in
  [ ((4, 60, true, Some 500, 4000, 1), o true (Some 1) 43 0 17 true);
    ((4, 60, true, Some 500, 4000, 2), o true (Some 6) 37 0 17 true);
    ((4, 60, true, Some 500, 4000, 3), o true (Some 23) 40 0 17 true);
    ((3, 5, true, Some 200, 3000, 1), o true (Some 7) 266 0 123 true);
    ((3, 5, true, Some 200, 3000, 2), o true (Some 27) 279 2 134 true);
    ((3, 5, true, Some 200, 3000, 3), o true (Some 9) 273 0 123 true);
    ((4, 40, false, Some 300, 3000, 1), o false None 0 4 1 true);
    ((4, 40, false, Some 300, 3000, 2), o false None 0 4 1 true);
    ((4, 40, false, Some 300, 3000, 3), o false None 0 4 1 true);
    ((6, 20, true, None, 3000, 1), o true (Some 0) 84 0 24 true);
    ((6, 20, true, None, 3000, 2), o true (Some 0) 91 0 24 true);
    ((6, 20, true, None, 3000, 3), o true (Some 0) 83 0 24 true);
    ((2, 3, true, Some 100, 3000, 1), o true (Some 2) 354 2 221 true);
    ((2, 3, true, Some 100, 3000, 43), o true (Some 2) 362 1 218 false);
    ((2, 3, true, Some 100, 3000, 49), o true (Some 1) 361 1 226 false);
    ((4, 60, true, Some 500, 100000, 1), o true (Some 1) 1015 0 423 true) ]

let test_system_outcomes_pinned () =
  List.iter
    (fun ((n, bound, wrapper, corrupt_at, steps, seed), want) ->
      let got =
        Rvc.System.run ?corrupt_at { Rvc.System.n; bound; wrapper } ~seed ~steps
      in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d bound=%d wrapper=%b steps=%d seed=%d" n bound
           wrapper steps seed)
        true (got = want))
    pinned_outcomes

let prop_system_storms_recover =
  qtest ~count:6 "wrapped RVC system recovers from random corruption"
    QCheck2.Gen.(pair (1 -- 500) (100 -- 800))
    (fun (seed, at) ->
      (Rvc.System.run ~corrupt_at:at (params ~wrapper:true) ~seed ~steps:6000)
        .Rvc.System.recovered)

let () =
  Alcotest.run "rvc"
    [ ( "clock",
        [ Alcotest.test_case "create" `Quick test_create_well_formed;
          Alcotest.test_case "validates" `Quick test_create_validates;
          Alcotest.test_case "local event" `Quick test_local_event_ticks_self;
          Alcotest.test_case "overflow" `Quick test_overflow_makes_ill_formed;
          Alcotest.test_case "reset" `Quick test_reset_bumps_epoch_and_zeroes;
          Alcotest.test_case "receive merge" `Quick test_receive_same_epoch_merges;
          Alcotest.test_case "receive adopt" `Quick test_receive_newer_epoch_adopts;
          Alcotest.test_case "receive stale" `Quick test_receive_stale_epoch_ignored;
          Alcotest.test_case "hb same epoch" `Quick test_hb_same_epoch;
          Alcotest.test_case "hb cross epoch" `Quick test_hb_cross_epoch_incomparable;
          prop_reset_always_recovers;
          prop_receive_preserves_well_formedness_under_bound ] );
      ( "system",
        [ Alcotest.test_case "wrapped recovers" `Quick
            test_system_wrapped_recovers_from_corruption;
          Alcotest.test_case "unwrapped broken" `Quick
            test_system_unwrapped_stays_broken;
          Alcotest.test_case "overflow recycling" `Quick
            test_system_fault_free_overflow_recycles;
          Alcotest.test_case "deterministic" `Quick test_system_deterministic;
          Alcotest.test_case "outcomes pinned" `Quick test_system_outcomes_pinned;
          prop_system_storms_recover ] ) ]
