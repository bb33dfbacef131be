(* Tests for timestamps (the paper's lt total order), Lamport logical
   clocks (Timestamp Spec: hb implies lt), and vector clocks (the
   oracle that characterises hb exactly). *)

open Clocks

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let gen_ts =
  QCheck2.Gen.(
    let* clock = 0 -- 50 in
    let* pid = 0 -- 7 in
    return (Timestamp.make ~clock ~pid))

(* ------------------------------------------------------------------ *)
(* Timestamp                                                           *)

let ts c p = Timestamp.make ~clock:c ~pid:p

let test_ts_lt_clock_order () =
  Alcotest.(check bool) "clock decides" true (Timestamp.lt (ts 1 5) (ts 2 0));
  Alcotest.(check bool) "clock decides rev" false
    (Timestamp.lt (ts 2 0) (ts 1 5))

let test_ts_lt_pid_tiebreak () =
  Alcotest.(check bool) "pid breaks ties" true (Timestamp.lt (ts 3 1) (ts 3 2));
  Alcotest.(check bool) "not reflexive" false (Timestamp.lt (ts 3 1) (ts 3 1))

let test_ts_zero () =
  let z = Timestamp.zero ~pid:4 in
  Alcotest.(check int) "clock" 0 z.Timestamp.clock;
  Alcotest.(check int) "pid" 4 z.Timestamp.pid

let test_ts_max_min () =
  Alcotest.(check bool) "max" true
    (Timestamp.equal (Timestamp.max (ts 1 0) (ts 2 0)) (ts 2 0));
  Alcotest.(check bool) "min" true
    (Timestamp.equal (Timestamp.min (ts 1 0) (ts 2 0)) (ts 1 0))

let test_ts_to_string () =
  Alcotest.(check string) "format" "7.2" (Timestamp.to_string (ts 7 2))

let prop_ts_total_order =
  qtest "lt is a total order (trichotomy)"
    QCheck2.Gen.(pair gen_ts gen_ts)
    (fun (a, b) ->
      let l = Timestamp.lt a b and g = Timestamp.lt b a in
      let e = Timestamp.equal a b in
      (l && (not g) && not e)
      || (g && (not l) && not e)
      || (e && (not l) && not g))

let prop_ts_transitive =
  qtest "lt is transitive" QCheck2.Gen.(triple gen_ts gen_ts gen_ts)
    (fun (a, b, c) ->
      (not (Timestamp.lt a b && Timestamp.lt b c)) || Timestamp.lt a c)

let prop_ts_compare_consistent =
  qtest "compare consistent with lt" QCheck2.Gen.(pair gen_ts gen_ts)
    (fun (a, b) -> Timestamp.lt a b = (Timestamp.compare a b < 0))

let prop_ts_leq =
  qtest "leq is lt or equal" QCheck2.Gen.(pair gen_ts gen_ts)
    (fun (a, b) -> Timestamp.leq a b = (Timestamp.lt a b || Timestamp.equal a b))

(* ------------------------------------------------------------------ *)
(* Logical clock                                                       *)

let test_lc_create () =
  let c = Logical_clock.create ~pid:3 in
  Alcotest.(check int) "pid" 3 (Logical_clock.pid c);
  Alcotest.(check int) "now" 0 (Logical_clock.now c);
  Alcotest.(check bool) "read" true
    (Timestamp.equal (Logical_clock.read c) (ts 0 3))

let test_lc_tick () =
  let c = Logical_clock.create ~pid:1 in
  let c, t1 = Logical_clock.tick c in
  let _, t2 = Logical_clock.tick c in
  Alcotest.(check bool) "strictly increasing" true (Timestamp.lt t1 t2);
  Alcotest.(check int) "first tick" 1 t1.Timestamp.clock

let test_lc_witness () =
  let c = Logical_clock.create ~pid:1 in
  let c = Logical_clock.witness c (ts 10 0) in
  Alcotest.(check int) "pulled forward" 10 (Logical_clock.now c);
  let c = Logical_clock.witness c (ts 4 0) in
  Alcotest.(check int) "never backward" 10 (Logical_clock.now c)

let test_lc_receive_event () =
  let c = Logical_clock.create ~pid:1 in
  let t = Logical_clock.read (Logical_clock.receive_event c (ts 10 0)) in
  Alcotest.(check int) "receive rule: max+1" 11 t.Timestamp.clock;
  Alcotest.(check int) "own pid stamped" 1 t.Timestamp.pid

let test_lc_with_now () =
  let c = Logical_clock.with_now (Logical_clock.create ~pid:2) 42 in
  Alcotest.(check int) "forced" 42 (Logical_clock.now c)

(* The Timestamp Spec: simulate two processes exchanging events and
   check every message's send stamp is lt its receive stamp. *)
let prop_lc_hb_respected =
  qtest "hb implies lt across a random exchange"
    QCheck2.Gen.(list_size (1 -- 40) (pair bool bool))
    (fun script ->
      let a = ref (Logical_clock.create ~pid:0) in
      let b = ref (Logical_clock.create ~pid:1) in
      List.for_all
        (fun (a_sends, do_local) ->
          let src, dst = if a_sends then (a, b) else (b, a) in
          if do_local then begin
            let c, _ = Logical_clock.tick !src in
            src := c
          end;
          let c, sent = Logical_clock.tick !src in
          src := c;
          let c = Logical_clock.receive_event !dst sent in
          let received = Logical_clock.read c in
          dst := c;
          Timestamp.lt sent received)
        script)

(* ------------------------------------------------------------------ *)
(* Vector clock                                                        *)

let test_vc_create () =
  let v = Vector_clock.create ~n:3 in
  Alcotest.(check (list int)) "zero" [ 0; 0; 0 ] (Vector_clock.to_list v);
  Alcotest.(check int) "dim" 3 (Vector_clock.dim v)

let test_vc_tick_and_get () =
  let v = Vector_clock.tick (Vector_clock.create ~n:3) 1 in
  Alcotest.(check int) "ticked" 1 (Vector_clock.get v 1);
  Alcotest.(check int) "others" 0 (Vector_clock.get v 0)

let test_vc_merge () =
  let a = Vector_clock.of_list [ 1; 5; 0 ] in
  let b = Vector_clock.of_list [ 2; 3; 4 ] in
  Alcotest.(check (list int)) "pointwise max" [ 2; 5; 4 ]
    (Vector_clock.to_list (Vector_clock.merge a b))

let test_vc_orders () =
  let a = Vector_clock.of_list [ 1; 2 ] in
  let b = Vector_clock.of_list [ 2; 2 ] in
  let c = Vector_clock.of_list [ 0; 3 ] in
  Alcotest.(check bool) "leq" true (Vector_clock.leq a b);
  Alcotest.(check bool) "lt" true (Vector_clock.lt a b);
  Alcotest.(check bool) "not lt self" false (Vector_clock.lt a a);
  Alcotest.(check bool) "concurrent" true (Vector_clock.concurrent a c)

let test_vc_set () =
  let v = Vector_clock.set (Vector_clock.create ~n:2) 0 9 in
  Alcotest.(check int) "set" 9 (Vector_clock.get v 0)

let test_vc_bad_dim () =
  Alcotest.check_raises "merge mismatch"
    (Invalid_argument "Vector_clock.merge: dimension mismatch") (fun () ->
      ignore
        (Vector_clock.merge (Vector_clock.create ~n:2) (Vector_clock.create ~n:3)))

let gen_vc =
  QCheck2.Gen.(
    let* xs = list_size (return 4) (0 -- 10) in
    return (Vector_clock.of_list xs))

let prop_vc_merge_commutative =
  qtest "merge commutative" QCheck2.Gen.(pair gen_vc gen_vc) (fun (a, b) ->
      Vector_clock.equal (Vector_clock.merge a b) (Vector_clock.merge b a))

let prop_vc_merge_idempotent =
  qtest "merge idempotent" gen_vc (fun a ->
      Vector_clock.equal (Vector_clock.merge a a) a)

let prop_vc_merge_upper_bound =
  qtest "merge is an upper bound" QCheck2.Gen.(pair gen_vc gen_vc)
    (fun (a, b) ->
      let m = Vector_clock.merge a b in
      Vector_clock.leq a m && Vector_clock.leq b m)

let prop_vc_tick_increases =
  qtest "tick strictly increases" QCheck2.Gen.(pair gen_vc (0 -- 3))
    (fun (v, i) -> Vector_clock.lt v (Vector_clock.tick v i))

let prop_vc_partial_order_antisym =
  qtest "leq antisymmetric" QCheck2.Gen.(pair gen_vc gen_vc) (fun (a, b) ->
      (not (Vector_clock.leq a b && Vector_clock.leq b a))
      || Vector_clock.equal a b)

(* leq/lt against their componentwise definitions, over small
   components (so equal components are common) and mixed dimensions *)
let prop_vc_orders_componentwise =
  let gen_small =
    QCheck2.Gen.(
      let* xs = list_size (2 -- 3) (0 -- 2) in
      return (Vector_clock.of_list xs))
  in
  qtest ~count:1000 "leq/lt componentwise" QCheck2.Gen.(pair gen_small gen_small)
    (fun (a, b) ->
      let xs = Vector_clock.to_list a and ys = Vector_clock.to_list b in
      let leq = List.length xs = List.length ys && List.for_all2 ( <= ) xs ys in
      Vector_clock.leq a b = leq && Vector_clock.lt a b = (leq && xs <> ys))

let () =
  Alcotest.run "clocks"
    [ ( "timestamp",
        [ Alcotest.test_case "clock order" `Quick test_ts_lt_clock_order;
          Alcotest.test_case "pid tiebreak" `Quick test_ts_lt_pid_tiebreak;
          Alcotest.test_case "zero" `Quick test_ts_zero;
          Alcotest.test_case "max/min" `Quick test_ts_max_min;
          Alcotest.test_case "to_string" `Quick test_ts_to_string;
          prop_ts_total_order;
          prop_ts_transitive;
          prop_ts_compare_consistent;
          prop_ts_leq ] );
      ( "logical_clock",
        [ Alcotest.test_case "create" `Quick test_lc_create;
          Alcotest.test_case "tick" `Quick test_lc_tick;
          Alcotest.test_case "witness" `Quick test_lc_witness;
          Alcotest.test_case "receive rule" `Quick test_lc_receive_event;
          Alcotest.test_case "with_now" `Quick test_lc_with_now;
          prop_lc_hb_respected ] );
      ( "vector_clock",
        [ Alcotest.test_case "create" `Quick test_vc_create;
          Alcotest.test_case "tick/get" `Quick test_vc_tick_and_get;
          Alcotest.test_case "merge" `Quick test_vc_merge;
          Alcotest.test_case "orders" `Quick test_vc_orders;
          Alcotest.test_case "set" `Quick test_vc_set;
          Alcotest.test_case "bad dim" `Quick test_vc_bad_dim;
          prop_vc_merge_commutative;
          prop_vc_merge_idempotent;
          prop_vc_merge_upper_bound;
          prop_vc_tick_increases;
          prop_vc_partial_order_antisym;
          prop_vc_orders_componentwise ] ) ]
