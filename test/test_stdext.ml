(* Unit and property tests for the stdext substrate: RNG determinism,
   FIFO queue semantics, table rendering, summary statistics, and the
   index and storage structures. *)

open Stdext

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done

let test_rng_int_rejects_bad_bound () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 3 in
  for _ = 1 to 500 do
    let x = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in closed range" true (x >= -5 && x <= 5)
  done

let test_rng_split_independent () =
  let a = Rng.create 11 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let test_rng_copy () =
  let a = Rng.create 5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a)
    (Rng.bits64 b)

let test_rng_chance_extremes () =
  let rng = Rng.create 9 in
  Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.0)

let test_rng_pick_weighted () =
  let rng = Rng.create 13 in
  for _ = 1 to 200 do
    let x = Rng.pick_weighted rng [ ("a", 0); ("b", 5); ("c", 0) ] in
    Alcotest.(check string) "only positive weight picked" "b" x
  done

let test_rng_pick_weighted_all_zero () =
  let rng = Rng.create 13 in
  Alcotest.check_raises "no positive weight"
    (Invalid_argument "Rng.pick_weighted: no positive weight") (fun () ->
      ignore (Rng.pick_weighted rng [ ("a", 0) ]))

let test_rng_shuffle_permutes () =
  let rng = Rng.create 17 in
  let xs = Array.init 20 Fun.id in
  let ys = Array.copy xs in
  Rng.shuffle rng ys;
  let sorted = Array.copy ys in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" xs sorted

let prop_rng_float_bounds =
  qtest "Rng.float in [0,bound)" QCheck2.Gen.(pair small_int (1 -- 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.float rng (float_of_int bound) in
      x >= 0.0 && x < float_of_int bound)

(* ------------------------------------------------------------------ *)
(* Fqueue                                                              *)

let test_fqueue_fifo_order () =
  let q = List.fold_left (fun q x -> Fqueue.push x q) Fqueue.empty [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (Fqueue.to_list q)

let test_fqueue_pop () =
  let q = Fqueue.of_list [ 1; 2 ] in
  (match Fqueue.pop q with
   | Some (1, q') ->
     Alcotest.(check (list int)) "rest" [ 2 ] (Fqueue.to_list q')
   | _ -> Alcotest.fail "expected Some (1, _)");
  Alcotest.(check bool) "empty pop" true (Fqueue.pop Fqueue.empty = None)

let test_fqueue_peek () =
  Alcotest.(check (option int)) "peek" (Some 1)
    (Fqueue.peek (Fqueue.of_list [ 1; 2 ]));
  Alcotest.(check (option int)) "peek empty" None (Fqueue.peek Fqueue.empty)

let test_fqueue_peek_after_push () =
  (* the back list must be consulted when the front is empty *)
  let q = Fqueue.push 9 Fqueue.empty in
  Alcotest.(check (option int)) "peek finds back" (Some 9) (Fqueue.peek q)

let test_fqueue_length () =
  let q = Fqueue.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "length" 3 (Fqueue.length q);
  match Fqueue.pop q with
  | Some (_, q') -> Alcotest.(check int) "after pop" 2 (Fqueue.length q')
  | None -> Alcotest.fail "pop failed"

let test_fqueue_remove_at () =
  let q = Fqueue.of_list [ 10; 20; 30 ] in
  (match Fqueue.remove_at 1 q with
   | Some (20, q') ->
     Alcotest.(check (list int)) "removed middle" [ 10; 30 ]
       (Fqueue.to_list q')
   | _ -> Alcotest.fail "expected removal of 20");
  Alcotest.(check bool) "out of range" true (Fqueue.remove_at 5 q = None);
  Alcotest.(check bool) "negative" true (Fqueue.remove_at (-1) q = None)

let test_fqueue_insert_at () =
  let q = Fqueue.of_list [ 1; 3 ] in
  Alcotest.(check (list int)) "insert middle" [ 1; 2; 3 ]
    (Fqueue.to_list (Fqueue.insert_at 1 2 q));
  Alcotest.(check (list int)) "insert past end" [ 1; 3; 9 ]
    (Fqueue.to_list (Fqueue.insert_at 10 9 q));
  Alcotest.(check (list int)) "insert front" [ 0; 1; 3 ]
    (Fqueue.to_list (Fqueue.insert_at 0 0 q))

let test_fqueue_map_filter () =
  let q = Fqueue.of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "map" [ 2; 4; 6; 8 ]
    (Fqueue.to_list (Fqueue.map (fun x -> 2 * x) q));
  Alcotest.(check (list int)) "filter" [ 2; 4 ]
    (Fqueue.to_list (Fqueue.filter (fun x -> x mod 2 = 0) q))

let prop_fqueue_push_pop_roundtrip =
  qtest "Fqueue push/pop preserves order" QCheck2.Gen.(list small_int)
    (fun xs ->
      let q = List.fold_left (fun q x -> Fqueue.push x q) Fqueue.empty xs in
      let rec drain q acc =
        match Fqueue.pop q with
        | None -> List.rev acc
        | Some (x, q') -> drain q' (x :: acc)
      in
      drain q [] = xs)

let prop_fqueue_mixed_ops_length =
  qtest "Fqueue length consistent under mixed ops"
    QCheck2.Gen.(list (pair bool small_int))
    (fun ops ->
      let q, expected =
        List.fold_left
          (fun (q, len) (is_push, x) ->
            if is_push then (Fqueue.push x q, len + 1)
            else
              match Fqueue.pop q with
              | None -> (q, len)
              | Some (_, q') -> (q', len - 1))
          (Fqueue.empty, 0) ops
      in
      Fqueue.length q = expected)

(* ------------------------------------------------------------------ *)
(* Tabular and Stats                                                   *)

let test_tabular_alignment () =
  let t = Tabular.create [ "name"; "value" ] in
  Tabular.add_row t [ "x"; "1" ];
  Tabular.add_row t [ "long-name"; "22" ];
  let rendered = Tabular.render t in
  let lines = String.split_on_char '\n' rendered in
  (match lines with
   | header :: _ ->
     Alcotest.(check bool) "header present" true
       (String.length header >= String.length "name  value")
   | [] -> Alcotest.fail "no output");
  Alcotest.(check bool) "contains row" true
    (List.exists (fun l -> String.length l > 0 && l.[0] = 'l') lines)

let test_tabular_short_rows_padded () =
  let t = Tabular.create [ "a"; "b"; "c" ] in
  Tabular.add_row t [ "1" ];
  let rendered = Tabular.render t in
  Alcotest.(check bool) "renders without exception" true
    (String.length rendered > 0)

let test_tabular_cells () =
  Alcotest.(check string) "int" "42" (Tabular.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Tabular.cell_float 3.14159);
  Alcotest.(check string) "float decimals" "3.1416"
    (Tabular.cell_float ~decimals:4 3.14159);
  Alcotest.(check string) "bool" "yes" (Tabular.cell_bool true);
  Alcotest.(check string) "bool no" "no" (Tabular.cell_bool false)

let feq = Alcotest.float 1e-9

let test_stats_mean () =
  Alcotest.(check feq) "mean" 2.0 (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.mean []))

let test_stats_median () =
  Alcotest.(check feq) "odd" 2.0 (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check feq) "even (lower)" 2.0 (Stats.median [ 1.; 2.; 3.; 4. ])

let test_stats_stddev () =
  Alcotest.(check feq) "constant" 0.0 (Stats.stddev [ 5.; 5.; 5. ]);
  Alcotest.(check feq) "known" 2.0 (Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check feq) "p50" 50.0 (Stats.percentile 50. xs);
  Alcotest.(check feq) "p99" 99.0 (Stats.percentile 99. xs);
  Alcotest.(check feq) "p100" 100.0 (Stats.percentile 100. xs)

let test_stats_min_max () =
  Alcotest.(check (pair feq feq)) "min max" (1., 9.)
    (Stats.min_max [ 3.; 1.; 9.; 4. ])

let prop_stats_mean_bounds =
  qtest "mean within min/max"
    QCheck2.Gen.(list_size (1 -- 50) (float_bound_inclusive 1000.))
    (fun xs ->
      let lo, hi = Stats.min_max xs in
      let m = Stats.mean xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let vec_of_list xs =
  let v = Vec.create () in
  List.iter (Vec.push v) xs;
  v

let test_stats_percentiles_empty () =
  Alcotest.(check bool) "all nan" true
    (List.for_all Float.is_nan
       (Stats.percentiles (Vec.create ()) [ 50.; 99.; 99.9 ]));
  Alcotest.(check (list feq)) "no percentiles asked" []
    (Stats.percentiles (vec_of_list [ 1.; 2. ]) [])

let test_stats_percentiles_singleton () =
  Alcotest.(check (list feq)) "every percentile is the sample"
    [ 7.; 7.; 7.; 7. ]
    (Stats.percentiles (vec_of_list [ 7. ]) [ 0.; 50.; 99.9; 100. ])

let test_stats_percentiles_ties () =
  (* tie-heavy sample: nearest-rank must land inside the tied run, and
     the p999 of a mostly-constant sample is the rare outlier only when
     the sample is large enough to resolve it *)
  let heavy = List.init 999 (fun _ -> 5.) @ [ 100. ] in
  Alcotest.(check (list feq)) "ties" [ 5.; 5.; 100.; 100. ]
    (Stats.percentiles (vec_of_list heavy) [ 50.; 99.; 99.91; 100. ]);
  let small = [ 5.; 5.; 5.; 5.; 100. ] in
  Alcotest.(check (list feq)) "small sample tail" [ 5.; 100.; 100. ]
    (Stats.percentiles (vec_of_list small) [ 50.; 99.; 99.9 ])

let test_stats_percentile_supported () =
  (* the load bench's suppression rule: a pX.Y needs >= 2 samples at or
     above it.  Integer-exact at the p99.9/2000 boundary, where the
     float form [2000. *. (1. -. 0.999)] lands just under 2. *)
  Alcotest.(check bool) "p99.9 at 2000 samples" true
    (Stats.percentile_supported ~samples:2000 99.9);
  Alcotest.(check bool) "p99.9 at 1999 samples" false
    (Stats.percentile_supported ~samples:1999 99.9);
  Alcotest.(check bool) "p99 at 200 samples" true
    (Stats.percentile_supported ~samples:200 99.);
  Alcotest.(check bool) "p99 at 199 samples" false
    (Stats.percentile_supported ~samples:199 99.);
  Alcotest.(check bool) "p50 at 4 samples" true
    (Stats.percentile_supported ~samples:4 50.);
  Alcotest.(check bool) "p50 at 3 samples" false
    (Stats.percentile_supported ~samples:3 50.)

let test_stats_suppress_unsupported () =
  Alcotest.(check (list (option feq))) "mixed support"
    [ Some 1.; None ]
    (Stats.suppress_unsupported ~samples:100 [ 50.; 99.9 ] [ 1.; 2. ]);
  Alcotest.(check (list (option feq))) "nan suppressed regardless"
    [ None ]
    (Stats.suppress_unsupported ~samples:100 [ 50. ] [ nan ])

let prop_stats_percentiles_agree =
  (* one sort for many percentiles must agree value-for-value with the
     list-based single-percentile call (chaos campaign reports rely on
     this to keep goldens stable across the retrofit) *)
  qtest "percentiles = map percentile"
    QCheck2.Gen.(
      pair
        (list_size (1 -- 60) (float_bound_inclusive 100.))
        (list_size (0 -- 6) (float_bound_inclusive 100.)))
    (fun (xs, ps) ->
      Stats.percentiles (vec_of_list xs) ps
      = List.map (fun p -> Stats.percentile p xs) ps)

(* ------------------------------------------------------------------ *)
(* Fenwick                                                             *)

let test_fenwick_basics () =
  let t = Fenwick.create 5 in
  Alcotest.(check int) "length" 5 (Fenwick.length t);
  Alcotest.(check int) "fresh total" 0 (Fenwick.total t);
  Fenwick.set t 0 2;
  Fenwick.set t 3 1;
  Fenwick.add t 3 2;
  Alcotest.(check int) "get" 3 (Fenwick.get t 3);
  Alcotest.(check int) "total" 5 (Fenwick.total t);
  Alcotest.(check int) "prefix 0" 0 (Fenwick.prefix t 0);
  Alcotest.(check int) "prefix mid" 2 (Fenwick.prefix t 3);
  Alcotest.(check int) "prefix all" 5 (Fenwick.prefix t 5);
  (* weight units 0,1 live in slot 0; units 2,3,4 in slot 3 *)
  Alcotest.(check (list int)) "select walk" [ 0; 0; 3; 3; 3 ]
    (List.init 5 (Fenwick.select t));
  Alcotest.check_raises "select out of range"
    (Invalid_argument "Fenwick.select: rank out of range") (fun () ->
      ignore (Fenwick.select t 5));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Fenwick.add: negative weight") (fun () ->
      Fenwick.add t 0 (-3))

let prop_fenwick_matches_array_model =
  (* random set/add sequences against a plain int array: get, total,
     every prefix, and a full select walk must agree with the model at
     every step *)
  qtest "fenwick = array model" ~count:100
    QCheck2.Gen.(
      pair (1 -- 12) (list_size (0 -- 60) (triple bool (0 -- 11) (0 -- 5))))
    (fun (n, ops) ->
      let t = Fenwick.create n in
      let model = Array.make n 0 in
      List.for_all
        (fun (is_set, i, v) ->
          let i = i mod n in
          if is_set then begin
            Fenwick.set t i v;
            model.(i) <- v
          end
          else begin
            Fenwick.add t i v;
            model.(i) <- model.(i) + v
          end;
          let total = Array.fold_left ( + ) 0 model in
          let prefix i = Array.fold_left ( + ) 0 (Array.sub model 0 i) in
          let select k =
            (* first slot whose cumulative weight exceeds k *)
            let rec go i acc =
              if acc + model.(i) > k then i else go (i + 1) (acc + model.(i))
            in
            go 0 0
          in
          Fenwick.total t = total
          && List.for_all (fun i -> Fenwick.get t i = model.(i))
               (List.init n Fun.id)
          && List.for_all (fun i -> Fenwick.prefix t i = prefix i)
               (List.init (n + 1) Fun.id)
          && List.for_all (fun k -> Fenwick.select t k = select k)
               (List.init total Fun.id))
        ops)

let prop_fenwick_select_rem =
  (* the descent's remainder is the rank within the selected slot *)
  qtest "fenwick select_rem = select and prefix remainder" ~count:100
    QCheck2.Gen.(list_size (1 -- 40) (0 -- 4))
    (fun weights ->
      let t = Fenwick.create (List.length weights) in
      List.iteri (Fenwick.set t) weights;
      List.for_all
        (fun k ->
          let i = Fenwick.select t k in
          Fenwick.select_rem t k = (i, k - Fenwick.prefix t i))
        (List.init (Fenwick.total t) Fun.id))

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)

let test_vec_push_get () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v (i * 3)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "first" 0 (Vec.get v 0);
  Alcotest.(check int) "middle" 150 (Vec.get v 50);
  Alcotest.(check int) "last" 297 (Vec.get v 99)

let test_vec_to_list_order () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ "a"; "b"; "c" ];
  Alcotest.(check (list string)) "push order" [ "a"; "b"; "c" ] (Vec.to_list v)

let test_vec_out_of_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get past end"
    (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v 1))

let prop_vec_grows_like_list =
  (* pushes survive the internal doublings: a Vec fed any sequence
     reads back exactly as the list of its pushes *)
  qtest "to_list = pushes" QCheck2.Gen.(list_size (0 -- 600) int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      Vec.to_list v = xs
      && Vec.length v = List.length xs
      && List.for_all2 (fun i x -> Vec.get v i = x)
           (List.init (List.length xs) Fun.id)
           xs)

(* ------------------------------------------------------------------ *)
(* Blockfile                                                           *)

let with_blockfile f =
  let t = Blockfile.create ~dir:(Filename.get_temp_dir_name ()) ~prefix:"t" in
  Fun.protect ~finally:(fun () -> Blockfile.remove t) (fun () -> f t)

let test_blockfile_roundtrip () =
  with_blockfile (fun t ->
      let a = [| 1; -2; max_int; min_int; 0; 42 |] in
      let off1 = Blockfile.append t a ~off:0 ~len:6 in
      let off2 = Blockfile.append t a ~off:2 ~len:3 in
      Alcotest.(check int) "first offset" 0 off1;
      Alcotest.(check int) "second offset" 6 off2;
      Alcotest.(check int) "words" 9 (Blockfile.words t);
      let r = Blockfile.reader t in
      Fun.protect
        ~finally:(fun () -> Blockfile.close_reader r)
        (fun () ->
          let buf = Array.make 9 0 in
          Blockfile.pread r ~woff:0 buf ~off:0 ~len:9;
          Alcotest.(check (array int))
            "all words, extremes included"
            [| 1; -2; max_int; min_int; 0; 42; max_int; min_int; 0 |]
            buf;
          (* positional re-read of an interior slice *)
          let mid = Array.make 2 0 in
          Blockfile.pread r ~woff:2 mid ~off:0 ~len:2;
          Alcotest.(check (array int)) "interior slice" [| max_int; min_int |] mid))

let test_blockfile_reader_sees_later_appends () =
  (* the spill path opens readers lazily and keeps them across later
     flushes: a reader must see words appended after it was opened *)
  with_blockfile (fun t ->
      ignore (Blockfile.append t [| 10; 11 |] ~off:0 ~len:2);
      let r = Blockfile.reader t in
      Fun.protect
        ~finally:(fun () -> Blockfile.close_reader r)
        (fun () ->
          ignore (Blockfile.append t [| 20; 21; 22 |] ~off:0 ~len:3);
          let buf = Array.make 3 0 in
          Blockfile.pread r ~woff:2 buf ~off:0 ~len:3;
          Alcotest.(check (array int)) "write-through" [| 20; 21; 22 |] buf))

let test_blockfile_create_bad_dir () =
  (* a missing directory and a regular file both fail as the
     documented Sys_error, not as a Unix error *)
  let file = Filename.temp_file "blockfile" ".notdir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      List.iter
        (fun dir ->
          match Blockfile.create ~dir ~prefix:"t" with
          | t ->
            Blockfile.remove t;
            Alcotest.failf "created a blockfile in %s" dir
          | exception Sys_error _ -> ())
        [ Filename.concat file "sub"; file ^ ".missing" ])

let test_blockfile_remove_idempotent () =
  let t = Blockfile.create ~dir:(Filename.get_temp_dir_name ()) ~prefix:"t" in
  let p = Blockfile.path t in
  Alcotest.(check bool) "file exists" true (Sys.file_exists p);
  Blockfile.remove t;
  Blockfile.remove t;
  Alcotest.(check bool) "file gone" false (Sys.file_exists p)

let test_blockfile_bad_ranges () =
  with_blockfile (fun t ->
      ignore (Blockfile.append t [| 1; 2 |] ~off:0 ~len:2);
      Alcotest.(check bool) "bad slice rejected" true
        (match Blockfile.append t [| 1 |] ~off:0 ~len:2 with
        | _ -> false
        | exception Invalid_argument _ -> true);
      let r = Blockfile.reader t in
      Fun.protect
        ~finally:(fun () -> Blockfile.close_reader r)
        (fun () ->
          let buf = Array.make 4 0 in
          Alcotest.(check bool) "read past eof rejected" true
            (match Blockfile.pread r ~woff:1 buf ~off:0 ~len:4 with
            | () -> false
            | exception Invalid_argument _ -> true)))

let prop_blockfile_matches_array_model =
  qtest ~count:50 "blockfile append/pread matches an int-array model"
    QCheck2.Gen.(small_list (small_list (int_range (-1000) 1000)))
    (fun slices ->
      with_blockfile (fun t ->
          let model = ref [] in
          List.iter
            (fun ws ->
              let a = Array.of_list ws in
              let at = Blockfile.append t a ~off:0 ~len:(Array.length a) in
              assert (at = List.length !model);
              model := !model @ ws)
            slices;
          let all = Array.of_list !model in
          let n = Array.length all in
          let r = Blockfile.reader t in
          Fun.protect
            ~finally:(fun () -> Blockfile.close_reader r)
            (fun () ->
              let buf = Array.make (max n 1) 0 in
              Blockfile.pread r ~woff:0 buf ~off:0 ~len:n;
              Array.sub buf 0 n = all)))

let () =
  Alcotest.run "stdext"
    [ ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "pick_weighted" `Quick test_rng_pick_weighted;
          Alcotest.test_case "pick_weighted all zero" `Quick
            test_rng_pick_weighted_all_zero;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          prop_rng_float_bounds ] );
      ( "fqueue",
        [ Alcotest.test_case "fifo order" `Quick test_fqueue_fifo_order;
          Alcotest.test_case "pop" `Quick test_fqueue_pop;
          Alcotest.test_case "peek" `Quick test_fqueue_peek;
          Alcotest.test_case "peek after push" `Quick test_fqueue_peek_after_push;
          Alcotest.test_case "length" `Quick test_fqueue_length;
          Alcotest.test_case "remove_at" `Quick test_fqueue_remove_at;
          Alcotest.test_case "insert_at" `Quick test_fqueue_insert_at;
          Alcotest.test_case "map/filter" `Quick test_fqueue_map_filter;
          prop_fqueue_push_pop_roundtrip;
          prop_fqueue_mixed_ops_length ] );
      ( "tabular",
        [ Alcotest.test_case "alignment" `Quick test_tabular_alignment;
          Alcotest.test_case "short rows" `Quick test_tabular_short_rows_padded;
          Alcotest.test_case "cells" `Quick test_tabular_cells ] );
      ( "vec",
        [ Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "to_list order" `Quick test_vec_to_list_order;
          Alcotest.test_case "out of bounds" `Quick test_vec_out_of_bounds;
          prop_vec_grows_like_list ] );
      ( "stats",
        [ Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "min_max" `Quick test_stats_min_max;
          prop_stats_mean_bounds;
          Alcotest.test_case "percentiles empty" `Quick
            test_stats_percentiles_empty;
          Alcotest.test_case "percentiles singleton" `Quick
            test_stats_percentiles_singleton;
          Alcotest.test_case "percentiles ties" `Quick
            test_stats_percentiles_ties;
          Alcotest.test_case "percentile supported" `Quick
            test_stats_percentile_supported;
          Alcotest.test_case "suppress unsupported" `Quick
            test_stats_suppress_unsupported;
          prop_stats_percentiles_agree ] );
      ( "fenwick",
        [ Alcotest.test_case "basics" `Quick test_fenwick_basics;
          prop_fenwick_matches_array_model;
          prop_fenwick_select_rem ] );
      ( "blockfile",
        [ Alcotest.test_case "roundtrip" `Quick test_blockfile_roundtrip;
          Alcotest.test_case "reader sees later appends" `Quick
            test_blockfile_reader_sees_later_appends;
          Alcotest.test_case "create in a bad dir" `Quick
            test_blockfile_create_bad_dir;
          Alcotest.test_case "remove idempotent" `Quick
            test_blockfile_remove_idempotent;
          Alcotest.test_case "bad ranges" `Quick test_blockfile_bad_ranges;
          prop_blockfile_matches_array_model ] ) ]
