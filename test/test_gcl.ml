(* Tests for the guarded-command store layer and the store-based RA
   transliteration: schema validation, domain-respecting corruption,
   and — the punchline — step-for-step behavioural equivalence with
   the record-based Ra_me, plus full conformance and stabilization
   through the shared wrapper. *)

open Gcl
module T = Unityspec.Temporal

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

let mini_schema =
  [ ("flag", Store.Domain.D_bool);
    ("count", Store.Domain.D_nat 10);
    ("m", Store.Domain.D_mode);
    ("req", Store.Domain.D_own_ts);
    ("copies", Store.Domain.D_peer_ts_map);
    ("who", Store.Domain.D_pid_set) ]

let mini_store () =
  Store.create mini_schema ~self:1 ~n:3
    [ ("flag", Store.Value.V_bool false);
      ("count", Store.Value.V_nat 0);
      ("m", Store.Value.V_mode Graybox.View.Thinking);
      ("req", Store.Value.V_own_ts (Clocks.Timestamp.zero ~pid:1));
      ( "copies",
        Store.Value.V_peer_ts_map
          (Sim.Pid.Map.of_list
             [ (0, Clocks.Timestamp.zero ~pid:0);
               (2, Clocks.Timestamp.zero ~pid:2) ]) );
      ("who", Store.Value.V_pid_set Sim.Pid.Set.empty) ]

let test_store_create_and_read () =
  let s = mini_store () in
  Alcotest.(check bool) "flag" false (Store.get_bool s "flag");
  Alcotest.(check int) "count" 0 (Store.get_nat s "count");
  Alcotest.(check int) "self" 1 (Store.self s);
  Alcotest.(check int) "size" 3 (Store.size s);
  Alcotest.(check bool) "well formed" true (Store.well_formed s)

let test_store_create_validates () =
  Alcotest.check_raises "missing binding"
    (Invalid_argument "Store.create: bindings do not match the schema")
    (fun () ->
      ignore
        (Store.create mini_schema ~self:1 ~n:3
           [ ("flag", Store.Value.V_bool true) ]));
  Alcotest.check_raises "own ts with foreign pid"
    (Invalid_argument "Store.create: req out of domain") (fun () ->
      ignore
        (Store.create
           [ ("req", Store.Domain.D_own_ts) ]
           ~self:1 ~n:3
           [ ("req", Store.Value.V_own_ts (Clocks.Timestamp.zero ~pid:2)) ]))

let test_store_updates () =
  let s = mini_store () in
  let s = Store.set_nat s "count" 7 in
  Alcotest.(check int) "updated" 7 (Store.get_nat s "count");
  let s = Store.add_to_set s "who" 2 in
  Alcotest.(check bool) "added" true (Sim.Pid.Set.mem 2 (Store.get_set s "who"));
  let s = Store.remove_from_set s "who" 2 in
  Alcotest.(check bool) "removed" false
    (Sim.Pid.Set.mem 2 (Store.get_set s "who"));
  let ts = Clocks.Timestamp.make ~clock:5 ~pid:0 in
  let s = Store.set_map_entry s "copies" 0 ts in
  Alcotest.(check bool) "map entry" true
    (Clocks.Timestamp.equal ts (Store.map_entry s "copies" 0))

let test_store_domain_enforced_on_update () =
  let s = mini_store () in
  Alcotest.check_raises "own ts pid enforced"
    (Invalid_argument "Store: req assignment out of domain") (fun () ->
      ignore (Store.set_ts s "req" (Clocks.Timestamp.make ~clock:3 ~pid:0)));
  Alcotest.check_raises "negative nat"
    (Invalid_argument "Store: count assignment out of domain") (fun () ->
      ignore (Store.set_nat s "count" (-1)))

let test_store_type_errors () =
  let s = mini_store () in
  Alcotest.check_raises "wrong type" (Invalid_argument "Store: flag wrong type")
    (fun () -> ignore (Store.get_nat s "flag"));
  Alcotest.check_raises "unknown variable"
    (Invalid_argument "Store: unknown variable nope") (fun () ->
      ignore (Store.get_bool s "nope"))

let prop_corrupt_stays_in_domain =
  qtest "corruption respects every domain" QCheck2.Gen.small_int (fun seed ->
      let rng = Stdext.Rng.create seed in
      let s = Store.corrupt rng (mini_store ()) in
      Store.well_formed s)

let prop_random_values_in_domain =
  qtest "random values inhabit their domains"
    QCheck2.Gen.(pair small_int (0 -- 5))
    (fun (seed, which) ->
      let rng = Stdext.Rng.create seed in
      let domain = List.nth (List.map snd mini_schema) which in
      Store.Value.in_domain ~self:1 ~n:3 domain
        (Store.Value.random rng ~self:1 ~n:3 domain))

(* ------------------------------------------------------------------ *)
(* Ra_gcl: behavioural equivalence with Ra_me                          *)

let ra = Option.get (Tme.Scenarios.find_protocol "ra")
let ra_gcl = Option.get (Tme.Scenarios.find_protocol "ra-gcl")

let fingerprint (r : Tme.Scenarios.result) =
  (r.total_entries, r.sent_total, r.delivered, r.analysis.me1_violations)

let test_equivalent_fault_free () =
  List.iter
    (fun seed ->
      let a = Tme.Scenarios.run ra ~n:4 ~seed ~steps:4000 in
      let b = Tme.Scenarios.run ra_gcl ~n:4 ~seed ~steps:4000 in
      Alcotest.(check bool)
        (Printf.sprintf "identical executions (seed %d)" seed)
        true
        (fingerprint a = fingerprint b))
    [ 1; 5; 9 ]

let test_equivalent_under_drop_faults () =
  (* message-level faults are representation-independent, so the two
     implementations stay in lockstep through them *)
  let faults =
    [ Tme.Scenarios.Drop_requests_window { from_t = 400; until_t = 450 } ]
  in
  let a =
    Tme.Scenarios.run ra ~n:4 ~seed:3 ~steps:6000 ~faults
      ~wrapper:(Tme.Scenarios.wrapped ~delta:4 ())
  in
  let b =
    Tme.Scenarios.run ra_gcl ~n:4 ~seed:3 ~steps:6000 ~faults
      ~wrapper:(Tme.Scenarios.wrapped ~delta:4 ())
  in
  Alcotest.(check bool) "lockstep through drops" true
    (fingerprint a = fingerprint b)

let test_gcl_conformance_fault_free () =
  let r = Tme.Scenarios.run ra_gcl ~n:4 ~seed:11 ~steps:5000 ~record:true in
  let lspec = Tme.Scenarios.lspec_report r in
  Alcotest.(check bool) "Lspec safety" true (Unityspec.Report.safe lspec);
  Alcotest.(check bool) "ME1" true (T.is_ok (Oracles.Tme_spec.me1 r.vtrace));
  Alcotest.(check bool) "ME3" true (T.is_ok (Oracles.Tme_spec.me3 r.entry_log))

let test_gcl_wrapper_stabilizes () =
  (* the same wrapper, over the store-based implementation, with the
     schema-derived generic corruption *)
  List.iter
    (fun seed ->
      let r =
        Tme.Scenarios.run ra_gcl ~n:4 ~seed ~steps:8000
          ~wrapper:(Tme.Scenarios.wrapped ~delta:4 ())
          ~faults:(Tme.Scenarios.burst ~at:900)
      in
      Alcotest.(check bool)
        (Printf.sprintf "recovered (seed %d)" seed)
        true r.analysis.recovered)
    [ 1; 2; 3; 4 ]

let test_gcl_unwrapped_deadlocks () =
  let r =
    Tme.Scenarios.run ra_gcl ~n:4 ~seed:2 ~steps:6000
      ~faults:[ Tme.Scenarios.Drop_requests_window { from_t = 500; until_t = 560 } ]
  in
  Alcotest.(check bool) "stuck without wrapper" false r.analysis.recovered

let test_gcl_store_exposed () =
  let s = Gcl.Ra_gcl.init ~n:3 1 in
  let st = Gcl.Ra_gcl.store s in
  Alcotest.(check int) "schema size" (List.length Gcl.Ra_gcl.schema)
    (List.length (Store.schema st));
  Alcotest.(check bool) "initial store well formed" true (Store.well_formed st)

let () =
  Alcotest.run "gcl"
    [ ( "store",
        [ Alcotest.test_case "create/read" `Quick test_store_create_and_read;
          Alcotest.test_case "create validates" `Quick test_store_create_validates;
          Alcotest.test_case "updates" `Quick test_store_updates;
          Alcotest.test_case "domains enforced" `Quick
            test_store_domain_enforced_on_update;
          Alcotest.test_case "type errors" `Quick test_store_type_errors;
          prop_corrupt_stays_in_domain;
          prop_random_values_in_domain ] );
      ( "ra-gcl",
        [ Alcotest.test_case "equivalent fault-free" `Quick
            test_equivalent_fault_free;
          Alcotest.test_case "equivalent under drops" `Quick
            test_equivalent_under_drop_faults;
          Alcotest.test_case "conformance" `Quick test_gcl_conformance_fault_free;
          Alcotest.test_case "wrapper stabilizes" `Quick test_gcl_wrapper_stabilizes;
          Alcotest.test_case "unwrapped deadlocks" `Quick
            test_gcl_unwrapped_deadlocks;
          Alcotest.test_case "store exposed" `Quick test_gcl_store_exposed ] ) ]
