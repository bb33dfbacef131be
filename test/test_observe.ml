(* Tests for the streaming observation layer: the engine's step
   stream, and — the load-bearing property — exact equivalence between
   the two folds every run reports from ([Stabilize.Online],
   [Tme_spec.Epoch]) and the offline trace operators they replace
   ([Stabilize.analyse], [Tme_spec.check_all]), streamed and recorded,
   across protocols, wrapper modes, and seeded fault plans (crashes
   included). *)

module H = Graybox.Harness
module S = Tme.Scenarios
module Stz = Graybox.Stabilize
module Ob = Sim.Observer

(* ------------------------------------------------------------------ *)
(* Engine step stream                                                  *)

module R = H.Make (Tme.Ra_me)

let project (states : R.node array) = Array.map R.view states

let event_of = function
  | Sim.Trace.Init -> "init"
  | Sim.Trace.Deliver { src; dst; _ } -> Printf.sprintf "deliver(%d->%d)" src dst
  | Sim.Trace.Internal { pid; label } -> Printf.sprintf "%s(%d)" label pid
  | Sim.Trace.Fault { label } -> Printf.sprintf "fault(%s)" label
  | Sim.Trace.Stutter -> "stutter"

let test_stream_equals_trace () =
  let params = H.params ~n:3 () in
  let engine = R.make_engine ~record:true params ~seed:42 in
  let seen = ref [] in
  R.Run.add_observer engine (fun (s : (R.node, R.envelope) Ob.step) ->
      (* the states array is live: project (= copy) before retaining *)
      seen := (s.Ob.time, event_of s.Ob.event, project s.Ob.states) :: !seen);
  let plan =
    [ Sim.Faults.at 40 (R.fault_drop_any Sim.Faults.Any_chan ~count:2);
      Sim.Faults.at 90 (R.fault_corrupt_process Sim.Faults.Any_proc) ]
  in
  R.Run.run ~plan ~steps:200 engine;
  let observed = List.rev !seen in
  let recorded =
    List.map
      (fun (snap : (R.node, R.envelope) Sim.Trace.snapshot) ->
        (snap.Sim.Trace.time, event_of snap.Sim.Trace.event,
         project snap.Sim.Trace.states))
      (R.Run.trace engine)
  in
  Alcotest.(check int)
    "one step per snapshot" (List.length recorded) (List.length observed);
  List.iter2
    (fun (rt, re, rv) (ot, oe, ov) ->
      Alcotest.(check int) "same time" rt ot;
      Alcotest.(check string) "same event" re oe;
      Alcotest.(check bool) "same views" true (rv = ov))
    recorded observed

let test_sink_sees_init () =
  let params = H.params ~n:3 () in
  let engine = R.make_engine ~record:false params ~seed:7 in
  let steps = ref 0 in
  R.Run.add_observer engine (fun _ -> incr steps);
  Alcotest.(check int) "init replayed on attach" 1 !steps;
  R.Run.run ~steps:50 engine;
  Alcotest.(check int) "one step per move" 51 !steps

(* ------------------------------------------------------------------ *)
(* Online analysis == offline analysis                                 *)

(* every registered protocol, the safety mutant included *)
let protocols_under_test =
  List.map
    (fun (e : Graybox.Registry.entry) ->
      (e.Graybox.Registry.name, e.Graybox.Registry.proto))
    (Graybox.Registry.all ())

let wrappers = [ ("off", H.Off); ("W'(8)", S.wrapped ~delta:8 ()) ]

let n = 4
let horizon = 1500

let plan_for seed =
  let cfg = Chaos.Plan_gen.config ~n ~horizon ~budget:4 () in
  Chaos.Plan_gen.generate (Stdext.Rng.create ((seed * 1_000_003) + 7919)) cfg

(* a plan with a lossy crash window, in case the generator draws none *)
let crash_plan =
  [ S.Corrupt_state { at = 120; procs = Sim.Faults.Any_proc };
    S.Crash
      { procs = Sim.Faults.Proc 1; from_t = 200; until_t = 260; lose = true } ]

let seeds = List.init 10 (fun i -> i + 1)

let test_online_fold_equals_offline () =
  (* a recorded run's analysis and latency (Stabilize.Online over its
     trace) reproduce analyse and service_round_latency exactly, on
     every grid cell *)
  List.iter
    (fun (pname, proto) ->
      List.iter
        (fun (wname, wrapper) ->
          List.iter
            (fun seed ->
              let faults =
                if seed = List.hd seeds then crash_plan else plan_for seed
              in
              let r = S.run proto ~wrapper ~faults ~n ~seed ~steps:horizon in
              let cell = Printf.sprintf "%s/%s/seed %d" pname wname seed in
              let a = Stz.analyse r.S.vtrace in
              Alcotest.(check bool)
                (cell ^ ": same analysis") true (a = r.S.analysis);
              let after = Option.value a.Stz.last_fault_index ~default:0 in
              Alcotest.(check (option int))
                (cell ^ ": same latency")
                (Stz.service_round_latency r.S.vtrace ~after)
                r.S.recovery_latency)
            seeds)
        wrappers)
    protocols_under_test

(* The streaming path's inputs: a grid of protocols, wrapper modes and
   plans at n = 4, plus three more runs.  In the large one, 16 RA
   processes under W take a burst and then a lossy split, so the
   recorded run reads every channel snapshot through the network's
   capture mirror while the streaming run reads online observers and
   regime-epoch monitors.  In the wedged one, unwrapped RA loses the
   messages that cross a lossy split and deadlocks: the streaming run
   exits early just after the heal, and the folds take the remaining
   3,400 snapshots as repeats, every process's ME2 run among them
   extending until the report settles it.  In the last one, Lamport
   under W'(8) lets two processes hold the CS together after a lossy
   heal, so ME1 is counted over snapshots that repeat a dual holder. *)
let streaming_inputs =
  let grid =
    List.concat_map
      (fun (pname, proto) ->
        List.concat_map
          (fun (wname, wrapper) ->
            List.map
              (fun seed ->
                let faults = if seed = 1 then crash_plan else plan_for seed in
                ( Printf.sprintf "%s/%s/seed %d" pname wname seed,
                  proto, wrapper, faults, n, seed, horizon ))
              [ 1; 2; 3 ])
          wrappers)
      (List.filter
         (fun (name, _) ->
           List.mem name [ "ra"; "lamport"; "lamport-unmod"; "central" ])
         protocols_under_test)
  in
  let split =
    S.Split
      { groups = [ List.init 8 Fun.id; List.init 8 (fun i -> i + 8) ];
        from_t = 3000; until_t = 3300; mode = Sim.Faults.Lossy }
  in
  let wedge =
    S.Split
      { groups = [ [ 0; 1 ] ]; from_t = 300; until_t = 600;
        mode = Sim.Faults.Lossy }
  in
  grid
  @ [ ( "ra/W/n=16 burst+split", List.assoc "ra" protocols_under_test,
        S.wrapped ~delta:0 (), S.burst ~at:1000 @ [ split ], 16, 1, 8000 );
      ( "ra/off/wedged by a lossy split", List.assoc "ra" protocols_under_test,
        H.Off, [ wedge ], n, 1, 4000 );
      ( "lamport/W'(8)/dual holders after a lossy heal",
        List.assoc "lamport" protocols_under_test, S.wrapped ~delta:8 (),
        [ S.Split
            { groups = [ [ 0; 1; 2 ]; [ 3 ] ]; from_t = 742; until_t = 805;
              mode = Sim.Faults.Lossy } ],
        n, 7, 4000 ) ]

let test_streaming_run_equals_recorded () =
  (* the full streaming path: observer-fed analysis, entry log, epoch
     verdicts and metrics equal the recorded run's, field for field *)
  List.iter
    (fun (cell, proto, wrapper, faults, n, seed, steps) ->
      let go streaming = S.run proto ~wrapper ~faults ~streaming ~n ~seed ~steps in
      let rec_ = go false and str = go true in
      Alcotest.(check bool)
        (cell ^ ": analysis") true
        (str.S.analysis = rec_.S.analysis);
      Alcotest.(check (option int))
        (cell ^ ": latency")
        rec_.S.recovery_latency str.S.recovery_latency;
      Alcotest.(check bool)
        (cell ^ ": entry log") true
        (str.S.entry_log = rec_.S.entry_log);
      Alcotest.(check bool)
        (cell ^ ": epoch verdicts") true
        (str.S.epoch_spec = rec_.S.epoch_spec);
      Alcotest.(check int)
        (cell ^ ": entries")
        rec_.S.total_entries str.S.total_entries;
      Alcotest.(check int)
        (cell ^ ": sent") rec_.S.sent_total str.S.sent_total;
      Alcotest.(check int)
        (cell ^ ": wrapper sends")
        rec_.S.wrapper_sends str.S.wrapper_sends;
      Alcotest.(check int)
        (cell ^ ": delivered") rec_.S.delivered str.S.delivered;
      Alcotest.(check bool) (cell ^ ": no trace kept") true
        (str.S.vtrace = []))
    streaming_inputs

let test_streaming_deadlock_early_exit () =
  (* the §4 deadlock: streaming stops once permanently quiescent, yet
     reports the same analysis as the full recorded horizon *)
  let proto = List.assoc "ra" protocols_under_test in
  let faults = [ S.Drop_requests_window { from_t = 150; until_t = 210 } ] in
  let go streaming = S.run proto ~faults ~streaming ~n ~seed:1 ~steps:horizon in
  let rec_ = go false and str = go true in
  Alcotest.(check bool) "same analysis" true (str.S.analysis = rec_.S.analysis);
  Alcotest.(check bool) "deadlocked" false str.S.analysis.Stz.recovered;
  Alcotest.(check bool)
    (Printf.sprintf "early exit (%d < %d)" str.S.sim_steps horizon)
    true
    (str.S.sim_steps < horizon);
  Alcotest.(check int) "recorded runs the full horizon" horizon rec_.S.sim_steps

(* A plan without split or crash windows has a one-epoch timeline, on
   which the epoch fold is the classical TME_Spec: every registry
   entry, unwrapped and under W'(8), ten window-free plans each,
   streamed and recorded, against [Tme_spec.check_all] over the
   recorded trace.  Only ME1's reason is worded per epoch. *)
let window_free seed =
  List.filter
    (function S.Crash _ | S.Split _ -> false | _ -> true)
    (plan_for seed)

let test_epoch_fold_is_classical () =
  let me1_at = function
    | Unityspec.Temporal.Violated { at; _ } -> Some at
    | _ -> None
  in
  List.iter
    (fun (pname, proto) ->
      List.iter
        (fun (wname, wrapper) ->
          List.iter
            (fun seed ->
              let faults = window_free seed in
              let go streaming =
                S.run proto ~wrapper ~faults ~streaming ~n ~seed ~steps:horizon
              in
              let rec_ = go false in
              let oracle =
                List.map
                  (fun (e : Unityspec.Report.entry) -> e.verdict)
                  (S.tme_report rec_)
              in
              List.iter
                (fun (mode, (r : S.result)) ->
                  let cell =
                    Printf.sprintf "%s/%s/seed %d %s" pname wname seed mode
                  in
                  let ep = r.S.epoch_spec in
                  Alcotest.(check int)
                    (cell ^ ": one epoch") 1
                    (List.length ep.Graybox.Tme_spec.Epoch.rows);
                  Alcotest.(check bool)
                    (cell ^ ": heal holds") true
                    (ep.Graybox.Tme_spec.Epoch.heal = Unityspec.Temporal.Holds);
                  match
                    ( oracle,
                      List.map
                        (fun (e : Unityspec.Report.entry) -> e.verdict)
                        (Graybox.Tme_spec.Epoch.tme_report ep) )
                  with
                  | [ me1; me2; me3 ], [ e1; e2; e3 ] ->
                    Alcotest.(check (option int))
                      (cell ^ ": ME1 index") (me1_at me1) (me1_at e1);
                    Alcotest.(check bool) (cell ^ ": ME2") true (me2 = e2);
                    Alcotest.(check bool) (cell ^ ": ME3") true (me3 = e3)
                  | _ -> Alcotest.fail (cell ^ ": not three clauses"))
                [ ("recorded", rec_); ("streamed", go true) ])
            seeds)
        wrappers)
    protocols_under_test

(* ------------------------------------------------------------------ *)
(* Cached views                                                        *)

(* No registered protocol's view moves on a membership announcement,
   so a stale view there would go unseen; this RA re-requests the
   critical section at every announcement, which ticks its clock. *)
module Rerequesting_ra = struct
  include Tme.Ra_me

  let name = "ra-rerequesting"
  let membership_aware = true
  let on_view_change ~members:_ s = fst (request_cs s)
end

(* A node caches [P.view proto]; every site that changes [proto] must
   refresh it.  Every registry entry (and the RA above), unwrapped and
   under W'(default delta), five seeds, under a plan that corrupts,
   resets, crashes and drops (and splits, with view changes, for
   membership-aware protocols): after every step and every fault, each
   node's cached view equals a fresh projection of its protocol
   state. *)
let check_views_fresh (module P : Graybox.Protocol.S) ~wrapper ~seed =
  let module R = H.Make (P) in
  let params = H.params ~wrapper ~n () in
  let engine = R.make_engine ~record:false params ~seed in
  let split =
    if P.membership_aware then
      let members_of self = if self <= 1 then [ 0; 1 ] else [ 2; 3 ] in
      [ Sim.Faults.at 400
          (Sim.Faults.Split
             { groups = [ [ 0; 1 ] ]; from_t = 400; until_t = 700;
               mode = Sim.Faults.Lossy });
        Sim.Faults.at 400 (R.fault_view_change ~members_of);
        Sim.Faults.at 700 Sim.Faults.Heal;
        Sim.Faults.at 700
          (R.fault_view_change ~members_of:(fun _ -> List.init n Fun.id)) ]
    else []
  in
  let plan =
    [ Sim.Faults.at 100 (R.fault_corrupt_process Sim.Faults.Any_proc);
      Sim.Faults.at 150 (R.fault_drop_any Sim.Faults.Any_chan ~count:2);
      Sim.Faults.at 200 (R.fault_reset_process params (Sim.Faults.Proc 2));
      Sim.Faults.at 250
        (Sim.Faults.Crash
           { proc = Sim.Faults.Proc 3; until_t = 330; lose_deliveries = true });
      Sim.Faults.at 330 (R.fault_drop_requests Sim.Faults.Any_chan ~count:1);
      Sim.Faults.at 800 (R.fault_corrupt_process (Sim.Faults.Proc 1)) ]
    @ split
  in
  let faults = ref 0 in
  R.Run.add_observer engine (fun (s : (R.node, R.envelope) Ob.step) ->
      (match s.Ob.event with Sim.Trace.Fault _ -> incr faults | _ -> ());
      Array.iteri
        (fun p (node : R.node) ->
          if not (R.view node = P.view node.R.proto) then
            Alcotest.failf "%s seed %d: stale view of process %d at time %d"
              P.name seed p s.Ob.time)
        s.Ob.states);
  R.Run.run ~plan ~steps:1200 engine;
  Alcotest.(check bool)
    (Printf.sprintf "%s seed %d: faults observed" P.name seed)
    true
    (!faults >= List.length plan)

let test_cached_view_never_stale () =
  let rerequesting = (module Rerequesting_ra : Graybox.Protocol.S) in
  List.iter
    (fun (proto, delta) ->
      List.iter
        (fun wrapper ->
          List.iter (fun seed -> check_views_fresh proto ~wrapper ~seed)
            [ 1; 2; 3; 4; 5 ])
        [ H.Off; S.wrapped ~delta () ])
    ((rerequesting, 8)
    :: List.map
         (fun (e : Graybox.Registry.entry) ->
           (e.Graybox.Registry.proto, e.Graybox.Registry.default_delta))
         (Graybox.Registry.all ()))

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

(* Observing a streaming run costs what changes in it: an unwrapped
   run that wedges in a lossy split (and feeds the rest of its horizon
   synthetically, with thousands of ME2 obligations open) stays within
   100 minor words per horizon step, projection, monitors and verdict
   included.  A fault-free run never exits early, and its engine alone
   allocates about 110 words a step, so there the same bound holds
   what observing it adds: the one-epoch fold and the analysis, from
   end to end. *)
let test_streaming_allocation_bounded () =
  let steps = 4000 in
  let split =
    [ S.Split
        { groups = [ [ 0; 1 ] ]; from_t = 300; until_t = 600;
          mode = Sim.Faults.Lossy } ]
  in
  let run name faults =
    S.run (List.assoc name protocols_under_test) ~faults ~streaming:true ~n
      ~seed:1 ~steps
  in
  ignore (run "ra" split);
  List.iter
    (fun (label, name, faults, obligations) ->
      let before = Gc.minor_words () in
      let r = run name faults in
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words <= %d" label words (100 * steps))
        true
        (words <= float_of_int (100 * steps));
      let open_obligations =
        match r.S.epoch_spec.Graybox.Tme_spec.Epoch.me2 with
        | Unityspec.Temporal.Pending p -> List.length p.obligations
        | _ -> 0
      in
      Alcotest.(check int) (label ^ ": open ME2 obligations") obligations
        open_obligations)
    [ ("ra wedged by a split", "ra", split, 3424);
      ("lamport wedged by a split", "lamport", split, 3417) ];
  let words streaming =
    let before = Gc.minor_words () in
    ignore
      (S.run (List.assoc "ra" protocols_under_test) ~streaming ~record:false
         ~n ~seed:1 ~steps);
    Gc.minor_words () -. before
  in
  let observing = words true -. words false in
  Alcotest.(check bool)
    (Printf.sprintf "ra without faults: observing adds %.0f minor words <= %d"
       observing (100 * steps))
    true
    (observing <= float_of_int (100 * steps))

let test_stateful_monitor_latches () =
  let open Unityspec in
  let m =
    Online.stateful ~init:0 ~step:(fun sum x ->
        let sum = sum + x in
        ( sum,
          if sum > 10 then Temporal.Violated { at = sum; reason = "overflow" }
          else Temporal.Holds ))
  in
  Alcotest.(check bool) "holds initially" true
    (Online.verdict m = Temporal.Holds);
  let m = Online.feed_all m [ 4; 8 ] in
  (match Online.verdict m with
   | Temporal.Violated { at; _ } -> Alcotest.(check int) "at" 12 at
   | _ -> Alcotest.fail "must be violated");
  (* further input cannot repair a violated safety monitor *)
  let m = Online.feed_all m [ -100 ] in
  Alcotest.(check bool) "latched" true
    (match Online.verdict m with Temporal.Violated _ -> true | _ -> false)

let () =
  Alcotest.run "observe"
    [ ( "combinators",
        [ Alcotest.test_case "stateful latches" `Quick
            test_stateful_monitor_latches ] );
      ( "engine",
        [ Alcotest.test_case "step stream == recorded trace" `Quick
            test_stream_equals_trace;
          Alcotest.test_case "sink sees init on attach" `Quick
            test_sink_sees_init ] );
      ( "equivalence",
        [ Alcotest.test_case "online fold == offline analyse (full grid)"
            `Quick test_online_fold_equals_offline;
          Alcotest.test_case "streaming run == recorded run" `Quick
            test_streaming_run_equals_recorded;
          Alcotest.test_case "deadlock early exit" `Quick
            test_streaming_deadlock_early_exit;
          Alcotest.test_case "one-epoch fold == classical report" `Quick
            test_epoch_fold_is_classical ] );
      ( "cached-view",
        [ Alcotest.test_case "never stale (registry x wrapper x seed)" `Quick
            test_cached_view_never_stale ] );
      ( "allocation",
        [ Alcotest.test_case "streaming split run bounded" `Quick
            test_streaming_allocation_bounded ] ) ]
