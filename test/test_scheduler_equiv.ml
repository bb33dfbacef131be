(* Scheduler-equivalence suite: the engine's event-indexed move
   bookkeeping (Fenwick action counts + the network's live-channel
   rank/select sets) must produce BIT-IDENTICAL schedules to the
   original per-step full scan it replaced — same RNG draws, same
   (kind, index) selection, same trace, same verdicts.  Every scenario
   here runs twice, [~indexed:true] and [~indexed:false], and the
   results are compared structurally.

   The grid deliberately crosses every registered protocol (references,
   ablations, and negative controls — a protocol that deadlocks or
   violates safety must do so identically in both modes) with fault
   scripts that exercise the index maintenance paths: bursts (state
   corruption + message loss), crash windows with and without losing
   deliveries (the indexed scheduler keeps an explicit crashed-pid
   list), buffered splits (waiting-channel promotion), and heavy-tail
   delays (the waiting set). *)

module R = Graybox.Registry
module S = Tme.Scenarios

let entries = R.all ()

(* Fault script touching every index-maintenance path; times sit well
   inside the horizon so recovery is observable either way. *)
let stress_faults =
  S.burst ~at:300
  @ [ S.Crash
        { procs = Sim.Faults.Proc 0; from_t = 500; until_t = 700; lose = true };
      S.Crash
        { procs = Sim.Faults.Proc 1; from_t = 900; until_t = 1000; lose = false };
      S.Split
        { groups = [ [ 0; 1 ] ];
          from_t = 1200;
          until_t = 1400;
          mode = Sim.Faults.Buffered };
      S.Delay
        { at = 1600;
          chan = Sim.Faults.Any_chan;
          dist = Sim.Faults.Heavy_tail { mean = 3; cap = 12 } } ]

let run_both proto ~wrapper ~faults ~n ~seed ~steps =
  let go indexed =
    S.run proto ~wrapper ~faults ~indexed ~record:true ~n ~seed ~steps
  in
  (go true, go false)

(* snapshot [channels] is a lazy thunk (a closure until forced), so
   traces compare field-wise with the channel matrix forced *)
let traces_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : _ Sim.Trace.snapshot) (y : _ Sim.Trace.snapshot) ->
         x.Sim.Trace.time = y.Sim.Trace.time
         && x.Sim.Trace.event = y.Sim.Trace.event
         && x.Sim.Trace.states = y.Sim.Trace.states
         && Sim.Trace.channels x = Sim.Trace.channels y)
       a b

let check_equal name (a : S.result) (b : S.result) =
  Alcotest.(check bool) (name ^ ": vtrace identical") true
    (traces_equal a.S.vtrace b.S.vtrace);
  Alcotest.(check bool) (name ^ ": analysis identical") true
    (a.S.analysis = b.S.analysis);
  Alcotest.(check (option int)) (name ^ ": recovery latency")
    a.S.recovery_latency b.S.recovery_latency;
  Alcotest.(check int) (name ^ ": entries") a.S.total_entries b.S.total_entries;
  Alcotest.(check int) (name ^ ": sent") a.S.sent_total b.S.sent_total;
  Alcotest.(check int) (name ^ ": delivered") a.S.delivered b.S.delivered;
  Alcotest.(check bool) (name ^ ": ME verdicts identical") true
    (a.S.epoch_spec = b.S.epoch_spec
     && Oracles.Scenarios.tme_report a = Oracles.Scenarios.tme_report b)

let test_grid () =
  List.iter
    (fun (e : R.entry) ->
      List.iter
        (fun seed ->
          (* n sweeps 3..8: crosses the engine's small-n corner cases
             (n=3 is the minimum ring) without slowing the suite *)
          List.iter
            (fun n ->
              let name = Printf.sprintf "%s n=%d seed=%d" e.R.name n seed in
              let wrapper =
                S.wrapped ~delta:e.R.default_delta ()
              in
              let a, b =
                run_both e.R.proto ~wrapper ~faults:stress_faults ~n ~seed
                  ~steps:2500
              in
              check_equal name a b)
            [ 3; 4; 5; 6; 7; 8 ])
        [ 7; 101 ])
    entries

let test_clean_runs () =
  (* fault-free closed-loop runs must also agree — the index fast path
     with no crash bookkeeping at all *)
  List.iter
    (fun (e : R.entry) ->
      let a, b =
        run_both e.R.proto ~wrapper:Graybox.Harness.Off ~faults:[] ~n:5
          ~seed:23 ~steps:3000
      in
      check_equal (e.R.name ^ " clean") a b)
    entries

let test_load_indexed_vs_scan () =
  (* the open-loop driver's result — every latency sample included —
     is independent of the move-index implementation *)
  List.iter
    (fun (e : R.entry) ->
      let go indexed =
        Tme.Load.run ~indexed e.R.proto ~n:40 ~seed:5 ~rate:0.02
          ~max_requests:25 ~max_steps:12000 ()
      in
      let a = go true and b = go false in
      Alcotest.(check bool) (e.R.name ^ ": load result identical") true (a = b);
      Alcotest.(check int) (e.R.name ^ ": all granted") a.Tme.Load.requests
        a.Tme.Load.grants)
    (R.all ~role:R.Reference ())

let test_load_jobs_invariant () =
  (* Pool.map with any worker count returns the same rows in the same
     order: load runs share no state, so --jobs is a wall-clock knob,
     never a results knob *)
  let sweep jobs =
    Stdext.Pool.map ~jobs
      (fun (name, seed) ->
        let e = Option.get (R.find name) in
        Tme.Load.run e.R.proto ~n:30 ~seed ~rate:0.02 ~max_requests:20
          ~max_steps:10000 ())
      [ ("ra", 1); ("ra", 2); ("lamport", 1); ("central", 9); ("ra-gcl", 3) ]
  in
  let serial = sweep 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d matches serial" jobs)
        true
        (sweep jobs = serial))
    [ 2; 4 ]

let () =
  Alcotest.run "scheduler_equiv"
    [ ( "indexed = scan",
        [ Alcotest.test_case "registry x seed x n grid, faulted" `Slow
            test_grid;
          Alcotest.test_case "clean runs" `Quick test_clean_runs;
          Alcotest.test_case "open-loop load" `Quick test_load_indexed_vs_scan;
          Alcotest.test_case "load invariant under --jobs" `Quick
            test_load_jobs_invariant ] ) ]
