(* The scheduler against its specification.  [Oracles.Schedule]
   rebuilds every step's move list from the engine's exported state,
   replays the draw from a replica of the seed's schedule stream, and
   checks that [step] made the move that draw picks; the engine's
   incremental move index (cached action lists, Fenwick action counts,
   the network's live-channel index) must agree with it at every step.

   The grid crosses every registered protocol (references, ablations
   and negative controls: a run that deadlocks or violates safety is
   scheduled by the same rule) with a fault plan that exercises each
   index-maintenance path: a burst (state corruption + message loss),
   crash windows with and without losing deliveries (the crashed-pid
   list), a buffered split (waiting-channel promotion) and heavy-tail
   delays (the waiting set).  Half of it also overwrites nodes with
   [set_state] between steps, the path the open-loop driver
   ([Tme.Load]) injects requests through. *)

module R = Graybox.Registry
module H = Graybox.Harness

let check_schedule name (module P : Graybox.Protocol.S) ~wrapper ~stress
    ~writes ~n ~seed ~steps =
  let module Run = H.Make (P) in
  let module O = Oracles.Schedule.Make (Run.Node) (Run.Run) in
  let params = H.params ~wrapper ~n () in
  let plan =
    (* built the way [Tme.Scenarios.run] lowers [burst ~at:300 @
       [Crash p0 500-700 lose; Crash p1 900-1000; Split {0,1}
       1200-1400 buffered; Delay 1600 heavy tail]], view-change events
       included for membership-aware protocols *)
    let open Sim.Faults in
    let base =
      [ at 300 (Run.fault_corrupt_process Any_proc);
        at 300 (Run.fault_corrupt_messages params Any_chan ~count:2);
        at 300 (Run.fault_drop_any Any_chan ~count:1);
        at 500 (Crash { proc = Proc 0; until_t = 700; lose_deliveries = true });
        at 900 (Crash { proc = Proc 1; until_t = 1000; lose_deliveries = false });
        at 1200
          (Split
             { groups = [ [ 0; 1 ] ]; from_t = 1200; until_t = 1400; mode = Buffered });
        at 1400 Heal;
        at 1600 (Delay { chan = Any_chan; dist = Heavy_tail { mean = 3; cap = 12 } }) ]
    in
    let view_changes =
      if not P.membership_aware then []
      else
        Sim.Regime.epochs (Sim.Regime.of_plan ~n base)
        |> List.filter (fun (t : Sim.Regime.topo) -> t.Sim.Regime.since > 0)
        |> List.map (fun topo ->
               at topo.Sim.Regime.since
                 (Run.fault_view_change
                    ~members_of:(Sim.Regime.group_members topo)))
    in
    if stress then base @ view_changes else []
  in
  let before_step =
    if not writes then ignore
    else
      (* every 50 steps, corrupt one node in place (round robin) *)
      let rng = Stdext.Rng.create (seed + 1) in
      fun e ->
        let time = Run.Run.time e in
        if time mod 50 = 25 then begin
          let p = time / 50 mod n in
          Run.Run.set_state e p (Run.corrupt_node rng (Run.Run.state e p))
        end
  in
  Alcotest.(check (option string)) (name ^ ": every step as specified") None
    (O.run ~plan ~before_step ~seed ~steps (Run.make_engine params ~seed))

let test_grid () =
  List.iter
    (fun (e : R.entry) ->
      List.iter
        (fun seed ->
          (* n sweeps 3..8: crosses the engine's small-n corner cases
             (n=3 is the minimum ring) without slowing the suite *)
          List.iter
            (fun n ->
              check_schedule
                (Printf.sprintf "%s n=%d seed=%d" e.R.name n seed)
                e.R.proto
                ~wrapper:(Tme.Scenarios.wrapped ~delta:e.R.default_delta ())
                ~stress:true ~writes:(seed = 101) ~n ~seed ~steps:2500)
            [ 3; 4; 5; 6; 7; 8 ])
        [ 7; 101 ])
    (R.all ())

let test_clean_runs () =
  (* fault-free closed-loop runs: the index fast path with no crash
     bookkeeping at all *)
  List.iter
    (fun (e : R.entry) ->
      check_schedule (e.R.name ^ " clean") e.R.proto ~wrapper:H.Off
        ~stress:false ~writes:false ~n:5 ~seed:23 ~steps:3000)
    (R.all ())

(* Each reference's open-loop run at n = 40, seed 5: steps run, latency
   sum and latency maximum (every request is granted).  The load
   driver's own engine is out of the oracle's reach, so its schedule is
   pinned instead. *)
let load_pins =
  [ ("ra", (2265, 26877, 1849));
    ("ra-gcl", (2265, 26877, 1849));
    ("lamport", (3963, 55477, 3142));
    ("central", (1533, 87, 4));
    ("ra-lease", (2265, 26877, 1849)) ]

let test_load_pinned () =
  List.iter
    (fun (e : R.entry) ->
      let r =
        Tme.Load.run e.R.proto ~n:40 ~seed:5 ~rate:0.02 ~max_requests:25
          ~max_steps:12000 ()
      in
      Alcotest.(check int) (e.R.name ^ ": all granted") r.Tme.Load.requests
        r.Tme.Load.grants;
      let lat = Array.to_list r.Tme.Load.latencies in
      Alcotest.(check (option (triple int int int)))
        (e.R.name ^ ": pinned result")
        (List.assoc_opt e.R.name load_pins)
        (Some
           ( r.Tme.Load.steps_run,
             List.fold_left ( + ) 0 lat,
             List.fold_left max 0 lat )))
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
    [ ( "scheduler",
        [ Alcotest.test_case "registry x seed x n grid, faulted" `Slow
            test_grid;
          Alcotest.test_case "clean runs" `Quick test_clean_runs;
          Alcotest.test_case "open-loop load" `Quick test_load_pinned;
          Alcotest.test_case "load invariant under --jobs" `Quick
            test_load_jobs_invariant ] ) ]
