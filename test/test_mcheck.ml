(* Tests for the bounded exhaustive model checker: the shipped
   protocols are safe under every interleaving within the bounds; the
   deliberately faulty RA mutant (replies while eating) is caught with
   a concrete counterexample trace.  This validates both directions —
   the protocols and the checker. *)

let ra = (module Tme.Ra_me : Graybox.Protocol.S)
let ra_gcl = (module Gcl.Ra_gcl : Graybox.Protocol.S)
let lamport = (module Tme.Lamport_me : Graybox.Protocol.S)
let mutant = (module Tme.Ra_mutant : Graybox.Protocol.S)

let check_safe ?(n = 2) name proto ~max_depth () =
  match Mcheck.check_me1 proto ~n ~max_depth () with
  | Mcheck.Ok stats ->
    Alcotest.(check bool)
      (Printf.sprintf "%s explored real states" name)
      true (stats.Mcheck.explored > 100)
  | Mcheck.Violation { trace; _ } ->
    Alcotest.failf "%s: unexpected ME1 violation: %s" name
      (String.concat " ; " trace)

let test_mutant_caught () =
  match Mcheck.check_me1 mutant ~n:2 ~max_depth:20 () with
  | Mcheck.Ok _ -> Alcotest.fail "the mutant must violate ME1"
  | Mcheck.Violation { trace; witness; stats; _ } ->
    Alcotest.(check bool) "short counterexample" true (List.length trace <= 20);
    Alcotest.(check bool) "found quickly" true (stats.Mcheck.explored < 200_000);
    let eaters =
      Array.fold_left
        (fun acc v -> if Graybox.View.eating v then acc + 1 else acc)
        0 witness
    in
    Alcotest.(check int) "two eaters in the witness state" 2 eaters;
    (* the trace is a genuine interleaving: it must mention a delivery
       and an entry by each process *)
    let mentions p =
      List.exists
        (fun l -> l = Printf.sprintf "enter(%d)" p)
        trace
    in
    Alcotest.(check bool) "both processes enter" true (mentions 0 && mentions 1)

let test_mutant_ok_at_n1_depths () =
  (* with insufficient depth the bug is not reachable: bounds matter *)
  match Mcheck.check_me1 mutant ~n:2 ~max_depth:4 () with
  | Mcheck.Ok stats ->
    Alcotest.(check bool) "truncated" true stats.Mcheck.truncated
  | Mcheck.Violation _ ->
    Alcotest.fail "depth 4 cannot reach a double entry"

let test_custom_invariant () =
  (* a deliberately false invariant is reported with a witness *)
  match
    Mcheck.check_invariant ra ~n:2 ~max_depth:6 ~name:"nobody-hungry"
      (fun views -> not (Array.exists Graybox.View.hungry views))
  with
  | Mcheck.Violation { trace; _ } ->
    Alcotest.(check bool) "trace starts with a request" true
      (match trace with
       | l :: _ -> String.length l >= 7 && String.sub l 0 7 = "request"
       | [] -> false)
  | Mcheck.Ok _ -> Alcotest.fail "someone must get hungry"

let test_stats_sane () =
  match Mcheck.check_me1 ra ~n:2 ~max_depth:10 () with
  | Mcheck.Ok stats ->
    Alcotest.(check string) "invariant name" "ME1" stats.Mcheck.name;
    Alcotest.(check bool) "depth reached" true (stats.Mcheck.depth_reached <= 10);
    Alcotest.(check bool) "peak >= 1" true (stats.Mcheck.frontier_peak >= 1)
  | Mcheck.Violation _ -> Alcotest.fail "ra is safe"

(* -- parallel frontier expansion ----------------------------------- *)

let test_parallel_equals_serial () =
  (* same violation, same trace, same stats, for every jobs value --
     on a workload that actually finds a counterexample *)
  let run jobs = Mcheck.check_me1 mutant ~n:2 ~jobs ~max_depth:20 () in
  match (run 1, run 3) with
  | ( Mcheck.Violation { trace = t1; witness = w1; stats = s1; _ },
      Mcheck.Violation { trace = t3; witness = w3; stats = s3; _ } ) ->
    Alcotest.(check (list string)) "same trace" t1 t3;
    Alcotest.(check bool) "same stats" true (s1 = s3);
    Alcotest.(check bool) "same witness" true (w1 = w3)
  | _ -> Alcotest.fail "the mutant must violate ME1 at every jobs value"

let test_parallel_equals_serial_safe () =
  (* and identical stats on a safe exploration *)
  let run jobs = Mcheck.check_me1 ra ~n:3 ~jobs ~max_depth:10 () in
  Alcotest.(check bool) "identical results" true (run 1 = run 3)

(* -- counterexample replay ----------------------------------------- *)

let test_replay_witness () =
  match Mcheck.check_me1 mutant ~n:2 ~max_depth:20 () with
  | Mcheck.Ok _ -> Alcotest.fail "the mutant must violate ME1"
  | Mcheck.Violation { trace; witness; _ } ->
    (match Mcheck.replay mutant ~n:2 trace with
     | None -> Alcotest.fail "the reported trace must be executable"
     | Some views ->
       Alcotest.(check bool) "replay reaches the witness views" true
         (views = witness))

let test_replay_rejects_garbage () =
  Alcotest.(check bool) "bogus trace rejected" true
    (Mcheck.replay mutant ~n:2 [ "enter(0)" ] = None)

(* -- everywhere mode ------------------------------------------------ *)

let m1 = (module Tme.Lamport_ablation.M1 : Graybox.Protocol.S)
let m12 = (module Tme.Lamport_ablation.M12 : Graybox.Protocol.S)
let unmod = (module Tme.Lamport_unmodified : Graybox.Protocol.S)

(* Shared shape of every negative-control everywhere test: correct
   from Init at the given depth, caught from a perturbed state at the
   very same depth -- the discrimination the wrapper exists for. *)
let check_discriminated name proto ~depth () =
  (match Mcheck.check_me1 proto ~n:2 ~max_depth:depth () with
   | Mcheck.Ok _ -> ()
   | Mcheck.Violation { trace; _ } ->
     Alcotest.failf "%s violated from Init at depth %d: %s" name depth
       (String.concat " ; " trace));
  match Mcheck.check_me1_everywhere proto ~n:2 ~max_depth:depth () with
  | Mcheck.Ok _ ->
    Alcotest.failf "everywhere mode must catch %s at depth %d" name depth
  | Mcheck.Violation { trace; _ } ->
    Alcotest.(check bool) "seed named" true
      (match trace with
       | l :: _ ->
         String.starts_with ~prefix:"corrupt(" l
         || String.starts_with ~prefix:"inflight(" l
       | [] -> false)

let test_everywhere_discriminates () =
  (* at depth 4 the mutant looks safe from Init... *)
  (match Mcheck.check_me1 mutant ~n:2 ~max_depth:4 () with
   | Mcheck.Ok _ -> ()
   | Mcheck.Violation _ -> Alcotest.fail "depth 4 from Init cannot double-enter");
  (* ...but not from a perturbed state *)
  match Mcheck.check_me1_everywhere mutant ~n:2 ~max_depth:4 () with
  | Mcheck.Ok _ ->
    Alcotest.fail "everywhere mode must catch the mutant at depth 4"
  | Mcheck.Violation { trace; _ } ->
    (* the trace names the seeding perturbation *)
    Alcotest.(check bool) "seed named" true
      (match trace with
       | l :: _ ->
         String.starts_with ~prefix:"corrupt(" l
         || String.starts_with ~prefix:"inflight(" l
       | [] -> false)

let test_everywhere_lamport_unmodified_program () =
  (* Lamport's program without the modifications is correct from Init
     but not self-stabilizing: everywhere mode exposes it shallowly *)
  match Mcheck.check_me1_everywhere m1 ~n:2 ~max_depth:4 () with
  | Mcheck.Ok _ -> Alcotest.fail "lamport-m1 must fail from a perturbed state"
  | Mcheck.Violation _ -> ()

let test_everywhere_ra_shallow_safe () =
  (* RA recovers from the same shallow perturbations: no violation at
     depth 4 (it is not everywhere-safe at larger depth, which is the
     point of the wrapper -- see EXPERIMENTS.md) *)
  match Mcheck.check_me1_everywhere ra ~n:2 ~max_depth:4 () with
  | Mcheck.Ok stats ->
    Alcotest.(check bool) "explored seeds" true (stats.Mcheck.explored > 50)
  | Mcheck.Violation { trace; _ } ->
    Alcotest.failf "ra violated at depth 4 from: %s" (String.concat " ; " trace)

(* -- bounds --------------------------------------------------------- *)

let test_max_states_hard_bound () =
  match Mcheck.check_me1 ra ~n:3 ~max_depth:30 ~max_states:500 () with
  | Mcheck.Ok stats ->
    Alcotest.(check bool) "visited bounded" true (stats.Mcheck.visited <= 500);
    Alcotest.(check bool) "truncated reported" true stats.Mcheck.truncated;
    Alcotest.(check bool) "explored <= visited" true
      (stats.Mcheck.explored <= stats.Mcheck.visited)
  | Mcheck.Violation _ -> Alcotest.fail "ra is safe"

(* -- sharded / out-of-core differential suite ----------------------- *)

(* Every (jobs, shards, mem_budget) configuration must return the same
   result — traces byte-identical, stats field-for-field equal except
   the two memory figures, which depend on mem_budget (but on nothing
   else).  The reference is the fully serial in-RAM run. *)

let scrub_mem = function
  | Mcheck.Ok s -> Mcheck.Ok { s with Mcheck.peak_mem_words = 0; spill_bytes = 0 }
  | Mcheck.Violation { trace; witness; path; stats = s } ->
    Mcheck.Violation
      { trace;
        witness;
        path;
        stats = { s with Mcheck.peak_mem_words = 0; spill_bytes = 0 } }

let check_differential ?(budget = 64) name run () =
  let reference = run ~jobs:1 ~shards:1 ~mem_budget:max_int in
  (* fixed budget => full equality including memory stats, across a
     seeded-random draw of (jobs, shards) configurations *)
  let rng = Random.State.make [| 0xd1f; 0x5eed |] in
  for _ = 1 to 4 do
    let jobs = 1 + Random.State.int rng 4 in
    let shards = 1 + Random.State.int rng 8 in
    Alcotest.(check bool)
      (Printf.sprintf "%s: jobs=%d shards=%d == serial" name jobs shards)
      true
      (run ~jobs ~shards ~mem_budget:max_int = reference)
  done;
  (* a small budget forces the spill path; everything but the memory
     figures must be unchanged, and spilling must actually happen *)
  let spilled = run ~jobs:3 ~shards:4 ~mem_budget:budget in
  Alcotest.(check bool)
    (Printf.sprintf "%s: spill-forced == in-RAM (modulo memory stats)" name)
    true
    (scrub_mem spilled = scrub_mem reference);
  let stats_of = function
    | Mcheck.Ok s -> s
    | Mcheck.Violation { stats; _ } -> stats
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: spill engaged" name)
    true
    ((stats_of spilled).Mcheck.spill_bytes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: in-RAM run never spills" name)
    true
    ((stats_of reference).Mcheck.spill_bytes = 0);
  (* memory stats themselves are jobs- and shards-invariant at a
     fixed budget, down to a single shard that holds every key *)
  List.iter
    (fun (jobs, shards) ->
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: spilled stats at jobs=%d shards=%d == jobs=3 shards=4" name
           jobs shards)
        true
        (run ~jobs ~shards ~mem_budget:budget = spilled))
    [ (1, 7); (2, 1) ]

let diff_safe ~jobs ~shards ~mem_budget =
  Mcheck.check_me1 ra ~n:3 ~jobs ~shards ~mem_budget ~max_depth:8 ()

let diff_violation ~jobs ~shards ~mem_budget =
  Mcheck.check_me1 mutant ~n:2 ~jobs ~shards ~mem_budget ~max_depth:20 ()

let diff_everywhere ~jobs ~shards ~mem_budget =
  Mcheck.check_me1_everywhere m1 ~n:2 ~jobs ~shards ~mem_budget ~max_depth:4 ()

let diff_bounded ~jobs ~shards ~mem_budget =
  (* exercises the near-max_states serial admission path *)
  Mcheck.check_me1 ra ~n:3 ~jobs ~shards ~mem_budget ~max_depth:30
    ~max_states:500 ()

let diff_paged ~jobs ~shards ~mem_budget =
  (* at a 200K-word budget one shard's spill flushes several 2^16-word
     arena pages, and keys straddle the page boundaries *)
  Mcheck.check_me1 ra ~n:3 ~jobs ~shards ~mem_budget ~max_depth:14 ()

(* -- partial-order reduction ---------------------------------------- *)

let test_por_reduces_and_agrees () =
  (* on a por_safe reference protocol the reduction must prove the
     same result with strictly fewer states *)
  let run por = Mcheck.check_me1 ra ~n:3 ~por ~max_depth:10 () in
  match (run false, run true) with
  | Mcheck.Ok full, Mcheck.Ok reduced ->
    Alcotest.(check bool) "strictly fewer states visited" true
      (reduced.Mcheck.visited < full.Mcheck.visited);
    Alcotest.(check bool) "strictly fewer states explored" true
      (reduced.Mcheck.explored < full.Mcheck.explored)
  | _ -> Alcotest.fail "ra is safe with and without POR"

let test_por_still_catches_violations () =
  (* the ample conditions are dynamic, so the reduction is sound even
     on the buggy mutant: the violation must still be found, and its
     trace must replay *)
  match Mcheck.check_me1 mutant ~n:2 ~por:true ~max_depth:20 () with
  | Mcheck.Ok _ -> Alcotest.fail "POR must not mask the mutant's violation"
  | Mcheck.Violation { trace; witness; _ } ->
    (match Mcheck.replay mutant ~n:2 trace with
    | None -> Alcotest.fail "POR trace must be executable"
    | Some views ->
      Alcotest.(check bool) "replay reaches the witness" true (views = witness))

let test_por_deterministic () =
  let run jobs shards =
    Mcheck.check_me1 ra ~n:3 ~jobs ~shards ~por:true ~max_depth:10 ()
  in
  Alcotest.(check bool) "POR invariant under jobs and shards" true
    (run 1 1 = run 3 4)

(* -- memory accounting ---------------------------------------------- *)

let test_peak_mem_reported () =
  match Mcheck.check_me1 ra ~n:2 ~max_depth:10 () with
  | Mcheck.Ok stats ->
    (* 3 index words per state plus at least one key word each *)
    Alcotest.(check bool) "peak covers the index" true
      (stats.Mcheck.peak_mem_words >= 4 * stats.Mcheck.visited);
    Alcotest.(check int) "no spill without pressure" 0 stats.Mcheck.spill_bytes
  | Mcheck.Violation _ -> Alcotest.fail "ra is safe"

let test_major_alloc_bounded () =
  (* The sweep allocates little beyond what it keeps: the visited
     set's arena pages, probe slots and index vectors, plus candidate
     and frontier buffers that grow once and are reused.  Buffers
     rebuilt per chunk (and grown by doubling) would cost many times
     the resident peak. *)
  let major () = (Gc.quick_stat ()).Gc.major_words in
  let before = major () in
  match Mcheck.check_me1 ra ~n:3 ~max_depth:16 () with
  | Mcheck.Ok stats ->
    let words = major () -. before in
    let peak = stats.Mcheck.peak_mem_words in
    Alcotest.(check bool)
      (Printf.sprintf "%.0f major-heap words <= 6 x peak (%d words)" words peak)
      true
      (words <= 6. *. float_of_int peak)
  | Mcheck.Violation _ -> Alcotest.fail "ra is safe at depth 16"

(* -- pinned results ---------------------------------------------------- *)

(* Exact results, captured once and compared field for field.  The
   differential suite above only asserts equality across jobs, shards
   and budgets, so a kernel bug that changes the successor relation the
   same way in every configuration passes it; a pinned state count does
   not.  The grid covers both exploration modes, a composed wrapper,
   POR, violations with their traces, lamport and ra-lease, a parallel
   sharded run with memo-miss fixups, a spilled run, and the near-bound
   serial admission path.  The figures move only when the checker's
   semantics do: then re-derive them and say why. *)

let lease = (module Tme.Ra_lease.Lease : Graybox.Protocol.S)

let describe result =
  let stats (s : Mcheck.stats) =
    Printf.sprintf
      "explored=%d visited=%d frontier_peak=%d depth_reached=%d \
       truncated=%b peak_mem_words=%d spill_bytes=%d"
      s.Mcheck.explored s.Mcheck.visited s.Mcheck.frontier_peak
      s.Mcheck.depth_reached s.Mcheck.truncated s.Mcheck.peak_mem_words
      s.Mcheck.spill_bytes
  in
  match result with
  | Mcheck.Ok s -> "ok " ^ stats s
  | Mcheck.Violation { trace; stats = s; _ } ->
    Printf.sprintf "violation %s trace=%s" (stats s) (String.concat ";" trace)

let pinned_spill_dir = Filename.get_temp_dir_name ()

let pinned =
  let ra_n3_d14 =
    "ok explored=39680 visited=39680 frontier_peak=16637 depth_reached=14 \
     truncated=true peak_mem_words=735645 spill_bytes=0"
  in
  let mutant_n2 =
    "violation explored=66 visited=91 frontier_peak=25 depth_reached=8 \
     truncated=false peak_mem_words=906 spill_bytes=0 \
     trace=request(0);deliver(0->1);request(1);deliver(1->0);enter(0);\
     deliver(1->0);deliver(0->1);enter(1)"
  in
  [ ( "ra n=3 depth 14",
      (fun () -> Mcheck.check_me1 ra ~n:3 ~max_depth:14 ()),
      ra_n3_d14 );
    ( "ra n=3 depth 14, jobs 2 shards 3",
      (fun () -> Mcheck.check_me1 ra ~n:3 ~jobs:2 ~shards:3 ~max_depth:14 ()),
      ra_n3_d14 );
    ( "ra n=3 depth 14, spill-forced",
      (fun () ->
        Mcheck.check_me1 ra ~n:3 ~jobs:2 ~shards:3 ~mem_budget:100_000
          ~spill_dir:pinned_spill_dir ~max_depth:14 ()),
      "ok explored=39680 visited=39680 frontier_peak=16637 depth_reached=14 \
       truncated=true peak_mem_words=330067 spill_bytes=4617456" );
    ( "ra n=3 max_states 500",
      (fun () -> Mcheck.check_me1 ra ~n:3 ~max_depth:30 ~max_states:500 ()),
      "ok explored=500 visited=500 frontier_peak=237 depth_reached=6 \
       truncated=true peak_mem_words=9398 spill_bytes=0" );
    ( "ra n=3 max_states 20000, jobs 2 shards 3",
      (fun () ->
        Mcheck.check_me1 ra ~n:3 ~jobs:2 ~shards:3 ~max_depth:30
          ~max_states:20_000 ()),
      "ok explored=20000 visited=20000 frontier_peak=6629 depth_reached=13 \
       truncated=true peak_mem_words=370441 spill_bytes=0" );
    ( "ra n=3 depth 14, por",
      (fun () -> Mcheck.check_me1 ra ~n:3 ~por:true ~max_depth:14 ()),
      "ok explored=32276 visited=32276 frontier_peak=13024 depth_reached=14 \
       truncated=true peak_mem_words=590795 spill_bytes=0" );
    ( "ra+W n=3 depth 10",
      (fun () ->
        Mcheck.check_me1 ~wrapper:Graybox.Wrapper.w_refined ra ~n:3
          ~max_depth:10 ()),
      "ok explored=86333 visited=86333 frontier_peak=53138 depth_reached=10 \
       truncated=true peak_mem_words=1751319 spill_bytes=0" );
    ( "ra+W n=3 everywhere depth 6",
      (fun () ->
        Mcheck.check_me1_everywhere ~wrapper:Graybox.Wrapper.w_refined ra ~n:3
          ~max_depth:6 ()),
      "ok explored=48303 visited=48303 frontier_peak=31623 depth_reached=6 \
       truncated=true peak_mem_words=951630 spill_bytes=0" );
    ( "ra n=2 everywhere depth 8",
      (fun () -> Mcheck.check_me1_everywhere ra ~n:2 ~max_depth:8 ()),
      "violation explored=509 visited=684 frontier_peak=164 depth_reached=6 \
       truncated=false peak_mem_words=7097 spill_bytes=0 \
       trace=inflight(0->1,req(7.0));request(0);request(1);deliver(0->1);\
       enter(1);deliver(1->0);enter(0)" );
    ( "ra-mutant n=2 depth 20",
      (fun () -> Mcheck.check_me1 mutant ~n:2 ~max_depth:20 ()),
      mutant_n2 );
    ( "ra-mutant n=2 depth 20, jobs 2 shards 3",
      (fun () ->
        Mcheck.check_me1 mutant ~n:2 ~jobs:2 ~shards:3 ~max_depth:20 ()),
      mutant_n2 );
    ( "lamport-unmod n=2 everywhere depth 4",
      (fun () -> Mcheck.check_me1_everywhere unmod ~n:2 ~max_depth:4 ()),
      "violation explored=225 visited=323 frontier_peak=111 depth_reached=4 \
       truncated=true peak_mem_words=3399 spill_bytes=0 \
       trace=corrupt(0#1);request(1);deliver(1->0);deliver(0->1);enter(1)" );
    ( "lamport n=3 depth 12",
      (fun () -> Mcheck.check_me1 lamport ~n:3 ~max_depth:12 ()),
      "ok explored=32983 visited=32983 frontier_peak=15098 depth_reached=12 \
       truncated=true peak_mem_words=641229 spill_bytes=0" );
    ( "lamport n=3 everywhere depth 6",
      (fun () -> Mcheck.check_me1_everywhere lamport ~n:3 ~max_depth:6 ()),
      "violation explored=12386 visited=27361 frontier_peak=15857 \
       depth_reached=6 truncated=true peak_mem_words=563754 spill_bytes=0 \
       trace=corrupt(0#1);request(1);deliver(1->0);deliver(0->1);\
       deliver(1->2);deliver(2->1);enter(1)" );
    ( "ra-lease n=2 everywhere depth 8",
      (fun () -> Mcheck.check_me1_everywhere lease ~n:2 ~max_depth:8 ()),
      "violation explored=509 visited=683 frontier_peak=164 depth_reached=6 \
       truncated=false peak_mem_words=7085 spill_bytes=0 \
       trace=inflight(0->1,req(7.0));request(0);request(1);deliver(0->1);\
       enter(1);deliver(1->0);enter(0)" );
    ( "ra-lease n=3 depth 18, por, jobs 2 shards 3",
      (fun () ->
        Mcheck.check_me1 lease ~n:3 ~jobs:2 ~shards:3 ~por:true ~max_depth:18
          ()),
      "violation explored=104146 visited=166168 frontier_peak=56413 \
       depth_reached=17 truncated=false peak_mem_words=3017695 spill_bytes=0 \
       trace=request(0);request(1);deliver(0->2);deliver(1->0);deliver(2->0);\
       enter(0);release(0);request(0);deliver(0->2);request(2);deliver(2->0);\
       deliver(2->1);deliver(0->1);deliver(1->0);enter(0);deliver(0->1);\
       enter(1)" );
    (* the fault-free reference ra violates ME1 at depth 17: a reply
       to p0's released request is credited to its next one.  The
       defect is still open; pinned so that its fix moves this result
       on purpose. *)
    ( "ra n=3 depth 17",
      (fun () -> Mcheck.check_me1 ra ~n:3 ~max_depth:17 ()),
      "violation explored=119078 visited=164826 frontier_peak=58864 \
       depth_reached=17 truncated=true peak_mem_words=3005463 spill_bytes=0 \
       trace=request(0);request(1);deliver(0->2);deliver(1->0);deliver(2->0);\
       enter(0);release(0);request(0);deliver(0->2);request(2);deliver(2->0);\
       deliver(2->1);deliver(0->1);deliver(0->1);enter(1);deliver(1->0);\
       enter(0)" ) ]

let test_pinned (name, run, expected) =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (describe (run ())))

(* The oracle runs CEGIS makes through Synth's own loop, on its
   reusable checkers: at n=2, and at the benchmark's size. *)
let pinned_synth =
  [ ("synth n=2 counts", Synth.config (), [ 351; 16; 13; 40; 39138 ]);
    ( "synth n=3 depths 6/10 counts",
      Synth.config ~n:3 ~safety_depth:6 ~recovery_depth:10 (),
      [ 351; 16; 13; 56; 567_390 ] ) ]

let test_pinned_synth (name, cfg, expected) =
  Alcotest.test_case name `Quick (fun () ->
      let r = Synth.synthesize ra cfg in
      Alcotest.(check (list int))
        "enumerated, checked, pruned, oracle_runs, oracle_states" expected
        [ r.Synth.enumerated; r.Synth.checked; r.Synth.pruned;
          r.Synth.oracle_runs; r.Synth.oracle_states ];
      Alcotest.(check bool) "synthesized w_refined" true
        (match r.Synth.synthesized with
         | Some w -> Graybox.Wrapper.equal w Graybox.Wrapper.w_refined
         | None -> false);
      Alcotest.(check (option int)) "at index 9" (Some 9)
        (List.find_map
           (fun (a : Synth.attempt) ->
             if Some a.Synth.term = r.Synth.synthesized then Some a.Synth.index
             else None)
           r.Synth.attempts))

let () =
  Alcotest.run "mcheck"
    [ ( "safety",
        [ Alcotest.test_case "ra safe (exhaustive, n=2 depth 30)" `Quick
            (check_safe "ra" ra ~max_depth:30);
          Alcotest.test_case "ra safe (exhaustive, n=3 depth 14)" `Quick
            (check_safe ~n:3 "ra" ra ~max_depth:14);
          Alcotest.test_case "ra-gcl safe (exhaustive, n=2 depth 24)" `Quick
            (check_safe "ra-gcl" ra_gcl ~max_depth:24);
          Alcotest.test_case "lamport safe (exhaustive, n=2 depth 24)" `Quick
            (check_safe "lamport" lamport ~max_depth:24);
          Alcotest.test_case "lamport safe (exhaustive, n=3 depth 12)" `Quick
            (check_safe ~n:3 "lamport" lamport ~max_depth:12) ] );
      ( "discrimination",
        [ Alcotest.test_case "mutant caught" `Quick test_mutant_caught;
          Alcotest.test_case "depth bound respected" `Quick
            test_mutant_ok_at_n1_depths;
          Alcotest.test_case "custom invariant" `Quick test_custom_invariant;
          Alcotest.test_case "stats" `Quick test_stats_sane ] );
      ( "parallel",
        [ Alcotest.test_case "jobs 1 = jobs 3 (violation)" `Quick
            test_parallel_equals_serial;
          Alcotest.test_case "jobs 1 = jobs 3 (safe)" `Quick
            test_parallel_equals_serial_safe ] );
      ( "replay",
        [ Alcotest.test_case "witness reproduced" `Quick test_replay_witness;
          Alcotest.test_case "garbage rejected" `Quick
            test_replay_rejects_garbage ] );
      ( "everywhere",
        [ Alcotest.test_case "mutant caught at depth 4" `Quick
            test_everywhere_discriminates;
          Alcotest.test_case "lamport-m1 caught at depth 4" `Quick
            test_everywhere_lamport_unmodified_program;
          Alcotest.test_case "lamport-unmod discriminated at depth 4" `Quick
            (check_discriminated "lamport-unmod" unmod ~depth:4);
          Alcotest.test_case "lamport-m12 discriminated at depth 4" `Quick
            (check_discriminated "lamport-m12" m12 ~depth:4);
          Alcotest.test_case "ra-mutant discriminated at depth 4" `Quick
            (check_discriminated "ra-mutant" mutant ~depth:4);
          Alcotest.test_case "ra safe at depth 4" `Quick
            test_everywhere_ra_shallow_safe ] );
      ( "bounds",
        [ Alcotest.test_case "max_states is hard" `Quick
            test_max_states_hard_bound ] );
      ( "differential",
        [ Alcotest.test_case "safe run" `Quick
            (check_differential "ra n=3" diff_safe);
          Alcotest.test_case "violating run" `Quick
            (check_differential "mutant n=2" diff_violation);
          Alcotest.test_case "everywhere run" `Quick
            (check_differential "lamport-m1 everywhere" diff_everywhere);
          Alcotest.test_case "bounded run" `Quick
            (check_differential "ra n=3 max_states=500" diff_bounded);
          Alcotest.test_case "page-crossing spill" `Quick
            (check_differential ~budget:200_000 "ra n=3 depth 14"
               diff_paged) ] );
      ( "por",
        [ Alcotest.test_case "fewer states, same verdict" `Quick
            test_por_reduces_and_agrees;
          Alcotest.test_case "violations not masked" `Quick
            test_por_still_catches_violations;
          Alcotest.test_case "deterministic" `Quick test_por_deterministic ] );
      ( "memory",
        [ Alcotest.test_case "peak and spill reported" `Quick
            test_peak_mem_reported;
          Alcotest.test_case "major-heap allocation bounded" `Quick
            test_major_alloc_bounded ] );
      ( "pinned",
        List.map test_pinned pinned @ List.map test_pinned_synth pinned_synth )
    ]
