(* CEGIS wrapper synthesis (Synth) and its model-checking oracle
   (Mcheck.Oracle): the synthesizer rediscovers the paper's refined W
   for every synthesizable registry entry, the transcript is invariant
   under the pool width, the oracle's verdicts (and counterexample
   traces) are invariant under jobs/shards/memory budget and equal a
   fresh oracle's on a reused checker, and the wrapper's guard
   evaluator agrees with a list-based reference over the whole search
   space. *)

module W = Graybox.Wrapper
module O = Mcheck.Oracle
module S = Tme.Scenarios

let ra = Option.get (Graybox.Registry.find_protocol "ra")

(* -- synthesis ------------------------------------------------------ *)

let test_synthesizes_w_refined () =
  let r = Synth.synthesize ra (Synth.config ()) in
  (match r.Synth.synthesized with
   | None -> Alcotest.fail "synthesis found nothing for ra"
   | Some w ->
     Alcotest.(check bool) "synthesized term is the paper's refined W" true
       (W.equal w W.w_refined));
  Alcotest.(check bool) "pruning engaged" true (r.Synth.pruned > 0);
  Alcotest.(check bool) "oracle consulted" true (r.Synth.checked > 0);
  Alcotest.(check int) "every tried candidate is in the transcript"
    (r.Synth.checked + r.Synth.pruned)
    (List.length r.Synth.attempts);
  (* the transcript is index-sorted and each index appears once *)
  let idxs = List.map (fun a -> a.Synth.index) r.Synth.attempts in
  Alcotest.(check bool) "transcript sorted by enumeration index" true
    (List.sort_uniq compare idxs = idxs)

let test_matches_registered_term () =
  (* ra-synth's registered wrapper_term is exactly what synthesis
     produces for ra: the registry entry is the synthesis result made
     a first-class protocol *)
  let entry = Option.get (Graybox.Registry.find "ra-synth") in
  let r = Synth.synthesize ra (Synth.config ()) in
  match (entry.Graybox.Registry.wrapper_term, r.Synth.synthesized) with
  | Some registered, Some synthesized ->
    Alcotest.(check bool) "ra-synth registers the synthesized term" true
      (W.equal registered synthesized)
  | _ -> Alcotest.fail "ra-synth term or synthesis result missing"

let test_transcript_jobs_invariant () =
  (* the whole result — synthesized term, transcript, counts — is
     byte-identical for every pool width *)
  let run jobs = Synth.synthesize ra (Synth.config ~jobs ()) in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d == jobs=1" jobs)
        true
        (run jobs = reference))
    [ 2; 8 ]

let test_budget_exhaustion_is_honest () =
  (* a tiny check budget must return None with a full transcript, not
     a bogus term *)
  let r = Synth.synthesize ra (Synth.config ~max_checks:3 ()) in
  Alcotest.(check bool) "no term within 3 checks" true
    (r.Synth.synthesized = None);
  Alcotest.(check int) "stopped at the budget" 3 r.Synth.checked

let test_state_bound_certifies_nothing () =
  (* at 50 states no safety leg closes its search, and a leg that
     stops at the bound without a violation proves nothing: no
     candidate is certified, and the transcript says why *)
  let r = Synth.synthesize ra (Synth.config ~max_states:50 ()) in
  Alcotest.(check bool) "nothing synthesized" true (r.Synth.synthesized = None);
  let count o =
    List.length (List.filter (fun a -> a.Synth.outcome = o) r.Synth.attempts)
  in
  Alcotest.(check int) "no attempt certified" 0 (count Synth.Certified);
  Alcotest.(check bool) "the bound is reported" true
    (count Synth.Inconclusive > 0)

let test_config_bounds () =
  (* the checker's limits fail at configuration, not mid-synthesis *)
  Alcotest.check_raises "n = 65"
    (Invalid_argument "Synth.config: the checker takes at most 64 processes")
    (fun () -> ignore (Synth.config ~n:65 ()));
  Alcotest.check_raises "max_states = 0"
    (Invalid_argument "Synth.config: max_states must be positive") (fun () ->
      ignore (Synth.config ~max_states:0 ()))

(* -- oracle determinism --------------------------------------------- *)

let scrub_stats s = { s with Mcheck.peak_mem_words = 0; spill_bytes = 0 }

let scrub = function
  | O.Safe stats -> O.Safe (List.map scrub_stats stats)
  | O.Cex cex -> O.Cex { cex with O.stats = List.map scrub_stats cex.O.stats }

let spill_dir = Filename.temp_file "graybox-synth-oracle" ".d"

let () =
  (* temp_file created a file; we want a directory for spill shards *)
  Sys.remove spill_dir;
  Unix.mkdir spill_dir 0o700

let check_oracle_differential name candidate ~n () =
  let run ~jobs ~shards ~mem_budget =
    O.check ra ~n ~jobs ~shards ~mem_budget ~spill_dir candidate
  in
  let reference = run ~jobs:1 ~shards:1 ~mem_budget:max_int in
  (* fixed budget: full equality, including memory stats *)
  List.iter
    (fun (jobs, shards) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d shards=%d == serial" name jobs shards)
        true
        (run ~jobs ~shards ~mem_budget:max_int = reference))
    [ (2, 1); (8, 1); (2, 4); (8, 3) ];
  (* tiny budget forces the spill path in the underlying explorations;
     the verdict — including any counterexample trace — must be
     unchanged modulo the two memory figures *)
  let spilled = run ~jobs:2 ~shards:4 ~mem_budget:64 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: spill-forced == in-RAM (modulo memory stats)" name)
    true
    (scrub spilled = scrub reference);
  let stats_of = function O.Safe s -> s | O.Cex c -> c.O.stats in
  Alcotest.(check bool)
    (Printf.sprintf "%s: spill engaged" name)
    true
    (List.exists (fun s -> s.Mcheck.spill_bytes > 0) (stats_of spilled));
  Alcotest.(check bool)
    (Printf.sprintf "%s: in-RAM run never spills" name)
    true
    (List.for_all (fun s -> s.Mcheck.spill_bytes = 0) (stats_of reference))

let oracle_safe =
  (* w_refined certifies: the Safe verdict's per-run stats must be
     jobs/shards/budget-invariant *)
  check_oracle_differential "safe(w_refined)" W.w_refined ~n:2

let oracle_cex =
  (* reply-to-all forges grants and fails safety: the counterexample —
     seed label, action trace, path, blamed firings — must be
     byte-identical across configurations *)
  check_oracle_differential "cex(reply-to-all)"
    { W.guard = W.Mode W.Is_hungry;
      target = W.Any_peer;
      send = W.Send_reply }
    ~n:2

let test_oracle_verdicts () =
  (match O.check ra ~n:2 W.w_refined with
   | O.Safe _ -> ()
   | O.Cex cex ->
     Alcotest.failf "w_refined refuted: %s" (O.obligation_label cex.O.obligation));
  (match
     O.check ra ~n:2
       { W.guard = W.Mode W.Is_hungry;
         target = W.Any_peer;
         send = W.Send_reply }
   with
   | O.Cex { O.obligation = O.Safety; fired; _ } ->
     Alcotest.(check bool) "safety cex blames the candidate's firings" true
       (fired <> [])
   | O.Cex { O.obligation = o; _ } ->
     Alcotest.failf "expected a safety cex, got %s" (O.obligation_label o)
   | O.Safe _ -> Alcotest.fail "reply-to-all must not certify");
  match
    O.check ra ~n:2
      { W.guard = W.Mode W.Is_eating;
        target = W.Any_peer;
        send = W.Send_request }
  with
  | O.Cex { O.obligation = O.Recovery _ | O.Progress; _ } -> ()
  | O.Cex { O.obligation = O.Safety; _ } ->
    Alcotest.fail "a never-firing-when-wedged candidate cannot break safety"
  | O.Safe _ -> Alcotest.fail "an eating-gated wrapper cannot unwedge"

(* -- the reusable checker ------------------------------------------- *)

(* At n=2 with recovery depth 4 these four candidates cover every
   verdict shape, also at [max_states] 1,500, where two safety legs
   stop at the bound. *)
let reuse_candidates =
  [ ("safe", W.w_refined);
    ( "safety",
      { W.guard = W.Mode W.Is_hungry; target = W.Any_peer; send = W.Send_reply } );
    ( "recovery(1)",
      { W.guard = W.Mode W.Is_hungry;
        target = W.Peer_lt_own;
        send = W.Send_reply } );
    ( "progress",
      { W.guard = W.Mode W.Is_thinking;
        target = W.Peer_lt_own;
        send = W.Send_request } ) ]

let verdict_label = function
  | O.Safe _ -> "safe"
  | O.Cex cex -> O.obligation_label cex.O.obligation

let test_reused_checker ~jobs ~shards ~mem_budget ~max_states () =
  (* one checker over a shuffled sequence with repeats: every verdict,
     stats included, must be a fresh oracle's *)
  let seq =
    let a = Array.of_list (reuse_candidates @ reuse_candidates) in
    let rng = Random.State.make [| 19 |] in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.to_list a
  in
  let checker =
    O.checker ra ~n:2 ~jobs ~shards ~recovery_depth:4 ~max_states ~mem_budget
      ~spill_dir ()
  in
  let verdicts =
    List.map
      (fun (label, c) ->
        let reused = checker c in
        let fresh =
          O.check ra ~n:2 ~jobs ~shards ~recovery_depth:4 ~max_states
            ~mem_budget ~spill_dir c
        in
        Alcotest.(check string) "verdict kind" label (verdict_label reused);
        Alcotest.(check bool)
          (Printf.sprintf "%s: reused checker == fresh oracle" label)
          true (reused = fresh);
        reused)
      seq
  in
  let stats =
    List.concat_map (function O.Safe s -> s | O.Cex c -> c.O.stats) verdicts
  in
  if mem_budget < max_int then
    Alcotest.(check bool) "spill engaged" true
      (List.exists (fun s -> s.Mcheck.spill_bytes > 0) stats);
  if max_states < 200_000 then
    Alcotest.(check bool) "a leg stopped at the bound" true
      (List.exists (fun s -> s.Mcheck.visited = max_states) stats)

let reuse_cases =
  List.concat_map
    (fun (jobs, shards) ->
      List.map
        (fun (what, mem_budget, max_states) ->
          Alcotest.test_case
            (Printf.sprintf "reused checker == fresh, jobs %d shards %d%s" jobs
               shards what)
            `Quick
            (test_reused_checker ~jobs ~shards ~mem_budget ~max_states))
        [ ("", max_int, 200_000);
          (", spill", 64, 200_000);
          (", near bound", max_int, 1_500) ])
    [ (1, 1); (2, 3) ]

(* -- DSL evaluation ------------------------------------------------- *)

let harvest_views () =
  (* views from a faulty wrapped run: covers all three modes and
     mutually-inconsistent timestamp states *)
  let r =
    S.run ra ~n:4 ~seed:7 ~steps:4000
      ~wrapper:(S.wrapped ~delta:4 ())
      ~faults:(S.burst ~at:800)
  in
  List.concat_map
    (fun snap -> Array.to_list snap.Sim.Trace.states)
    r.S.vtrace

(* The reference for [Wrapper.guard_holds]: the same semantics, with
   the quantifiers read as [List.exists] / [List.for_all] over the
   [Pid.others] list. *)
let rec reference_guard g (v : Graybox.View.t) ~timer ~peers =
  let peer_holds test k =
    match test with
    | W.Any_peer -> true
    | W.Peer_lt_own -> Graybox.View.earlier v ~than:v.req k
    | W.Own_lt_peer ->
      Clocks.Timestamp.lt v.req (Graybox.View.local_req v k)
  in
  match g with
  | W.Mode W.Is_thinking -> Graybox.View.thinking v
  | W.Mode W.Is_hungry -> Graybox.View.hungry v
  | W.Mode W.Is_eating -> Graybox.View.eating v
  | W.Timer_zero -> timer = 0
  | W.Not g -> not (reference_guard g v ~timer ~peers)
  | W.And (a, b) ->
    reference_guard a v ~timer ~peers && reference_guard b v ~timer ~peers
  | W.Or (a, b) ->
    reference_guard a v ~timer ~peers || reference_guard b v ~timer ~peers
  | W.Exists_peer t -> List.exists (peer_holds t) peers
  | W.Forall_peer t -> List.for_all (peer_holds t) peers

let test_guard_holds_reference () =
  let views = harvest_views () in
  let terms = Synth.candidates (Synth.config ()) in
  Alcotest.(check int) "the whole search space" 351 (List.length terms);
  Alcotest.(check bool) "harvested a real sample" true
    (List.length views > 100);
  let n = 4 in
  List.iter
    (fun (t : W.t) ->
      List.iter
        (fun (v : Graybox.View.t) ->
          let peers = Sim.Pid.others ~self:v.self ~n in
          List.iter
            (fun timer ->
              if
                W.guard_holds t.guard v ~timer ~n
                <> reference_guard t.guard v ~timer ~peers
              then
                Alcotest.failf "guard_holds disagrees on %s at timer %d"
                  (W.to_string t) timer)
            [ 0; 1 ])
        views)
    (W.w_timed :: terms)

let () =
  Alcotest.run "synth"
    [ ( "cegis",
        [ Alcotest.test_case "synthesizes w_refined" `Slow
            test_synthesizes_w_refined;
          Alcotest.test_case "matches the registered ra-synth term" `Slow
            test_matches_registered_term;
          Alcotest.test_case "transcript jobs-invariant" `Slow
            test_transcript_jobs_invariant;
          Alcotest.test_case "budget exhaustion is honest" `Quick
            test_budget_exhaustion_is_honest;
          Alcotest.test_case "a state-bound leg certifies nothing" `Quick
            test_state_bound_certifies_nothing;
          Alcotest.test_case "config bounds" `Quick test_config_bounds ] );
      ( "oracle",
        [ Alcotest.test_case "verdicts" `Quick test_oracle_verdicts;
          Alcotest.test_case "safe verdict differential" `Slow oracle_safe;
          Alcotest.test_case "cex differential" `Slow oracle_cex ]
        @ reuse_cases );
      ( "dsl",
        [ Alcotest.test_case "guard_holds == list reference" `Quick
            test_guard_holds_reference ] ) ]
