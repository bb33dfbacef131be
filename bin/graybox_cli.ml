(* Command-line driver for the graybox stabilization library.

     graybox-cli run   --protocol ra -n 4 --wrapper 8 --fault burst@1000
     graybox-cli load  --protocol ra --n 1000
     graybox-cli check --protocol lamport
     graybox-cli fig1
     graybox-cli rvc   --corrupt-at 500
     graybox-cli chaos --seeds 50 --budget 6 --json report.json
     graybox-cli protocols --json

   `run` simulates a scenario and prints the stabilization analysis
   (exit 1 when the run does not recover, so it works as a CI gate);
   `check` runs fault-free and prints the Lspec / TME_Spec monitor
   reports; `fig1` model-checks the paper's counterexample; `rvc`
   exercises the resettable-vector-clock case study; `chaos` sweeps
   randomized fault plans across protocols and wrapper modes, shrinks
   any failure to a minimal reproducer, and exits 1 when a wrapped run
   fails or an expected-failure baseline recovers; `protocols` lists
   the registry every subcommand resolves names against. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Fault plans: the labels chaos reports print (Chaos.Plan_gen)        *)

let fault_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Chaos.Plan_gen.parse s) in
  let print ppf plan = Format.pp_print_string ppf (Chaos.Plan_gen.plan_label plan) in
  Arg.conv (parse, print)

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)

(* Range-checked numbers: a value the libraries would reject fails at
   parse time, with cmdliner's usage exit (124) and a message, instead
   of as an uncaught Invalid_argument. *)
let bounded conv ~pp ~ok ~expect =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) ->
      Error (`Msg (Printf.sprintf "%s: need %s" s expect))
    | r -> r
  in
  Arg.conv (parse, pp)

let int_at_least lo =
  bounded Arg.int ~pp:Format.pp_print_int ~ok:(fun v -> v >= lo)
    ~expect:(Printf.sprintf "an integer >= %d" lo)

let int_between lo hi =
  bounded Arg.int ~pp:Format.pp_print_int
    ~ok:(fun v -> v >= lo && v <= hi)
    ~expect:(Printf.sprintf "an integer in %d..%d" lo hi)

let positive_float =
  bounded Arg.float ~pp:Format.pp_print_float ~ok:(fun v -> v > 0.)
    ~expect:"a number > 0"

(* Every protocol-naming subcommand resolves through the registry, so
   the accepted names, the default, and the error listing are all one
   table (see `graybox-cli protocols`).  Tme.Scenarios — linked into
   this binary — registers the implementations before main runs. *)
let default_protocol () =
  match Graybox.Registry.default_reference () with
  | Some e -> e.Graybox.Registry.name
  | None -> invalid_arg "no reference protocol registered"

let protocol_arg =
  let doc =
    Printf.sprintf "Protocol: %s."
      (String.concat ", " (Graybox.Registry.names ()))
  in
  Arg.(
    value
    & opt string (default_protocol ())
    & info [ "p"; "protocol" ] ~docv:"NAME" ~doc)

let n_arg =
  let doc = "Number of processes (at least 2)." in
  Arg.(value & opt (int_at_least 2) 4 & info [ "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed (equal seeds replay identical executions)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let steps_arg =
  let doc = "Scheduler steps to simulate (at least 1)." in
  Arg.(value & opt (int_at_least 1) 8000 & info [ "steps" ] ~docv:"STEPS" ~doc)

let wrapper_arg =
  let doc =
    "Wrapper timeout delta, at least 0; 0 is the paper's W, omit the flag \
     to run unwrapped."
  in
  Arg.(value & opt (some (int_at_least 0)) None
       & info [ "w"; "wrapper" ] ~docv:"DELTA" ~doc)

let unrefined_arg =
  let doc = "Use the unrefined wrapper (send to all peers)." in
  Arg.(value & flag & info [ "unrefined" ] ~doc)

let faults_arg =
  let doc =
    "Faults to inject (repeatable): one label or a space-separated plan, \
     as chaos reports print them, e.g. burst@1000, drop-requests@500-560, \
     'corrupt-state@700(p1) split@900-980({0,1}|{2,3},lossy)'."
  in
  Arg.(value & opt_all fault_conv [] & info [ "f"; "fault" ] ~docv:"SPEC" ~doc)

let resolve_entry name =
  match Graybox.Registry.find name with
  | Some e -> Ok e
  | None -> Error (Graybox.Registry.unknown_protocol_message name)

let resolve_protocol name =
  Result.map (fun e -> e.Graybox.Registry.proto) (resolve_entry name)

(* A registry capability gate: a subcommand or mode that the entry
   does not support fails before any work, naming the entries that do
   support it. *)
let require ~mode ~lacks ~names ~label ok (e : Graybox.Registry.entry) =
  if ok e then Ok e
  else
    Error
      (Printf.sprintf "%s: %S %s (%s: %s)" mode e.Graybox.Registry.name lacks
         label
         (String.concat ", " (names ())))

(* --jobs, for the subcommands that fan work over domains *)
let jobs_arg ?absent ?(default = 1) doc =
  Arg.(value & opt (int_at_least 1) default
       & info [ "j"; "jobs" ] ?absent ~docv:"JOBS" ~doc)

(* Wall-clock seconds of [f ()], for the human-readable rate lines
   only: no machine-readable output carries a time. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* --json FILE: the document and a newline, "-" for stdout *)
let write_json path doc =
  let s = Chaos.Jsonx.to_string doc in
  if path = "-" then print_endline s
  else begin
    let oc = open_out path in
    output_string oc s;
    output_char oc '\n';
    close_out oc
  end

(* --corrupt-at, on the case studies: a time inside the run, checked
   as `run -f` checks a fault's time — a negative one fails at parse
   time, one at or after --steps in [fits_run] *)
let corrupt_at_arg doc =
  Arg.(value & opt (int_at_least 0) 500 & info [ "corrupt-at" ] ~docv:"TIME" ~doc)

let fits_run ~steps at =
  if at < steps then Ok ()
  else
    Error
      (Printf.sprintf "--corrupt-at %d: starts at or after step %d, the run's end"
         at steps)

let wrapper_mode entry delta unrefined =
  match delta with
  | None -> Graybox.Harness.Off
  | Some delta when unrefined ->
    Tme.Scenarios.wrapped_term ~term:Graybox.Wrapper.w_unrefined ~delta ()
  | Some delta -> Tme.Scenarios.wrapped_entry entry ~delta

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let run_cmd =
  let action protocol n seed steps delta unrefined faults =
    let faults = List.concat faults in
    match
      Result.bind (Chaos.Plan_gen.check ~n ~steps faults) (fun () ->
          resolve_entry protocol)
    with
    | Error e -> `Error (false, e)
    | Ok entry ->
      (* analysed online by engine observers: no trace is recorded, and
         a permanently deadlocked run exits early *)
      let r =
        Tme.Scenarios.run entry.Graybox.Registry.proto ~n ~seed ~steps
          ~wrapper:(wrapper_mode entry delta unrefined)
          ~faults
      in
      Printf.printf "protocol          : %s\n" r.protocol;
      Format.printf "%a@." Graybox.Stabilize.pp r.analysis;
      Printf.printf "tail margin       : %d snapshots\n"
        r.analysis.Graybox.Stabilize.tail_margin;
      Printf.printf "CS entries        : %d\n" r.total_entries;
      Printf.printf "messages sent     : %d (wrapper: %d)\n" r.sent_total
        r.wrapper_sends;
      (match r.recovery_latency with
       | Some l -> Printf.printf "service round     : %d steps\n" l
       | None -> print_endline "service round     : incomplete");
      if r.sim_steps < r.steps then
        Printf.printf "early exit        : permanently quiescent at step %d/%d\n"
          r.sim_steps r.steps;
      (* one TME_Spec report: the classical clauses on a one-epoch
         timeline, one row per epoch otherwise *)
      (match r.epoch_spec.Graybox.Tme_spec.Epoch.rows with
       | [ _ ] ->
         print_endline "-- TME_Spec monitors --";
         print_endline
           (Unityspec.Report.to_string
              (Graybox.Tme_spec.Epoch.tme_report r.epoch_spec))
       | _ ->
         print_endline "-- Regime-epoch monitors --";
         Format.printf "%a@." Graybox.Tme_spec.Epoch.pp r.epoch_spec);
      (* exit nonzero on a non-recovering run so `run` can gate CI *)
      `Ok (if r.analysis.Graybox.Stabilize.recovered then 0 else 1)
  in
  let term =
    Term.(
      ret
        (const action $ protocol_arg $ n_arg $ seed_arg $ steps_arg
       $ wrapper_arg $ unrefined_arg $ faults_arg))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate a scenario and report stabilization")
    term

(* ------------------------------------------------------------------ *)
(* load                                                                *)

let load_cmd =
  let action protocol n seed rate requests max_steps =
    match resolve_protocol protocol with
    | Error e -> `Error (false, e)
    | Ok proto ->
      let rate =
        match rate with Some r -> r | None -> 0.2 /. float_of_int n
      in
      let max_steps =
        (* the default horizon scales with the request target: ~5*R*n
           steps to inject R requests at the default 0.2/n rate, plus
           a 400*n drain tail *)
        match max_steps with Some s -> s | None -> ((5 * requests) + 400) * n
      in
      let r, dt =
        timed (fun () ->
            Tme.Load.run proto ~n ~seed ~rate ~max_requests:requests
              ~max_steps ())
      in
      let ps = Tme.Load.percentiles r [ 50.; 99.; 99.9 ] in
      Printf.printf "protocol       : %s (n=%d, seed %d)\n" r.Tme.Load.protocol
        r.Tme.Load.n r.Tme.Load.seed;
      Printf.printf "arrival rate   : %g requests/step (open loop)\n"
        r.Tme.Load.rate;
      Printf.printf "steps          : %d (%.0f steps/sec)\n"
        r.Tme.Load.steps_run
        (float_of_int r.Tme.Load.steps_run /. dt);
      Printf.printf "requests       : %d injected, %d granted\n"
        r.Tme.Load.requests r.Tme.Load.grants;
      (match ps with
       | [ p50; p99; p999 ] when r.Tme.Load.grants > 0 ->
         Printf.printf
           "grant latency  : p50=%.0f p99=%.0f p99.9=%.0f steps (from \
            intended arrival)\n"
           p50 p99 p999
       | _ -> print_endline "grant latency  : no grants");
      (* exit nonzero when injected requests went ungranted within the
         horizon — the smoke gate for CI — or when the horizon ended
         before any request arrived, which leaves nothing checked *)
      if r.Tme.Load.requests = 0 then begin
        prerr_endline
          "graybox-cli: no request was injected within --max-steps; \
           nothing was checked";
        `Ok 1
      end
      else `Ok (if r.Tme.Load.grants = r.Tme.Load.requests then 0 else 1)
  in
  let n_arg =
    let doc = "Number of processes (at least 1)." in
    Arg.(value & opt (int_at_least 1) 100 & info [ "n" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc =
      "Arrival rate in requests per step across the system, above 0 \
       (default 0.2/n)."
    in
    Arg.(value & opt (some positive_float) None
         & info [ "rate" ] ~docv:"RATE" ~doc)
  in
  let requests_arg =
    let doc =
      "Stop injecting after this many requests.  The default is sized \
       so the p99.9 latency figure rests on real tail mass: at 80 \
       requests (the old default) p99 and p99.9 were the same order \
       statistic."
    in
    Arg.(value & opt (int_at_least 1) 2000 & info [ "requests" ] ~docv:"R" ~doc)
  in
  let max_steps_arg =
    let doc = "Step horizon, at least 1 (default (5*R+400)*n)." in
    Arg.(value & opt (some (int_at_least 1)) None
         & info [ "max-steps" ] ~docv:"STEPS" ~doc)
  in
  let term =
    Term.(
      ret
        (const action $ protocol_arg $ n_arg $ seed_arg $ rate_arg
       $ requests_arg $ max_steps_arg))
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive an open-loop Poisson workload and report throughput and \
          grant-latency percentiles")
    term

(* ------------------------------------------------------------------ *)
(* check                                                               *)

let check_cmd =
  let action protocol n seed steps =
    match resolve_protocol protocol with
    | Error e -> `Error (false, e)
    | Ok proto ->
      (* Lspec's clauses are checked over the recorded view trace *)
      let r = Tme.Scenarios.run proto ~n ~seed ~steps ~record:true in
      print_endline "-- Lspec clause monitors (fault-free run) --";
      print_endline (Unityspec.Report.to_string (Tme.Scenarios.lspec_report r));
      print_endline "";
      print_endline "-- TME_Spec monitors --";
      print_endline
        (Unityspec.Report.to_string
           (Graybox.Tme_spec.Epoch.tme_report r.epoch_spec));
      print_endline "";
      Printf.printf
        "(liveness clauses may be 'pending' at the trace tail: the run \
         simply ended mid-obligation)\n";
      `Ok 0
  in
  let term =
    Term.(ret (const action $ protocol_arg $ n_arg $ seed_arg $ steps_arg))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run fault-free and print specification-monitor reports")
    term

(* ------------------------------------------------------------------ *)
(* fig1                                                                *)

let fig1_cmd =
  let action () =
    let open Kernel in
    let yn b = if b then "yes" else "NO" in
    Printf.printf "[C => A]init            : %s\n"
      (yn (Tsys.implements_from_init Fig1.c Fig1.a));
    Printf.printf "[C => A]                : %s\n"
      (yn (Tsys.everywhere_implements Fig1.c Fig1.a));
    Printf.printf "A stabilizing to A      : %s\n"
      (yn (Tsys.is_stabilizing_to Fig1.a Fig1.a));
    Printf.printf "C stabilizing to A      : %s\n"
      (yn (Tsys.is_stabilizing_to Fig1.c Fig1.a));
    Printf.printf "Theorem 1 instance      : %s\n"
      (yn
         (Theorem1.check ~c:Theorem1.c ~a:Theorem1.a ~w:Theorem1.w
            ~w':Theorem1.w'));
    `Ok 0
  in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Model-check the paper's Figure 1 counterexample")
    Term.(ret (const action $ const ()))

(* ------------------------------------------------------------------ *)
(* rvc                                                                 *)

let rvc_cmd =
  let corrupt_at_arg =
    corrupt_at_arg "Corrupt every clock at this time, from 0 to below --steps."
  in
  let bound_arg =
    Arg.(value & opt (int_at_least 1) 60
         & info [ "bound" ] ~docv:"B" ~doc:"Component bound (at least 1).")
  in
  let no_wrapper_arg =
    Arg.(value & flag & info [ "no-wrapper" ] ~doc:"Disable the reset wrapper.")
  in
  let action n seed steps corrupt_at bound no_wrapper =
    match fits_run ~steps corrupt_at with
    | Error e -> `Error (false, e)
    | Ok () ->
      let o =
        Rvc.System.run ~corrupt_at
          { Rvc.System.n; bound; wrapper = not no_wrapper }
          ~seed ~steps
      in
      Printf.printf "recovered       : %b\n" o.Rvc.System.recovered;
      (match o.Rvc.System.recovery_steps with
       | Some s -> Printf.printf "recovery steps  : %d\n" s
       | None -> print_endline "recovery steps  : -");
      Printf.printf "wrapper resets  : %d\n" o.Rvc.System.resets;
      Printf.printf "ill-formed at end: %d\n" o.Rvc.System.ill_at_end;
      Printf.printf "final epoch     : %d\n" o.Rvc.System.final_epoch;
      Printf.printf "hb sound        : %b\n" o.Rvc.System.hb_sound;
      `Ok 0
  in
  let term =
    Term.(
      ret
        (const action $ n_arg $ seed_arg $ steps_arg $ corrupt_at_arg
       $ bound_arg $ no_wrapper_arg))
  in
  Cmd.v
    (Cmd.info "rvc" ~doc:"Run the resettable-vector-clock case study")
    term

(* ------------------------------------------------------------------ *)
(* kstate                                                              *)

let kstate_cmd =
  let k_arg =
    Arg.(value & opt int 6 & info [ "k" ] ~docv:"K" ~doc:"Counter domain size.")
  in
  let corrupt_at_arg =
    corrupt_at_arg "Scramble all counters at this time, from 0 to below --steps."
  in
  let action n seed steps k corrupt_at =
    if k < n + 1 then `Error (false, "need k >= n + 1")
    else
      match fits_run ~steps corrupt_at with
      | Error e -> `Error (false, e)
      | Ok () ->
        let o = Kstate.run ~corrupt_at ~n ~k ~seed ~steps () in
        Printf.printf "stabilized        : %b\n" (o.Kstate.stabilized_at <> None);
        (match o.Kstate.recovery_steps with
         | Some s -> Printf.printf "recovery steps    : %d\n" s
         | None -> print_endline "recovery steps    : -");
        Printf.printf "privileges at end : %d\n" o.Kstate.privileges_at_end;
        Printf.printf "privilege passes  : %d\n" o.Kstate.moves;
        `Ok 0
  in
  let term =
    Term.(
      ret (const action $ n_arg $ seed_arg $ steps_arg $ k_arg $ corrupt_at_arg))
  in
  Cmd.v
    (Cmd.info "kstate"
       ~doc:"Run Dijkstra's K-state ring (the whitebox contrast)")
    term

(* ------------------------------------------------------------------ *)
(* synth                                                               *)

let synth_cmd =
  let sy_n_arg =
    Arg.(value & opt (int_between 2 64) 2
         & info [ "n" ] ~docv:"N"
             ~doc:
               "Ring size the oracle certifies candidates at, 2-64 \
                (keep small: each check is an exhaustive exploration).")
  in
  let jobs_arg =
    jobs_arg
      "Pool width for fanning candidate checks.  The transcript and the \
       synthesized term are identical for every value."
  in
  let max_size_arg =
    Arg.(value & opt (int_at_least 3) 5
         & info [ "max-size" ] ~docv:"S"
             ~doc:"Largest wrapper-term AST size enumerated, at least 3.")
  in
  let max_checks_arg =
    Arg.(value & opt (int_at_least 1) 64
         & info [ "max-checks" ] ~docv:"K" ~doc:"Oracle-call budget.")
  in
  let safety_depth_arg =
    Arg.(value & opt (int_at_least 0) 8
         & info [ "safety-depth" ] ~docv:"D"
             ~doc:"BFS depth of the everywhere-mode safety leg.")
  in
  let recovery_depth_arg =
    Arg.(value & opt (int_at_least 0) 14
         & info [ "recovery-depth" ] ~docv:"D"
             ~doc:"BFS depth of the wedge recovery/progress legs.")
  in
  let max_states_arg =
    Arg.(value & opt (int_at_least 1) 200_000
         & info [ "max-states" ] ~docv:"K"
             ~doc:"Visited-state bound per oracle run.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:
               "Write the synthesis transcript as JSON (schema \
                graybox-synth/1); \"-\" for stdout.  Deterministic: no \
                timings, identical for every --jobs.")
  in
  let action protocol n jobs max_size max_checks safety_depth recovery_depth
      max_states json =
    match
      Result.bind (resolve_entry protocol)
        (require ~mode:"synth" ~lacks:"is not a synthesis target"
           ~label:"synthesizable" ~names:Graybox.Registry.synthesizable_names
           (fun e -> e.Graybox.Registry.synthesizable))
    with
    | Error e -> `Error (false, e)
    | Result.Ok entry ->
      let cfg =
        Synth.config ~n ~jobs ~max_size ~max_checks ~safety_depth
          ~recovery_depth ~max_states ()
      in
      let r, dt =
        timed (fun () -> Synth.synthesize entry.Graybox.Registry.proto cfg)
      in
      let term_size w = Graybox.Wrapper.size w in
      let matches =
        match r.Synth.synthesized with
        | Some w -> Graybox.Wrapper.equal w Graybox.Wrapper.w_refined
        | None -> false
      in
      (match json with
       | None -> ()
       | Some path ->
         let attempt_json (a : Synth.attempt) =
           Chaos.Jsonx.Obj
             [ ("index", Chaos.Jsonx.Int a.Synth.index);
               ( "term",
                 Chaos.Jsonx.String (Graybox.Wrapper.to_string a.Synth.term) );
               ("size", Chaos.Jsonx.Int (term_size a.Synth.term));
               ( "outcome",
                 Chaos.Jsonx.String (Synth.outcome_label a.Synth.outcome) ) ]
         in
         let doc =
           Chaos.Jsonx.Obj
             (* --jobs is deliberately not echoed: the document must be
                byte-identical for every pool width *)
             [ ("schema", Chaos.Jsonx.String "graybox-synth/1");
               ("protocol", Chaos.Jsonx.String protocol);
               ("n", Chaos.Jsonx.Int n);
               ( "budget",
                 Chaos.Jsonx.Obj
                   [ ("max_size", Chaos.Jsonx.Int max_size);
                     ("max_checks", Chaos.Jsonx.Int max_checks);
                     ("safety_depth", Chaos.Jsonx.Int safety_depth);
                     ("recovery_depth", Chaos.Jsonx.Int recovery_depth);
                     ("max_states", Chaos.Jsonx.Int max_states) ] );
               ( "synthesized",
                 match r.Synth.synthesized with
                 | Some w ->
                   Chaos.Jsonx.String (Graybox.Wrapper.to_string w)
                 | None -> Chaos.Jsonx.Null );
               ( "synthesized_size",
                 match r.Synth.synthesized with
                 | Some w -> Chaos.Jsonx.Int (term_size w)
                 | None -> Chaos.Jsonx.Null );
               ("matches_handwritten", Chaos.Jsonx.Bool matches);
               ("enumerated", Chaos.Jsonx.Int r.Synth.enumerated);
               ("checked", Chaos.Jsonx.Int r.Synth.checked);
               ("pruned", Chaos.Jsonx.Int r.Synth.pruned);
               ("oracle_runs", Chaos.Jsonx.Int r.Synth.oracle_runs);
               ("oracle_states", Chaos.Jsonx.Int r.Synth.oracle_states);
               ( "attempts",
                 Chaos.Jsonx.List (List.map attempt_json r.Synth.attempts) )
             ]
         in
         write_json path doc;
         if path <> "-" then Printf.eprintf "wrote %s\n%!" path);
      let t =
        Stdext.Tabular.create [ "#"; "size"; "outcome"; "candidate" ]
      in
      List.iter
        (fun (a : Synth.attempt) ->
          Stdext.Tabular.add_row t
            [ Stdext.Tabular.cell_int a.Synth.index;
              Stdext.Tabular.cell_int (term_size a.Synth.term);
              Synth.outcome_label a.Synth.outcome;
              Graybox.Wrapper.to_string a.Synth.term ])
        r.Synth.attempts;
      Stdext.Tabular.print
        ~title:
          (Printf.sprintf
             "CEGIS transcript: %s, n=%d (%d candidates in space, %d \
              oracle checks, %d pruned, %d oracle runs, %d states, %.2fs)"
             protocol n r.Synth.enumerated r.Synth.checked r.Synth.pruned
             r.Synth.oracle_runs r.Synth.oracle_states dt)
        t;
      (match r.Synth.synthesized with
       | Some w ->
         Printf.printf
           "synthesized (size %d): %s\n\
            matches the hand-written refined W: %b\n"
           (term_size w)
           (Graybox.Wrapper.to_string w)
           matches;
         `Ok 0
       | None ->
         let inconclusive =
           List.length
             (List.filter
                (fun (a : Synth.attempt) ->
                  a.Synth.outcome = Synth.Inconclusive)
                r.Synth.attempts)
         in
         if inconclusive > 0 then
           Printf.printf
             "no candidate certified within the budget: %d of %d oracle \
              checks stopped at --max-states %d without closing the search \
              (raise --max-states)\n"
             inconclusive r.Synth.checked max_states
         else
           print_endline
             "no candidate certified within the budget (raise --max-size or \
              --max-checks)";
         `Ok 1)
  in
  let term =
    Term.(
      ret
        (const action $ protocol_arg $ sy_n_arg $ jobs_arg $ max_size_arg
       $ max_checks_arg $ safety_depth_arg $ recovery_depth_arg
       $ max_states_arg $ json_arg))
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Synthesize a level-2 wrapper by CEGIS: enumerate guard terms in \
          size order, prune with counterexamples, certify against the \
          model-checking oracle")
    term

(* ------------------------------------------------------------------ *)
(* mcheck                                                              *)

let mcheck_cmd =
  let depth_arg =
    Arg.(value & opt (int_at_least 0) 20
         & info [ "depth" ] ~docv:"D" ~doc:"BFS depth bound.")
  in
  let mc_n_arg =
    Arg.(value & opt (int_between 1 64) 2 & info [ "n" ] ~docv:"N"
           ~doc:"Number of processes, 1-64 (keep small: exhaustive search).")
  in
  let jobs_arg =
    jobs_arg
      "Worker domains for frontier expansion.  Every value returns \
       identical results."
  in
  let max_states_arg =
    Arg.(value & opt (int_at_least 1) 200_000
         & info [ "max-states" ] ~docv:"K"
             ~doc:"Hard bound on the visited-state set.")
  in
  let shards_arg =
    Arg.(value & opt (some (int_between 1 64)) None
         & info [ "shards" ] ~docv:"S"
             ~doc:
               "Visited-set shards, 1-64 (default: min(JOBS, 64)).  Every \
                value returns identical results.")
  in
  let mem_budget_arg =
    Arg.(value & opt (some (int_at_least 1)) None
         & info [ "mem-budget" ] ~docv:"WORDS"
             ~doc:
               "Resident visited-key budget in words; beyond it, key \
                arenas spill to temp files and the search keeps going \
                out-of-core.  Default: unlimited (never spill).")
  in
  let spill_dir_arg =
    Arg.(value & opt (some dir) None
         & info [ "spill-dir" ] ~docv:"DIR"
             ~doc:
               "Existing directory for spill files (default: the system \
                temp dir).  Files are removed when the search finishes.")
  in
  let por_arg =
    Arg.(value & flag
         & info [ "por" ]
             ~doc:
               "Partial-order reduction: at states with a quiet receiver, \
                explore only its deliveries.  Same verdict, fewer states; \
                only por-safe protocols accept it (see `graybox-cli \
                protocols`).")
  in
  let everywhere_arg =
    Arg.(value & flag
         & info [ "everywhere" ]
             ~doc:
               "Also seed the frontier with perturbed states (corrupted \
                processes, arbitrary in-flight messages): check the \
                invariant from everywhere, not just from Init.")
  in
  let action protocol n depth jobs shards max_states mem_budget spill_dir por
      everywhere =
    match
      Result.bind (resolve_entry protocol)
        (require ~mode:"--por" ~lacks:"keeps exhaustive semantics"
           ~label:"por-safe" ~names:Graybox.Registry.por_safe_names (fun e ->
             (not por) || e.Graybox.Registry.por_safe))
    with
    | Error e -> `Error (false, e)
    | Result.Ok entry ->
      let proto = entry.Graybox.Registry.proto in
      let mem_budget = Option.value mem_budget ~default:max_int in
      let result, dt =
        timed (fun () ->
            if everywhere then
              Mcheck.check_me1_everywhere proto ~n ~jobs ?shards
                ~max_depth:depth ~max_states ~mem_budget ?spill_dir ~por ()
            else
              Mcheck.check_me1 proto ~n ~jobs ?shards ~max_depth:depth
                ~max_states ~mem_budget ?spill_dir ~por ())
      in
      let print_stats (s : Mcheck.stats) =
        Printf.printf
          "  invariant       : %s (%s mode%s)\n\
          \  states explored : %d\n\
          \  states visited  : %d\n\
          \  depth reached   : %d (truncated: %b)\n\
          \  peak memory     : %d words resident, %d bytes spilled\n\
          \  throughput      : %.0f states/s (%.3fs, %d job%s)\n"
          s.Mcheck.name
          (if everywhere then "everywhere" else "init")
          (if por then ", por" else "")
          s.Mcheck.explored s.Mcheck.visited s.Mcheck.depth_reached
          s.Mcheck.truncated s.Mcheck.peak_mem_words s.Mcheck.spill_bytes
          (float_of_int s.Mcheck.explored /. dt)
          dt jobs
          (if jobs = 1 then "" else "s")
      in
      (match result with
       | Mcheck.Ok stats ->
         Printf.printf "safe: no %s violation under any schedule within depth %d\n"
           stats.Mcheck.name depth;
         print_stats stats;
         `Ok 0
       | Mcheck.Violation { trace; stats; _ } ->
         Printf.printf "VIOLATION (%s) after exploring %d states:\n  %s\n"
           stats.Mcheck.name stats.Mcheck.explored
           (String.concat "\n  " trace);
         print_stats stats;
         `Ok 1)
  in
  let term =
    Term.(
      ret
        (const action $ protocol_arg $ mc_n_arg $ depth_arg $ jobs_arg
       $ shards_arg $ max_states_arg $ mem_budget_arg $ spill_dir_arg
       $ por_arg $ everywhere_arg))
  in
  Cmd.v
    (Cmd.info "mcheck"
       ~doc:
         "Exhaustively model-check mutual exclusion under every schedule \
          (try --protocol ra-mutant, and --everywhere to start from \
          perturbed states)")
    term

(* ------------------------------------------------------------------ *)
(* protocols                                                           *)

let protocols_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the registry as machine-readable JSON on stdout.")
  in
  (* one (JSON key, table column, value) per field; a field without a
     column is JSON-only *)
  let fields =
    let open Graybox.Registry in
    let open Chaos.Jsonx in
    [ ("name", Some "name", fun e -> String e.name);
      ("role", Some "role", fun e -> String (role_label e.role));
      ( "expect",
        Some "expect",
        fun e -> String (expectation_label e.expectation) );
      ( "partition_expect",
        Some "partition",
        fun e -> String (partition_expectation_label e.partition_expectation) );
      ( "during_partition",
        Some "during",
        fun e -> String (during_partition_label e.during_partition) );
      ("default_delta", Some "delta", fun e -> Int e.default_delta);
      ("lspec_monitorable", Some "lspec", fun e -> Bool e.lspec_monitorable);
      ("por_safe", Some "por", fun e -> Bool e.por_safe);
      ("synthesizable", Some "synth", fun e -> Bool e.synthesizable);
      ( "wrapper_term",
        None,
        fun e ->
          match e.wrapper_term with
          | Some w -> String (Graybox.Wrapper.to_string w)
          | None -> Null );
      ("sweep_rank", Some "sweep", fun e -> of_int_option e.sweep_rank);
      ("doc", Some "description", fun e -> String e.doc) ]
  in
  let cell = function
    | Chaos.Jsonx.String s -> s
    | Chaos.Jsonx.Int i -> Stdext.Tabular.cell_int i
    | Chaos.Jsonx.Bool b -> Stdext.Tabular.cell_bool b
    | _ -> "-"
  in
  let action json =
    let entries = Graybox.Registry.all () in
    if json then
      let entry e =
        Chaos.Jsonx.Obj (List.map (fun (key, _, v) -> (key, v e)) fields)
      in
      write_json "-"
        (Chaos.Jsonx.Obj
           [ ("schema", Chaos.Jsonx.String "graybox-protocols/5");
             ("protocols", Chaos.Jsonx.List (List.map entry entries)) ])
    else begin
      let t =
        Stdext.Tabular.create
          (List.filter_map (fun (_, column, _) -> column) fields)
      in
      List.iter
        (fun e ->
          Stdext.Tabular.add_row t
            (List.filter_map
               (fun (_, column, value) ->
                 Option.map (fun _ -> cell (value e)) column)
               fields))
        entries;
      Stdext.Tabular.print
        ~title:
          "protocol registry (expect gates wrapped chaos cells; partition \
           gates the --partitions heal cells; during gates the during-split \
           cells; sweep = default campaign order)"
        t
    end;
    `Ok 0
  in
  Cmd.v
    (Cmd.info "protocols"
       ~doc:
         "List the protocol registry: roles, chaos expectations, wrapper \
          defaults, and capabilities")
    Term.(ret (const action $ json_arg))

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)

let chaos_cmd =
  let seeds_arg =
    Arg.(
      value & opt int 50
      & info [ "seeds" ] ~docv:"K" ~doc:"Random fault plans per cell.")
  in
  let budget_arg =
    Arg.(
      value & opt int 6
      & info [ "budget" ] ~docv:"B" ~doc:"Fault events per plan.")
  in
  let chaos_steps_arg =
    Arg.(
      value & opt int 4000
      & info [ "steps" ] ~docv:"STEPS" ~doc:"Scheduler steps per run.")
  in
  let delta_arg =
    Arg.(
      value & opt (int_at_least 0) 8
      & info [ "w"; "wrapper" ] ~docv:"DELTA"
          ~doc:"Wrapper timeout delta for the wrapped cells, at least 0.")
  in
  let protocols_arg =
    Arg.(
      value
      & opt (list string) Chaos.Campaign.default_protocols
      & info [ "protocols" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated protocols to sweep (any registered name, see \
             `graybox-cli protocols`); each gets a wrapped and an \
             unwrapped cell.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the machine-readable report to $(docv); - is stdout.")
  in
  let no_unwrapped_arg =
    Arg.(
      value & flag
      & info [ "no-unwrapped" ] ~doc:"Skip the unwrapped baseline cells.")
  in
  let no_canary_arg =
    Arg.(
      value & flag
      & info [ "no-canary" ]
          ~doc:"Skip the deterministic unwrapped \u{00a7}4 deadlock canary.")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report failures without shrinking them.")
  in
  let jobs_arg =
    jobs_arg ~absent:"the number of cores"
      ~default:(Stdext.Pool.default_jobs ())
      "Worker domains for the sweep.  The report is identical for every \
       value; $(docv) = 1 runs serially."
  in
  let partitions_arg =
    Arg.(
      value & flag
      & info [ "partitions" ]
          ~doc:
            "Sweep the partition fault family too: plans may contain \
             healing group partitions and link delays, and every protocol \
             gains split-lossy / split-buf cells gated by its registry \
             partition expectation.")
  in
  let action seed seeds budget n steps delta protocols json no_unwrapped
      no_canary no_shrink jobs partitions =
    try
      let cfg =
        Chaos.Campaign.config ~base_seed:seed ~seeds ~budget ~n ~steps ~delta
          ~protocols ~include_unwrapped:(not no_unwrapped)
          ~deadlock_canary:(not no_canary) ~shrink:(not no_shrink) ~jobs
          ~partitions ()
      in
      let report = Chaos.Campaign.run cfg in
      Stdext.Tabular.print
        ~title:
          (Printf.sprintf
             "chaos campaign: %d plans/cell x %d events/plan (seed %d, n=%d, \
              %d steps)"
             seeds budget seed n steps)
        (Chaos.Campaign.summary_table report);
      print_newline ();
      if Chaos.Campaign.has_during_cells report then begin
        Stdext.Tabular.print ~title:"during-partition availability"
          (Chaos.Campaign.during_table report);
        print_newline ()
      end;
      List.iter
        (fun cx ->
          Format.printf "%a@.@." (Chaos.Campaign.pp_counterexample cfg) cx)
        report.Chaos.Campaign.counterexamples;
      (match json with
       | None -> ()
       | Some file ->
         write_json file (Chaos.Campaign.to_json report);
         Printf.printf "json report       : %s\n" file);
      Printf.printf "scenario runs     : %d for %d rows\n"
        report.Chaos.Campaign.scenario_runs
        (List.fold_left
           (fun acc c -> acc + List.length c.Chaos.Campaign.rows)
           0 report.Chaos.Campaign.cells);
      Printf.printf "campaign gate     : %s\n"
        (if report.Chaos.Campaign.gate_ok then "ok" else "FAILED");
      `Ok (if report.Chaos.Campaign.gate_ok then 0 else 1)
    with
    | Chaos.Campaign.Unknown_protocol name ->
      `Error (false, Graybox.Registry.unknown_protocol_message name)
    | Invalid_argument msg | Sys_error msg -> `Error (false, msg)
  in
  let term =
    Term.(
      ret
        (const action $ seed_arg $ seeds_arg $ budget_arg $ n_arg
       $ chaos_steps_arg $ delta_arg $ protocols_arg $ json_arg
       $ no_unwrapped_arg $ no_canary_arg $ no_shrink_arg $ jobs_arg
       $ partitions_arg))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a randomized fault campaign across protocols and wrapper \
          modes, shrink failures to minimal reproducers, and gate on the \
          stabilization property")
    term

let () =
  let doc = "graybox stabilization wrappers for distributed mutual exclusion" in
  let info = Cmd.info "graybox-cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd; load_cmd; check_cmd; fig1_cmd; rvc_cmd; kstate_cmd;
            synth_cmd; mcheck_cmd; chaos_cmd; protocols_cmd ]))
