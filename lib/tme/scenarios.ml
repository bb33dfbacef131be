module H = Graybox.Harness

type fault_spec =
  | Drop_requests of { at : int; per_chan : int }
  | Drop_requests_window of { from_t : int; until_t : int }
  | Drop_any of { at : int; per_chan : int }
  | Duplicate of { at : int; per_chan : int }
  | Corrupt_messages of { at : int; per_chan : int }
  | Reorder of { at : int; per_chan : int }
  | Flush of { at : int }
  | Partition of { pid : Sim.Pid.t; from_t : int; until_t : int }
  | Corrupt_state of { at : int; procs : Sim.Faults.proc_selector }
  | Reset_state of { at : int; procs : Sim.Faults.proc_selector }
  | Crash of
      { procs : Sim.Faults.proc_selector;
        from_t : int;
        until_t : int;
        lose : bool }
  | Split of
      { groups : Sim.Pid.t list list;
        from_t : int;
        until_t : int;
        mode : Sim.Faults.heal_mode }
  | Delay of { at : int; chan : Sim.Faults.chan_selector; dist : Sim.Faults.delay_dist }

let burst ~at =
  [ Corrupt_state { at; procs = Sim.Faults.Any_proc };
    Corrupt_messages { at; per_chan = 2 };
    Drop_any { at; per_chan = 1 } ]

type result = {
  protocol : string;
  n : int;
  seed : int;
  steps : int;
  wrapper : H.wrapper_mode;
  vtrace : (Graybox.View.t, Graybox.Msg.t) Sim.Trace.t;
  entry_log : H.entry_record list;
  total_entries : int;
  analysis : Graybox.Stabilize.analysis;
  recovery_latency : int option;
  epoch_spec : Graybox.Tme_spec.Epoch.report;
  sent_total : int;
  wrapper_sends : int;
  protocol_sends : int;
  delivered : int;
  sim_steps : int;
}

let run ?(wrapper = H.Off) ?(faults = []) ?(record = false) ?(streaming = true)
    ?tail_margin ?(passive = []) (module P : Graybox.Protocol.S) ~n ~seed
    ~steps =
  let module Run = H.Make (P) in
  let params = H.params ~wrapper ~passive ~n () in
  let engine = Run.make_engine params ~seed in
  let lower = function
    | Drop_requests { at; per_chan } ->
      [ Sim.Faults.at at
          (Run.fault_drop_requests Sim.Faults.Any_chan ~count:per_chan) ]
    | Drop_requests_window { from_t; until_t } ->
      List.init
        (max 0 (until_t - from_t + 1))
        (fun i ->
          Sim.Faults.at (from_t + i)
            (Run.fault_drop_requests Sim.Faults.Any_chan ~count:max_int))
    | Drop_any { at; per_chan } ->
      [ Sim.Faults.at at (Run.fault_drop_any Sim.Faults.Any_chan ~count:per_chan) ]
    | Duplicate { at; per_chan } ->
      [ Sim.Faults.at at (Run.fault_duplicate Sim.Faults.Any_chan ~count:per_chan) ]
    | Corrupt_messages { at; per_chan } ->
      [ Sim.Faults.at at
          (Run.fault_corrupt_messages params Sim.Faults.Any_chan ~count:per_chan) ]
    | Reorder { at; per_chan } ->
      [ Sim.Faults.at at (Run.fault_reorder Sim.Faults.Any_chan ~count:per_chan) ]
    | Flush { at } -> [ Sim.Faults.at at (Run.fault_flush Sim.Faults.Any_chan) ]
    | Partition { pid; from_t; until_t } ->
      List.concat
        (List.init
           (max 0 (until_t - from_t + 1))
           (fun i ->
             [ Sim.Faults.at (from_t + i)
                 (Run.fault_drop_any (Sim.Faults.From pid) ~count:max_int);
               Sim.Faults.at (from_t + i)
                 (Run.fault_drop_any (Sim.Faults.Into pid) ~count:max_int) ]))
    | Corrupt_state { at; procs } ->
      [ Sim.Faults.at at (Run.fault_corrupt_process procs) ]
    | Reset_state { at; procs } ->
      [ Sim.Faults.at at (Run.fault_reset_process params procs) ]
    | Crash { procs; from_t; until_t; lose } ->
      [ Sim.Faults.at from_t
          (Sim.Faults.Crash { proc = procs; until_t; lose_deliveries = lose }) ]
    | Split { groups; from_t; until_t; mode } ->
      (* the Heal marker re-bases recovery-latency measurement at the
         heal step: [Stabilize.last_fault_index] finds it as the last
         Fault event, so latency is counted from the heal, not from
         the moment the partition began *)
      [ Sim.Faults.at from_t (Sim.Faults.Split { groups; from_t; until_t; mode });
        Sim.Faults.at until_t Sim.Faults.Heal ]
    | Delay { at; chan; dist } ->
      [ Sim.Faults.at at (Sim.Faults.Delay { chan; dist }) ]
  in
  let plan = List.concat_map lower faults in
  (* regime epochs: the piecewise-constant topology this plan induces.
     A plan without effective split/crash windows has the one-epoch
     trivial timeline, on which the epoch fold is the classical
     TME_Spec and no extra fault events are planned. *)
  let timeline = Sim.Regime.of_plan ~n plan in
  let plan =
    (* the group membership service: membership-aware protocols hear
       about every topology change via [on_view_change].  Appended
       after the base plan so same-time events fire after the
       Split/Heal that caused them; classical protocols get no events
       and keep their exact pre-GMS plans. *)
    if Sim.Regime.nontrivial timeline && P.membership_aware then
      plan
      @ (Sim.Regime.epochs timeline
        |> List.filter (fun (t : Sim.Regime.topo) -> t.Sim.Regime.since > 0)
        |> List.map (fun topo ->
               Sim.Faults.at topo.Sim.Regime.since
                 (Run.fault_view_change
                    ~members_of:(fun self ->
                      Sim.Regime.group_members topo self))))
    else plan
  in
  (* Every verdict comes from two folds: [Stabilize.Online] (the
     analysis and the recovery latency) and [Tme_spec.Epoch] (ME1-ME3
     per epoch).  One observer keeps the spec-level projection (views,
     oracle request stamps) current — only the process an event
     touched is re-projected — and fans each step out to both folds
     and the entry stream.  A bare run attaches none and reports
     empty verdicts. *)
  let ol = Graybox.Stabilize.Online.create ?tail_margin () in
  let em = Graybox.Tme_spec.Epoch.create ~n ~timeline in
  let entries = ref [] in
  let stuttering = ref false in
  let feed ~time ~fault ~repeat views =
    Graybox.Stabilize.Online.feed ol ~time ~fault ~repeat views;
    Graybox.Tme_spec.Epoch.feed em ~time ~repeat views
  in
  if streaming then begin
    let nodes0 = Run.Run.states engine in
    let views = Array.map Run.view nodes0 in
    let req_vcs = Array.map (fun (nd : Run.node) -> nd.Run.req_vc) nodes0 in
    (* whether the step being observed moved some process's mode: a
       snapshot that moved none is fed to the folds as a repeat *)
    let moved = ref false in
    let refresh (nodes : Run.node array) p =
      let before = views.(p).Graybox.View.mode in
      views.(p) <- Run.view nodes.(p);
      req_vcs.(p) <- nodes.(p).Run.req_vc;
      if views.(p).Graybox.View.mode <> before then moved := true
    in
    let on_step (s : (Run.node, Run.envelope) Sim.Observer.step) =
      let nodes = s.Sim.Observer.states in
      moved := false;
      (match s.Sim.Observer.event with
       | Sim.Trace.Init ->
         for p = 0 to n - 1 do refresh nodes p done;
         moved := true
       | Sim.Trace.Deliver { dst; _ } -> refresh nodes dst
       | Sim.Trace.Internal { pid; label } ->
         if label = "enter-cs" then begin
           (* the arrays still hold the pre-step projection: the
              request this entry served *)
           let e =
             { H.entry_time = s.Sim.Observer.time;
               entry_pid = pid;
               entry_req = views.(pid).Graybox.View.req;
               entry_req_vc = req_vcs.(pid) }
           in
           entries := e :: !entries;
           Graybox.Tme_spec.Epoch.feed_entry em ~time:s.Sim.Observer.time e
         end;
         refresh nodes pid
       | Sim.Trace.Fault _ ->
         for p = 0 to n - 1 do refresh nodes p done
       | Sim.Trace.Stutter -> ());
      let fault, stutter =
        match s.Sim.Observer.event with
        | Sim.Trace.Fault _ -> (true, false)
        | Sim.Trace.Stutter -> (false, true)
        | _ -> (false, false)
      in
      stuttering := stutter;
      feed ~time:s.Sim.Observer.time ~fault ~repeat:(not !moved) views
    in
    Run.Run.add_observer engine on_step
  end;
  let trace = if record then Run.Run.recorder engine else fun () -> [] in
  if streaming && not record then begin
    (* A stutter with no crash window left is permanent: exit early
       and feed the remaining horizon synthetically — repeats of the
       last snapshot — so the verdicts stay byte-identical to the
       full run at a fraction of the cost.  A recorded run keeps its
       trace to the horizon instead. *)
    let stop eng = !stuttering && Run.Run.quiescent eng in
    match Run.Run.run_until ~plan ~max_steps:steps ~stop engine with
    | None -> ()
    | Some exit_time ->
      let views = Run.views engine in
      for time = exit_time + 1 to steps do
        feed ~time ~fault:false ~repeat:true views
      done
  end
  else Run.Run.run ~plan ~steps engine;
  let metrics = Run.Run.metrics engine in
  let wrapper_sends =
    Sim.Metrics.sends_with_label metrics Graybox.Wrapper.action_label
  in
  let sent_total = Sim.Metrics.sent metrics in
  { protocol = P.name;
    n;
    seed;
    steps;
    wrapper;
    vtrace = Run.view_trace (trace ());
    entry_log = List.rev !entries;
    total_entries = Run.total_entries engine;
    analysis = Graybox.Stabilize.Online.analysis ol;
    recovery_latency = Graybox.Stabilize.Online.latency ol;
    epoch_spec = Graybox.Tme_spec.Epoch.report em;
    sent_total;
    wrapper_sends;
    protocol_sends = sent_total - wrapper_sends;
    delivered = Sim.Metrics.delivered metrics;
    sim_steps = Run.Run.time engine }

let lspec_report r =
  match r.vtrace with
  | [] ->
    (* an empty trace would vacuously satisfy every clause *)
    invalid_arg "Scenarios.lspec_report: the run kept no trace (use ~record:true)"
  | tr -> Graybox.Lspec.check_all ~n:r.n tr

(* The registration site: the one place that knows which
   implementations exist.  Names are read off the modules themselves
   (each name literal lives only where the protocol is defined), and
   everything downstream — campaign sweeps, the CLI resolver, the
   bench harness — dispatches through {!Graybox.Registry} queries.
   Registration order is the listing order; the first [Reference] is
   the canonical demo protocol. *)
let () =
  let open Graybox.Registry in
  List.iter register
    [ entry
        (module Ra_me : Graybox.Protocol.S)
        ~sweep_rank:1
        ~doc:"Ricart-Agrawala, deferred replies: the running everywhere-implementation";
      entry
        (module Gcl.Ra_gcl : Graybox.Protocol.S)
        ~doc:"RA transliterated onto the guarded-command store";
      entry
        (module Lamport_me : Graybox.Protocol.S)
        ~sweep_rank:0
        ~doc:"Lamport's queue algorithm with the paper's three modifications";
      entry
        (module Lamport_unmodified : Graybox.Protocol.S)
        ~role:Negative_control ~sweep_rank:2 ~during_partition:Wedge
          (* its failure mode is deadlock, which is epoch-safe: during a
             split it wedges rather than dual-entering, unlike ra-mutant
             whose reply-while-eating fires in any epoch *)
        ~doc:"Lamport's original program: implements Lspec from Init only";
      entry
        (module Lamport_ablation.M1 : Graybox.Protocol.S)
        ~role:Ablation
        ~doc:"Lamport + modification 1 only (dedup queue insert)";
      entry
        (module Lamport_ablation.M12 : Graybox.Protocol.S)
        ~role:Ablation
        ~doc:"Lamport + modifications 1+2 (entry on own request <= head)";
      entry
        (module Central_me : Graybox.Protocol.S)
        ~lspec_monitorable:false
        ~doc:"central-coordinator baseline (coordinator is outside Lspec)";
      entry
        (module Ra_mutant : Graybox.Protocol.S)
        ~role:Negative_control
        ~doc:"RA replying while eating: the checker-validation safety mutant";
      entry
        (module Ra_lease.Lease : Graybox.Protocol.S)
        ~during_partition:Weak_me1
        ~doc:"RA with membership-leased grants: serves per-group during splits";
      entry
        (module Ra_lease.Stale : Graybox.Protocol.S)
        ~role:Negative_control ~expectation:Observe
        ~partition_expectation:Partition_observe
        ~doc:"ra-lease that never un-suspects: post-heal split-brain control";
      entry
        (module Ra_synth : Graybox.Protocol.S)
        ~role:Synthesized ~wrapper_term:Ra_synth.wrapper_term
        ~doc:"RA under the CEGIS-synthesized wrapper term (see Synth)" ]

let find_protocol = Graybox.Registry.find_protocol

let wrapped_term ~term ~delta () = H.On { term; delta }

let wrapped ~delta () = wrapped_term ~term:Graybox.Wrapper.w_refined ~delta ()

let wrapped_entry (e : Graybox.Registry.entry) ~delta =
  match e.Graybox.Registry.wrapper_term with
  | None -> wrapped ~delta ()
  | Some term -> wrapped_term ~term ~delta ()
