(* Online monitoring: watch a wrapped system break and heal, live.

   Instead of recording a trace and checking it afterwards, this
   example attaches an engine observer that feeds each global view
   snapshot to the two folds every scenario run reports from:
   Tme_spec.Epoch (TME_Spec; ME1 is read here) and Stabilize.Online
   (the stabilization analysis).  Mutual exclusion is violated moments
   after the fault, and the fold itself names the violating snapshot;
   a fresh pair of folds started after recovery stays clean.

   Run with:  dune exec examples/monitoring.exe *)

module P = Tme.Ra_me
module H = Graybox.Harness.Make (P)
module Epoch = Graybox.Tme_spec.Epoch
module Online = Graybox.Stabilize.Online

let n = 4

type folds = { spec : Epoch.t; stab : Online.t }

let fresh () =
  { spec = Epoch.create ~n ~timeline:(Sim.Regime.trivial ~n);
    stab = Online.create () }

(* ME1 of a one-epoch report is its single row's verdict *)
let me1 folds =
  match (Epoch.report folds.spec).Epoch.rows with
  | [ row ] -> row.Epoch.me1
  | _ -> invalid_arg "me1: not a one-epoch report"

let () =
  let params =
    Graybox.Harness.params
      ~wrapper:(Graybox.Harness.On { term = Graybox.Wrapper.w_refined; delta = 4 })
      ~n ()
  in
  let engine = H.make_engine params ~seed:12 in
  let live = ref (fresh ()) in
  H.Run.add_observer engine (fun (s : (H.node, H.envelope) Sim.Observer.step) ->
      let views = Array.map H.view s.Sim.Observer.states in
      let time = s.Sim.Observer.time in
      let fault =
        match s.Sim.Observer.event with Sim.Trace.Fault _ -> true | _ -> false
      in
      Epoch.feed !live.spec ~time ~repeat:false views;
      Online.feed !live.stab ~time ~fault ~repeat:false views);
  let corrupt_time = 600 in
  H.Run.run engine ~steps:6000
    ~plan:
      [ Sim.Faults.at corrupt_time (H.fault_corrupt_process Sim.Faults.Any_proc) ];
  (match me1 !live with
   | Unityspec.Temporal.Violated { at; _ } ->
     Printf.printf
       "ME1 violated at snapshot %d (fault was injected at engine time %d):\n\
        the corruption made two processes believe they were earliest.\n"
       at corrupt_time
   | _ ->
     Printf.printf
       "This corruption draw did not produce a double-entry (ME1 held \
        throughout).\n");
  let a = Online.analysis !live.stab in
  Printf.printf "Stabilization analysis: recovered %b, %s steps after the fault\n"
    a.Graybox.Stabilize.recovered
    (match a.Graybox.Stabilize.recovery_steps with
     | Some s -> string_of_int s
     | None -> "-");

  (* a fresh pair of folds over the post-recovery period must stay clean *)
  live := fresh ();
  H.Run.run engine ~steps:4000;
  Printf.printf "Post-recovery ME1 verdict over 4000 further steps: %s\n"
    (Format.asprintf "%a" Unityspec.Temporal.pp_verdict (me1 !live));
  Printf.printf "Total CS entries served: %d\n" (H.total_entries engine)
