(* Online monitoring: watch a wrapped system break and heal, live.

   Instead of recording a trace and checking it afterwards, this
   example drives the engine step by step and feeds each global view
   snapshot to incremental UNITY monitors (Unityspec.Online).  The
   mutual exclusion invariant is violated moments after the fault and
   the violation index is reported by the monitor itself; a second,
   fresh monitor started after recovery stays clean.

   Run with:  dune exec examples/monitoring.exe *)

module P = Tme.Ra_me
module H = Graybox.Harness.Make (P)

let me1_monitor =
  Unityspec.Online.invariant ~name:"ME1" (fun views ->
      Array.fold_left
        (fun eaters v -> if Graybox.View.eating v then eaters + 1 else eaters)
        0 views
      <= 1)

let () =
  let params =
    Graybox.Harness.params
      ~wrapper:(Graybox.Harness.On { term = Graybox.Wrapper.w_refined; delta = 4 })
      ~n:4 ()
  in
  let engine = H.make_engine ~record:false params ~seed:12 in
  let monitor = ref me1_monitor in
  let corrupt_time = 600 in
  let violated_at = ref None in
  for _ = 1 to 6000 do
    if H.Run.time engine = corrupt_time then
      H.Run.apply_fault engine (H.fault_corrupt_process Sim.Faults.Any_proc);
    ignore (H.Run.step engine);
    monitor := Unityspec.Online.feed !monitor (H.views engine);
    match !violated_at, Unityspec.Online.verdict !monitor with
    | None, Unityspec.Temporal.Violated { at; _ } -> violated_at := Some at
    | _ -> ()
  done;
  (match !violated_at with
   | Some at ->
     Printf.printf
       "ME1 violated at monitor index %d (fault was injected at engine \
        time %d):\nthe corruption made two processes believe they were \
        earliest.\n"
       at corrupt_time
   | None ->
     Printf.printf
       "This corruption draw did not produce a double-entry (ME1 held \
        throughout).\n");

  (* a fresh monitor over the post-recovery period must stay clean *)
  let late = ref me1_monitor in
  for _ = 1 to 4000 do
    ignore (H.Run.step engine);
    late := Unityspec.Online.feed !late (H.views engine)
  done;
  Printf.printf "Post-recovery ME1 verdict over 4000 further steps: %s\n"
    (Format.asprintf "%a" Unityspec.Temporal.pp_verdict
       (Unityspec.Online.verdict !late));
  Printf.printf "Total CS entries served: %d\n" (H.total_entries engine)
