(* The stabilization analysis over a whole recorded trace: the oracles
   Graybox.Stabilize.Online is held to. *)

module View = Graybox.View
module Msg = Graybox.Msg
open Graybox.Stabilize

(* For process [j], mark every index [i] at which j's pending interval
   (hungry awaiting service, or eating awaiting release) is known to
   resolve correctly: hungry intervals must end in Eating, eating
   intervals in Thinking.  Intervals cut off by the end of the trace
   are acceptable only within [tail_margin]. *)
let resolution_ok modes ~len ~tail_margin j =
  let ok = Array.make len true in
  let interval_start = ref None in
  let mark a b value =
    for i = a to b do
      if not value then ok.(i) <- false
    done
  in
  let close_interval endpoint current_end =
    match !interval_start with
    | None -> ()
    | Some (start, kind) ->
      let resolved =
        match endpoint with
        | Some next_mode ->
          (match kind with
           | View.Hungry -> next_mode = View.Eating
           | View.Eating -> next_mode = View.Thinking
           | View.Thinking -> true)
        | None ->
          (* trace ended mid-interval *)
          current_end - start < tail_margin
      in
      mark start current_end resolved;
      interval_start := None
  in
  for i = 0 to len - 1 do
    let m = modes i j in
    (match !interval_start with
     | Some (_, kind) when kind = m -> ()
     | Some _ ->
       close_interval (Some m) (i - 1);
       if m = View.Hungry || m = View.Eating then interval_start := Some (i, m)
     | None ->
       if m = View.Hungry || m = View.Eating then interval_start := Some (i, m))
  done;
  close_interval None (len - 1);
  ok

(* The tail margin.  The mean wait is ⌈the mean⌉ of every hungry
   interval that begins at or after [base] and closes into Eating, in
   snapshots.  The margin is max 300 (4 × mean) while some hungry
   interval closed into Eating within the trace's last (max 300 mean)
   snapshots, and 300 otherwise or when there is no such interval. *)
let tail_margin modes ~len ~n ~base =
  let waits = ref 0 and sum = ref 0 and last_served = ref (-1) in
  for j = 0 to n - 1 do
    let start = ref None in
    for i = 0 to len - 1 do
      match !start, modes i j with
      | None, View.Hungry -> start := Some i
      | Some s, View.Eating ->
        last_served := max !last_served i;
        if s >= base then begin
          incr waits;
          sum := !sum + (i - s)
        end;
        start := None
      | Some _, View.Thinking -> start := None
      | Some _, View.Hungry | None, (View.Thinking | View.Eating) -> ()
    done
  done;
  if !waits = 0 then 300
  else begin
    let mean = (!sum + !waits - 1) / !waits in
    if !last_served < len - max 300 mean then 300 else max 300 (4 * mean)
  end

let analyse (tr : vtrace) =
  let snaps = Array.of_list tr in
  let len = Array.length snaps in
  if len = 0 then
    { trace_len = 0;
      last_fault_index = None;
      converged_index = None;
      recovery_steps = None;
      me1_violations = 0;
      starving = [];
      tail_margin = 300;
      recovered = false }
  else begin
    let n = Array.length snaps.(0).Sim.Trace.states in
    let modes i j = snaps.(i).Sim.Trace.states.(j).View.mode in
    let me1_ok i =
      let eaters = ref 0 in
      Array.iter
        (fun v -> if View.eating v then incr eaters)
        snaps.(i).Sim.Trace.states;
      !eaters <= 1
    in
    let last_fault_index =
      let found = ref None in
      Array.iteri
        (fun i snap ->
          match snap.Sim.Trace.event with
          | Sim.Trace.Fault _ -> found := Some i
          | _ -> ())
        snaps;
      !found
    in
    let base = match last_fault_index with Some f -> f | None -> 0 in
    let tail_margin = tail_margin modes ~len ~n ~base in
    let per_proc =
      Array.init n (fun j -> resolution_ok modes ~len ~tail_margin j)
    in
    (* good.(i): the criteria hold at snapshot i *)
    let good i =
      me1_ok i
      &&
      let rec all j = j >= n || (per_proc.(j).(i) && all (j + 1)) in
      all 0
    in
    (* converged_index: earliest i with good holding on [i, len). *)
    let converged_index =
      let idx = ref None in
      (try
         for i = len - 1 downto 0 do
           if good i then idx := Some i else raise Exit
         done
       with Exit -> ());
      !idx
    in
    let converged_index =
      match converged_index with
      | Some i -> Some (max i base)
      | None -> None
    in
    let recovery_steps =
      match converged_index with
      | None -> None
      | Some i ->
        Some (snaps.(i).Sim.Trace.time - snaps.(base).Sim.Trace.time)
    in
    let me1_violations =
      let count = ref 0 in
      for i = base to len - 1 do
        if not (me1_ok i) then incr count
      done;
      !count
    in
    let starving =
      List.filter
        (fun j ->
          let rec hungry_run i acc =
            if i < 0 || modes i j <> View.Hungry then acc
            else hungry_run (i - 1) (acc + 1)
          in
          hungry_run (len - 1) 0 >= tail_margin)
        (Sim.Pid.range n)
    in
    { trace_len = len;
      last_fault_index;
      converged_index;
      recovery_steps;
      me1_violations;
      starving;
      tail_margin;
      recovered = converged_index <> None }
  end

let service_round_latency (tr : vtrace) ~after =
  let snaps = Array.of_list tr in
  let len = Array.length snaps in
  if len = 0 || after >= len then None
  else begin
    let n = Array.length snaps.(0).Sim.Trace.states in
    let served = Array.make n false in
    let remaining = ref n in
    let answer = ref None in
    (try
       for i = max 1 (after + 1) to len - 1 do
         for j = 0 to n - 1 do
           if
             (not served.(j))
             && (not (View.eating snaps.(i - 1).Sim.Trace.states.(j)))
             && View.eating snaps.(i).Sim.Trace.states.(j)
           then begin
             served.(j) <- true;
             decr remaining;
             if !remaining = 0 then begin
               answer :=
                 Some
                   (snaps.(i).Sim.Trace.time - snaps.(after).Sim.Trace.time);
               raise Exit
             end
           end
         done
       done
     with Exit -> ());
    !answer
  end

let service_times ?(after = 0) (tr : vtrace) =
  let snaps = Array.of_list tr in
  let len = Array.length snaps in
  if len = 0 then []
  else begin
    let n = Array.length snaps.(0).Sim.Trace.states in
    let samples = ref [] in
    for j = 0 to n - 1 do
      let start = ref None in
      for i = 0 to len - 1 do
        let mode = snaps.(i).Sim.Trace.states.(j).View.mode in
        match !start, mode with
        | None, View.Hungry -> if i >= after then start := Some i
        | Some s, View.Eating ->
          samples :=
            (snaps.(i).Sim.Trace.time - snaps.(s).Sim.Trace.time) :: !samples;
          start := None
        | Some _, View.Thinking ->
          (* interval aborted (fault reset the mode): not a service *)
          start := None
        | Some _, View.Hungry | None, (View.Thinking | View.Eating) -> ()
      done
    done;
    List.rev !samples
  end

module Online = struct
  let of_trace (tr : vtrace) =
    let t = Graybox.Stabilize.Online.create () in
    List.iter
      (fun (snap : (View.t, Msg.t) Sim.Trace.snapshot) ->
        let fault =
          match snap.Sim.Trace.event with
          | Sim.Trace.Fault _ -> true
          | _ -> false
        in
        Graybox.Stabilize.Online.feed t ~time:snap.Sim.Trace.time ~fault ~repeat:false
          snap.Sim.Trace.states)
      tr;
    t
end
