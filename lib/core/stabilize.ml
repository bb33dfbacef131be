type vtrace = (View.t, Msg.t) Sim.Trace.t

type analysis = {
  trace_len : int;
  last_fault_index : int option;
  converged_index : int option;
  recovery_steps : int option;
  me1_violations : int;
  starving : Sim.Pid.t list;
  recovered : bool;
}

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

let analyse ?(tail_margin = 300) (tr : vtrace) =
  let snaps = Array.of_list tr in
  let len = Array.length snaps in
  if len = 0 then
    { trace_len = 0;
      last_fault_index = None;
      converged_index = None;
      recovery_steps = None;
      me1_violations = 0;
      starving = [];
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
    let base = match last_fault_index with Some f -> f | None -> 0 in
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
      recovered = converged_index <> None }
  end

(* ------------------------------------------------------------------ *)
(* Streaming analysis                                                  *)

module Online = struct
  (* Incremental restatement of [analyse] + [service_round_latency].
     The offline pipeline needs the whole trace because [converged_index]
     is defined backwards (the earliest suffix on which the criteria
     hold); but every criterion only ever marks *bad* indices — an ME1
     violation, or a hungry/eating interval that closes unresolved —
     and the suffix start is just [max bad index + 1].  So the fold
     tracks the largest known-bad index, each process's current mode
     and the index its run of that mode started at (an open
     hungry/eating interval, and the trailing hungry run), the eater
     count, and the post-fault service round; the final record is
     provably equal to the offline one on the same snapshot sequence
     (asserted over the protocol grid in the test suite).  Every
     per-process criterion reacts only to a mode change, so a snapshot
     that repeats the previous one's modes touches no process. *)

  type t = {
    tail_margin : int;
    mutable len : int;  (** snapshots fed so far *)
    mutable n : int;
    mutable modes : View.mode array;  (** per process, at the latest snapshot *)
    mutable since : int array;
        (** per process, the index its current mode run started at:
            the start of its open hungry/eating interval *)
    mutable eaters : int;  (** eating processes at the latest snapshot *)
    (* convergence: the largest index known to violate the criteria *)
    mutable last_bad : int;  (** -1 when nothing bad was seen *)
    mutable suffix_time : int;  (** engine time at index [last_bad + 1] *)
    mutable suffix_pending : bool;
        (** [last_bad + 1] not seen yet (the violation was at the
            latest snapshot) *)
    (* fault base *)
    mutable base : int;
    mutable base_time : int;
    mutable have_fault : bool;
    mutable me1_bad : int;  (** ME1-violating snapshots since [base] *)
    (* service round since [base] ([service_round_latency]) *)
    mutable served : bool array;
    mutable remaining : int;
    mutable round_latency : int option;
  }

  let create ?(tail_margin = 300) () =
    { tail_margin;
      len = 0;
      n = 0;
      modes = [||];
      since = [||];
      eaters = 0;
      last_bad = -1;
      suffix_time = 0;
      suffix_pending = false;
      base = 0;
      base_time = 0;
      have_fault = false;
      me1_bad = 0;
      served = [||];
      remaining = 0;
      round_latency = None }

  (* Process [j] moves from [old] to mode [m] at snapshot [idx]. *)
  let change t ~idx ~time j old m =
    (* a hungry interval must close into Eating, an eating interval
       into Thinking; an unresolved close marks the whole interval —
       whose largest index is its end, [idx - 1] — bad *)
    let resolved =
      match old with
      | View.Hungry -> m = View.Eating
      | View.Eating -> m = View.Thinking
      | View.Thinking -> true
    in
    if (not resolved) && idx - 1 > t.last_bad then begin
      t.last_bad <- idx - 1;
      t.suffix_time <- time;
      t.suffix_pending <- false
    end;
    t.modes.(j) <- m;
    t.since.(j) <- idx;
    if old = View.Eating then t.eaters <- t.eaters - 1;
    if m = View.Eating then begin
      t.eaters <- t.eaters + 1;
      (* service round: first fresh entry per process after [base] *)
      if idx > t.base && not t.served.(j) then begin
        t.served.(j) <- true;
        t.remaining <- t.remaining - 1;
        if t.remaining = 0 && t.round_latency = None then
          t.round_latency <- Some (time - t.base_time)
      end
    end

  let feed t ~time ~fault ~repeat (views : View.t array) =
    let idx = t.len in
    let repeat = repeat && idx > 0 in
    if idx = 0 then begin
      let n = Array.length views in
      t.n <- n;
      (* every process starts as if thinking, so the first snapshot
         opens the intervals of the processes that are not *)
      t.modes <- Array.make n View.Thinking;
      t.since <- Array.make n 0;
      t.served <- Array.make n false;
      t.remaining <- n;
      t.base_time <- time
    end;
    if t.suffix_pending then begin
      t.suffix_time <- time;
      t.suffix_pending <- false
    end;
    if fault then begin
      t.base <- idx;
      t.base_time <- time;
      t.have_fault <- true;
      t.me1_bad <- 0;
      Array.fill t.served 0 t.n false;
      t.remaining <- t.n;
      t.round_latency <- None
    end;
    if not repeat then
      for j = 0 to t.n - 1 do
        let m = views.(j).View.mode and old = t.modes.(j) in
        if m <> old then change t ~idx ~time j old m
      done;
    if t.eaters > 1 then begin
      t.me1_bad <- t.me1_bad + 1;
      if idx > t.last_bad then begin
        t.last_bad <- idx;
        t.suffix_pending <- true
      end
    end;
    t.len <- idx + 1

  let latency t = t.round_latency

  let analysis t =
    if t.len = 0 then
      { trace_len = 0;
        last_fault_index = None;
        converged_index = None;
        recovery_steps = None;
        me1_violations = 0;
        starving = [];
        recovered = false }
    else begin
      let len = t.len in
      (* an interval still open at the end is acceptable only within
         the tail margin; otherwise it marks bad up to [len - 1] *)
      let run_len j = len - t.since.(j) in
      let tail_bad =
        List.exists
          (fun j -> t.modes.(j) <> View.Thinking && run_len j - 1 >= t.tail_margin)
          (Sim.Pid.range t.n)
      in
      let last_bad = if tail_bad then len - 1 else t.last_bad in
      let suffix_start = last_bad + 1 in
      let converged_index =
        if suffix_start > len - 1 then None
        else Some (max suffix_start t.base)
      in
      let recovery_steps =
        match converged_index with
        | None -> None
        | Some ci ->
          if ci <= t.base then Some 0
          else Some (t.suffix_time - t.base_time)
      in
      let starving =
        List.filter
          (fun j -> t.modes.(j) = View.Hungry && run_len j >= t.tail_margin)
          (Sim.Pid.range t.n)
      in
      { trace_len = len;
        last_fault_index = (if t.have_fault then Some t.base else None);
        converged_index;
        recovery_steps;
        me1_violations = t.me1_bad;
        starving;
        recovered = converged_index <> None }
    end

  let of_trace ?tail_margin (tr : vtrace) =
    let t = create ?tail_margin () in
    List.iter
      (fun (snap : (View.t, Msg.t) Sim.Trace.snapshot) ->
        let fault =
          match snap.Sim.Trace.event with
          | Sim.Trace.Fault _ -> true
          | _ -> false
        in
        feed t ~time:snap.Sim.Trace.time ~fault ~repeat:false
          snap.Sim.Trace.states)
      tr;
    t
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

let pp ppf a =
  Format.fprintf ppf
    "@[<v>trace length      : %d@,last fault        : %a@,\
     converged at      : %a@,recovery steps    : %a@,\
     ME1 violations    : %d@,starving          : %a@,recovered         : %b@]"
    a.trace_len
    (Format.pp_print_option
       ~none:(fun ppf () -> Format.pp_print_string ppf "none")
       Format.pp_print_int)
    a.last_fault_index
    (Format.pp_print_option
       ~none:(fun ppf () -> Format.pp_print_string ppf "never")
       Format.pp_print_int)
    a.converged_index
    (Format.pp_print_option
       ~none:(fun ppf () -> Format.pp_print_string ppf "-")
       Format.pp_print_int)
    a.recovery_steps a.me1_violations
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    a.starving a.recovered
