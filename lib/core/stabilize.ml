type vtrace = (View.t, Msg.t) Sim.Trace.t

type analysis = {
  trace_len : int;
  last_fault_index : int option;
  converged_index : int option;
  recovery_steps : int option;
  me1_violations : int;
  starving : Sim.Pid.t list;
  tail_margin : int;
  recovered : bool;
}

(* The tail margin open intervals are judged against.  The mean wait
   is taken over the waits served since the last fault, rounded up.
   While the run is serving (some process entered Eating within its
   last [max margin_floor mean] snapshots) the margin is
   [margin_factor] mean waits, never below [margin_floor]; a run that
   has served nothing since the fault, or has stopped serving, is
   judged against [margin_floor] alone. *)
let margin_floor = 300

let margin_factor = 4

let tail_margin ~len ~last_served ~waits ~wait_sum =
  if waits = 0 then margin_floor
  else
    let mean = (wait_sum + waits - 1) / waits in
    if len - last_served > max margin_floor mean then margin_floor
    else max margin_floor (margin_factor * mean)

(* ------------------------------------------------------------------ *)
(* Streaming analysis                                                  *)

module Online = struct
  (* The analysis and the service round as one fold over snapshots.
     Stated over a whole trace, [converged_index] is defined backwards
     (the earliest suffix on which the criteria hold); but every
     criterion only ever marks *bad* indices — an ME1 violation, or a
     hungry/eating interval that closes unresolved — and the suffix
     start is just [max bad index + 1].  So the fold tracks the largest
     known-bad index, each process's current mode and the index its
     run of that mode started at (an open hungry/eating interval, and
     the trailing hungry run), the eater count, the post-fault service
     round, and what sets the tail margin: the count and sum of the
     waits served since the last fault and the index of the latest
     served wait.  The final record equals the whole-trace oracles'
     (test/oracle) on the same snapshot sequence, asserted over the
     protocol grid in the test suite.  Every per-process criterion
     reacts only to a mode change, so a snapshot that repeats the
     previous one's modes touches no process. *)

  type t = {
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
    mutable waits : int;
        (** hungry intervals served since [base] that began at or
            after it *)
    mutable wait_sum : int;  (** their total length, in snapshots *)
    mutable last_served : int;
        (** the latest index at which a process moved from Hungry to
            Eating, fault or not; -1 when none has *)
    (* service round since [base]: every process's first fresh entry *)
    mutable served : bool array;
    mutable remaining : int;
    mutable round_latency : int option;
  }

  let create () =
    { len = 0;
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
      waits = 0;
      wait_sum = 0;
      last_served = -1;
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
    if old = View.Hungry && m = View.Eating then begin
      t.last_served <- idx;
      if t.since.(j) >= t.base then begin
        t.waits <- t.waits + 1;
        t.wait_sum <- t.wait_sum + (idx - t.since.(j))
      end
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
      t.waits <- 0;
      t.wait_sum <- 0;
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
        tail_margin = margin_floor;
        recovered = false }
    else begin
      let len = t.len in
      let margin =
        tail_margin ~len ~last_served:t.last_served ~waits:t.waits
          ~wait_sum:t.wait_sum
      in
      (* an interval still open at the end is acceptable only within
         the tail margin; otherwise it marks bad up to [len - 1] *)
      let run_len j = len - t.since.(j) in
      let tail_bad =
        List.exists
          (fun j -> t.modes.(j) <> View.Thinking && run_len j - 1 >= margin)
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
          (fun j -> t.modes.(j) = View.Hungry && run_len j >= margin)
          (Sim.Pid.range t.n)
      in
      { trace_len = len;
        last_fault_index = (if t.have_fault then Some t.base else None);
        converged_index;
        recovery_steps;
        me1_violations = t.me1_bad;
        starving;
        tail_margin = margin;
        recovered = converged_index <> None }
    end
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
