module S = Tme.Scenarios

type scenario = {
  protocol : string;
  proto : (module Graybox.Protocol.S);
  wrapper : Graybox.Harness.wrapper_mode;
  n : int;
  seed : int;
  steps : int;
}

(* Streaming analysis: classification is all we need, and deadlocked
   candidates — the common case while shrinking — exit early. *)
let verdict sc plan =
  let r =
    S.run sc.proto ~wrapper:sc.wrapper ~faults:plan ~n:sc.n ~seed:sc.seed
      ~steps:sc.steps
  in
  Outcome.classify ~n:sc.n r.analysis

let fails sc plan = Outcome.is_failure (verdict sc plan)

type result = {
  original : S.fault_spec list;
  shrunk : S.fault_spec list;
  runs : int;
  confirmed : bool;
}

(* Candidate simplifications of one spec, most aggressive first.  Times
   are never moved: a candidate must stay comparable to the original
   execution, only smaller. *)
let simpler ~n spec =
  let count_cands rebuild per_chan =
    if per_chan <= 1 then []
    else
      rebuild 1 :: (if per_chan > 2 then [ rebuild (per_chan / 2) ] else [])
  in
  let window_cands rebuild from_t until_t =
    let w = until_t - from_t in
    if w <= 1 then []
    else
      rebuild (from_t + 1)
      :: (if w > 2 then [ rebuild (from_t + (w / 2)) ] else [])
  in
  let proc_cands rebuild = function
    | Sim.Faults.Proc _ -> []
    | Sim.Faults.Any_proc ->
      List.init n (fun p -> rebuild (Sim.Faults.Proc p))
  in
  match spec with
  | S.Drop_requests { at; per_chan } ->
    count_cands (fun per_chan -> S.Drop_requests { at; per_chan }) per_chan
  | S.Drop_requests_window { from_t; until_t } ->
    window_cands
      (fun until_t -> S.Drop_requests_window { from_t; until_t })
      from_t until_t
  | S.Drop_any { at; per_chan } ->
    count_cands (fun per_chan -> S.Drop_any { at; per_chan }) per_chan
  | S.Duplicate { at; per_chan } ->
    count_cands (fun per_chan -> S.Duplicate { at; per_chan }) per_chan
  | S.Corrupt_messages { at; per_chan } ->
    count_cands (fun per_chan -> S.Corrupt_messages { at; per_chan }) per_chan
  | S.Reorder { at; per_chan } ->
    count_cands (fun per_chan -> S.Reorder { at; per_chan }) per_chan
  | S.Flush _ -> []
  | S.Partition { pid; from_t; until_t } ->
    window_cands
      (fun until_t -> S.Partition { pid; from_t; until_t })
      from_t until_t
  | S.Corrupt_state { at; procs } ->
    proc_cands (fun procs -> S.Corrupt_state { at; procs }) procs
  | S.Reset_state { at; procs } ->
    proc_cands (fun procs -> S.Reset_state { at; procs }) procs
  | S.Crash { procs; from_t; until_t; lose } ->
    (if lose then [ S.Crash { procs; from_t; until_t; lose = false } ] else [])
    @ window_cands
        (fun until_t -> S.Crash { procs; from_t; until_t; lose })
        from_t until_t
    @ proc_cands
        (fun procs -> S.Crash { procs; from_t; until_t; lose })
        procs
  | S.Split { groups; from_t; until_t; mode } ->
    (* a buffered heal is the harsher case (the flood); losing is the
       classic one — try it first, then the window, then a coarser
       group structure (merging the last two groups removes their
       mutual cut; a two-group split merges to nothing, which is what
       deleting the event does, so that case yields no candidate) *)
    (match mode with
     | Sim.Faults.Buffered ->
       [ S.Split { groups; from_t; until_t; mode = Sim.Faults.Lossy } ]
     | Sim.Faults.Lossy -> [])
    @ window_cands
        (fun until_t -> S.Split { groups; from_t; until_t; mode })
        from_t until_t
    @ (match List.rev groups with
       | last :: prev :: rest when prev <> [] && List.length groups > 2 ->
         [ S.Split
             { groups = List.rev ((prev @ last) :: rest);
               from_t;
               until_t;
               mode } ]
       | _ -> [])
  | S.Delay { at; chan; dist } ->
    let dist_cands =
      match dist with
      | Sim.Faults.Fixed d ->
        if d <= 1 then []
        else
          [ Sim.Faults.Fixed 1 ]
          @ (if d > 2 then [ Sim.Faults.Fixed (d / 2) ] else [])
      | Sim.Faults.Uniform (lo, hi) ->
        [ Sim.Faults.Fixed (max 1 lo) ]
        @ (if hi - lo > 1 then [ Sim.Faults.Uniform (lo, lo + ((hi - lo) / 2)) ]
           else [])
      | Sim.Faults.Heavy_tail { mean; cap } ->
        [ Sim.Faults.Fixed 1 ]
        @ (if mean > 1 then
             [ Sim.Faults.Heavy_tail { mean = mean / 2; cap } ]
           else [])
    in
    List.map (fun dist -> S.Delay { at; chan; dist }) dist_cands

let replace_nth plan i spec = List.mapi (fun j s -> if j = i then spec else s) plan

let shrink ?(max_runs = 300) sc original =
  let runs = ref 0 in
  let try_fail plan =
    if !runs >= max_runs then false
    else begin
      incr runs;
      fails sc plan
    end
  in
  if not (try_fail original) then
    { original; shrunk = original; runs = !runs; confirmed = false }
  else begin
    (* Phase 1: greedily delete whole events until no single deletion
       still fails.  List order is preserved throughout: same-time
       events fire in schedule order, so permuting the plan could
       change the execution. *)
    let rec remove_pass plan =
      let len = List.length plan in
      let rec go i =
        if i >= len then plan
        else
          let cand = List.filteri (fun j _ -> j <> i) plan in
          if try_fail cand then remove_pass cand else go (i + 1)
      in
      go 0
    in
    (* Phase 2: shrink events in place — counts toward 1, windows
       toward a point, Any_proc toward a single process. *)
    let rec simplify_pass plan =
      let len = List.length plan in
      let rec go i =
        if i >= len then plan
        else
          let spec = List.nth plan i in
          let rec try_cands = function
            | [] -> go (i + 1)
            | cand :: rest ->
              let plan' = replace_nth plan i cand in
              if try_fail plan' then simplify_pass plan' else try_cands rest
          in
          try_cands (simpler ~n:sc.n spec)
      in
      go 0
    in
    let rec fix plan =
      let plan' = simplify_pass (remove_pass plan) in
      if plan' = plan || !runs >= max_runs then plan' else fix plan'
    in
    let shrunk = fix original in
    (* Re-validate outside the budget: the minimal reproducer must fail
       under the very same seed, or it is worthless. *)
    let confirmed =
      incr runs;
      fails sc shrunk
    in
    { original; shrunk; runs = !runs; confirmed }
  end
