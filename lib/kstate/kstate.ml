open Stdext

type node = {
  self : Sim.Pid.t;
  n : int;
  k : int;
  x : int;
  pred_x : int option;  (** last counter heard from the predecessor *)
  moves : int;
}

type outcome = {
  stabilized_at : int option;
  recovery_steps : int option;
  privileges_at_end : int;
  moves : int;
}

let privileges ~counters ~k =
  ignore k;
  let n = Array.length counters in
  let count = ref 0 in
  if counters.(0) = counters.(n - 1) then incr count;
  for i = 1 to n - 1 do
    if counters.(i) <> counters.(i - 1) then incr count
  done;
  !count

module Node = struct
  type state = node
  type msg = Counter of int

  (* Dijkstra's rules, applied when the predecessor's value arrives:
     bottom increments on equality, others copy on difference. *)
  let receive ~self ~from:_ (Counter v) node =
    let node = { node with pred_x = Some v } in
    if self = 0 then
      if v = node.x then
        { node with x = (node.x + 1) mod node.k; moves = node.moves + 1 }
      else node
    else if v <> node.x then { node with x = v; moves = node.moves + 1 }
    else node

  let receive ~self ~from msg node = (receive ~self ~from msg node, [])

  let actions ~self _node =
    [ ( "circulate",
        fun node -> (node, [ ((self + 1) mod node.n, Counter node.x) ]) ) ]
end

module Run = Sim.Engine.Make (Node)

let run ?corrupt_at ~n ~k ~seed ~steps () =
  if n < 2 then invalid_arg "Kstate.run: need n >= 2";
  if k < n + 1 then invalid_arg "Kstate.run: need k >= n + 1";
  let engine =
    Run.create ~n ~seed ~init:(fun self ->
        { self; n; k; x = 0; pred_x = None; moves = 0 })
  in
  (* One fold over the step stream judges the run: the last fault's
     index and time (Init's when none), and where the current run of
     one-privilege snapshots started. *)
  let idx = ref 0 and fault = ref (0, 0) and ones_since = ref None in
  let last_privileges = ref 0 in
  Run.add_observer engine (fun (s : (node, Node.msg) Sim.Observer.step) ->
      let p =
        privileges ~counters:(Array.map (fun node -> node.x) s.states) ~k
      in
      (match s.event with Sim.Trace.Fault _ -> fault := (!idx, s.time) | _ -> ());
      if p <> 1 then ones_since := None
      else if !ones_since = None then ones_since := Some (!idx, s.time);
      last_privileges := p;
      incr idx);
  let plan =
    match corrupt_at with
    | None -> []
    | Some at ->
      [ Sim.Faults.at at
          (Sim.Faults.Mutate_state
             { proc = Sim.Faults.Any_proc;
               f = (fun rng node -> { node with x = Rng.int rng node.k }) }) ]
  in
  Run.run ~plan ~steps engine;
  (* stabilized from the later of the fault and the start of the
     final one-privilege run, if the run ends legitimate *)
  let stable =
    match !ones_since with
    | None -> None
    | Some (i, time) ->
      let fi, ftime = !fault in
      Some (if i >= fi then (i, time - ftime) else (fi, 0))
  in
  { stabilized_at = Option.map fst stable;
    recovery_steps = Option.map snd stable;
    privileges_at_end = !last_privileges;
    moves =
      Array.fold_left (fun acc (node : node) -> acc + node.moves) 0
        (Run.states engine) }
