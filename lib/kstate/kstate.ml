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
    Run.create
      (Run.config ~n ~seed ())
      ~init:(fun self -> { self; n; k; x = 0; pred_x = None; moves = 0 })
  in
  let recorded = Run.recorder engine in
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
  let trace = recorded () in
  let snaps = Array.of_list trace in
  let len = Array.length snaps in
  let privileges_of i =
    privileges
      ~counters:(Array.map (fun node -> node.x) snaps.(i).Sim.Trace.states)
      ~k
  in
  let fault_index =
    Option.value ~default:0 (Sim.Trace.last_fault_index trace)
  in
  let stabilized_at =
    let idx = ref None in
    (try
       for i = len - 1 downto fault_index do
         if privileges_of i = 1 then idx := Some i else raise Exit
       done
     with Exit -> ());
    !idx
  in
  let recovery_steps =
    match stabilized_at with
    | Some s ->
      Some (snaps.(s).Sim.Trace.time - snaps.(fault_index).Sim.Trace.time)
    | None -> None
  in
  { stabilized_at;
    recovery_steps;
    privileges_at_end = (if len = 0 then 0 else privileges_of (len - 1));
    moves =
      Array.fold_left (fun acc (node : node) -> acc + node.moves) 0
        (Run.states engine) }
