open Stdext

type params = { n : int; bound : int; wrapper : bool }

type outcome = {
  recovered : bool;
  recovery_steps : int option;
  resets : int;
  ill_at_end : int;
  final_epoch : int;
  hb_sound : bool;
}

type node = {
  params : params;
  clock : Clock.t;
  rng : Rng.t;
  seq : int;  (** oracle: ground-truth event counter (never corrupted) *)
}

(* Message: the stamp, plus the oracle's ground-truth send sequence
   used to validate hb soundness post hoc. *)
type gossip = { stamp : Clock.stamp; sent_seq : int; sender : Sim.Pid.t }

module Node = struct
  type state = node
  type msg = gossip

  let receive ~self:_ ~from:_ g node =
    ({ node with clock = Clock.receive node.clock g.stamp; seq = node.seq + 1 }, [])

  let actions ~self node =
    let gossip_action =
      ( "gossip",
        fun node ->
          let clock, stamp = Clock.send node.clock in
          let peer =
            Rng.pick node.rng (Sim.Pid.others ~self ~n:node.params.n)
          in
          let node = { node with clock; seq = node.seq + 1 } in
          (node, [ (peer, { stamp; sent_seq = node.seq; sender = self }) ]) )
    in
    let work_action =
      ( "work",
        fun node ->
          ({ node with clock = Clock.local_event node.clock; seq = node.seq + 1 },
           []) )
    in
    let wrapper_actions =
      if node.params.wrapper && Clock.needs_reset node.clock then
        [ ("rvc-reset",
           fun node -> ({ node with clock = Clock.reset node.clock }, [])) ]
      else []
    in
    [ gossip_action; work_action ] @ wrapper_actions
end

module Run = Sim.Engine.Make (Node)

let make_engine params ~seed =
  Run.create ~n:params.n ~seed ~init:(fun self ->
      { params;
        clock = Clock.create ~n:params.n ~bound:params.bound ~self;
        rng = Rng.create ((seed * 131) + self);
        seq = 0 })

(* hb soundness: a claimed same-epoch ordering between two stamps of
   the same sender must follow that sender's true send order. *)
let hb_sound_over trace =
  let deliveries =
    List.filter_map
      (fun (snap : (node, gossip) Sim.Trace.snapshot) ->
        match snap.event with
        | Sim.Trace.Deliver { msg; _ } -> Some msg
        | _ -> None)
      trace
  in
  List.for_all
    (fun (a : gossip) ->
      List.for_all
        (fun (b : gossip) ->
          a.sender <> b.sender
          ||
          match Clock.hb a.stamp b.stamp with
          | Some true -> a.sent_seq < b.sent_seq
          | Some false | None -> true)
        deliveries)
    deliveries

let run ?corrupt_at params ~seed ~steps =
  let engine = make_engine params ~seed in
  let recorded = Run.recorder engine in
  let plan =
    match corrupt_at with
    | None -> []
    | Some at ->
      [ Sim.Faults.at at
          (Sim.Faults.Mutate_state
             { proc = Sim.Faults.Any_proc;
               f = (fun rng node -> { node with clock = Clock.corrupt rng node.clock }) }) ]
  in
  Run.run ~plan ~steps engine;
  let trace = recorded () in
  let fault_index = Sim.Trace.last_fault_index trace in
  let snaps = Array.of_list trace in
  let stable_at =
    (* first index at or after the fault where every clock is well
       formed again.  That is what the level-1 wrapper restores; epoch
       skew between processes is normal operation (each reset starts a
       reconciliation that rides on gossip), so demanding a common
       epoch at an instant would reject healthy executions. *)
    let len = Array.length snaps in
    let ok i =
      Array.for_all
        (fun node -> Clock.well_formed node.clock)
        snaps.(i).Sim.Trace.states
    in
    let base = match fault_index with Some f -> f + 1 | None -> 0 in
    let idx = ref None in
    (try
       for i = base to len - 1 do
         if ok i then begin
           idx := Some i;
           raise Exit
         end
       done
     with Exit -> ());
    !idx
  in
  let recovery_steps =
    match stable_at, fault_index with
    | Some s, Some f when s >= f ->
      Some (snaps.(s).Sim.Trace.time - snaps.(f).Sim.Trace.time)
    | Some _, Some _ -> Some 0
    | Some _, None -> Some 0
    | None, _ -> None
  in
  let resets =
    List.length
      (List.filter
         (fun (snap : (node, gossip) Sim.Trace.snapshot) ->
           match snap.event with
           | Sim.Trace.Internal { label = "rvc-reset"; _ } -> true
           | _ -> false)
         trace)
  in
  let final_epoch =
    Array.fold_left
      (fun acc node -> max acc (Clock.epoch node.clock))
      0 (Run.states engine)
  in
  let hb_sound =
    match stable_at with
    | None -> true  (* nothing claimed *)
    | Some s -> hb_sound_over (Sim.Trace.suffix_from trace s)
  in
  let ill_at_end =
    Array.fold_left
      (fun acc node -> if Clock.well_formed node.clock then acc else acc + 1)
      0 (Run.states engine)
  in
  { recovered = stable_at <> None;
    recovery_steps;
    resets;
    ill_at_end;
    final_epoch;
    hb_sound }
