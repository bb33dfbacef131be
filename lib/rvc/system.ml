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
   the same sender must follow that sender's true send order.  Stamps
   of different senders are never compared, and [Clock.hb] claims
   nothing across epochs, so only pairs within one (sender, epoch)
   bucket can fail. *)
let hb_sound_over buckets =
  Seq.for_all
    (fun bucket ->
      List.for_all
        (fun (a : gossip) ->
          List.for_all
            (fun (b : gossip) ->
              match Clock.hb a.stamp b.stamp with
              | Some true -> a.sent_seq < b.sent_seq
              | Some false | None -> true)
            bucket)
        bucket)
    (Hashtbl.to_seq_values buckets)

let run ?corrupt_at params ~seed ~steps =
  let engine = make_engine params ~seed in
  (* One fold over the step stream judges the run.  A fault restarts
     the search for the first snapshot in which every clock is well
     formed again.  That is what the level-1 wrapper restores; epoch
     skew between processes is normal operation (each reset starts a
     reconciliation that rides on gossip), so demanding a common epoch
     at an instant would reject healthy executions.  From that
     snapshot on, the deliveries are kept for the hb-soundness check,
     bucketed by (sender, epoch). *)
  let fault_time = ref None and stable_time = ref None and resets = ref 0 in
  let buckets = Hashtbl.create 64 in
  Run.add_observer engine (fun (s : (node, gossip) Sim.Observer.step) ->
      match s.event with
      | Sim.Trace.Fault _ ->
        fault_time := Some s.time;
        stable_time := None;
        Hashtbl.reset buckets
      | event ->
        (match event with
         | Sim.Trace.Internal { label = "rvc-reset"; _ } -> incr resets
         | _ -> ());
        if
          !stable_time = None
          && Array.for_all (fun node -> Clock.well_formed node.clock) s.states
        then stable_time := Some s.time;
        match event, !stable_time with
        | Sim.Trace.Deliver { msg; _ }, Some _ ->
          let key = (msg.sender, msg.stamp.Clock.epoch) in
          let bucket = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
          Hashtbl.replace buckets key (msg :: bucket)
        | _ -> ());
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
  let final = Run.states engine in
  { recovered = !stable_time <> None;
    recovery_steps =
      (match !stable_time, !fault_time with
       | Some s, Some f -> Some (s - f)
       | Some _, None -> Some 0
       | None, _ -> None);
    resets = !resets;
    ill_at_end =
      Array.fold_left
        (fun acc node -> if Clock.well_formed node.clock then acc else acc + 1)
        0 final;
    final_epoch =
      Array.fold_left (fun acc node -> max acc (Clock.epoch node.clock)) 0 final;
    (* the buckets hold only post-recovery deliveries: an unrecovered
       run claims nothing *)
    hb_sound = hb_sound_over buckets }
