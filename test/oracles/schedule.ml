(* The per-step scheduler oracle: the move list rebuilt from scratch
   and the draw replayed from a replica of the schedule stream. *)

module Make (N : Sim.Engine.NODE) (E : module type of Sim.Engine.Make (N)) =
struct
  let describe : (N.state, N.msg) Sim.Trace.event -> string = function
    | Sim.Trace.Stutter -> "stutter"
    | Sim.Trace.Deliver { src; dst; _ } -> Printf.sprintf "deliver %d->%d" src dst
    | Sim.Trace.Internal { pid; label } -> Printf.sprintf "p%d %s" pid label
    | Sim.Trace.Init -> "init"
    | Sim.Trace.Fault { label } -> "fault " ^ label

  (* [E.create] splits the seed's master stream twice: the first split
     is the fault stream, the second the schedule stream. *)
  let schedule_stream seed =
    let master = Stdext.Rng.create seed in
    ignore (Stdext.Rng.split master);
    Stdext.Rng.split master

  let predict sched e : (N.state, N.msg) Sim.Trace.event =
    let net = E.network e in
    (* staged messages whose ready step has come go live first, as
       [step] does; on a network that never had a delay or a split
       this only moves its clock *)
    Sim.Network.advance net ~now:(E.time e);
    let live p = not (E.crashed e p) in
    let deliveries =
      List.rev
        (Sim.Network.fold_nonempty
           (fun acc ~src ~dst -> if live dst then (src, dst) :: acc else acc)
           [] net)
    in
    let actions =
      List.concat
        (List.init (E.n_processes e) (fun pid ->
             if live pid then
               List.map
                 (fun (label, _) -> Sim.Trace.Internal { pid; label })
                 (N.actions ~self:pid (E.state e pid))
             else []))
    in
    let d = List.length deliveries and i = List.length actions in
    if d + i = 0 then Sim.Trace.Stutter
    else
      (* a delivery weighs 2, an action 1 *)
      let r = Stdext.Rng.int sched ((2 * d) + i) in
      if r < 2 * d then
        let src, dst = List.nth deliveries (r / 2) in
        Sim.Trace.Deliver
          { src; dst; msg = List.hd (Sim.Network.contents net ~src ~dst) }
      else List.nth actions (r - (2 * d))

  (* a delivery must hand over the channel's head itself *)
  let agrees (expected : (N.state, N.msg) Sim.Trace.event) actual =
    match (expected, actual) with
    | Sim.Trace.Stutter, Sim.Trace.Stutter -> true
    | Sim.Trace.Deliver x, Sim.Trace.Deliver y ->
      x.src = y.src && x.dst = y.dst && x.msg == y.msg
    | Sim.Trace.Internal x, Sim.Trace.Internal y ->
      x.pid = y.pid && x.label = y.label
    | _ -> false

  let run ?(plan = []) ?(before_step = ignore) ~seed ~steps e =
    if E.time e <> 0 then invalid_arg "Schedule.run: the engine has stepped";
    let sched = schedule_stream seed in
    let plan = ref plan and mismatches = ref 0 and first = ref None in
    for _ = 1 to steps do
      let time = E.time e in
      let due, rest = Sim.Faults.due !plan time in
      plan := rest;
      List.iter (E.apply_fault e) due;
      before_step e;
      let expected = predict sched e in
      let event = E.step e in
      if not (agrees expected event) then begin
        incr mismatches;
        if !first = None then
          first :=
            Some
              (Printf.sprintf "step %d: expected %s, engine took %s" time
                 (describe expected)
                 (describe event))
      end
    done;
    Option.map
      (fun first -> Printf.sprintf "%s (%d of %d steps)" first !mismatches steps)
      !first
end
