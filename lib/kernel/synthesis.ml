let needs_correction a ~spec =
  let from_settlements = List.concat (Actsys.bad_settlements a ~spec) in
  let from_deadlocks = Actsys.illegitimate_deadlocks a ~spec in
  List.sort_uniq compare (from_settlements @ from_deadlocks)

let correction_targets ~spec =
  let reach = Tsys.reachable spec ~from:(Tsys.init_states spec) in
  List.filter (fun s -> reach.(s)) (List.init (Tsys.n_states spec) Fun.id)

let synthesize ?target a ~spec =
  match correction_targets ~spec, needs_correction a ~spec with
  | [], _ -> None (* nowhere legitimate to escape to *)
  | default :: _, corrected ->
    let target = Option.value target ~default in
    let edges = List.map (fun s -> (s, target)) corrected in
    let w =
      Actsys.create ~n:(Actsys.n_states a)
        ~actions:[ ("correct", edges) ]
        ~init:(Actsys.init_states a) ()
    in
    (* The construction is sound only when the specification's
       initialized part is closed in [a] (faults are modelled as
       initial displacement, not as standing transitions); rather than
       checking the precondition we verify the postcondition. *)
    if Actsys.is_fairly_stabilizing_to (Actsys.box a w) spec then Some w
    else None

let is_minimal a ~spec ~wrapper =
  (* Edge-wise, per action: dropping any one correction edge — from
     whichever action carries it, the others kept intact — must break
     fair stabilization.  A wrapper with no edges at all corrects
     nothing and is vacuously non-minimal. *)
  let actions =
    List.map
      (fun name -> (name, Actsys.transitions wrapper name))
      (Actsys.action_names wrapper)
  in
  List.exists (fun (_, edges) -> edges <> []) actions
  && List.for_all
       (fun (action, edges) ->
         List.for_all
           (fun removed ->
             let reduced =
               Actsys.create ~n:(Actsys.n_states wrapper)
                 ~actions:
                   (List.map
                      (fun (name, edges') ->
                        ( name,
                          if name = action then
                            List.filter (fun e -> e <> removed) edges'
                          else edges' ))
                      actions)
                 ~init:(Actsys.init_states wrapper) ()
             in
             not
               (Actsys.is_fairly_stabilizing_to (Actsys.box a reduced) spec))
           edges)
       actions
