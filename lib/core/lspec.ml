open Clocks
open Unityspec

type vtrace = (View.t, Msg.t) Sim.Trace.t

let views (snap : (View.t, Msg.t) Sim.Trace.snapshot) = snap.states

let view_of snap j = (views snap).(j)

let mode snap j = (view_of snap j).View.mode
let req snap j = (view_of snap j).View.req
let local snap j k = View.local_req (view_of snap j) k

let channel (snap : (View.t, Msg.t) Sim.Trace.snapshot) ~src ~dst =
  match
    List.find_opt
      (fun (s, d, _) -> s = src && d = dst)
      (Sim.Trace.channels snap)
  with
  | Some (_, _, ms) -> ms
  | None -> []

let is_fault_step (snap : (View.t, Msg.t) Sim.Trace.snapshot) =
  match snap.event with Sim.Trace.Fault _ -> true | _ -> false

(* A step-invariant that is exempted across fault transitions: faults
   teleport the state, which no clause of Lspec constrains. *)
let guarded_step_invariant ?name r tr =
  Temporal.step_invariant ?name
    (fun prev next -> is_fault_step next || r prev next)
    tr

let structural ~n tr =
  Temporal.forall
    (fun j ->
      Temporal.invariant ~name:(Printf.sprintf "structural.%d" j)
        (fun snap ->
          match mode snap j with
          | View.Thinking | View.Hungry | View.Eating -> true)
        tr)
    n

let flow ~n tr =
  Temporal.forall
    (fun j ->
      guarded_step_invariant ~name:(Printf.sprintf "flow.%d" j)
        (fun prev next ->
          match mode prev j, mode next j with
          | View.Thinking, (View.Thinking | View.Hungry)
          | View.Hungry, (View.Hungry | View.Eating)
          | View.Eating, (View.Eating | View.Thinking) -> true
          | View.Thinking, View.Eating
          | View.Hungry, View.Thinking
          | View.Eating, View.Hungry -> false)
        tr)
    n

let cs ~n tr =
  Temporal.forall
    (fun j ->
      Temporal.leads_to ~name:(Printf.sprintf "cs.%d" j)
        ~p:(fun snap -> mode snap j = View.Eating)
        ~q:(fun snap -> mode snap j <> View.Eating)
        tr)
    n

let request_safety ~n tr =
  Temporal.forall
    (fun j ->
      guarded_step_invariant ~name:(Printf.sprintf "request-safety.%d" j)
        (fun prev next ->
          (not (mode prev j = View.Hungry && mode next j = View.Hungry))
          || Timestamp.equal (req prev j) (req next j))
        tr)
    n

(* k "has heard" REQ_j when its copy is not behind j's request. *)
let heard snap ~j ~k = not (Timestamp.lt (local snap k j) (req snap j))

let request_in_flight snap ~j ~k =
  List.exists
    (function
      | Msg.Request ts -> not (Timestamp.lt ts (req snap j))
      | Msg.Reply _ | Msg.Release _ -> false)
    (channel snap ~src:j ~dst:k)

let request_liveness ~n tr =
  Temporal.forall_pairs
    (fun j k ->
      let unaware snap =
        mode snap j = View.Hungry
        && (not (heard snap ~j ~k))
        && not (request_in_flight snap ~j ~k)
      in
      Temporal.leads_to
        ~name:(Printf.sprintf "request-liveness.%d.%d" j k)
        ~p:unaware
        ~q:(fun snap -> not (unaware snap))
        tr)
    n

let reply_liveness ~n tr =
  Temporal.forall_pairs
    (fun j k ->
      (* j knows k's current, earlier request: k should progress. *)
      let blocked snap =
        mode snap j = View.Hungry
        && mode snap k = View.Hungry
        && Timestamp.equal (local snap j k) (req snap k)
        && Timestamp.lt (req snap k) (req snap j)
      in
      Temporal.leads_to
        ~name:(Printf.sprintf "reply-liveness.%d.%d" j k)
        ~p:blocked
        ~q:(fun snap -> mode snap k <> View.Hungry)
        tr)
    n

let earliest snap j ~n =
  View.earliest (view_of snap j) ~peers:(Sim.Pid.others ~self:j ~n)

let cs_entry_safety ~n tr =
  Temporal.forall
    (fun j ->
      guarded_step_invariant ~name:(Printf.sprintf "cs-entry-safety.%d" j)
        (fun prev next ->
          (not (mode prev j <> View.Eating && mode next j = View.Eating))
          || earliest prev j ~n)
        tr)
    n

let cs_entry_liveness ~n tr =
  Temporal.forall
    (fun j ->
      Temporal.leads_to ~name:(Printf.sprintf "cs-entry-liveness.%d" j)
        ~p:(fun snap -> mode snap j = View.Hungry && earliest snap j ~n)
        ~q:(fun snap -> mode snap j = View.Eating)
        tr)
    n

let cs_release ~n tr =
  Temporal.forall
    (fun j ->
      Temporal.invariant ~name:(Printf.sprintf "cs-release.%d" j)
        (fun snap ->
          mode snap j <> View.Thinking
          ||
          let v = view_of snap j in
          Timestamp.equal v.View.req
            (Timestamp.make ~clock:v.View.clock ~pid:j))
        tr)
    n

let timestamp_spec ~n tr =
  let monotone =
    Temporal.forall
      (fun j ->
        guarded_step_invariant ~name:(Printf.sprintf "clock-monotone.%d" j)
          (fun prev next ->
            (view_of prev j).View.clock <= (view_of next j).View.clock)
          tr)
      n
  in
  let receive_rule =
    Temporal.step_invariant ~name:"clock-receive-rule"
      (fun _prev next ->
        match next.Sim.Trace.event with
        | Sim.Trace.Deliver { dst; msg; _ } ->
          (view_of next dst).View.clock >= (Msg.timestamp msg).Timestamp.clock
        | _ -> true)
      tr
  in
  Temporal.both monotone receive_rule

(* FIFO check: on a Deliver over channel c, c loses its head and may
   gain appends; every other evolution may only append. *)
let communication_fifo ~n:_ tr =
  let prefix_of xs ys =
    let rec go xs ys =
      match xs, ys with
      | [], _ -> true
      | x :: xs, y :: ys -> Msg.equal x y && go xs ys
      | _ :: _, [] -> false
    in
    go xs ys
  in
  Temporal.step_invariant ~name:"communication-fifo"
    (fun prev next ->
      is_fault_step next
      ||
      let delivered_chan =
        match next.Sim.Trace.event with
        | Sim.Trace.Deliver { src; dst; _ } -> Some (src, dst)
        | _ -> None
      in
      let chans =
        List.sort_uniq compare
          (List.map (fun (s, d, _) -> (s, d)) (Sim.Trace.channels prev)
          @ List.map (fun (s, d, _) -> (s, d)) (Sim.Trace.channels next))
      in
      List.for_all
        (fun (src, dst) ->
          let before = channel prev ~src ~dst in
          let after = channel next ~src ~dst in
          if delivered_chan = Some (src, dst) then
            match before with
            | [] -> false (* delivery from an empty channel *)
            | _ :: tl -> prefix_of tl after
          else prefix_of before after)
        chans)
    tr

let init_spec ~n tr =
  match tr with
  | [] -> Temporal.Holds
  | first :: _ ->
    let ok =
      Sim.Trace.channels first = []
      && List.for_all
           (fun j ->
             let v = view_of first j in
             v.View.mode = View.Thinking
             && v.View.clock = 0
             && Timestamp.equal v.View.req (Timestamp.zero ~pid:j)
             && List.for_all
                  (fun k ->
                    (* "j.REQ_k = 0": at or below the zero stamp — the
                       Lamport encoding uses a strict bottom for "no
                       information" *)
                    Timestamp.leq (View.local_req v k)
                      (Timestamp.zero ~pid:k))
                  (Sim.Pid.others ~self:j ~n))
           (Sim.Pid.range n)
    in
    if ok then Temporal.Holds
    else Temporal.Violated { at = 0; reason = "Init conditions fail" }

let check_all ~n tr =
  Report.of_list
    [ ("structural", structural ~n tr);
      ("flow", flow ~n tr);
      ("cs", cs ~n tr);
      ("request-safety", request_safety ~n tr);
      ("request-liveness", request_liveness ~n tr);
      ("reply-liveness", reply_liveness ~n tr);
      ("cs-entry-safety", cs_entry_safety ~n tr);
      ("cs-entry-liveness", cs_entry_liveness ~n tr);
      ("cs-release", cs_release ~n tr);
      ("timestamp", timestamp_spec ~n tr);
      ("communication-fifo", communication_fifo ~n tr);
      ("init", init_spec ~n tr) ]
