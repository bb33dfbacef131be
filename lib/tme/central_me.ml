open Clocks
module View = Graybox.View
module Msg = Graybox.Msg

let coordinator : Sim.Pid.t = 0

type state = {
  self : Sim.Pid.t;
  n : int;
  mode : View.mode;
  clock : Logical_clock.t;
  req : Timestamp.t;
  granted : bool;  (* requester: holds the coordinator's grant *)
  pending : Timestamp.t list;  (* coordinator: waiting requests, sorted *)
  busy : bool;  (* coordinator: grant outstanding *)
}

let name = "central"

let init ~n self =
  { self;
    n;
    mode = View.Thinking;
    clock = Logical_clock.create ~pid:self;
    req = Timestamp.zero ~pid:self;
    granted = false;
    pending = [];
    busy = false }

let view s =
  let local_req =
    List.fold_left
      (fun m k -> Sim.Pid.Map.add k (Timestamp.zero ~pid:k) m)
      Sim.Pid.Map.empty
      (Sim.Pid.others ~self:s.self ~n:s.n)
  in
  View.make ~self:s.self ~mode:s.mode ~req:s.req ~local_req
    ~clock:(Logical_clock.now s.clock)

(* Coordinator: hand the section to the earliest pending request.  A
   grant to itself sets [granted] directly. *)
let dispatch s =
  if s.busy || s.self <> coordinator then (s, [])
  else
    match List.sort Timestamp.compare s.pending with
    | [] -> (s, [])
    | h :: rest ->
      let s = { s with pending = rest; busy = true } in
      if h.Timestamp.pid = coordinator then ({ s with granted = true }, [])
      else (s, [ (h.Timestamp.pid, Msg.Reply h) ])

let request_cs s =
  let clock, ts = Logical_clock.tick s.clock in
  let s = { s with clock; req = ts; mode = View.Hungry } in
  if s.self = coordinator then dispatch { s with pending = ts :: s.pending }
  else (s, [ (coordinator, Msg.Request ts) ])

let try_enter s =
  if s.mode = View.Hungry && s.granted then begin
    let clock, _ = Logical_clock.tick s.clock in
    Some ({ s with clock; mode = View.Eating }, [])
  end
  else None

let release_cs s =
  let clock, ts = Logical_clock.tick s.clock in
  let s = { s with clock; mode = View.Thinking; req = ts; granted = false } in
  if s.self = coordinator then dispatch { s with busy = false }
  else (s, [ (coordinator, Msg.Release ts) ])

let on_message ~from:_ msg s =
  let ts = Msg.timestamp msg in
  let clock = Logical_clock.receive_event s.clock ts in
  let s = { s with clock } in
  let s =
    if s.mode = View.Thinking then { s with req = Logical_clock.read s.clock }
    else s
  in
  match msg with
  | Msg.Request r when s.self = coordinator ->
    dispatch { s with pending = r :: s.pending }
  | Msg.Release _ when s.self = coordinator ->
    dispatch { s with busy = false }
  | Msg.Reply _ when s.mode = View.Hungry -> ({ s with granted = true }, [])
  | Msg.Request _ | Msg.Release _ | Msg.Reply _ -> (s, [])

let corrupt rng s =
  let open Stdext in
  let mode =
    match Rng.int rng 3 with
    | 0 -> View.Thinking
    | 1 -> View.Hungry
    | _ -> View.Eating
  in
  { s with
    mode;
    granted = Rng.bool rng;
    busy = (if s.self = coordinator then Rng.bool rng else s.busy);
    pending = (if s.self = coordinator then [] else s.pending) }

let reset ~n self = init ~n self
let membership_aware = false
let on_view_change ~members:_ s = s

(* Everywhere-mode seeds: a stolen grant, a phantom mode, a coordinator
   that believes a grant is outstanding when none is. *)
let perturb ~n s =
  let base =
    [ { s with mode = View.Hungry };
      { s with mode = View.Eating };
      { s with mode = View.Hungry; granted = true };
      reset ~n s.self ]
  in
  if s.self = coordinator then { s with busy = true } :: base else base
