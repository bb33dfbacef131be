open Clocks
module View = Graybox.View
module Msg = Graybox.Msg

(* The paper's variables.  lc.j is kept as a plain counter in the
   store; timestamps are built from it on demand. *)
let v_mode = "state"
let v_clock = "lc"
let v_req = "REQ"
let v_local = "localREQ"
let v_received = "received"

let schema =
  [ (v_mode, Store.Domain.D_mode);
    (v_clock, Store.Domain.D_nat 64);
    (v_req, Store.Domain.D_own_ts);
    (v_local, Store.Domain.D_peer_ts_map);
    (v_received, Store.Domain.D_pid_set) ]

type state = Store.t

let name = "ra-gcl"

let store s = s

let peers s = Sim.Pid.others ~self:(Store.self s) ~n:(Store.size s)

let init ~n self =
  Store.create schema ~self ~n
    [ (v_mode, Store.Value.V_mode View.Thinking);
      (v_clock, Store.Value.V_nat 0);
      (v_req, Store.Value.V_own_ts (Timestamp.zero ~pid:self));
      ( v_local,
        (* absent keys read as zero ({!Store.map_entry}); below the
           threshold stay dense so the checker's structural state
           identity is unchanged *)
        Store.Value.V_peer_ts_map
          (if n <= Sim.Pid.dense_threshold then
             List.fold_left
               (fun m k -> Sim.Pid.Map.add k (Timestamp.zero ~pid:k) m)
               Sim.Pid.Map.empty
               (Sim.Pid.others ~self ~n)
           else Sim.Pid.Map.empty) );
      (v_received, Store.Value.V_pid_set Sim.Pid.Set.empty) ]

let view s =
  View.make ~self:(Store.self s) ~mode:(Store.get_mode s v_mode)
    ~req:(Store.get_ts s v_req) ~local_req:(Store.get_map s v_local)
    ~clock:(Store.get_nat s v_clock)

(* lc.j := lc.j + 1, returning the event's timestamp *)
let tick s =
  let now = Store.get_nat s v_clock + 1 in
  let s = Store.set_nat s v_clock now in
  (s, Timestamp.make ~clock:now ~pid:(Store.self s))

(* lc.j := max(lc.j, ts) — call before [tick] on receives *)
let witness s (ts : Timestamp.t) =
  Store.set_nat s v_clock (max (Store.get_nat s v_clock) ts.Timestamp.clock)

let read_now s =
  Timestamp.make ~clock:(Store.get_nat s v_clock) ~pid:(Store.self s)

(* CS Release Spec: t.j => REQ_j = ts.j *)
let refresh_req_if_thinking s =
  if Store.get_mode s v_mode = View.Thinking then
    Store.set_ts s v_req (read_now s)
  else s

(* {Request CS}  t.j -> REQ_j := lc.j; h.j := true; send-request to all *)
let request_cs s =
  let s, ts = tick s in
  let s = Store.set_ts s v_req ts in
  let s = Store.set_mode s v_mode View.Hungry in
  (s, List.map (fun k -> (k, Msg.Request ts)) (peers s))

(* {Grant CS}  h.j ∧ (∀k : REQ_j lt j.REQ_k) -> e.j.  The quantifier
   is an early-exit loop over the pid range with the map fetched once
   — across the attempts a grant takes, the expected total is
   O(n log n) reads, not O(n^2) (see Ra_core.earliest). *)
let try_enter s =
  let earliest =
    let self = Store.self s and n = Store.size s in
    let req = Store.get_ts s v_req in
    let local = Store.get_map s v_local in
    let entry k =
      match Sim.Pid.Map.find_opt k local with
      | Some ts -> ts
      | None -> Timestamp.zero ~pid:k
    in
    let rec go k =
      k >= n || ((k = self || Timestamp.lt req (entry k)) && go (k + 1))
    in
    go 0
  in
  if Store.get_mode s v_mode = View.Hungry && earliest then begin
    let s, _ = tick s in
    Some (Store.set_mode s v_mode View.Eating, [])
  end
  else None

(* deferred_set.j = {k : received(j.REQ_k) ∧ REQ_j lt j.REQ_k} —
   walked over the received set (ascending, like the peers list it
   replaces), so the cost is O(deferred), not O(n) *)
let deferred_set s =
  let req = Store.get_ts s v_req in
  Sim.Pid.Set.fold
    (fun k acc ->
      if Timestamp.lt req (Store.map_entry s v_local k) then k :: acc else acc)
    (Store.get_set s v_received) []
  |> List.rev

(* {Release CS}  e.j -> reply to deferred; t.j; REQ_j := lc.j *)
let release_cs s =
  let deferred = deferred_set s in
  let s, ts = tick s in
  let s = Store.set_mode s v_mode View.Thinking in
  let s = Store.set_ts s v_req ts in
  let s = Store.set_set s v_received Sim.Pid.Set.empty in
  (s, List.map (fun k -> (k, Msg.Reply ts)) deferred)

let on_message ~from msg s =
  let ts = Msg.timestamp msg in
  let s, _ = tick (witness s ts) in
  let s = refresh_req_if_thinking s in
  match msg with
  | Msg.Request req_k ->
    (* received(j.REQ_k) := true; j.REQ_k := REQ_k; reply if
       t.j ∨ REQ_k lt REQ_j *)
    let s = Store.set_map_entry s v_local from req_k in
    if
      Store.get_mode s v_mode = View.Thinking
      || Timestamp.lt req_k (Store.get_ts s v_req)
    then
      (Store.remove_from_set s v_received from, [ (from, Msg.Reply (read_now s)) ])
    else (Store.add_to_set s v_received from, [])
  | Msg.Reply r | Msg.Release r ->
    if Timestamp.lt (Store.get_ts s v_req) r then
      (Store.set_map_entry s v_local from r, [])
    else (s, [])

let corrupt rng s = Store.corrupt rng s

let reset ~n self = Store.set_mode (init ~n self) v_mode View.Hungry
let membership_aware = false
let on_view_change ~members:_ s = s

(* Everywhere-mode seeds: mirrors Ra_core.perturb over the store —
   mode flips and phantom received-sets, timestamps kept legitimate. *)
let perturb ~n s =
  let all_received = Sim.Pid.Set.of_list (peers s) in
  [ Store.set_mode s v_mode View.Hungry;
    Store.set_mode s v_mode View.Eating;
    Store.set_set (Store.set_mode s v_mode View.Hungry) v_received all_received;
    Store.set_set s v_received all_received;
    reset ~n (Store.self s) ]
