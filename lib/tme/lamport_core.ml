(** The common machinery of Lamport's mutual-exclusion program, shared
    by the paper's modified variant ({!Lamport_me}) and the original
    ({!Lamport_unmodified}, the negative control).

    Lamport's algorithm: a requester inserts its timestamped request
    into its local [request_queue] and broadcasts it; every receiver
    inserts it and replies immediately; a requester enters the CS when
    it has replies from everyone and its request heads its queue; on
    release it broadcasts a release message that removes its request
    from the queues.

    The paper makes two modifications so the program everywhere
    implements Lspec:
    1. [Insert] keeps at most one request per process, so a fresh
       request overwrites a stale or corrupted one;
    2. the entry rule is "own request ≤ head" rather than
       "own request = head", so a vanished own entry cannot block.

    This reproduction adds a third, in the same spirit, which the
    garbled original leaves implicit but recovery from queue
    corruption requires: a {e thinking} receiver answers a request
    with reply {e and} release; the release prunes any stale queue
    entry of the replier at the requester (a "phantom" entry of a
    process that is not actually requesting).  Without it, a corrupted
    queue entry for a never-requesting process heads the queue forever
    and no wrapper message can dislodge it.  All three are behaviours
    of the implementation, invisible to — and required by nothing in —
    the wrapper. *)

open Clocks
module View = Graybox.View
module Msg = Graybox.Msg

type entry_rule = Leq_head | Exact_head

(* Ordered insertion into a queue sorted by [Timestamp.compare], after
   dropping [ts]'s process's entries when [purge] (modification 1).
   For a sorted [queue] the result is
   [List.sort Timestamp.compare (ts :: queue')], [queue'] being the
   purged queue, so the invariant survives every insert without a
   re-sort. *)
let insert_sorted ~purge ts queue =
  let queue =
    if purge then
      List.filter (fun e -> e.Timestamp.pid <> ts.Timestamp.pid) queue
    else queue
  in
  let rec place = function
    | e :: rest when Timestamp.lt e ts -> e :: place rest
    | q -> ts :: q
  in
  place queue

module type CONFIG = sig
  val name : string

  val purge_on_insert : bool
  (** modification 1: one queue entry per process *)

  val entry_rule : entry_rule
  (** modification 2: [Leq_head], or the original [Exact_head] *)

  val release_echo : bool
  (** modification 3: thinking receivers answer requests with
      reply + release *)
end

module Make (C : CONFIG) : Graybox.Protocol.S = struct
  type state = {
    self : Sim.Pid.t;
    n : int;
    mode : View.mode;
    clock : Logical_clock.t;
    req : Timestamp.t;
    queue : Timestamp.t list;
        (* invariant: sorted by Timestamp.compare, so its head is the
           earliest request.  [init] and [reset] start it sorted,
           [insert] places by ordered insertion, removals keep the
           order, and [corrupt] and [perturb] sort what they build. *)
    grant : Timestamp.t Sim.Pid.Map.t;  (* k ↦ timestamp of k's reply *)
  }

  let name = C.name

  let peers s = Sim.Pid.others ~self:s.self ~n:s.n

  let init ~n self =
    { self;
      n;
      mode = View.Thinking;
      clock = Logical_clock.create ~pid:self;
      req = Timestamp.zero ~pid:self;
      queue = [];
      grant = Sim.Pid.Map.empty }

  let sort_queue = List.sort Timestamp.compare

  let insert ts queue = insert_sorted ~purge:C.purge_on_insert ts queue

  let remove_pid pid queue =
    List.filter (fun e -> e.Timestamp.pid <> pid) queue

  let head queue = match queue with [] -> None | h :: _ -> Some h

  let entry_of s k = List.find_opt (fun e -> e.Timestamp.pid = k) s.queue

  (* The paper's defined relation: REQ_j lt j.REQ_k iff grant.j.k and
     k's request is not ahead of REQ_j in the queue.  Encoded as a
     timestamp so the view (and hence wrapper and monitors) can use
     the uniform lt test.  "No grant" must encode to a value that is
     lt every possible REQ_j — including zero-clock requests arising
     from improper initialization — hence the clock of -1. *)
  let bottom k = Timestamp.make ~clock:(-1) ~pid:k

  let local_req_of s k =
    match entry_of s k with
    | Some e when Timestamp.lt e s.req -> e
    | Some _ | None ->
      (match Sim.Pid.Map.find_opt k s.grant with
       | Some g -> g
       | None -> bottom k)

  let view s =
    let local_req =
      List.fold_left
        (fun m k -> Sim.Pid.Map.add k (local_req_of s k) m)
        Sim.Pid.Map.empty (peers s)
    in
    View.make ~self:s.self ~mode:s.mode ~req:s.req ~local_req
      ~clock:(Logical_clock.now s.clock)

  let refresh_req_if_thinking s =
    if s.mode = View.Thinking then { s with req = Logical_clock.read s.clock }
    else s

  let request_cs s =
    let clock, ts = Logical_clock.tick s.clock in
    let s =
      { s with
        clock;
        req = ts;
        queue = insert ts s.queue;
        grant = Sim.Pid.Map.empty;
        mode = View.Hungry }
    in
    (s, List.map (fun k -> (k, Msg.Request ts)) (peers s))

  (* Early-exit loop over the pid range (no peers list): the first
     missing grant ends the check, so the n-1 failed attempts a grant
     takes cost O(n log n) total, not O(n^2). *)
  let granted_by_all s =
    let rec go k =
      k >= s.n || ((k = s.self || Sim.Pid.Map.mem k s.grant) && go (k + 1))
    in
    go 0

  let head_allows s =
    match C.entry_rule with
    | Leq_head ->
      (* modification 2, stated robustly: the own request is "at the
         head" iff no other process's queued request is earlier.  Own
         queue entries are ignored — while hungry the own request is
         REQ_j by definition, so a divergent own entry is corrupt and
         must not block (a corrupted copy would otherwise deadlock the
         process forever, since only its owner could purge it). *)
      not
        (List.exists
           (fun e -> e.Timestamp.pid <> s.self && Timestamp.lt e s.req)
           s.queue)
    | Exact_head ->
      (match head s.queue with
       | Some h -> Timestamp.equal s.req h
       | None -> false)

  let try_enter s =
    if s.mode = View.Hungry && granted_by_all s && head_allows s then begin
      let clock, _ = Logical_clock.tick s.clock in
      Some ({ s with clock; mode = View.Eating }, [])
    end
    else None

  let release_cs s =
    let clock, ts = Logical_clock.tick s.clock in
    let queue =
      match C.entry_rule with
      | Leq_head -> remove_pid s.self s.queue
      | Exact_head ->
        (* the original dequeues the head, which is its own request in
           every legitimate state *)
        (match s.queue with [] -> [] | _ :: rest -> rest)
    in
    let s =
      { s with
        clock;
        mode = View.Thinking;
        req = ts;
        queue;
        grant = Sim.Pid.Map.empty }
    in
    (s, List.map (fun k -> (k, Msg.Release ts)) (peers s))

  let on_message ~from msg s =
    let ts = Msg.timestamp msg in
    let clock = Logical_clock.receive_event s.clock ts in
    let s = refresh_req_if_thinking { s with clock } in
    match msg with
    | Msg.Request req_k ->
      let s = { s with queue = insert req_k s.queue } in
      let reply = (from, Msg.Reply (Logical_clock.read s.clock)) in
      let sends =
        if C.release_echo && s.mode = View.Thinking then
          [ reply; (from, Msg.Release (Logical_clock.read s.clock)) ]
        else [ reply ]
      in
      (s, sends)
    | Msg.Reply r ->
      if Timestamp.lt s.req r then
        ({ s with grant = Sim.Pid.Map.add from r s.grant }, [])
      else (s, [])
    | Msg.Release _ -> ({ s with queue = remove_pid from s.queue }, [])

  let random_ts ~n rng =
    Timestamp.make
      ~clock:(Stdext.Rng.int rng 64)
      ~pid:(Stdext.Rng.int rng n)

  let corrupt rng s =
    let open Stdext in
    let mode =
      match Rng.int rng 3 with
      | 0 -> View.Thinking
      | 1 -> View.Hungry
      | _ -> View.Eating
    in
    let clock =
      if Rng.bool rng then Logical_clock.with_now s.clock (Rng.int rng 64)
      else s.clock
    in
    (* see Ra_me.corrupt: REQ_j's pid component is structural *)
    let req =
      if Rng.bool rng then Timestamp.make ~clock:(Rng.int rng 64) ~pid:s.self
      else s.req
    in
    let queue =
      let kept = List.filter (fun _ -> Rng.bool rng) s.queue in
      let phantoms =
        List.init (Rng.int rng 3) (fun _ -> random_ts ~n:s.n rng)
      in
      sort_queue (phantoms @ kept)
    in
    let grant =
      Sim.Pid.Map.filter_map
        (fun _ g ->
          if Rng.chance rng 0.3 then None
          else if Rng.chance rng 0.3 then Some (random_ts ~n:s.n rng)
          else Some g)
        s.grant
    in
    { s with mode; clock; req; queue; grant }

  let reset ~n self =
    let s = init ~n self in
    { s with mode = View.Hungry; queue = [ Timestamp.zero ~pid:self ] }

  let membership_aware = false
  let on_view_change ~members:_ s = s

  (* Everywhere-mode seeds: a mode no message explains, phantom grants
     (replies recorded that were never sent), a phantom queue entry for
     a peer that never requested — precisely the corruptions the
     paper's modifications 1–3 are about. *)
  let perturb ~n:_ s =
    let phantom_grants =
      List.fold_left
        (fun m k -> Sim.Pid.Map.add k (Timestamp.make ~clock:5 ~pid:k) m)
        Sim.Pid.Map.empty (peers s)
    in
    let phantom_entry =
      match peers s with
      | [] -> []
      | k :: _ -> [ Timestamp.make ~clock:2 ~pid:k ]
    in
    [ { s with mode = View.Hungry };
      { s with mode = View.Eating };
      { s with mode = View.Hungry; grant = phantom_grants };
      { s with queue = sort_queue (phantom_entry @ s.queue) };
      reset ~n:s.n s.self ]
end
