open Stdext

module type NODE = sig
  type state
  type msg

  val receive :
    self:Pid.t -> from:Pid.t -> msg -> state -> state * (Pid.t * msg) list

  val actions :
    self:Pid.t -> state -> (string * (state -> state * (Pid.t * msg) list)) list
end

module Make (N : NODE) = struct
  (* scheduling weights: a pending delivery is drawn twice as often as
     an enabled internal action *)
  let deliver_weight = 2
  let internal_weight = 1

  type t = {
    n : int;
    sched_rng : Rng.t;
    fault_rng : Rng.t;
    mutable time : int;
    mutable states : N.state array;
    net : N.msg Network.t; (* mutable handle, updated in place *)
    crash_until : int array;
        (* per-process recovery time; crashed iff [crash_until.(p) > time] *)
    crash_lose : bool array;
        (* while crashed, lose (rather than buffer) inbound deliveries *)
    acts : (string * (N.state -> N.state * (Pid.t * N.msg) list)) list array;
        (* per-process enabled actions.  [N.actions] is a pure function
           of (self, state) — every node implementation computes its
           action list from the state alone — so the list is cached
           across steps and recomputed only when the process's state or
           crash status changed ([acts_dirty]). *)
    acts_dirty : bool array;
    dirty : int Vec.t;
        (* the processes with [acts_dirty] set since the last refresh,
           so the refresh touches only them instead of scanning all n.
           Invariant: [acts_dirty.(p)] iff [p] is in [dirty] (exactly
           once) — [mark_dirty] pushes on the false-to-true flip
           only. *)
    act_counts : Fenwick.t;
        (* per-process enabled-action counts, kept in lockstep with
           [acts] — the internal-move half of the weighted draw is
           [total] + [select] instead of a scan *)
    crashed_now : bool array;
        (* crash status as the scheduler sees it; [crashed] depends on
           [time], so a flip must dirty the cache even though no state
           write happened.  Set at fault injection, cleared when
           [sync_recoveries] sees the window elapse. *)
    mutable crashed_pids : int list;
        (* the processes currently inside a crash window (those with
           [crashed_now] set), so crash bookkeeping costs O(crashed),
           not O(n) — and nothing once every window has elapsed *)
    delay_dists : (int, Faults.delay_dist) Hashtbl.t;
        (* per-channel (src * n + dst) delivery-delay distribution,
           installed by Delay faults; absent means deliver immediately *)
    mutable net_faults_seen : bool;
        (* no Split/Delay fault has ever been applied: sends need no
           link-status check or delay draw, and the per-step
           [Network.advance] can be skipped — the network clock stays
           at 0 and the staging layer is invisible *)
    observers : (N.state, N.msg) Observer.sink Vec.t;
        (* notified in registration order: once on attachment, then
           after every step and every fault *)
    metrics : Metrics.t;
  }

  (* Observers get the live states array — no copy.  [Observer.step]
     documents that it must not be retained across steps. *)
  let notify t event =
    if Vec.length t.observers > 0 then begin
      let step = { Observer.time = t.time; event; states = t.states } in
      Vec.iter (fun f -> f step) t.observers
    end

  let create ~n ~seed ~init =
    if n <= 0 then invalid_arg "Engine.create: need n > 0";
    let master = Rng.create seed in
    (* the fault stream is the master's first split, the schedule
       stream its second — every recorded schedule and digest depends
       on this order *)
    let fault_rng = Rng.split master in
    let sched_rng = Rng.split master in
    let t =
      { n;
        sched_rng;
        fault_rng;
        time = 0;
        states = Array.init n init;
        net = Network.create ~n;
        crash_until = Array.make n 0;
        crash_lose = Array.make n false;
        acts = Array.make n [];
        acts_dirty = Array.make n true;
        dirty = Vec.create ();
        act_counts = Fenwick.create n;
        crashed_now = Array.make n false;
        crashed_pids = [];
        delay_dists = Hashtbl.create 7;
        net_faults_seen = false;
        observers = Vec.create ();
        metrics = Metrics.create () }
    in
    for p = 0 to n - 1 do
      Vec.push t.dirty p
    done;
    t

  let time t = t.time
  let n_processes t = t.n
  let state t p = t.states.(p)
  let states t = Array.copy t.states
  let network t = t.net
  let metrics t = t.metrics

  (* The false-to-true flip is the only push, so [dirty] never holds a
     process twice and the refresh touches each at most once. *)
  let mark_dirty t p =
    if not t.acts_dirty.(p) then begin
      t.acts_dirty.(p) <- true;
      Vec.push t.dirty p
    end

  let set_state t p s =
    t.states.(p) <- s;
    mark_dirty t p

  let crashed t p = t.crash_until.(p) > t.time

  (* An observer joins by seeing the current state as its Init step:
     attached right after [create] (the normal case), the initial
     state. *)
  let add_observer t f =
    Vec.push t.observers f;
    f { Observer.time = t.time; event = Trace.Init; states = t.states }

  (* A snapshot copies the states and the network's persistent channel
     queues; the channel lists materialize lazily if an analysis reads
     them. *)
  let recorder t =
    let rev = ref [] in
    add_observer t (fun (s : (N.state, N.msg) Observer.step) ->
        rev :=
          { Trace.time = s.time;
            event = s.event;
            states = Array.copy s.states;
            channels = Network.capture t.net }
          :: !rev);
    fun () -> List.rev !rev

  (* Drop the processes whose crash window has elapsed from
     [crashed_pids], retiring their lose flag (so a later buffer-mode
     crash is not contaminated) and dirtying their action cache: a
     recovered process's actions come back. *)
  let sync_recoveries t =
    match t.crashed_pids with
    | [] -> ()
    | ps ->
      t.crashed_pids <-
        List.filter
          (fun p ->
            if t.crash_until.(p) > t.time then true
            else begin
              t.crashed_now.(p) <- false;
              t.crash_lose.(p) <- false;
              mark_dirty t p;
              false
            end)
          ps

  (* While a lose-mode crash lasts, anything queued toward the dead
     process is lost; once a window elapses the lose flag is retired so
     a later buffer-mode crash of the same process is not contaminated.
     The drain enumerates only the nonempty inbound channels (nothing
     at all when none is live or staged), skipping the unused
     self-channel. *)
  let drain_inbound t p =
    if t.crash_lose.(p) then begin
      let srcs =
        Network.fold_inbound_nonempty
          (fun acc ~src -> if src = p then acc else src :: acc)
          [] t.net ~dst:p
      in
      let lost = ref 0 in
      List.iter
        (fun src ->
          lost := !lost + Network.channel_length t.net ~src ~dst:p;
          Network.flush_channel t.net ~src ~dst:p)
        srcs;
      if !lost > 0 then Metrics.note_dropped t.metrics !lost
    end

  let apply_crash_effects t =
    sync_recoveries t;
    List.iter (fun p -> drain_inbound t p) t.crashed_pids

  let dispatch t ~src ~label outbox =
    Metrics.note_sends t.metrics ~label (List.length outbox);
    if not t.net_faults_seen then
      List.iter (fun (dst, m) -> Network.send t.net ~src ~dst m) outbox
    else
      List.iter
        (fun (dst, m) ->
          match Network.link_status t.net ~src ~dst with
          | `Lossy _ ->
            (* severed link: the message is lost at the sender *)
            Metrics.note_dropped t.metrics 1
          | `Open | `Buffered _ ->
            (* a buffered partition is handled inside [Network.send]
               (readiness deferred to the heal); link delays compose
               on top of it *)
            let delay =
              match Hashtbl.find_opt t.delay_dists ((src * t.n) + dst) with
              | None -> None
              | Some dist -> Some (Faults.draw_delay dist t.fault_rng)
            in
            Network.send ?delay t.net ~src ~dst m)
        outbox

  (* Move selection without materializing the move list.  The virtual
     move sequence is: every nonempty channel with a live destination
     (in (src, dst) order), then every enabled internal action
     (ascending pid, each process's actions in list order) — exactly
     the [deliveries @ internals] list earlier versions built per
     step.  A move is addressed by its position in that sequence, and
     the weighted draw consumes the RNG exactly as [Rng.pick_weighted]
     did on the materialized list, so schedules are seed-for-seed
     unchanged.  The refresh recounts only the dirtied processes into
     the Fenwick tree and reads both totals in O(1) / O(crashed);
     selection is then a Fenwick [select] or the network's [nth_live]
     — O(log n) a step.  [Oracles.Schedule] in test/ rebuilds the
     sequence from scratch every step and holds this to it. *)
  let refresh_moves t =
    sync_recoveries t;
    Vec.iter
      (fun p ->
        let acts =
          if t.crashed_now.(p) then [] else N.actions ~self:p t.states.(p)
        in
        t.acts.(p) <- acts;
        Fenwick.set t.act_counts p (List.length acts);
        t.acts_dirty.(p) <- false)
      t.dirty;
    Vec.clear t.dirty;
    let d =
      (* a channel into a crashed process is not deliverable *)
      List.fold_left
        (fun d p -> d - Network.live_into t.net ~dst:p)
        (Network.live_count t.net)
        t.crashed_pids
    in
    (d, Fenwick.total t.act_counts)

  exception Nth_chan of Pid.t * Pid.t

  (* The k-th deliverable channel in (src, dst) order.  With no crash
     window active every live channel qualifies and [nth_live] selects
     it in O(log n).  While a crash is active, the crashed
     destinations are skipped by walking the live set (crash windows
     are a small-n chaos concern; the walk lasts only as long as they
     do). *)
  let nth_delivery t k =
    if t.crashed_pids = [] then Network.nth_live t.net k
    else
      let k = ref k in
      try
        Network.fold_nonempty
          (fun () ~src ~dst ->
            if t.crashed_now.(dst) then ()
            else if !k = 0 then raise (Nth_chan (src, dst))
            else decr k)
          () t.net;
        assert false (* k < deliverable count *)
      with Nth_chan (src, dst) -> (src, dst)

  let nth_internal t k =
    let p, r = Fenwick.select_rem t.act_counts k in
    (p, List.nth t.acts.(p) r)

  let step t =
    if t.net_faults_seen then Network.advance t.net ~now:t.time;
    apply_crash_effects t;
    let d, i = refresh_moves t in
    let event : (N.state, N.msg) Trace.event =
      if d + i = 0 then begin
        Metrics.note_stutter t.metrics;
        Trace.Stutter
      end
      else begin
        let stop =
          Rng.int t.sched_rng ((deliver_weight * d) + (internal_weight * i))
        in
        if stop < deliver_weight * d then begin
          let src, dst = nth_delivery t (stop / deliver_weight) in
          match Network.deliver t.net ~src ~dst with
          | None -> Trace.Stutter (* cannot happen: channel was nonempty *)
          | Some msg ->
            Metrics.note_delivery t.metrics;
            let state', outbox =
              N.receive ~self:dst ~from:src msg t.states.(dst)
            in
            t.states.(dst) <- state';
            mark_dirty t dst;
            dispatch t ~src:dst ~label:"deliver" outbox;
            Trace.Deliver { src; dst; msg }
        end
        else begin
          let p, (label, f) =
            nth_internal t ((stop - (deliver_weight * d)) / internal_weight)
          in
          Metrics.note_internal t.metrics;
          let state', outbox = f t.states.(p) in
          t.states.(p) <- state';
          mark_dirty t p;
          dispatch t ~src:p ~label outbox;
          Trace.Internal { pid = p; label }
        end
      end
    in
    t.time <- t.time + 1;
    notify t event;
    event

  (* Positions (front-first) of messages in a channel matching [only]. *)
  let matching_positions t ~src ~dst only =
    let msgs = Network.contents t.net ~src ~dst in
    List.mapi (fun i m -> (i, m)) msgs
    |> List.filter_map (fun (i, m) ->
           match only with
           | None -> Some i
           | Some p -> if p m then Some i else None)

  let apply_chan_fault t ~chan ~count ~only ~note ~(f : src:Pid.t -> dst:Pid.t -> pos:int -> unit) =
    let applied = ref 0 in
    List.iter
      (fun (src, dst) ->
        let remaining = ref count in
        while
          !remaining > 0
          &&
          match matching_positions t ~src ~dst only with
          | [] -> false
          | positions ->
            let pos = Rng.pick t.fault_rng positions in
            f ~src ~dst ~pos;
            incr applied;
            decr remaining;
            true
        do
          ()
        done)
      (Faults.select_chans ~n:t.n chan);
    note t.metrics !applied

  let apply_fault t kind =
    (match (kind : (N.state, N.msg) Faults.kind) with
     | Drop { chan; count; only } ->
       apply_chan_fault t ~chan ~count ~only ~note:Metrics.note_dropped
         ~f:(fun ~src ~dst ~pos -> Network.drop_at t.net ~src ~dst ~pos)
     | Duplicate { chan; count } ->
       apply_chan_fault t ~chan ~count ~only:None ~note:Metrics.note_duplicated
         ~f:(fun ~src ~dst ~pos -> Network.duplicate_at t.net ~src ~dst ~pos)
     | Corrupt_messages { chan; count; f } ->
       apply_chan_fault t ~chan ~count ~only:None ~note:Metrics.note_corrupted
         ~f:(fun ~src ~dst ~pos ->
           Network.corrupt_at t.net ~src ~dst ~pos ~f:(f t.fault_rng))
     | Reorder { chan; count } ->
       apply_chan_fault t ~chan ~count ~only:None ~note:Metrics.note_reordered
         ~f:(fun ~src ~dst ~pos -> Network.reorder_at t.net ~src ~dst ~pos)
     | Flush chan ->
       let flushed = ref 0 in
       List.iter
         (fun (src, dst) ->
           flushed := !flushed + Network.channel_length t.net ~src ~dst;
           Network.flush_channel t.net ~src ~dst)
         (Faults.select_chans ~n:t.n chan);
       Metrics.note_flushed t.metrics !flushed
     | Mutate_state { proc; f } ->
       List.iter
         (fun p ->
           t.states.(p) <- f t.fault_rng t.states.(p);
           mark_dirty t p)
         (Faults.select_procs ~n:t.n proc)
     | Reset_state { proc; f } ->
       List.iter
         (fun p ->
           t.states.(p) <- f p;
           mark_dirty t p)
         (Faults.select_procs ~n:t.n proc)
     | Crash { proc; until_t; lose_deliveries } ->
       List.iter
         (fun p ->
           if until_t > t.time then begin
             t.crash_until.(p) <- Int.max t.crash_until.(p) until_t;
             t.crash_lose.(p) <- t.crash_lose.(p) || lose_deliveries;
             if not t.crashed_now.(p) then begin
               t.crashed_now.(p) <- true;
               t.crashed_pids <- p :: t.crashed_pids;
               mark_dirty t p
             end;
             Metrics.note_crashed t.metrics
           end)
         (Faults.select_procs ~n:t.n proc)
     | Split { groups; from_t = _; until_t; mode } ->
       t.net_faults_seen <- true;
       Network.advance t.net ~now:t.time;
       let mode =
         match mode with Faults.Lossy -> `Lossy | Faults.Buffered -> `Buffered
       in
       let lost =
         Network.apply_split t.net ~until:until_t ~mode
           ~pairs:(Faults.cross_pairs ~n:t.n groups)
       in
       if lost > 0 then Metrics.note_dropped t.metrics lost
     | Delay { chan; dist } ->
       t.net_faults_seen <- true;
       Network.advance t.net ~now:t.time;
       List.iter
         (fun (src, dst) ->
           Hashtbl.replace t.delay_dists ((src * t.n) + dst) dist)
         (Faults.select_chans ~n:t.n chan)
     | Heal ->
       (* a marker, not a mechanism: the heal itself is the partition
          mask expiring inside the network.  Recording the Fault event
          here re-bases recovery-latency measurement at the heal. *)
       ());
    Metrics.note_fault t.metrics;
    notify t (Trace.Fault { label = Faults.label kind })

  (* Duplicate-fault caveat: [duplicate_at] grows the matching set, so
     the loop above must not re-match the copy; [only:None] with
     [count] bounds the iterations, which keeps it finite. *)

  (* Permanent quiescence: no enabled move, and no process inside a
     crash window.  Actions and deliverability are pure functions of
     (states, network, crash status), and with every [crash_until] in
     the past the crash status can never change again, so a quiescent
     engine stutters forever — the one early-exit condition that
     preserves the rest of the run exactly. *)
  let quiescent t =
    sync_recoveries t;
    t.crashed_pids = []
    && begin
      (* staged messages become deliverable at a later step, so they
         are pending moves even though no channel is live yet *)
      if t.net_faults_seen then begin
        Network.advance t.net ~now:t.time;
        Network.waiting_count t.net = 0
      end
      else true
    end
    &&
    let d, i = refresh_moves t in
    d + i = 0

  (* [Faults.due] rebuilds the remaining plan, and window faults lower to
     one event per step, so it runs only once the plan's earliest
     pending time [next] has come. *)
  let fire_due t plan next =
    if t.time >= !next then begin
      let fired, rest = Faults.due !plan t.time in
      plan := rest;
      next := Faults.first_time rest;
      List.iter (apply_fault t) fired
    end

  let run ?(plan = []) ~steps t =
    let next = ref (Faults.first_time plan) and plan = ref plan in
    for _ = 1 to steps do
      fire_due t plan next;
      ignore (step t)
    done

  let run_until ?(plan = []) ~max_steps ~stop t =
    let next = ref (Faults.first_time plan) and plan = ref plan in
    let rec go remaining =
      if remaining <= 0 then None
      else begin
        fire_due t plan next;
        if !plan = [] && stop t then Some t.time
        else begin
          ignore (step t);
          go (remaining - 1)
        end
      end
    in
    go max_steps
end
