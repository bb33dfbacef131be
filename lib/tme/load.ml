open Stdext

(* An open-loop workload driver: requests arrive by a Poisson process
   whose rate is fixed in advance, independent of how fast the system
   grants them — the load is the experiment's input, not an emergent
   property of the measured system.  The closed-loop alternative (each
   client thinks, requests, eats, repeats — the {!Scenarios} client)
   backs off exactly when the system slows down, which systematically
   under-reports tail latency (coordinated omission).  Here a grant's
   latency is measured from the request's {e intended} arrival step, so
   time a request spent queued behind a slow system is charged to the
   system.

   Arrival stamps are quantized to the step grid: an arrival drawn at
   continuous time [a] is injected at the first step boundary >= [a]
   and stamped with it (error < 1 step, identical for every protocol
   under a seed, so comparisons are unaffected).

   Per-process client state machine, driven as engine actions so the
   scheduler interleaves clients and protocol fairly:

     Idle  --pending request--> Waiting --try_enter ok--> Eating
       ^                                                     |
       +------------------- release ------------------------+

   A Waiting client attempts entry only when [fresh] — some message
   arrived since its last failed attempt — so guard evaluations are
   bounded by deliveries, not steps; with the protocols' early-exit
   entry guards the expected guard cost per grant is O(n log n), not
   O(n^2).  Zero think time and zero eat time: the client releases at
   its next scheduled action, keeping measured latency about the
   protocol, not the workload. *)

type result = {
  protocol : string;
  n : int;
  seed : int;
  rate : float;
  steps_run : int;
      (* steps actually executed: injection horizon + drain, early
         exit once every injected request was granted *)
  requests : int;  (* arrivals injected *)
  grants : int;
  latencies : int array;
      (* steps from intended arrival to CS entry, in grant order *)
}

let run (module P : Graybox.Protocol.S) ~n ~seed ~rate ~max_requests ~max_steps
    () =
  if rate <= 0. then invalid_arg "Load.run: need rate > 0";
  let module Node = struct
    type phase = Idle | Waiting | Eating

    type state = {
      proto : P.state;
      phase : phase;
      pending : int Fqueue.t;  (* intended arrival steps, FIFO *)
      serving : int;  (* intended arrival of the request in service *)
      fresh : bool;  (* message arrived since the last failed attempt *)
      grants : int;
    }

    type msg = Graybox.Msg.t

    let receive ~self:_ ~from m s =
      let proto, out = P.on_message ~from m s.proto in
      ({ s with proto; fresh = true }, out)

    (* At most one action is ever enabled per client, so the engine's
       per-process action count stays 0 or 1 and idle clients cost the
       scheduler nothing. *)
    let act_request =
      ( "request-cs",
        fun s ->
          match Fqueue.pop s.pending with
          | None -> (s, [])
          | Some (stamp, pending) ->
            let proto, out = P.request_cs s.proto in
            ( { s with proto; pending; phase = Waiting; serving = stamp;
                fresh = true },
              out ) )

    let act_enter =
      ( "enter-cs",
        fun s ->
          match P.try_enter s.proto with
          | Some (proto, out) ->
            ({ s with proto; phase = Eating; grants = s.grants + 1 }, out)
          | None -> ({ s with fresh = false }, []) )

    let act_release =
      ( "release-cs",
        fun s ->
          let proto, out = P.release_cs s.proto in
          ({ s with proto; phase = Idle }, out) )

    let actions ~self:_ s =
      match s.phase with
      | Idle -> if Fqueue.is_empty s.pending then [] else [ act_request ]
      | Waiting -> if s.fresh then [ act_enter ] else []
      | Eating -> [ act_release ]
  end in
  let module E = Sim.Engine.Make (Node) in
  let eng =
    E.create ~n ~seed ~init:(fun self ->
        { Node.proto = P.init ~n self;
          phase = Node.Idle;
          pending = Fqueue.empty;
          serving = 0;
          fresh = false;
          grants = 0 })
  in
  (* Arrivals draw from their own stream so the schedule RNG stays
     aligned with other runs of the same seed. *)
  let arr_rng = Rng.create ((seed * 1_000_003) + 40_503) in
  let next_arrival = ref 0. in
  let draw_gap () = -.log (1. -. Rng.float arr_rng 1.) /. rate in
  next_arrival := !next_arrival +. draw_gap ();
  let requests = ref 0 in
  let grants_seen = Array.make n 0 in
  let latencies = Vec.create () in
  let steps_run = ref 0 in
  (* [max_steps] bounds {e injection}; after it the run keeps stepping
     (up to [max_steps] more) with no new arrivals so requests still in
     flight can finish — otherwise the slowest (deepest-tail) samples
     would be silently censored by the horizon cut-off. *)
  let injection_done () =
    !requests >= max_requests
    || !next_arrival > float_of_int (max_steps - 1)
  in
  (try
     while !steps_run < 2 * max_steps do
       let now = E.time eng in
       while
         !requests < max_requests && now < max_steps
         && !next_arrival <= float_of_int now
       do
         let target = Rng.int arr_rng n in
         let s = E.state eng target in
         E.set_state eng target
           { s with Node.pending = Fqueue.push now s.Node.pending };
         incr requests;
         next_arrival := !next_arrival +. draw_gap ()
       done;
       (match E.step eng with
        | Sim.Trace.Internal { pid; label = "enter-cs" } ->
          let s = E.state eng pid in
          if s.Node.grants > grants_seen.(pid) then begin
            grants_seen.(pid) <- s.Node.grants;
            (* time already advanced past the granting step *)
            Vec.push latencies (E.time eng - 1 - s.Node.serving)
          end
        | _ -> ());
       incr steps_run;
       if injection_done () && Vec.length latencies >= !requests then
         raise Exit
     done
   with Exit -> ());
  { protocol = P.name;
    n;
    seed;
    rate;
    steps_run = !steps_run;
    requests = !requests;
    grants = Vec.length latencies;
    latencies = Vec.to_array latencies }

let percentiles r ps =
  let v = Vec.create () in
  Array.iter (fun l -> Vec.push v (float_of_int l)) r.latencies;
  Stats.percentiles v ps
