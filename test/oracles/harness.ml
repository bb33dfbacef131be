(* The CS-entry log read off a recorded node trace: the oracle the
   scenario observer's entry stream is held to. *)

module Make (P : Graybox.Protocol.S) = struct
  module R = Graybox.Harness.Make (P)

  let mode (snap : (R.node, R.envelope) Sim.Trace.snapshot) p =
    (R.view snap.Sim.Trace.states.(p)).Graybox.View.mode

  (** Entry records in trace order, for the FCFS (ME3) oracle and the
      service times.  An entry's [entry_since] is the time of the
      snapshot from which its process was hungry without a break. *)
  let entry_log (snaps : (R.node, R.envelope) Sim.Trace.t) =
    match snaps with
    | [] -> []
    | first :: _ ->
      let n = Array.length first.Sim.Trace.states in
      let since = Array.make n first.Sim.Trace.time in
      let rec go acc = function
        | prev :: (next :: _ as rest) ->
          let acc =
            match next.Sim.Trace.event with
            | Sim.Trace.Internal { pid; label = "enter-cs" } ->
              let before = prev.Sim.Trace.states.(pid) in
              { Graybox.Harness.entry_time = next.Sim.Trace.time;
                entry_since = since.(pid);
                entry_pid = pid;
                entry_req = (R.view before).Graybox.View.req;
                entry_req_vc = before.R.req_vc }
              :: acc
            | _ -> acc
          in
          for p = 0 to n - 1 do
            if mode next p = Graybox.View.Hungry && mode prev p <> Graybox.View.Hungry
            then since.(p) <- next.Sim.Trace.time
          done;
          go acc rest
        | [] | [ _ ] -> List.rev acc
      in
      go [] snaps
end
