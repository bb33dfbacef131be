(* The CS-entry log read off a recorded node trace: the oracle the
   scenario observer's entry stream is held to. *)

module Make (P : Graybox.Protocol.S) = struct
  module R = Graybox.Harness.Make (P)

  (** Entry records in trace order, for the FCFS (ME3) oracle. *)
  let entry_log (snaps : (R.node, R.envelope) Sim.Trace.t) =
    let rec go acc = function
      | prev :: (next :: _ as rest) ->
        let acc =
          match next.Sim.Trace.event with
          | Sim.Trace.Internal { pid; label = "enter-cs" } ->
            let before = prev.Sim.Trace.states.(pid) in
            { Graybox.Harness.entry_time = next.Sim.Trace.time;
              entry_pid = pid;
              entry_req = (R.view before).Graybox.View.req;
              entry_req_vc = before.R.req_vc }
            :: acc
          | _ -> acc
        in
        go acc rest
      | [] | [ _ ] -> List.rev acc
    in
    go [] snaps
end
