(* TME_Spec's clauses restated with the UNITY operators over a whole
   recorded trace, and the replay of a recorded trace through the
   epoch fold: the oracles Graybox.Tme_spec.Epoch is held to. *)

open Unityspec
open Clocks
module View = Graybox.View
module Msg = Graybox.Msg

type vtrace = (View.t, Msg.t) Sim.Trace.t

let eaters (snap : (View.t, Msg.t) Sim.Trace.snapshot) =
  Array.fold_left
    (fun acc v -> if View.eating v then acc + 1 else acc)
    0 snap.states

let me1 tr =
  Temporal.invariant ~name:"ME1" (fun snap -> eaters snap <= 1) tr

let me2 ~n tr =
  Temporal.forall
    (fun j ->
      Temporal.leads_to ~name:(Printf.sprintf "ME2.%d" j)
        ~p:(fun snap -> View.hungry snap.Sim.Trace.states.(j))
        ~q:(fun snap -> View.eating snap.Sim.Trace.states.(j))
        tr)
    n

let me3 entries =
  (* Entries are in trace order; an entry whose request causally
     preceded an *earlier* entry's request violates FCFS. *)
  let rec scan idx earlier = function
    | [] -> Temporal.Holds
    | (e : Graybox.Harness.entry_record) :: rest ->
      let bad =
        List.exists
          (fun (prev : Graybox.Harness.entry_record) ->
            Vector_clock.lt e.entry_req_vc prev.entry_req_vc)
          earlier
      in
      if bad then
        Temporal.Violated
          { at = idx;
            reason =
              Printf.sprintf
                "entry %d by process %d served a request that \
                 happened-before an already-served one"
                idx e.entry_pid }
      else scan (idx + 1) (e :: earlier) rest
  in
  scan 0 [] entries

let check_all ~n ~entries tr =
  Graybox.Tme_spec.clauses ~me1:(me1 tr) ~me2:(me2 ~n tr) ~me3:(me3 entries)

module Epoch = struct
  open Graybox.Tme_spec.Epoch

  let of_trace ~timeline ~n ~entries (tr : vtrace) =
    let m = create ~n ~timeline in
    let remaining = ref entries in
    List.iter
      (fun (snap : (View.t, Msg.t) Sim.Trace.snapshot) ->
        (match snap.event with
         | Sim.Trace.Internal { label = "enter-cs"; _ } -> (
           (* the oracle logged one entry for this event; feed it
              before the post-event snapshot, as the streaming path
              does *)
           match !remaining with
           | e :: rest ->
             feed_entry m ~time:snap.time e;
             remaining := rest
           | [] -> ())
         | _ -> ());
        feed m ~time:snap.time ~repeat:false snap.states)
      tr;
    report m
end
