(** Counterexample-guided synthesis of level-2 wrappers (see the
    interface for the loop invariants). *)

module W = Graybox.Wrapper
module O = Mcheck.Oracle

type config = {
  n : int;
  jobs : int;
  max_size : int;
  max_checks : int;
  safety_depth : int;
  recovery_depth : int;
  max_states : int;
}

let config ?(n = 2) ?(jobs = 1) ?(max_size = 5) ?(max_checks = 64)
    ?(safety_depth = 8) ?(recovery_depth = 14) ?(max_states = 200_000) () =
  if n < 2 then invalid_arg "Synth.config: need at least two processes";
  if n > 64 then
    invalid_arg "Synth.config: the checker takes at most 64 processes";
  if jobs < 1 then invalid_arg "Synth.config: jobs must be positive";
  if max_size < 3 then
    invalid_arg "Synth.config: no term is smaller than size 3";
  if max_checks < 1 then invalid_arg "Synth.config: max_checks must be positive";
  if max_states < 1 then
    invalid_arg "Synth.config: max_states must be positive";
  { n; jobs; max_size; max_checks; safety_depth; recovery_depth; max_states }

type outcome =
  | Certified
  | Refuted of O.obligation
  | Inconclusive
  | Pruned_must_fire
  | Pruned_blamed

type attempt = { index : int; term : W.t; outcome : outcome }

type result = {
  synthesized : W.t option;
  attempts : attempt list;
  enumerated : int;
  checked : int;
  pruned : int;
  oracle_runs : int;
  oracle_states : int;
}

let outcome_label = function
  | Certified -> "certified"
  | Refuted o -> "cex-" ^ O.obligation_label o
  | Inconclusive -> "inconclusive"
  | Pruned_must_fire -> "pruned-must-fire"
  | Pruned_blamed -> "pruned-blamed"

(* ------------------------------------------------------------------ *)
(* Enumeration: guards by exact AST size, in a fixed total order.      *)

let peer_tests = [ W.Peer_lt_own; W.Own_lt_peer; W.Any_peer ]
let sends = [ W.Send_request; W.Send_reply; W.Send_release ]

(* [Timer_zero] is excluded from the search space: the oracle
   abstracts the harness timer to zero, so a timer gate is invisible
   to certification — the δ rate limit is applied at registration
   ([Harness.On]/[Wrapper.timed]), exactly as [W'] refines [W]. *)
let guards_of_size =
  let memo : (int, W.guard list) Hashtbl.t = Hashtbl.create 8 in
  let rec go s =
    match Hashtbl.find_opt memo s with
    | Some gs -> gs
    | None ->
      let gs =
        match s with
        | 1 -> [ W.Mode Is_thinking; W.Mode Is_hungry; W.Mode Is_eating ]
        | 2 ->
          List.map (fun t -> W.Exists_peer t) peer_tests
          @ List.map (fun t -> W.Forall_peer t) peer_tests
          @ List.map (fun g -> W.Not g) (go 1)
        | s when s > 2 ->
          List.map (fun g -> W.Not g) (go (s - 1))
          @ List.concat_map
              (fun ls ->
                List.concat_map
                  (fun l ->
                    List.concat_map
                      (fun r -> [ W.And (l, r); W.Or (l, r) ])
                      (go (s - 1 - ls)))
                  (go ls))
              (List.init (s - 2) (fun i -> i + 1))
        | _ -> []
      in
      Hashtbl.add memo s gs;
      gs
  in
  go

(* Candidates of term size [s] (= guard size + 2 for target/send), in
   the order the loop tries them.  Within one guard, targets go
   restrictive-first — so among equally small certified candidates the
   first found also sends the least — and the honest send first. *)
let candidates_of_size s =
  List.concat_map
    (fun guard ->
      List.concat_map
        (fun target ->
          List.map (fun send -> { W.guard; target; send }) sends)
        peer_tests)
    (guards_of_size (s - 2))

let candidates cfg =
  List.concat_map candidates_of_size
    (List.init (cfg.max_size - 2) (fun i -> i + 3))

(* ------------------------------------------------------------------ *)
(* Examples and pruning                                                *)

(* A positive example is a [View.t list]: views from a wedge the
   candidate failed to leave.  Any future candidate must fire from at
   least one of them (for a singleton wedge the list is just the
   wedged process's view — only its own resend can restore the lost
   request). *)

(* A negative example: one blamed firing of a refuted candidate —
   the send kind, the view it fired from, and the exact target set.
   A future candidate reproducing that exact observable firing would
   ride the same counterexample. *)
type negative = { neg_send : W.send; neg_view : Graybox.View.t;
                  neg_targets : Sim.Pid.t list }

let fires cfg c v = W.term_targets c v ~n:cfg.n ~timer:0 <> []

let pruned cfg ~positives ~negatives c =
  if
    List.exists
      (fun views -> not (List.exists (fires cfg c) views))
      positives
  then Some Pruned_must_fire
  else if
    List.exists
      (fun neg ->
        c.W.send = neg.neg_send
        && W.term_targets c neg.neg_view ~n:cfg.n ~timer:0 = neg.neg_targets)
      negatives
  then Some Pruned_blamed
  else None

(* Generalize a counterexample into examples for the pruner. *)
let learn cfg c (cex : O.cex) ~positives ~negatives =
  match cex.O.obligation with
  | O.Safety ->
    let negs =
      List.map
        (fun ((_p : int), v) ->
          { neg_send = c.W.send;
            neg_view = v;
            neg_targets = W.term_targets c v ~n:cfg.n ~timer:0 })
        cex.O.fired
    in
    (positives, negs @ negatives)
  | O.Recovery p ->
    let pos =
      List.concat_map (fun views -> [ [ views.(p) ] ]) cex.O.path
    in
    (pos @ positives, negatives)
  | O.Progress ->
    let pos = List.map Array.to_list cex.O.path in
    (pos @ positives, negatives)

(* A leg that filled the visited-state bound without a violation did
   not search its whole space.  Its verdict proves nothing: not a Safe
   (the safety leg may have missed a violation past the bound), nor a
   failed recovery or progress leg (the CS may lie past the bound).  A
   safety counterexample stands whatever the bound.  In a Safe verdict
   only the safety leg (the first run) ended without a violation. *)
let inconclusive cfg verdict =
  let full (s : Mcheck.stats) = s.Mcheck.visited >= cfg.max_states in
  match verdict with
  | O.Safe stats -> full (List.hd stats)
  | O.Cex { O.obligation = O.Recovery _ | O.Progress; stats; _ } ->
    full (List.nth stats (List.length stats - 1))
  | O.Cex { O.obligation = O.Safety; _ } -> false

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)

(* Fixed batch width: candidates are admitted against the example set
   as of the previous batch, dispatched over the pool, and their
   verdicts scanned in input order — so the transcript (and the
   synthesized term) is identical for every [jobs] value. *)
let batch_width = 8

(* The [i]-th of [k] contiguous, in-order slices of [xs]; none is
   empty when [k <= List.length xs]. *)
let slice k i xs =
  let len = List.length xs in
  List.filteri (fun j _ -> j >= len * i / k && j < len * (i + 1) / k) xs

let synthesize (module P : Graybox.Protocol.S) cfg =
  (* One reusable checker per pool slot, each given a fixed slice of
     every batch, so no checker ever runs on two domains at once.  A
     checker's verdicts are those of a fresh oracle, so the slicing
     cannot move the transcript. *)
  let checkers =
    Array.init (min cfg.jobs batch_width) (fun _ ->
        O.checker
          (module P)
          ~n:cfg.n ~jobs:1 ~safety_depth:cfg.safety_depth
          ~recovery_depth:cfg.recovery_depth ~max_states:cfg.max_states ())
  in
  let check_batch batch =
    let k = min (Array.length checkers) (List.length batch) in
    Stdext.Pool.map ~jobs:cfg.jobs
      (fun i -> List.map (fun (_, c) -> checkers.(i) c) (slice k i batch))
      (List.init k Fun.id)
    |> List.concat
  in
  let stream = candidates cfg in
  let enumerated = List.length stream in
  let attempts = ref [] in
  let checked = ref 0 in
  let pruned_n = ref 0 in
  let oracle_runs = ref 0 in
  let oracle_states = ref 0 in
  let account stats =
    oracle_runs := !oracle_runs + List.length stats;
    List.iter (fun s -> oracle_states := !oracle_states + s.Mcheck.explored)
      stats
  in
  let rec loop index stream positives negatives =
    if stream = [] || !checked >= cfg.max_checks then None
    else begin
      (* admit one batch against the current examples *)
      let rec admit index stream batch =
        if List.length batch = batch_width
           || !checked + List.length batch >= cfg.max_checks
        then (index, stream, List.rev batch)
        else
          match stream with
          | [] -> (index, stream, List.rev batch)
          | c :: rest -> (
            match pruned cfg ~positives ~negatives c with
            | Some outcome ->
              incr pruned_n;
              attempts := { index; term = c; outcome } :: !attempts;
              admit (index + 1) rest batch
            | None -> admit (index + 1) rest ((index, c) :: batch))
      in
      let index, stream, batch = admit index stream [] in
      if batch = [] then loop index stream positives negatives
      else begin
        let verdicts = check_batch batch in
        checked := !checked + List.length batch;
        (* scan in input order: every verdict is recorded (the whole
           batch was paid for), every conclusive refutation teaches,
           and the first certified candidate in enumeration order
           wins *)
        let certified = ref None in
        let positives = ref positives and negatives = ref negatives in
        List.iter2
          (fun (i, c) verdict ->
            let record outcome =
              attempts := { index = i; term = c; outcome } :: !attempts
            in
            match verdict with
            | (O.Safe stats | O.Cex { O.stats; _ })
              when inconclusive cfg verdict ->
              account stats;
              record Inconclusive
            | O.Safe stats ->
              account stats;
              record Certified;
              if !certified = None then certified := Some c
            | O.Cex cex ->
              account cex.O.stats;
              record (Refuted cex.O.obligation);
              let pos, neg =
                learn cfg c cex ~positives:!positives ~negatives:!negatives
              in
              positives := pos;
              negatives := neg)
          batch verdicts;
        match !certified with
        | Some c -> Some c
        | None -> loop index stream !positives !negatives
      end
    end
  in
  let synthesized = loop 0 stream [] [] in
  { synthesized;
    attempts =
      List.sort (fun a b -> compare a.index b.index) (List.rev !attempts);
    enumerated;
    checked = !checked;
    pruned = !pruned_n;
    oracle_runs = !oracle_runs;
    oracle_states = !oracle_states }
