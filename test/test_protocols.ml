(* Unit tests for the TME protocol implementations, exercised directly
   through the Protocol.S interface (no simulator): state-machine
   cycles, message handling from arbitrary states (the everywhere-
   implementation obligation), view projections, and the differences
   between the modified and unmodified Lamport variants. *)

open Graybox
open Clocks

let ts c p = Timestamp.make ~clock:c ~pid:p

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Drive a protocol through a full local cycle, faking the peers'
   answers, and return the trail of views. *)
module Drive (P : Protocol.S) = struct
  let init n self = P.init ~n self

  let mode s = (P.view s).View.mode

  let dsts sends = List.sort compare (List.map fst sends)

  let payloads sends = List.map snd sends
end

module DR = Drive (Tme.Ra_me)
module DL = Drive (Tme.Lamport_me)
module DU = Drive (Tme.Lamport_unmodified)
module DC = Drive (Tme.Central_me)

(* ------------------------------------------------------------------ *)
(* Ricart-Agrawala                                                      *)

let test_ra_init_view () =
  let s = DR.init 3 1 in
  let v = Tme.Ra_me.view s in
  Alcotest.(check bool) "thinking" true (View.thinking v);
  Alcotest.(check bool) "req zero" true
    (Timestamp.equal v.View.req (Timestamp.zero ~pid:1));
  Alcotest.(check int) "clock" 0 v.View.clock;
  Alcotest.(check bool) "local copies zero" true
    (Timestamp.equal (View.local_req v 0) (Timestamp.zero ~pid:0))

let test_ra_request_broadcasts () =
  let s = DR.init 3 0 in
  let s, sends = Tme.Ra_me.request_cs s in
  Alcotest.(check (list int)) "to both peers" [ 1; 2 ] (DR.dsts sends);
  Alcotest.(check bool) "all requests" true
    (List.for_all Msg.is_request (DR.payloads sends));
  Alcotest.(check string) "hungry" "h" (View.mode_to_string (DR.mode s));
  let v = Tme.Ra_me.view s in
  Alcotest.(check bool) "REQ stamped" true (v.View.req.Timestamp.clock > 0)

let test_ra_cannot_enter_without_grants () =
  let s = DR.init 3 0 in
  let s, _ = Tme.Ra_me.request_cs s in
  Alcotest.(check bool) "blocked" true (Tme.Ra_me.try_enter s = None)

let test_ra_full_cycle_with_replies () =
  let s = DR.init 3 0 in
  let s, sends = Tme.Ra_me.request_cs s in
  let req = (Tme.Ra_me.view s).View.req in
  Alcotest.(check int) "2 requests" 2 (List.length sends);
  (* peers reply with later timestamps *)
  let s, out1 = Tme.Ra_me.on_message ~from:1 (Msg.Reply (ts 5 1)) s in
  let s, out2 = Tme.Ra_me.on_message ~from:2 (Msg.Reply (ts 6 2)) s in
  Alcotest.(check int) "no sends on reply" 0 (List.length (out1 @ out2));
  (match Tme.Ra_me.try_enter s with
   | Some (s, sends) ->
     Alcotest.(check int) "entry sends nothing" 0 (List.length sends);
     Alcotest.(check string) "eating" "e" (View.mode_to_string (DR.mode s));
     let s, rel_sends = Tme.Ra_me.release_cs s in
     Alcotest.(check string) "thinking again" "t"
       (View.mode_to_string (DR.mode s));
     (* nobody was deferred *)
     Alcotest.(check int) "no deferred replies" 0 (List.length rel_sends)
   | None -> Alcotest.fail "expected entry after all replies");
  ignore req

let test_ra_defers_later_request_and_replies_on_release () =
  let s = DR.init 2 0 in
  let s, _ = Tme.Ra_me.request_cs s in
  let my_req = (Tme.Ra_me.view s).View.req in
  (* peer 1's request is later than mine: defer *)
  let later = ts (my_req.Timestamp.clock + 5) 1 in
  let s, sends = Tme.Ra_me.on_message ~from:1 (Msg.Request later) s in
  Alcotest.(check int) "deferred: no reply yet" 0 (List.length sends);
  (* ...but I can now enter: the later request is an implicit grant *)
  match Tme.Ra_me.try_enter s with
  | Some (s, _) ->
    let _, sends = Tme.Ra_me.release_cs s in
    (match sends with
     | [ (1, Msg.Reply _) ] -> ()
     | _ -> Alcotest.fail "release must send the deferred reply to 1")
  | None -> Alcotest.fail "later request should implicitly grant"

let test_ra_replies_immediately_when_thinking () =
  let s = DR.init 2 0 in
  let s, sends = Tme.Ra_me.on_message ~from:1 (Msg.Request (ts 3 1)) s in
  (match sends with
   | [ (1, Msg.Reply r) ] ->
     Alcotest.(check bool) "reply postdates request" true (Timestamp.lt (ts 3 1) r)
   | _ -> Alcotest.fail "thinking receiver must reply at once");
  (* CS Release Spec: REQ tracked the receive event *)
  let v = Tme.Ra_me.view s in
  Alcotest.(check bool) "REQ = ts.j while thinking" true
    (Timestamp.equal v.View.req (ts v.View.clock 0))

let test_ra_replies_immediately_to_earlier_request () =
  let s = DR.init 2 0 in
  let s, _ = Tme.Ra_me.request_cs s in
  let my_req = (Tme.Ra_me.view s).View.req in
  let earlier = ts 0 1 in
  Alcotest.(check bool) "earlier indeed" true (Timestamp.lt earlier my_req);
  let _, sends = Tme.Ra_me.on_message ~from:1 (Msg.Request earlier) s in
  match sends with
  | [ (1, Msg.Reply _) ] -> ()
  | _ -> Alcotest.fail "earlier request must be granted immediately"

let test_ra_defers_while_eating () =
  let s = DR.init 2 0 in
  let s, _ = Tme.Ra_me.request_cs s in
  let s, _ = Tme.Ra_me.on_message ~from:1 (Msg.Reply (ts 50 1)) s in
  match Tme.Ra_me.try_enter s with
  | None -> Alcotest.fail "expected entry"
  | Some (s, _) ->
    (* a later request while eating must NOT be answered *)
    let s, sends =
      Tme.Ra_me.on_message ~from:1 (Msg.Request (ts 60 1)) s
    in
    Alcotest.(check int) "deferred" 0 (List.length sends);
    let _, rel = Tme.Ra_me.release_cs s in
    (match rel with
     | [ (1, Msg.Reply _) ] -> ()
     | _ -> Alcotest.fail "release must answer the deferred request")

let test_ra_stale_reply_ignored () =
  let s = DR.init 2 0 in
  let s, _ = Tme.Ra_me.request_cs s in
  let my_req = (Tme.Ra_me.view s).View.req in
  (* a duplicated pre-fault reply with an old timestamp must not grant *)
  let s, _ = Tme.Ra_me.on_message ~from:1 (Msg.Reply (ts 0 1)) s in
  let v = Tme.Ra_me.view s in
  Alcotest.(check bool) "no spurious grant" true
    (Timestamp.lt (View.local_req v 1) my_req);
  Alcotest.(check bool) "still blocked" true (Tme.Ra_me.try_enter s = None)

let test_ra_request_overwrites_local_copy_downward () =
  (* Reply Spec's correction semantics: a fresh request from the owner
     replaces an arbitrarily corrupted copy, even downward *)
  let s = DR.init 2 0 in
  let s, _ = Tme.Ra_me.on_message ~from:1 (Msg.Reply (ts 90 1)) s in
  let s, _ = Tme.Ra_me.on_message ~from:1 (Msg.Request (ts 2 1)) s in
  let v = Tme.Ra_me.view s in
  Alcotest.(check bool) "copy corrected" true
    (Timestamp.equal (View.local_req v 1) (ts 2 1))

let test_ra_corrupt_reset_total () =
  let rng = Stdext.Rng.create 5 in
  let s = Tme.Ra_me.corrupt rng (DR.init 3 0) in
  (* whatever the corruption, the protocol still answers messages *)
  let _, _ = Tme.Ra_me.on_message ~from:1 (Msg.Request (ts 1 1)) s in
  let r = Tme.Ra_me.reset ~n:3 0 in
  Alcotest.(check string) "reset is improper (hungry)" "h"
    (View.mode_to_string (Tme.Ra_me.view r).View.mode)

(* ------------------------------------------------------------------ *)
(* Lamport (modified)                                                   *)

let test_lamport_request_and_grant_cycle () =
  let s = DL.init 2 0 in
  let s, sends = Tme.Lamport_me.request_cs s in
  Alcotest.(check (list int)) "broadcast" [ 1 ] (DL.dsts sends);
  Alcotest.(check bool) "blocked without grant" true
    (Tme.Lamport_me.try_enter s = None);
  let s, _ = Tme.Lamport_me.on_message ~from:1 (Msg.Reply (ts 50 1)) s in
  match Tme.Lamport_me.try_enter s with
  | Some (s, _) ->
    let _, rel = Tme.Lamport_me.release_cs s in
    Alcotest.(check bool) "release broadcast" true
      (List.for_all (fun (_, m) -> Msg.is_release m) rel);
    Alcotest.(check (list int)) "to peers" [ 1 ] (DL.dsts rel)
  | None -> Alcotest.fail "grant + own head must allow entry"

let test_lamport_receiver_always_replies () =
  let s = DL.init 2 0 in
  let s, _ = Tme.Lamport_me.request_cs s in
  (* even a hungry receiver with an earlier request replies at once *)
  let _, sends =
    Tme.Lamport_me.on_message ~from:1 (Msg.Request (ts 100 1)) s
  in
  Alcotest.(check bool) "reply sent" true
    (List.exists (fun (k, m) -> k = 1 && Msg.is_reply m) sends)

let test_lamport_thinking_receiver_sends_release_echo () =
  let s = DL.init 2 0 in
  let _, sends = Tme.Lamport_me.on_message ~from:1 (Msg.Request (ts 3 1)) s in
  Alcotest.(check bool) "reply" true
    (List.exists (fun (_, m) -> Msg.is_reply m) sends);
  Alcotest.(check bool) "release echo" true
    (List.exists (fun (_, m) -> Msg.is_release m) sends)

let test_lamport_queue_blocks_later_requester () =
  let s = DL.init 2 0 in
  let s, _ = Tme.Lamport_me.request_cs s in
  (* an earlier request of peer 1 arrives: it heads the queue *)
  let s, _ = Tme.Lamport_me.on_message ~from:1 (Msg.Request (ts 0 1)) s in
  let s, _ = Tme.Lamport_me.on_message ~from:1 (Msg.Reply (ts 60 1)) s in
  Alcotest.(check bool) "blocked by queue head" true
    (Tme.Lamport_me.try_enter s = None);
  (* peer 1 releases: unblocked *)
  let s, _ = Tme.Lamport_me.on_message ~from:1 (Msg.Release (ts 61 1)) s in
  Alcotest.(check bool) "enters after release" true
    (Tme.Lamport_me.try_enter s <> None)

let test_lamport_duplicate_insert_purged () =
  (* modification 1: re-requests replace old entries, so a stale entry
     cannot linger ahead of everyone *)
  let s = DL.init 2 0 in
  let s, _ = Tme.Lamport_me.on_message ~from:1 (Msg.Request (ts 1 1)) s in
  let s, _ = Tme.Lamport_me.on_message ~from:1 (Msg.Request (ts 30 1)) s in
  let s, _ = Tme.Lamport_me.request_cs s in
  let s, _ = Tme.Lamport_me.on_message ~from:1 (Msg.Reply (ts 90 1)) s in
  (* peer 1's current request (30.1) is earlier than ours only if our
     clock is still below 30 — after witnessing 30 it is not, so the
     purge left the fresher entry and we are the head only if earlier.
     Either way, a *stale* 1.1 entry must not be what blocks us: *)
  let v = Tme.Lamport_me.view s in
  Alcotest.(check bool) "local copy reflects latest request" true
    (not (Timestamp.equal (View.local_req v 1) (ts 1 1)))

(* The Lamport queue invariant: ordered insertion into a sorted queue,
   with and without modification 1's purge, equals re-sorting.  Small
   clock and pid ranges make duplicate timestamps and equal clocks
   across pids common. *)
let prop_lamport_insert_sorted =
  let gen_ts = QCheck2.Gen.(map2 ts (0 -- 4) (0 -- 3)) in
  qtest ~count:1000 "insert into sorted queue == sort"
    QCheck2.Gen.(triple bool gen_ts (list_size (0 -- 12) gen_ts))
    (fun (purge, t, q) ->
      let q = List.sort Timestamp.compare q in
      let kept =
        if purge then
          List.filter (fun e -> e.Timestamp.pid <> t.Timestamp.pid) q
        else q
      in
      Tme.Lamport_core.insert_sorted ~purge t q
      = List.sort Timestamp.compare (t :: kept))

let test_lamport_view_encodes_relation () =
  let s = DL.init 3 0 in
  let s, _ = Tme.Lamport_me.request_cs s in
  let v = Tme.Lamport_me.view s in
  (* no grant, no entry: j.REQ_k must be lt REQ_j so the wrapper fires *)
  Alcotest.(check bool) "ungranted peer reads as stale" true
    (Timestamp.lt (View.local_req v 1) v.View.req);
  let s, _ = Tme.Lamport_me.on_message ~from:1 (Msg.Reply (ts 70 1)) s in
  let v = Tme.Lamport_me.view s in
  Alcotest.(check bool) "granted peer reads as past REQ_j" true
    (Timestamp.lt v.View.req (View.local_req v 1))

(* ------------------------------------------------------------------ *)
(* Lamport (unmodified, negative control)                               *)

let test_unmod_phantom_blocks_forever () =
  let s = DU.init 2 0 in
  (* phantom entry for peer 1 with a tiny timestamp *)
  let s, _ = Tme.Lamport_unmodified.on_message ~from:1 (Msg.Request (ts 0 1)) s in
  let s, _ = Tme.Lamport_unmodified.request_cs s in
  let s, _ = Tme.Lamport_unmodified.on_message ~from:1 (Msg.Reply (ts 80 1)) s in
  (* grants are all there, but the phantom heads the queue and the
     strict entry rule requires own request = head *)
  Alcotest.(check bool) "blocked by phantom" true
    (Tme.Lamport_unmodified.try_enter s = None)

let test_unmod_works_from_init () =
  let s = DU.init 2 0 in
  let s, _ = Tme.Lamport_unmodified.request_cs s in
  let s, _ = Tme.Lamport_unmodified.on_message ~from:1 (Msg.Reply (ts 40 1)) s in
  Alcotest.(check bool) "enters in legitimate run" true
    (Tme.Lamport_unmodified.try_enter s <> None)

let test_unmod_no_release_echo () =
  let s = DU.init 2 0 in
  let _, sends =
    Tme.Lamport_unmodified.on_message ~from:1 (Msg.Request (ts 3 1)) s
  in
  Alcotest.(check bool) "reply only" true
    (List.for_all (fun (_, m) -> Msg.is_reply m) sends)

(* ------------------------------------------------------------------ *)
(* Central coordinator                                                  *)

let test_central_grant_flow () =
  let requester = DC.init 3 1 in
  let coord = DC.init 3 0 in
  let requester, sends = Tme.Central_me.request_cs requester in
  (match sends with
   | [ (0, Msg.Request r) ] ->
     let coord, grants = Tme.Central_me.on_message ~from:1 (Msg.Request r) coord in
     (match grants with
      | [ (1, Msg.Reply g) ] ->
        let requester, _ =
          Tme.Central_me.on_message ~from:0 (Msg.Reply g) requester
        in
        (match Tme.Central_me.try_enter requester with
         | Some (requester, _) ->
           let _, rel = Tme.Central_me.release_cs requester in
           (match rel with
            | [ (0, Msg.Release _) ] -> ()
            | _ -> Alcotest.fail "release must go to the coordinator")
         | None -> Alcotest.fail "grant must allow entry")
      | _ -> Alcotest.fail "coordinator must grant the sole request");
     ignore coord
   | _ -> Alcotest.fail "request must go to the coordinator")

let test_central_queues_second_request () =
  let coord = DC.init 3 0 in
  let coord, g1 = Tme.Central_me.on_message ~from:1 (Msg.Request (ts 1 1)) coord in
  Alcotest.(check int) "first granted" 1 (List.length g1);
  let coord, g2 = Tme.Central_me.on_message ~from:2 (Msg.Request (ts 2 2)) coord in
  Alcotest.(check int) "second queued" 0 (List.length g2);
  let _, g3 = Tme.Central_me.on_message ~from:1 (Msg.Release (ts 9 1)) coord in
  match g3 with
  | [ (2, Msg.Reply _) ] -> ()
  | _ -> Alcotest.fail "release must grant the queued request"

let test_central_coordinator_self_entry () =
  let coord = DC.init 2 0 in
  let coord, sends = Tme.Central_me.request_cs coord in
  Alcotest.(check int) "no messages for self-grant" 0 (List.length sends);
  Alcotest.(check bool) "enters" true (Tme.Central_me.try_enter coord <> None)

(* ------------------------------------------------------------------ *)
(* Cross-protocol properties: totality from arbitrary states            *)

let protocols_under_test =
  [ ("ra", (module Tme.Ra_me : Protocol.S));
    ("lamport", (module Tme.Lamport_me : Protocol.S));
    ("lamport-unmod", (module Tme.Lamport_unmodified : Protocol.S));
    ("central", (module Tme.Central_me : Protocol.S)) ]

let gen_msg =
  QCheck2.Gen.(
    let* kind = 0 -- 2 in
    let* clock = 0 -- 40 in
    let* pid = 0 -- 3 in
    let t = Timestamp.make ~clock ~pid in
    return (match kind with 0 -> Msg.Request t | 1 -> Msg.Reply t | _ -> Msg.Release t))

let prop_total_message_handling (name, (module P : Protocol.S)) =
  qtest
    (Printf.sprintf "%s absorbs any message from any corrupted state" name)
    QCheck2.Gen.(triple small_int (list_size (1 -- 8) gen_msg) (0 -- 2))
    (fun (seed, msgs, from) ->
      let rng = Stdext.Rng.create seed in
      let s = P.corrupt rng (P.init ~n:4 1) in
      let from = if from = 1 then 0 else from in
      let s =
        List.fold_left (fun s m -> fst (P.on_message ~from m s)) s msgs
      in
      (* view projection never raises and yields this process *)
      (P.view s).View.self = 1)

let prop_view_self_stable (name, (module P : Protocol.S)) =
  qtest (Printf.sprintf "%s view is self-consistent after a cycle" name)
    QCheck2.Gen.small_int
    (fun seed ->
      let rng = Stdext.Rng.create seed in
      let s = P.init ~n:3 2 in
      let s, _ = P.request_cs s in
      let s = P.corrupt rng s in
      let v = P.view s in
      v.View.self = 2 && v.View.clock >= 0)

(* ------------------------------------------------------------------ *)
(* View-level invariants under fault-free operation                     *)

type driver_op = Op_request | Op_enter | Op_release | Op_deliver of int

let gen_ops =
  QCheck2.Gen.(
    list_size (1 -- 60)
      (frequency
         [ (2, return Op_request);
           (3, return Op_enter);
           (2, return Op_release);
           (6, map (fun k -> Op_deliver k) (0 -- 1)) ]))

(* Drive a 3-process system of P faithfully: FIFO queues, no loss.
   Returns the final states. *)
module Faithful (P : Protocol.S) = struct
  type world = {
    states : P.state array;
    (* chans.(src).(dst) is a FIFO list, front first *)
    chans : Msg.t list array array;
  }

  let init () =
    { states = Array.init 3 (P.init ~n:3);
      chans = Array.init 3 (fun _ -> Array.make 3 []) }

  let send w ~src sends =
    List.iter
      (fun (dst, m) -> w.chans.(src).(dst) <- w.chans.(src).(dst) @ [ m ])
      sends

  let deliver w ~src ~dst =
    match w.chans.(src).(dst) with
    | [] -> ()
    | m :: rest ->
      w.chans.(src).(dst) <- rest;
      let s, sends = P.on_message ~from:src m w.states.(dst) in
      w.states.(dst) <- s;
      send w ~src:dst sends

  let apply w pid op =
    let v = P.view w.states.(pid) in
    match op with
    | Op_request when View.thinking v ->
      let s, sends = P.request_cs w.states.(pid) in
      w.states.(pid) <- s;
      send w ~src:pid sends
    | Op_enter when View.hungry v ->
      (match P.try_enter w.states.(pid) with
       | Some (s, sends) ->
         w.states.(pid) <- s;
         send w ~src:pid sends
       | None -> ())
    | Op_release when View.eating v ->
      let s, sends = P.release_cs w.states.(pid) in
      w.states.(pid) <- s;
      send w ~src:pid sends
    | Op_deliver k ->
      (* deliver head of some channel chosen by k *)
      let src = (pid + 1 + k) mod 3 in
      deliver w ~src ~dst:pid
    | Op_request | Op_enter | Op_release -> ()

  let run ops =
    let w = init () in
    List.iteri (fun i op -> apply w (i mod 3) op) ops;
    w
end

let prop_faithful_invariants (name, (module P : Protocol.S)) =
  let module F = Faithful (P) in
  qtest (Printf.sprintf "%s: view invariants on faithful runs" name) gen_ops
    (fun ops ->
      let w = F.run ops in
      Array.for_all
        (fun s ->
          let v = P.view s in
          (* the own request is always stamped with the own identity,
             and while thinking it tracks the clock *)
          v.View.req.Timestamp.pid = v.View.self
          && ((not (View.thinking v)) || v.View.req.Timestamp.clock = v.View.clock))
        w.F.states)

let prop_faithful_mutex (name, (module P : Protocol.S)) =
  let module F = Faithful (P) in
  qtest (Printf.sprintf "%s: never two eaters on faithful runs" name)
    ~count:500 gen_ops
    (fun ops ->
      (* check after every prefix, not just at the end *)
      let w = F.init () in
      List.for_all
        (fun (i, op) ->
          F.apply w (i mod 3) op;
          let eaters =
            Array.fold_left
              (fun acc s -> if View.eating (P.view s) then acc + 1 else acc)
              0 w.F.states
          in
          eaters <= 1)
        (List.mapi (fun i op -> (i, op)) ops))

let lspec_protocols =
  [ ("ra", (module Tme.Ra_me : Protocol.S));
    ("lamport", (module Tme.Lamport_me : Protocol.S));
    ("lamport-unmod", (module Tme.Lamport_unmodified : Protocol.S)) ]

let () =
  Alcotest.run "protocols"
    [ ( "ra",
        [ Alcotest.test_case "init view" `Quick test_ra_init_view;
          Alcotest.test_case "request broadcasts" `Quick test_ra_request_broadcasts;
          Alcotest.test_case "no entry without grants" `Quick
            test_ra_cannot_enter_without_grants;
          Alcotest.test_case "full cycle" `Quick test_ra_full_cycle_with_replies;
          Alcotest.test_case "defer + release reply" `Quick
            test_ra_defers_later_request_and_replies_on_release;
          Alcotest.test_case "thinking replies" `Quick
            test_ra_replies_immediately_when_thinking;
          Alcotest.test_case "earlier request granted" `Quick
            test_ra_replies_immediately_to_earlier_request;
          Alcotest.test_case "defers while eating" `Quick test_ra_defers_while_eating;
          Alcotest.test_case "stale reply ignored" `Quick test_ra_stale_reply_ignored;
          Alcotest.test_case "request overwrites copy" `Quick
            test_ra_request_overwrites_local_copy_downward;
          Alcotest.test_case "corrupt/reset" `Quick test_ra_corrupt_reset_total ] );
      ( "lamport",
        [ Alcotest.test_case "request/grant cycle" `Quick
            test_lamport_request_and_grant_cycle;
          Alcotest.test_case "always replies" `Quick
            test_lamport_receiver_always_replies;
          Alcotest.test_case "release echo" `Quick
            test_lamport_thinking_receiver_sends_release_echo;
          Alcotest.test_case "queue blocks later" `Quick
            test_lamport_queue_blocks_later_requester;
          Alcotest.test_case "insert purges" `Quick test_lamport_duplicate_insert_purged;
          prop_lamport_insert_sorted;
          Alcotest.test_case "view encodes relation" `Quick
            test_lamport_view_encodes_relation ] );
      ( "lamport-unmod",
        [ Alcotest.test_case "phantom blocks" `Quick test_unmod_phantom_blocks_forever;
          Alcotest.test_case "works from init" `Quick test_unmod_works_from_init;
          Alcotest.test_case "no release echo" `Quick test_unmod_no_release_echo ] );
      ( "central",
        [ Alcotest.test_case "grant flow" `Quick test_central_grant_flow;
          Alcotest.test_case "queues requests" `Quick test_central_queues_second_request;
          Alcotest.test_case "self entry" `Quick test_central_coordinator_self_entry ] );
      ( "totality",
        List.map prop_total_message_handling protocols_under_test
        @ List.map prop_view_self_stable protocols_under_test );
      ( "faithful-runs",
        List.map prop_faithful_invariants lspec_protocols
        @ List.map prop_faithful_mutex lspec_protocols ) ]
