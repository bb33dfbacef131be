(* Tests for the simulator: FIFO network and fault primitives, fault
   plans and selectors, traces, metrics, and the engine (determinism,
   message flow, fault application, probabilistic fairness). *)

open Sim

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Pid                                                                 *)

let test_pid_range_others () =
  Alcotest.(check (list int)) "range" [ 0; 1; 2 ] (Pid.range 3);
  Alcotest.(check (list int)) "others" [ 0; 2 ] (Pid.others ~self:1 ~n:3)

(* ------------------------------------------------------------------ *)
(* Network                                                             *)

(* [of_sends n sends] is a fresh network holding [sends], in order. *)
let of_sends n sends =
  let net = Network.create ~n in
  List.iter (fun (src, dst, m) -> Network.send net ~src ~dst m) sends;
  net

(* Reference readings built eagerly from the per-channel queries: every
   nonempty channel with its contents in (src, dst) order, the queued
   message count, and the ready channels in scheduler order. *)
let listing net ~n =
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst ->
          match Network.contents net ~src ~dst with
          | [] -> None
          | ms -> Some (src, dst, ms))
        (Pid.range n))
    (Pid.range n)

let in_flight net ~n =
  List.fold_left (fun acc (_, _, ms) -> acc + List.length ms) 0 (listing net ~n)

let live_channels net =
  List.rev (Network.fold_nonempty (fun acc ~src ~dst -> (src, dst) :: acc) [] net)

let captured net = Lazy.force (Network.capture net)

let test_net_send_deliver_fifo () =
  let net = of_sends 3 [ (0, 1, "a"); (0, 1, "b") ] in
  Alcotest.(check (list string)) "contents" [ "a"; "b" ]
    (Network.contents net ~src:0 ~dst:1);
  Alcotest.(check (option string)) "head" (Some "a")
    (Network.deliver net ~src:0 ~dst:1);
  Alcotest.(check (list string)) "rest" [ "b" ]
    (Network.contents net ~src:0 ~dst:1)

let test_net_deliver_empty () =
  let net = Network.create ~n:2 in
  Alcotest.(check bool) "none" true (Network.deliver net ~src:0 ~dst:1 = None)

(* What recorded traces rely on: a capture keeps the channel contents
   of the moment it was taken, whatever happens to the network later. *)
let test_net_capture_survives_mutation () =
  let net = of_sends 3 [ (0, 1, "a"); (0, 1, "b"); (2, 0, "c") ] in
  let before = [ (0, 1, [ "a"; "b" ]); (2, 0, [ "c" ]) ] in
  let capture = Network.capture net in
  Network.send net ~src:1 ~dst:2 "d";
  ignore (Network.deliver net ~src:0 ~dst:1);
  Network.duplicate_at net ~src:0 ~dst:1 ~pos:0;
  Network.drop_at net ~src:2 ~dst:0 ~pos:0;
  Network.flush_channel net ~src:1 ~dst:2;
  Alcotest.(check (list (triple int int (list string)))) "mutated"
    [ (0, 1, [ "b"; "b" ]) ]
    (captured net);
  Network.flush_channel net ~src:0 ~dst:1;
  Alcotest.(check (list (triple int int (list string)))) "capture intact"
    before (Lazy.force capture)

(* The capture journal: a first capture after a nonempty history, many
   writes to one channel between captures, and a gap long enough that
   the journal is folded in before the next capture. *)
let test_net_capture_journal () =
  let net = of_sends 3 [ (0, 1, 1); (0, 1, 2); (2, 1, 3) ] in
  let first = Network.capture net in
  for m = 4 to 9 do
    Network.send net ~src:0 ~dst:1 m
  done;
  ignore (Network.deliver net ~src:0 ~dst:1);
  Network.flush_channel net ~src:2 ~dst:1;
  let second = Network.capture net in
  (* these two writes are folded in early, by the churn behind them *)
  Network.send net ~src:1 ~dst:0 10;
  Network.flush_channel net ~src:0 ~dst:1;
  for m = 11 to 400 do
    Network.send net ~src:1 ~dst:2 m;
    ignore (Network.deliver net ~src:1 ~dst:2)
  done;
  let third = Network.capture net in
  Network.send net ~src:2 ~dst:0 401;
  Alcotest.(check (list (triple int int (list int)))) "first"
    [ (0, 1, [ 1; 2 ]); (2, 1, [ 3 ]) ]
    (Lazy.force first);
  Alcotest.(check (list (triple int int (list int)))) "second"
    [ (0, 1, [ 2; 4; 5; 6; 7; 8; 9 ]) ]
    (Lazy.force second);
  Alcotest.(check (list (triple int int (list int)))) "third"
    [ (1, 0, [ 10 ]) ]
    (Lazy.force third);
  Alcotest.(check (list (triple int int (list int)))) "now"
    [ (1, 0, [ 10 ]); (2, 0, [ 401 ]) ]
    (captured net)

let test_net_nonempty () =
  let net = of_sends 3 [ (2, 0, "m"); (0, 1, "m") ] in
  Alcotest.(check (list (pair int int))) "sorted channels" [ (0, 1); (2, 0) ]
    (live_channels net)

let test_net_drop_at () =
  let net = of_sends 2 [ (0, 1, "a"); (0, 1, "b") ] in
  Network.drop_at net ~src:0 ~dst:1 ~pos:0;
  Alcotest.(check (list string)) "dropped head" [ "b" ]
    (Network.contents net ~src:0 ~dst:1);
  Network.drop_at net ~src:0 ~dst:1 ~pos:9;
  Alcotest.(check (list string)) "out of range noop" [ "b" ]
    (Network.contents net ~src:0 ~dst:1)

let test_net_duplicate_at () =
  let net = of_sends 2 [ (0, 1, "a"); (0, 1, "b") ] in
  Network.duplicate_at net ~src:0 ~dst:1 ~pos:0;
  Alcotest.(check (list string)) "duplicated in place" [ "a"; "a"; "b" ]
    (Network.contents net ~src:0 ~dst:1)

let test_net_corrupt_at () =
  let net = of_sends 2 [ (0, 1, "a") ] in
  Network.corrupt_at net ~src:0 ~dst:1 ~pos:0 ~f:String.uppercase_ascii;
  Alcotest.(check (list string)) "corrupted" [ "A" ]
    (Network.contents net ~src:0 ~dst:1)

let test_net_reorder_at () =
  let net = of_sends 2 [ (0, 1, "a"); (0, 1, "b"); (0, 1, "c") ] in
  Network.reorder_at net ~src:0 ~dst:1 ~pos:0;
  Alcotest.(check (list string)) "moved to back" [ "b"; "c"; "a" ]
    (Network.contents net ~src:0 ~dst:1);
  Network.reorder_at net ~src:0 ~dst:1 ~pos:7;
  Alcotest.(check (list string)) "out of range noop" [ "b"; "c"; "a" ]
    (Network.contents net ~src:0 ~dst:1);
  Network.reorder_at net ~src:1 ~dst:0 ~pos:0;
  Alcotest.(check (list string)) "empty channel noop" []
    (Network.contents net ~src:1 ~dst:0)

let test_net_flush () =
  let net = of_sends 2 [ (0, 1, "a"); (1, 0, "b") ] in
  Network.flush_channel net ~src:0 ~dst:1;
  Alcotest.(check int) "one channel flushed" 1 (in_flight net ~n:2);
  Network.flush_channel net ~src:1 ~dst:0;
  Alcotest.(check int) "flush all" 0 (in_flight net ~n:2)

let test_net_snapshot_and_fold () =
  let net = of_sends 2 [ (0, 1, "a"); (0, 1, "b") ] in
  Alcotest.(check (list (triple int int (list string)))) "snapshot"
    [ (0, 1, [ "a"; "b" ]) ]
    (captured net);
  Alcotest.(check int) "fold" 2 (Network.channel_length net ~src:0 ~dst:1)

let test_net_pid_bounds () =
  let net = Network.create ~n:2 in
  Alcotest.check_raises "bad pid" (Invalid_argument "Network: pid out of range")
    (fun () -> Network.send net ~src:0 ~dst:5 "x")

(* --- delivery-ready staging (delays and partitions) --------------- *)

let test_net_send_delay_staged () =
  let net = Network.create ~n:2 in
  Network.send net ~delay:3 ~src:0 ~dst:1 "a";
  Alcotest.(check int) "in flight" 1 (in_flight net ~n:2);
  Alcotest.(check int) "staged, not live" 1 (Network.waiting_count net);
  Alcotest.(check int) "live count" 0 (Network.live_count net);
  Alcotest.(check (list (pair int int))) "nonempty hides staged" []
    (live_channels net);
  Alcotest.(check bool) "deliver refuses staged head" true
    (Network.deliver net ~src:0 ~dst:1 = None);
  Alcotest.(check (list string)) "contents still shows it" [ "a" ]
    (Network.contents net ~src:0 ~dst:1);
  Network.advance net ~now:3;
  Alcotest.(check (list (pair int int))) "ready at its step" [ (0, 1) ]
    (live_channels net);
  Alcotest.(check int) "no longer waiting" 0 (Network.waiting_count net);
  Alcotest.(check (option string)) "deliverable head after advance" (Some "a")
    (Network.deliver net ~src:0 ~dst:1)

let test_net_advance_monotone () =
  let net = Network.create ~n:2 in
  Network.send net ~delay:10 ~src:0 ~dst:1 "a";
  Network.advance net ~now:5;
  Alcotest.(check int) "still staged at 5" 1 (Network.waiting_count net);
  (* a stale (smaller) clock is ignored, not applied *)
  Network.advance net ~now:2;
  Network.advance net ~now:10;
  Alcotest.(check int) "live at 10" 1 (Network.live_count net)

let test_net_delay_preserves_fifo () =
  (* a delayed head blocks the whole channel: delays stage readiness,
     they never reorder *)
  let net = Network.create ~n:2 in
  Network.send net ~delay:5 ~src:0 ~dst:1 "slow";
  Network.send net ~src:0 ~dst:1 "fast";
  Alcotest.(check bool) "later send cannot overtake" true
    (Network.deliver net ~src:0 ~dst:1 = None);
  Network.advance net ~now:5;
  Alcotest.(check (option string)) "the delayed head first" (Some "slow")
    (Network.deliver net ~src:0 ~dst:1);
  Alcotest.(check (list string)) "order intact" [ "fast" ]
    (Network.contents net ~src:0 ~dst:1)

let test_net_apply_split_lossy () =
  let net = of_sends 2 [ (0, 1, "a"); (1, 0, "b") ] in
  let dropped =
    Network.apply_split net ~pairs:[ (0, 1) ] ~until:10 ~mode:`Lossy
  in
  Alcotest.(check int) "in-flight flushed" 1 dropped;
  Alcotest.(check (list string)) "channel emptied" []
    (Network.contents net ~src:0 ~dst:1);
  Alcotest.(check (list string)) "other direction untouched" [ "b" ]
    (Network.contents net ~src:1 ~dst:0);
  (match Network.link_status net ~src:0 ~dst:1 with
   | `Lossy 10 -> ()
   | _ -> Alcotest.fail "expected `Lossy 10");
  (match Network.link_status net ~src:1 ~dst:0 with
   | `Open -> ()
   | _ -> Alcotest.fail "expected `Open");
  (* the mask expires with the clock *)
  Network.advance net ~now:10;
  match Network.link_status net ~src:0 ~dst:1 with
  | `Open -> ()
  | _ -> Alcotest.fail "mask must expire at the heal step"

let test_net_apply_split_buffered () =
  let net = of_sends 2 [ (0, 1, "a") ] in
  let dropped =
    Network.apply_split net ~pairs:[ (0, 1) ] ~until:10 ~mode:`Buffered
  in
  Alcotest.(check int) "nothing lost" 0 dropped;
  Alcotest.(check int) "restamped to the heal" 1 (Network.waiting_count net);
  Alcotest.(check bool) "held through the window" true
    (Network.deliver net ~src:0 ~dst:1 = None);
  (* sends into the masked window are accepted but deferred too *)
  Network.send net ~src:0 ~dst:1 "b";
  Network.advance net ~now:10;
  Alcotest.(check (list string)) "flood arrives in order after heal"
    [ "a"; "b" ]
    (Network.contents net ~src:0 ~dst:1);
  Alcotest.(check int) "all ready" 1 (Network.live_count net)

let test_net_split_overlap_and_past () =
  let net = Network.create ~n:2 in
  ignore (Network.apply_split net ~pairs:[ (0, 1) ] ~until:10 ~mode:`Buffered);
  (* overlapping window: latest heal step wins, newest mode wins *)
  ignore (Network.apply_split net ~pairs:[ (0, 1) ] ~until:5 ~mode:`Lossy);
  (match Network.link_status net ~src:0 ~dst:1 with
   | `Lossy 10 -> ()
   | _ -> Alcotest.fail "expected `Lossy 10 (max heal, newest mode)");
  (* a window already in the past is a no-op *)
  Network.advance net ~now:20;
  let dropped =
    Network.apply_split net ~pairs:[ (0, 1) ] ~until:20 ~mode:`Lossy
  in
  Alcotest.(check int) "past window drops nothing" 0 dropped;
  match Network.link_status net ~src:0 ~dst:1 with
  | `Open -> ()
  | _ -> Alcotest.fail "past window must not mask"

let test_net_staged_visible_to_snapshot () =
  let net = Network.create ~n:2 in
  Network.send net ~delay:4 ~src:0 ~dst:1 "a";
  Alcotest.(check (list (triple int int (list string)))) "snapshot sees staged"
    [ (0, 1, [ "a" ]) ]
    (captured net);
  Alcotest.(check int) "fold sees staged" 1
    (Network.channel_length net ~src:0 ~dst:1);
  Network.corrupt_at net ~src:0 ~dst:1 ~pos:0 ~f:String.uppercase_ascii;
  Alcotest.(check int) "corrupt keeps the stamp staged" 1
    (Network.waiting_count net)

(* --- model test: the network against per-channel lists ------------ *)

type net_op =
  | Op_send of (int * int) * int option (* channel, delay *)
  | Op_deliver of (int * int)
  | Op_deliver_nth of int (* the scheduler's draw: rank mod live count *)
  | Op_advance of int (* clock step; nonpositive steps are ignored *)
  | Op_split of (int * int) list * int * [ `Lossy | `Buffered ] (* heal - now *)
  | Op_drop of (int * int) * int (* channel, position *)
  | Op_duplicate of (int * int) * int
  | Op_corrupt of (int * int) * int
  | Op_reorder of (int * int) * int
  | Op_flush of (int * int)
  | Op_capture

let show_net_case (n, ops) =
  let ch (s, d) = Printf.sprintf "%d>%d" s d in
  let op = function
    | Op_send (c, None) -> "send " ^ ch c
    | Op_send (c, Some k) -> Printf.sprintf "send %s +%d" (ch c) k
    | Op_deliver c -> "deliver " ^ ch c
    | Op_deliver_nth k -> Printf.sprintf "deliver #%d" k
    | Op_advance k -> Printf.sprintf "advance %+d" k
    | Op_split (cs, k, m) ->
      Printf.sprintf "split %s +%d %s"
        (String.concat "," (List.map ch cs))
        k
        (match m with `Lossy -> "lossy" | `Buffered -> "buffered")
    | Op_drop (c, p) -> Printf.sprintf "drop %s@%d" (ch c) p
    | Op_duplicate (c, p) -> Printf.sprintf "duplicate %s@%d" (ch c) p
    | Op_corrupt (c, p) -> Printf.sprintf "corrupt %s@%d" (ch c) p
    | Op_reorder (c, p) -> Printf.sprintf "reorder %s@%d" (ch c) p
    | Op_flush c -> "flush " ^ ch c
    | Op_capture -> "capture"
  in
  Printf.sprintf "n=%d: %s" n (String.concat "; " (List.map op ops))

let gen_net_case =
  let open QCheck2.Gen in
  (* mostly small networks; now and then a wide one, so the per-source
     destination bitsets span several words (few sources there, so
     channels share rows) *)
  let* n = frequency [ (5, int_range 2 6); (1, oneofl [ 63; 130 ]) ] in
  let src = int_range 0 (if n > 6 then 2 else n - 1) in
  let chan = pair src (int_range 0 (n - 1)) in
  let at f = map2 f chan (int_range 0 3) in
  let op =
    frequency
      [ (6, map2 (fun c k -> Op_send (c, k)) chan
              (frequency
                 [ (3, return None); (1, map Option.some (int_range 0 4)) ]));
        (3, map (fun c -> Op_deliver c) chan);
        (4, map (fun k -> Op_deliver_nth k) nat);
        (2, map (fun k -> Op_advance k) (int_range (-1) 3));
        (1, map3 (fun cs k m -> Op_split (cs, k, m))
              (list_size (int_range 1 3) chan) (int_range 0 5)
              (oneofl [ `Lossy; `Buffered ]));
        (1, at (fun c p -> Op_drop (c, p)));
        (1, at (fun c p -> Op_duplicate (c, p)));
        (1, at (fun c p -> Op_corrupt (c, p)));
        (1, at (fun c p -> Op_reorder (c, p)));
        (1, map (fun c -> Op_flush c) chan);
        (3, return Op_capture) ]
  in
  pair (return n) (list_size (int_range 0 60) op)

(* Runs [ops] on a network and on a model — each channel a front-first
   list of (payload, ready step), plus the clock and the partition mask
   — and checks, after every op, each query the scheduler, the crash
   drain and the fault primitives use.  Captures are ops too, at random
   gaps (so each one folds in a journal of any length, and the first
   one may follow a long history); each must still read as that
   moment's contents at the end. *)
let net_agrees_with_model (n, ops) =
  let net = Network.create ~n in
  let chans = Hashtbl.create 16 and blocked = Hashtbl.create 4 in
  let now = ref 0 and fresh = ref 0 in
  let get c = Option.value ~default:[] (Hashtbl.find_opt chans c) in
  let put c q =
    if q = [] then Hashtbl.remove chans c else Hashtbl.replace chans c q
  in
  let occupied () =
    List.sort compare (Hashtbl.fold (fun c q acc -> (c, q) :: acc) chans [])
  in
  let ready = function (_, r) :: _ -> r <= !now | [] -> false in
  let heads keep =
    List.filter_map (fun (c, q) -> if keep (ready q) then Some c else None)
      (occupied ())
  in
  let live () = heads Fun.id and staged () = heads not in
  let listing () =
    List.map (fun ((s, d), q) -> (s, d, List.map fst q)) (occupied ())
  in
  (* every channel an op names; the rest stay empty *)
  let touched =
    List.sort_uniq compare
      (List.concat_map
         (function
           | Op_send (c, _)
           | Op_deliver c
           | Op_drop (c, _)
           | Op_duplicate (c, _)
           | Op_corrupt (c, _)
           | Op_reorder (c, _)
           | Op_flush c ->
             [ c ]
           | Op_split (cs, _, _) -> cs
           | Op_deliver_nth _ | Op_advance _ | Op_capture -> [])
         ops)
  in
  let captures = ref [] in
  let edit c pos f =
    let q = get c in
    if pos < List.length q then begin
      let before = List.filteri (fun i _ -> i < pos) q
      and after = List.filteri (fun i _ -> i > pos) q in
      put c (f before (List.nth q pos) after)
    end
  in
  let deliver ((src, dst) as c) =
    let expect =
      match get c with
      | (m, r) :: rest when r <= !now -> put c rest; Some m
      | _ -> None
    in
    Network.deliver net ~src ~dst = expect
  in
  let apply = function
    | Op_send (((src, dst) as c), delay) ->
      incr fresh;
      Network.send ?delay net ~src ~dst !fresh;
      let r = !now + max 0 (Option.value ~default:0 delay) in
      let r =
        match Hashtbl.find_opt blocked c with
        | Some (until, `Buffered) when until > !now -> max r until
        | _ -> r
      in
      put c (get c @ [ (!fresh, r) ]);
      true
    | Op_deliver c -> deliver c
    | Op_deliver_nth k ->
      let count = Network.live_count net in
      count = 0
      ||
      let c = Network.nth_live net (k mod count) in
      c = List.nth (live ()) (k mod count) && deliver c
    | Op_advance k ->
      Network.advance net ~now:(!now + k);
      if k > 0 then begin
        now := !now + k;
        Hashtbl.filter_map_inplace
          (fun _ (until, m) -> if until > !now then Some (until, m) else None)
          blocked
      end;
      true
    | Op_split (cs, k, mode) ->
      let until = !now + k in
      let lost = Network.apply_split net ~pairs:cs ~until ~mode in
      let expect =
        if until <= !now then 0
        else
          List.fold_left
            (fun lost c ->
              Hashtbl.replace blocked c
                (match Hashtbl.find_opt blocked c with
                 | Some (u, _) -> (max u until, mode)
                 | None -> (until, mode));
              match mode with
              | `Lossy ->
                let k = List.length (get c) in
                put c [];
                lost + k
              | `Buffered ->
                put c (List.map (fun (m, r) -> (m, max r until)) (get c));
                lost)
            0 cs
      in
      lost = expect
    | Op_drop (((src, dst) as c), pos) ->
      Network.drop_at net ~src ~dst ~pos;
      edit c pos (fun b _ a -> b @ a);
      true
    | Op_duplicate (((src, dst) as c), pos) ->
      Network.duplicate_at net ~src ~dst ~pos;
      edit c pos (fun b x a -> b @ (x :: x :: a));
      true
    | Op_corrupt (((src, dst) as c), pos) ->
      Network.corrupt_at net ~src ~dst ~pos ~f:(fun m -> -m);
      edit c pos (fun b (m, r) a -> b @ ((-m, r) :: a));
      true
    | Op_reorder (((src, dst) as c), pos) ->
      Network.reorder_at net ~src ~dst ~pos;
      edit c pos (fun b x a -> b @ a @ [ x ]);
      true
    | Op_flush ((src, dst) as c) ->
      Network.flush_channel net ~src ~dst;
      put c [];
      true
    | Op_capture ->
      captures := (Network.capture net, listing ()) :: !captures;
      true
  in
  let consistent () =
    let live = live () and staged = staged () in
    let into dst cs =
      List.filter_map (fun (s, d) -> if d = dst then Some s else None) cs
    in
    let folded =
      Network.fold_nonempty (fun acc ~src ~dst -> (src, dst) :: acc) [] net
    in
    let inbound dst =
      Network.fold_inbound_nonempty (fun acc ~src -> src :: acc) [] net ~dst
    in
    Network.live_count net = List.length live
    && List.mapi (fun k _ -> Network.nth_live net k) live = live
    && List.rev folded = live
    && List.for_all
         (fun dst ->
           Network.live_into net ~dst = List.length (into dst live)
           && List.rev (inbound dst) = into dst live @ into dst staged)
         (Pid.range n)
    && Network.waiting_count net = List.length staged
    && List.for_all
         (fun ((src, dst) as c) ->
           let q = get c in
           Network.contents net ~src ~dst = List.map fst q
           && Network.channel_length net ~src ~dst = List.length q)
         touched
    && Hashtbl.fold
         (fun (src, dst) (until, mode) ok ->
           ok
           && Network.link_status net ~src ~dst
              =
              if until <= !now then `Open
              else
                match mode with
                | `Lossy -> `Lossy until
                | `Buffered -> `Buffered until)
         blocked true
  in
  let ok = List.for_all (fun op -> apply op && consistent ()) ops in
  ok && List.for_all (fun (cap, expect) -> Lazy.force cap = expect) !captures

let prop_net_matches_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"random ops match per-channel lists"
       ~print:show_net_case gen_net_case net_agrees_with_model)

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)

let test_faults_selectors () =
  Alcotest.(check (list (pair int int))) "chan" [ (1, 2) ]
    (Faults.select_chans ~n:3 (Faults.Chan (1, 2)));
  Alcotest.(check int) "any excludes self-loops" 6
    (List.length (Faults.select_chans ~n:3 Faults.Any_chan));
  Alcotest.(check (list (pair int int))) "any over two procs"
    [ (0, 1); (1, 0) ]
    (Faults.select_chans ~n:2 Faults.Any_chan);
  Alcotest.(check (list (pair int int))) "from" [ (1, 0); (1, 2) ]
    (Faults.select_chans ~n:3 (Faults.From 1));
  Alcotest.(check (list (pair int int))) "into" [ (0, 1); (2, 1) ]
    (Faults.select_chans ~n:3 (Faults.Into 1));
  Alcotest.(check (list int)) "procs any" [ 0; 1; 2 ]
    (Faults.select_procs ~n:3 Faults.Any_proc);
  Alcotest.(check (list int)) "proc one" [ 2 ]
    (Faults.select_procs ~n:3 (Faults.Proc 2))

let test_faults_due () =
  let plan =
    [ Faults.at 5 (Faults.Flush Faults.Any_chan);
      Faults.at 2 (Faults.Flush Faults.Any_chan);
      Faults.at 9 (Faults.Flush Faults.Any_chan) ]
  in
  Alcotest.(check int) "first time" 2 (Faults.first_time plan);
  Alcotest.(check int) "nothing ever due" max_int (Faults.first_time []);
  let fired, rest = Faults.due plan 5 in
  Alcotest.(check int) "two due" 2 (List.length fired);
  Alcotest.(check int) "one left" 1 (List.length rest);
  Alcotest.(check int) "last time" 9 (Faults.last_time rest);
  Alcotest.(check int) "empty plan" (-1) (Faults.last_time [])

let test_faults_due_same_time_order () =
  (* same-time events must fire in schedule (list) order *)
  let plan : (unit, unit) Faults.plan =
    [ Faults.at 5 (Faults.Flush Faults.Any_chan);
      Faults.at 5 (Faults.Drop { chan = Faults.Any_chan; count = 1; only = None });
      Faults.at 2 (Faults.Reorder { chan = Faults.Any_chan; count = 1 }) ]
  in
  let fired, rest = Faults.due plan 5 in
  Alcotest.(check (list string)) "schedule order"
    [ "flush"; "drop"; "reorder" ]
    (List.map Faults.label fired);
  Alcotest.(check int) "none left" 0 (List.length rest)

let test_faults_labels () =
  Alcotest.(check string) "flush" "flush" (Faults.label (Faults.Flush Faults.Any_chan));
  Alcotest.(check string) "drop" "drop"
    (Faults.label (Faults.Drop { chan = Faults.Any_chan; count = 1; only = None }));
  Alcotest.(check string) "split" "split"
    (Faults.label
       (Faults.Split { groups = [ [ 0 ] ]; from_t = 0; until_t = 1; mode = Faults.Lossy }));
  Alcotest.(check string) "delay" "delay"
    (Faults.label (Faults.Delay { chan = Faults.Any_chan; dist = Faults.Fixed 1 }));
  Alcotest.(check string) "heal" "heal" (Faults.label Faults.Heal)

let test_faults_split_groups () =
  (* unnamed pids form one implicit remainder group *)
  Alcotest.(check (list (list int))) "remainder group" [ [ 0; 1 ]; [ 2; 3 ] ]
    (Faults.split_groups ~n:4 [ [ 0; 1 ] ]);
  Alcotest.(check (list (list int))) "out-of-range pids filtered"
    [ [ 0 ]; [ 1 ]; [ 2; 3 ] ]
    (Faults.split_groups ~n:4 [ [ 0; 9 ]; [ 1 ] ]);
  Alcotest.(check (list (list int))) "empty groups dropped" [ [ 1 ]; [ 0; 2 ] ]
    (Faults.split_groups ~n:3 [ []; [ 1 ] ])

let test_faults_cross_pairs () =
  let sorted ps = List.sort compare ps in
  Alcotest.(check (list (pair int int))) "singleton vs rest"
    [ (0, 1); (0, 2); (1, 0); (2, 0) ]
    (sorted (Faults.cross_pairs ~n:3 [ [ 0 ] ]));
  Alcotest.(check (list (pair int int))) "two singletons"
    [ (0, 1); (1, 0) ]
    (sorted (Faults.cross_pairs ~n:2 [ [ 0 ]; [ 1 ] ]));
  Alcotest.(check (list (pair int int))) "one group = no cut" []
    (Faults.cross_pairs ~n:3 [ [ 0; 1; 2 ] ])

let test_faults_draw_delay () =
  let rng = Stdext.Rng.create 42 in
  Alcotest.(check int) "fixed" 5 (Faults.draw_delay (Faults.Fixed 5) rng);
  Alcotest.(check int) "fixed clamps negative" 0
    (Faults.draw_delay (Faults.Fixed (-3)) rng);
  for _ = 1 to 200 do
    let d = Faults.draw_delay (Faults.Uniform (2, 4)) rng in
    Alcotest.(check bool) "uniform in bounds" true (d >= 2 && d <= 4);
    let h = Faults.draw_delay (Faults.Heavy_tail { mean = 5; cap = 10 }) rng in
    Alcotest.(check bool) "heavy tail capped" true (h >= 0 && h <= 10)
  done;
  (* same seed, same draws *)
  let draws seed =
    let rng = Stdext.Rng.create seed in
    List.init 20 (fun _ ->
        Faults.draw_delay (Faults.Heavy_tail { mean = 30; cap = 120 }) rng)
  in
  Alcotest.(check (list int)) "deterministic" (draws 9) (draws 9)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let snap time event states : (int, string) Trace.snapshot =
  { Trace.time; event; states; channels = lazy [] }

let test_trace_helpers () =
  let tr =
    [ snap 0 Trace.Init [| 1 |];
      snap 1 (Trace.Fault { label = "drop" }) [| 2 |];
      snap 2 Trace.Stutter [| 3 |] ]
  in
  Alcotest.(check int) "length" 3 (Trace.length tr);
  Alcotest.(check (option int)) "last fault" (Some 1) (Trace.last_fault_index tr);
  Alcotest.(check int) "suffix" 2 (Trace.length (Trace.suffix_from tr 1));
  let mapped = Trace.map_states string_of_int tr in
  Alcotest.(check string) "map_states" "2" (List.nth mapped 1).Trace.states.(0)

let test_trace_no_fault () =
  let tr = [ snap 0 Trace.Init [| 0 |] ] in
  Alcotest.(check (option int)) "none" None (Trace.last_fault_index tr)

let test_trace_map_msgs () =
  let tr =
    [ { Trace.time = 0;
        event = Trace.Deliver { src = 0; dst = 1; msg = 41 };
        states = [| () |];
        channels = lazy [ (0, 1, [ 1; 2 ]) ] } ]
  in
  match Trace.map_msgs (fun x -> x + 1) tr with
  | [ ({ Trace.event = Trace.Deliver { msg = 42; _ }; _ } as s) ]
    when Trace.channels s = [ (0, 1, [ 2; 3 ]) ] ->
    ()
  | _ -> Alcotest.fail "map_msgs did not transform event and channels"

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_counts () =
  let m = Metrics.create () in
  Metrics.note_sends m ~label:"a" 2;
  Metrics.note_sends m ~label:"b" 1;
  Metrics.note_sends m ~label:"c" 0;
  Metrics.note_delivery m;
  Metrics.note_dropped m 3;
  Alcotest.(check int) "sent" 3 (Metrics.sent m);
  Alcotest.(check int) "delivered" 1 (Metrics.delivered m);
  Alcotest.(check int) "dropped" 3 (Metrics.dropped m);
  Alcotest.(check int) "by label" 2 (Metrics.sends_with_label m "a");
  Alcotest.(check int) "missing label" 0 (Metrics.sends_with_label m "zzz");
  Alcotest.(check int) "matching" 3 (Metrics.sends_matching m (fun _ -> true));
  Alcotest.(check (list (pair string int))) "empty outbox adds no label"
    [ ("a", 2); ("b", 1) ] (Metrics.labels m);
  Metrics.reset m;
  Alcotest.(check int) "reset" 0 (Metrics.sent m)

(* ------------------------------------------------------------------ *)
(* Engine: a tiny token-passing node for testing                       *)

module Token_node = struct
  type state = { self : Pid.t; n : int; has_token : bool; passes : int }
  type msg = Token

  let receive ~self:_ ~from:_ Token s = ({ s with has_token = true }, [])

  let actions ~self:_ s =
    if s.has_token then
      [ ( "pass",
          fun s ->
            ( { s with has_token = false; passes = s.passes + 1 },
              [ ((s.self + 1) mod s.n, Token) ] ) ) ]
    else []
end

module E = Engine.Make (Token_node)

let token_engine ~n ~seed () =
  E.create ~n ~seed ~init:(fun self ->
      { Token_node.self; n; has_token = self = 0; passes = 0 })

let total_passes e =
  Array.fold_left (fun acc s -> acc + s.Token_node.passes) 0 (E.states e)

let net_in_flight e = in_flight (E.network e) ~n:(E.n_processes e)

let test_engine_token_circulates () =
  let e = token_engine ~n:3 ~seed:1 () in
  E.run ~steps:300 e;
  (* exactly one token: total passes equals deliveries plus in flight *)
  Alcotest.(check bool) "token alive" true (total_passes e > 10);
  let holders =
    Array.to_list (E.states e)
    |> List.filter (fun s -> s.Token_node.has_token)
    |> List.length
  in
  Alcotest.(check int) "exactly one token" 1 (holders + net_in_flight e)

let test_engine_determinism () =
  let run seed =
    let e = token_engine ~n:4 ~seed () in
    E.run ~steps:200 e;
    (total_passes e, Metrics.sent (E.metrics e))
  in
  Alcotest.(check (pair int int)) "same seed same run" (run 7) (run 7);
  Alcotest.(check bool) "different seed differs somewhere" true
    (run 7 <> run 8 || run 7 = run 8 (* tolerated: tiny state space *))

let test_engine_trace_records () =
  let e = token_engine ~n:2 ~seed:3 () in
  let trace = E.recorder e in
  E.run ~steps:10 e;
  let tr = trace () in
  Alcotest.(check int) "init + 10 steps" 11 (Trace.length tr);
  match tr with
  | { Trace.event = Trace.Init; time = 0; _ } :: _ -> ()
  | _ -> Alcotest.fail "first snapshot must be Init at time 0"

let test_engine_no_record () =
  (* nothing is recorded until a recorder attaches: one attached
     mid-run starts from an Init of the state it finds *)
  let e = token_engine ~n:2 ~seed:3 () in
  E.run ~steps:10 e;
  let found = E.states e in
  let trace = E.recorder e in
  E.run ~steps:5 e;
  let tr = trace () in
  Alcotest.(check int) "attachment + 5 steps" 6 (Trace.length tr);
  match tr with
  | { Trace.event = Trace.Init; time = 10; states; _ } :: _ ->
    Alcotest.(check bool) "Init of the state found" true (states = found)
  | _ -> Alcotest.fail "first snapshot must be Init at time 10"

(* Each recorded snapshot holds the channels as they were when it was
   recorded, through later steps and channel faults: a recorded run's
   trace against an eager listing taken from [contents] after every
   event.  [holders] start with a token; [fault k] is injected before
   step [k]. *)
let check_trace_channels ~n ~seed ~holders ~steps fault =
  let e = token_engine ~n ~seed () in
  let trace = E.recorder e in
  List.iter
    (fun p ->
      E.set_state e p { Token_node.self = p; n; has_token = true; passes = 0 })
    holders;
  let shape chans = List.map (fun (s, d, ms) -> (s, d, List.length ms)) chans in
  let note seen = shape (listing (E.network e) ~n) :: seen in
  let seen = ref (note []) in
  for k = 1 to steps do
    Option.iter (fun f -> E.apply_fault e f; seen := note !seen) (fault k);
    ignore (E.step e);
    seen := note !seen
  done;
  Alcotest.(check bool) "tokens were multiplied" true
    (List.exists
       (fun chans -> List.fold_left (fun acc (_, _, k) -> acc + k) 0 chans > 1)
       !seen);
  Alcotest.(check (list (list (triple int int int))))
    "recorded = channels at record time" (List.rev !seen)
    (List.map (fun snap -> shape (Trace.channels snap)) (trace ()))

let test_engine_trace_channels_survive () =
  check_trace_channels ~n:3 ~seed:5 ~holders:[ 1; 2 ] ~steps:80 (fun k ->
      match k mod 20 with
      | 3 | 9 -> Some (Faults.Duplicate { chan = Faults.Any_chan; count = 1 })
      | 14 -> Some (Faults.Drop { chan = Faults.Any_chan; count = 1; only = None })
      | 17 -> Some (Faults.Flush (Faults.Into 1))
      | _ -> None);
  (* above [Pid.dense_threshold], with channels into many destinations,
     two-word destination rows and a partition that stages and then
     releases whole channels *)
  let n = 70 in
  check_trace_channels ~n ~seed:7 ~holders:(Pid.range n) ~steps:400 (fun k ->
      match k mod 100 with
      | 5 | 25 -> Some (Faults.Duplicate { chan = Faults.Any_chan; count = 2 })
      | 40 -> Some (Faults.Drop { chan = Faults.Any_chan; count = 3; only = None })
      | 55 -> Some (Faults.Flush (Faults.Into 3))
      | 60 ->
        let groups = [ List.init 35 Fun.id ] in
        let mode = if k < 200 then Faults.Buffered else Faults.Lossy in
        Some (Faults.Split { groups; from_t = k - 1; until_t = k + 19; mode })
      | _ -> None)

let test_engine_stutter_when_disabled () =
  (* no process holds the token and channels are empty: only stutters *)
  let e = token_engine ~n:2 ~seed:1 () in
  E.set_state e 0 { Token_node.self = 0; n = 2; has_token = false; passes = 0 };
  E.run ~steps:5 e;
  Alcotest.(check int) "all stutters" 5 (Metrics.stutters (E.metrics e))

let test_engine_fault_drop () =
  let e = token_engine ~n:2 ~seed:2 () in
  (* force a message into flight, then drop everything *)
  let rec until_in_flight budget =
    if budget = 0 then Alcotest.fail "token never sent"
    else if net_in_flight e = 0 then begin
      ignore (E.step e);
      until_in_flight (budget - 1)
    end
  in
  until_in_flight 100;
  E.apply_fault e (Faults.Drop { chan = Faults.Any_chan; count = 99; only = None });
  Alcotest.(check int) "net empty" 0 (net_in_flight e);
  Alcotest.(check int) "fault counted" 1 (Metrics.faults (E.metrics e));
  E.run ~steps:20 e;
  Alcotest.(check int) "token lost: system dead" 20
    (Metrics.stutters (E.metrics e))

let test_engine_fault_duplicate_token () =
  let e = token_engine ~n:2 ~seed:2 () in
  let rec until_in_flight budget =
    if budget = 0 then Alcotest.fail "token never sent"
    else if net_in_flight e = 0 then begin
      ignore (E.step e);
      until_in_flight (budget - 1)
    end
  in
  until_in_flight 100;
  E.apply_fault e (Faults.Duplicate { chan = Faults.Any_chan; count = 1 });
  Alcotest.(check int) "two tokens in flight" 2 (net_in_flight e)

let test_engine_mutate_state_fault () =
  let e = token_engine ~n:2 ~seed:5 () in
  E.apply_fault e
    (Faults.Mutate_state
       { proc = Faults.Proc 1;
         f = (fun _rng s -> { s with Token_node.has_token = true }) });
  let holders =
    Array.to_list (E.states e)
    |> List.filter (fun s -> s.Token_node.has_token)
    |> List.length
  in
  Alcotest.(check int) "second token injected" 2 holders

let test_engine_reset_state_fault () =
  let e = token_engine ~n:2 ~seed:5 () in
  E.apply_fault e
    (Faults.Reset_state
       { proc = Faults.Any_proc;
         f = (fun p -> { Token_node.self = p; n = 2; has_token = false; passes = 0 }) });
  Alcotest.(check int) "all reset" 0 (total_passes e)

(* step until the token is in flight (here: 0 -> 1 in a 2-ring) *)
let force_in_flight e =
  let rec go budget =
    if budget = 0 then Alcotest.fail "token never sent"
    else if net_in_flight e = 0 then begin
      ignore (E.step e);
      go (budget - 1)
    end
  in
  go 100

let test_engine_crash_pauses_internal_actions () =
  let e = token_engine ~n:2 ~seed:3 () in
  (* p0 holds the token; crash it and nothing can happen *)
  E.apply_fault e
    (Faults.Crash { proc = Faults.Proc 0; until_t = 8; lose_deliveries = false });
  Alcotest.(check bool) "crashed" true (E.crashed e 0);
  Alcotest.(check bool) "peer alive" false (E.crashed e 1);
  Alcotest.(check int) "crash counted" 1 (Metrics.crashes (E.metrics e));
  E.run ~steps:8 e;
  Alcotest.(check int) "stutters through the window" 8
    (Metrics.stutters (E.metrics e));
  Alcotest.(check bool) "recovered at until_t" false (E.crashed e 0);
  E.run ~steps:100 e;
  Alcotest.(check bool) "token circulates after recovery" true
    (total_passes e > 5)

let test_engine_crash_buffers_deliveries () =
  let e = token_engine ~n:2 ~seed:2 () in
  force_in_flight e;
  let until_t = E.time e + 10 in
  E.apply_fault e
    (Faults.Crash { proc = Faults.Proc 1; until_t; lose_deliveries = false });
  E.run ~steps:5 e;
  (* the token is addressed to the crashed process: delivery stalls,
     nothing else is enabled, the message survives *)
  Alcotest.(check int) "message buffered" 1 (net_in_flight e);
  Alcotest.(check int) "no deliveries" 0 (Metrics.delivered (E.metrics e));
  E.run ~steps:100 e;
  Alcotest.(check bool) "delivered after recovery" true
    (Metrics.delivered (E.metrics e) > 0);
  Alcotest.(check bool) "token alive" true (total_passes e > 1)

let test_engine_crash_loses_deliveries () =
  let e = token_engine ~n:2 ~seed:2 () in
  force_in_flight e;
  let until_t = E.time e + 10 in
  E.apply_fault e
    (Faults.Crash { proc = Faults.Proc 1; until_t; lose_deliveries = true });
  E.run ~steps:1 e;
  (* the in-flight token is addressed to the dead process: lost *)
  Alcotest.(check int) "message lost" 0 (net_in_flight e);
  Alcotest.(check bool) "loss counted" true (Metrics.dropped (E.metrics e) > 0);
  E.run ~steps:50 e;
  Alcotest.(check int) "token gone: system dead" 0
    (Metrics.delivered (E.metrics e))

let test_engine_crash_expired_window_noop () =
  let e = token_engine ~n:2 ~seed:1 () in
  E.run ~steps:5 e;
  E.apply_fault e
    (Faults.Crash { proc = Faults.Any_proc; until_t = 3; lose_deliveries = true });
  Alcotest.(check bool) "not crashed" false (E.crashed e 0 || E.crashed e 1);
  Alcotest.(check int) "no crash counted" 0 (Metrics.crashes (E.metrics e))

let test_engine_crash_label_and_determinism () =
  Alcotest.(check string) "label" "crash"
    (Faults.label
       (Faults.Crash
          { proc = Faults.Any_proc; until_t = 1; lose_deliveries = false }));
  let run () =
    let e = token_engine ~n:3 ~seed:11 () in
    let plan =
      [ Faults.at 20
          (Faults.Crash
             { proc = Faults.Proc 1; until_t = 60; lose_deliveries = true }) ]
    in
    E.run ~plan ~steps:300 e;
    (total_passes e, Metrics.sent (E.metrics e), Metrics.dropped (E.metrics e))
  in
  Alcotest.(check (triple int int int)) "same seed same run" (run ()) (run ())

let test_engine_split_lossy_loses_inflight_and_sends () =
  let e = token_engine ~n:2 ~seed:2 () in
  force_in_flight e;
  let until_t = E.time e + 10 in
  E.apply_fault e
    (Faults.Split
       { groups = [ [ 0 ] ]; from_t = E.time e; until_t; mode = Faults.Lossy });
  Alcotest.(check int) "in-flight token flushed" 0
    (net_in_flight e);
  Alcotest.(check bool) "loss counted" true (Metrics.dropped (E.metrics e) > 0);
  E.run ~steps:50 e;
  Alcotest.(check int) "token gone: system dead" 0
    (Metrics.delivered (E.metrics e))

let test_engine_split_buffered_delivers_after_heal () =
  let e = token_engine ~n:2 ~seed:2 () in
  force_in_flight e;
  let until_t = E.time e + 10 in
  E.apply_fault e
    (Faults.Split
       { groups = [ [ 0 ] ];
         from_t = E.time e;
         until_t;
         mode = Faults.Buffered });
  E.run ~steps:5 e;
  Alcotest.(check int) "token held, not lost" 1
    (net_in_flight e);
  Alcotest.(check int) "no deliveries in the window" 0
    (Metrics.delivered (E.metrics e));
  (* nothing is enabled and the only message is staged: without the
     staged-message check this would read as quiescent *)
  Alcotest.(check bool) "staged message blocks quiescence" false
    (E.quiescent e);
  E.run ~steps:100 e;
  Alcotest.(check bool) "flood delivered after heal" true
    (Metrics.delivered (E.metrics e) > 0);
  Alcotest.(check bool) "token alive" true (total_passes e > 1)

let test_engine_delay_slows_but_preserves () =
  let run ~delayed =
    let e = token_engine ~n:2 ~seed:6 () in
    if delayed then
      E.apply_fault e
        (Faults.Delay { chan = Faults.Any_chan; dist = Faults.Fixed 4 });
    E.run ~steps:200 e;
    (total_passes e, Metrics.delivered (E.metrics e))
  in
  let passes_plain, _ = run ~delayed:false in
  let passes_delayed, delivered_delayed = run ~delayed:true in
  Alcotest.(check bool) "token survives delays" true (passes_delayed > 5);
  Alcotest.(check bool) "nothing lost, only late" true (delivered_delayed > 5);
  Alcotest.(check bool) "delays slow the ring" true
    (passes_delayed < passes_plain)

let test_engine_split_delay_plan_deterministic () =
  let run () =
    let e = token_engine ~n:3 ~seed:13 () in
    let plan =
      [ Faults.at 10
          (Faults.Split
             { groups = [ [ 1 ] ]; from_t = 10; until_t = 40;
               mode = Faults.Buffered });
        Faults.at 40 Faults.Heal;
        Faults.at 50
          (Faults.Delay
             { chan = Faults.Any_chan;
               dist = Faults.Heavy_tail { mean = 3; cap = 12 } }) ]
    in
    E.run ~plan ~steps:300 e;
    (total_passes e, Metrics.sent (E.metrics e), Metrics.dropped (E.metrics e))
  in
  Alcotest.(check (triple int int int)) "same seed same run" (run ()) (run ())

let test_engine_split_expired_window_noop () =
  let e = token_engine ~n:2 ~seed:1 () in
  E.run ~steps:20 e;
  let before = net_in_flight e in
  E.apply_fault e
    (Faults.Split
       { groups = [ [ 0 ] ]; from_t = 0; until_t = 5; mode = Faults.Lossy });
  Alcotest.(check int) "nothing flushed" before
    (net_in_flight e);
  E.run ~steps:100 e;
  Alcotest.(check bool) "ring unaffected" true (total_passes e > 5)

let test_engine_run_until () =
  let e = token_engine ~n:3 ~seed:9 () in
  let stop engine = total_passes engine >= 5 in
  match E.run_until ~max_steps:1000 ~stop e with
  | Some t ->
    Alcotest.(check bool) "stopped in time" true (t <= 1000);
    Alcotest.(check bool) "condition holds" true (stop e)
  | None -> Alcotest.fail "never reached 5 passes"

let test_engine_run_until_timeout () =
  let e = token_engine ~n:3 ~seed:9 () in
  Alcotest.(check (option int)) "unreachable condition" None
    (E.run_until ~max_steps:50 ~stop:(fun _ -> false) e)

let test_engine_planned_faults_fire () =
  let e = token_engine ~n:2 ~seed:4 () in
  let trace = E.recorder e in
  let plan =
    [ Faults.at 3 (Faults.Flush Faults.Any_chan);
      Faults.at 7 (Faults.Flush Faults.Any_chan) ]
  in
  E.run ~plan ~steps:20 e;
  Alcotest.(check int) "both fired" 2 (Metrics.faults (E.metrics e));
  let fault_times =
    List.filter_map
      (fun (s : (Token_node.state, Token_node.msg) Trace.snapshot) ->
        match s.Trace.event with
        | Trace.Fault _ -> Some s.Trace.time
        | _ -> None)
      (trace ())
  in
  Alcotest.(check (list int)) "at the right times" [ 3; 7 ] fault_times

let prop_engine_deterministic =
  qtest "equal seeds give equal executions" ~count:25 QCheck2.Gen.small_int
    (fun seed ->
      let run () =
        let e = token_engine ~n:3 ~seed () in
        E.run ~steps:100 e;
        (total_passes e, Metrics.sent (E.metrics e), Metrics.delivered (E.metrics e))
      in
      run () = run ())

let () =
  Alcotest.run "sim"
    [ ("pid", [ Alcotest.test_case "range/others" `Quick test_pid_range_others ]);
      ( "network",
        [ Alcotest.test_case "send/deliver fifo" `Quick test_net_send_deliver_fifo;
          Alcotest.test_case "deliver empty" `Quick test_net_deliver_empty;
          Alcotest.test_case "persistence" `Quick
            test_net_capture_survives_mutation;
          Alcotest.test_case "capture journal" `Quick test_net_capture_journal;
          Alcotest.test_case "nonempty" `Quick test_net_nonempty;
          Alcotest.test_case "drop_at" `Quick test_net_drop_at;
          Alcotest.test_case "duplicate_at" `Quick test_net_duplicate_at;
          Alcotest.test_case "corrupt_at" `Quick test_net_corrupt_at;
          Alcotest.test_case "reorder_at" `Quick test_net_reorder_at;
          Alcotest.test_case "flush" `Quick test_net_flush;
          Alcotest.test_case "snapshot/fold" `Quick test_net_snapshot_and_fold;
          Alcotest.test_case "pid bounds" `Quick test_net_pid_bounds;
          Alcotest.test_case "delay staging" `Quick test_net_send_delay_staged;
          Alcotest.test_case "advance monotone" `Quick test_net_advance_monotone;
          Alcotest.test_case "delay preserves fifo" `Quick
            test_net_delay_preserves_fifo;
          Alcotest.test_case "split lossy" `Quick test_net_apply_split_lossy;
          Alcotest.test_case "split buffered" `Quick
            test_net_apply_split_buffered;
          Alcotest.test_case "split overlap/past" `Quick
            test_net_split_overlap_and_past;
          Alcotest.test_case "staged in snapshot" `Quick
            test_net_staged_visible_to_snapshot;
          prop_net_matches_model ] );
      ( "faults",
        [ Alcotest.test_case "selectors" `Quick test_faults_selectors;
          Alcotest.test_case "due" `Quick test_faults_due;
          Alcotest.test_case "due same-time order" `Quick
            test_faults_due_same_time_order;
          Alcotest.test_case "labels" `Quick test_faults_labels;
          Alcotest.test_case "split groups" `Quick test_faults_split_groups;
          Alcotest.test_case "cross pairs" `Quick test_faults_cross_pairs;
          Alcotest.test_case "draw delay" `Quick test_faults_draw_delay ] );
      ( "trace",
        [ Alcotest.test_case "helpers" `Quick test_trace_helpers;
          Alcotest.test_case "no fault" `Quick test_trace_no_fault;
          Alcotest.test_case "map_msgs" `Quick test_trace_map_msgs ] );
      ("metrics", [ Alcotest.test_case "counts" `Quick test_metrics_counts ]);
      ( "engine",
        [ Alcotest.test_case "token circulates" `Quick test_engine_token_circulates;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "trace records" `Quick test_engine_trace_records;
          Alcotest.test_case "no record" `Quick test_engine_no_record;
          Alcotest.test_case "trace channels survive later steps" `Quick
            test_engine_trace_channels_survive;
          Alcotest.test_case "stutter" `Quick test_engine_stutter_when_disabled;
          Alcotest.test_case "drop fault" `Quick test_engine_fault_drop;
          Alcotest.test_case "duplicate fault" `Quick
            test_engine_fault_duplicate_token;
          Alcotest.test_case "mutate fault" `Quick test_engine_mutate_state_fault;
          Alcotest.test_case "reset fault" `Quick test_engine_reset_state_fault;
          Alcotest.test_case "crash pauses actions" `Quick
            test_engine_crash_pauses_internal_actions;
          Alcotest.test_case "crash buffers deliveries" `Quick
            test_engine_crash_buffers_deliveries;
          Alcotest.test_case "crash loses deliveries" `Quick
            test_engine_crash_loses_deliveries;
          Alcotest.test_case "crash expired window" `Quick
            test_engine_crash_expired_window_noop;
          Alcotest.test_case "crash label/determinism" `Quick
            test_engine_crash_label_and_determinism;
          Alcotest.test_case "split lossy" `Quick
            test_engine_split_lossy_loses_inflight_and_sends;
          Alcotest.test_case "split buffered" `Quick
            test_engine_split_buffered_delivers_after_heal;
          Alcotest.test_case "delay" `Quick test_engine_delay_slows_but_preserves;
          Alcotest.test_case "split/delay determinism" `Quick
            test_engine_split_delay_plan_deterministic;
          Alcotest.test_case "split expired window" `Quick
            test_engine_split_expired_window_noop;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "run_until timeout" `Quick
            test_engine_run_until_timeout;
          Alcotest.test_case "planned faults" `Quick
            test_engine_planned_faults_fire;
          prop_engine_deterministic ] ) ]
