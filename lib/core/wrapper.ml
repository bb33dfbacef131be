(* The wrapper language.  A wrapper is one guarded send over the
   specification-level View vocabulary; the hand-written W is a closed
   term of this language (W'(δ) is that term under the harness's
   timer), and the synthesizer (lib/synth) enumerates the same
   language in size order. *)

type mode_pred = Is_thinking | Is_hungry | Is_eating

type peer_test = Any_peer | Peer_lt_own | Own_lt_peer

type guard =
  | Mode of mode_pred
  | Not of guard
  | And of guard * guard
  | Or of guard * guard
  | Exists_peer of peer_test
  | Forall_peer of peer_test

type send = Send_request | Send_reply | Send_release

type t = { guard : guard; target : peer_test; send : send }

let mode_holds p v =
  match p with
  | Is_thinking -> View.thinking v
  | Is_hungry -> View.hungry v
  | Is_eating -> View.eating v

let peer_holds test (v : View.t) k =
  match test with
  | Any_peer -> true
  | Peer_lt_own -> View.earlier v ~than:v.req k
  | Own_lt_peer -> Clocks.Timestamp.lt v.req (View.local_req v k)

(* Is there a peer [k ≥ from], [k ≠ j], whose test reads [want]?  The
   quantifiers loop over pids instead of a peer list, so evaluating a
   guard allocates nothing. *)
let rec some_peer test (v : View.t) ~want ~n from =
  from < n
  && ((from <> v.self && peer_holds test v from = want)
      || some_peer test v ~want ~n (from + 1))

let rec guard_holds g (v : View.t) ~n =
  match g with
  | Mode p -> mode_holds p v
  | Not g -> not (guard_holds g v ~n)
  | And (a, b) -> guard_holds a v ~n && guard_holds b v ~n
  | Or (a, b) -> guard_holds a v ~n || guard_holds b v ~n
  | Exists_peer t -> some_peer t v ~want:true ~n 0
  | Forall_peer t -> not (some_peer t v ~want:false ~n 0)

let term_targets t (v : View.t) ~n =
  if guard_holds t.guard v ~n then
    List.filter (peer_holds t.target v) (Sim.Pid.others ~self:v.self ~n)
  else []

(* Send_reply / Send_release stamp the sender's current clock reading —
   the only timestamp the View vocabulary offers besides REQ_j.  A
   candidate choosing these is how the synthesizer can propose (and the
   oracle refute) reply-forging wrappers. *)
let payload send (v : View.t) =
  match send with
  | Send_request -> Msg.Request v.req
  | Send_reply -> Msg.Reply (Clocks.Timestamp.make ~clock:v.clock ~pid:v.self)
  | Send_release -> Msg.Release (Clocks.Timestamp.make ~clock:v.clock ~pid:v.self)

let eval t v ~n = List.map (fun k -> (k, payload t.send v)) (term_targets t v ~n)

(* ------------------------------------------------------------------ *)
(* The hand-written wrappers as closed terms                           *)

let w_unrefined =
  { guard = Mode Is_hungry; target = Any_peer; send = Send_request }

let w_refined =
  { guard = Mode Is_hungry; target = Peer_lt_own; send = Send_request }

(* ------------------------------------------------------------------ *)
(* Size measure: one per guard node, quantifiers pay for their test;
   every wrapper pays 2 for its target/send pair.  w_refined has
   size 3 — the synthesizer's "level-2 guards in size order" starts
   below it and must climb to it. *)

let rec guard_size = function
  | Mode _ -> 1
  | Not g -> 1 + guard_size g
  | And (a, b) | Or (a, b) -> 1 + guard_size a + guard_size b
  | Exists_peer _ | Forall_peer _ -> 2

let size t = guard_size t.guard + 2

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = Stdlib.compare a b

(* ------------------------------------------------------------------ *)
(* Printer, in the paper's notation                                    *)

let mode_pred_to_string = function
  | Is_thinking -> "t.j"
  | Is_hungry -> "h.j"
  | Is_eating -> "e.j"

let peer_test_to_string = function
  | Any_peer -> "true"
  | Peer_lt_own -> "j.REQ_k lt REQ_j"
  | Own_lt_peer -> "REQ_j lt j.REQ_k"

let rec guard_to_string = function
  | Mode p -> mode_pred_to_string p
  | Not g -> Printf.sprintf "not (%s)" (guard_to_string g)
  | And (a, b) ->
    Printf.sprintf "%s and %s" (guard_operand a) (guard_operand b)
  | Or (a, b) -> Printf.sprintf "%s or %s" (guard_operand a) (guard_operand b)
  | Exists_peer t ->
    Printf.sprintf "(exists k : %s)" (peer_test_to_string t)
  | Forall_peer t ->
    Printf.sprintf "(forall k : %s)" (peer_test_to_string t)

and guard_operand g =
  match g with
  | And _ | Or _ -> Printf.sprintf "(%s)" (guard_to_string g)
  | _ -> guard_to_string g

let send_to_string = function
  | Send_request -> "send(REQ_j, j, k)"
  | Send_reply -> "send(REPLY ts.j, j, k)"
  | Send_release -> "send(RELEASE ts.j, j, k)"

let to_string t =
  let dom =
    match t.target with
    | Any_peer -> "k /= j"
    | test -> peer_test_to_string test
  in
  Printf.sprintf "%s -> (forall k : %s : %s)" (guard_to_string t.guard) dom
    (send_to_string t.send)

let pp ppf t = Format.pp_print_string ppf (to_string t)

let action_label = "wrapper"
