(* The verdict is lazy: [leads_to] would otherwise rebuild (and
   reverse) its obligation list at every feed, making a long streaming
   run quadratic in its own length; nothing reads verdicts more than a
   handful of times per run. *)
type 'a t = { verdict : Temporal.verdict Lazy.t; feed : 'a -> 'a t }

let verdict m = Lazy.force m.verdict

let feed m x = m.feed x

let feed_all m xs = List.fold_left feed m xs

let run m xs = verdict (feed_all m xs)

let describe name fallback =
  match name with Some n -> n | None -> fallback

(* A violated safety monitor stays violated and ignores further input. *)
let rec sink verdict = { verdict = Lazy.from_val verdict; feed = (fun _ -> sink verdict) }

let holds = Lazy.from_val Temporal.Holds

let invariant ?name p =
  let label = describe name "invariant" in
  let rec at i =
    { verdict = holds;
      feed =
        (fun x ->
          if p x then at (i + 1)
          else sink (Violated { at = i; reason = label ^ " fails" })) }
  in
  at 0

let step_invariant ?name r =
  let label = describe name "step-invariant" in
  let rec after i prev =
    { verdict = holds;
      feed =
        (fun x ->
          if r prev x then after (i + 1) x
          else sink (Violated { at = i + 1; reason = label ^ " fails" })) }
  in
  { verdict = holds; feed = (fun x -> after 0 x) }

let unless ?name p q =
  let label = describe name "unless" in
  step_invariant ~name:label (fun a b -> (not (p a && not (q a))) || p b || q b)

let stable ?name p =
  let label = describe name "stable" in
  unless ~name:label p (fun _ -> false)

let leads_to ?name p q =
  ignore name;
  (* open obligations, most recent first; q discharges all *)
  let rec at i open_obligations =
    let verdict =
      lazy
        (match open_obligations with
        | [] -> Temporal.Holds
        | _ -> Temporal.Pending { obligations = List.rev open_obligations })
    in
    { verdict;
      feed =
        (fun x ->
          let open_obligations = if q x then [] else open_obligations in
          let open_obligations =
            if p x && not (q x) then i :: open_obligations
            else open_obligations
          in
          at (i + 1) open_obligations) }
  in
  at 0 []

let rec all ms =
  { verdict = lazy (Temporal.all (List.map verdict ms));
    feed = (fun x -> all (List.map (fun m -> feed m x) ms)) }

let leads_to_always ?name p q =
  let label = describe name "leads-to-always" in
  all
    [ stable ~name:(label ^ " (stability of target)") q; leads_to p q ]

let rec contramap f m =
  { verdict = m.verdict; feed = (fun x -> contramap f (feed m (f x))) }

let stateful ~init ~step =
  let rec at s verdict =
    { verdict = Lazy.from_val verdict;
      feed =
        (fun x ->
          match verdict with
          | Temporal.Violated _ -> sink verdict
          | Temporal.Holds | Temporal.Pending _ ->
            let s', verdict' = step s x in
            at s' verdict') }
  in
  at init Temporal.Holds
