type verdict =
  | Holds
  | Violated of { at : int; reason : string }
  | Pending of { obligations : int list }

let is_ok = function Holds -> true | Violated _ | Pending _ -> false

let pp_verdict ppf = function
  | Holds -> Format.fprintf ppf "holds"
  | Violated { at; reason } ->
    Format.fprintf ppf "violated at %d: %s" at reason
  | Pending { obligations } ->
    (* each run of consecutive indices as one interval [a-b] *)
    let runs =
      List.fold_left
        (fun acc i ->
          match acc with
          | (a, b) :: rest when i = b + 1 -> (a, i) :: rest
          | _ -> (i, i) :: acc)
        [] obligations
    in
    Format.fprintf ppf "pending obligations at %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         (fun ppf (a, b) ->
           if a = b then Format.pp_print_int ppf a
           else Format.fprintf ppf "%d-%d" a b))
      (List.rev runs)

let describe name fallback =
  match name with Some n -> n | None -> fallback

let invariant ?name p tr =
  let rec go i = function
    | [] -> Holds
    | s :: rest ->
      if p s then go (i + 1) rest
      else
        Violated { at = i; reason = describe name "invariant" ^ " fails" }
  in
  go 0 tr

let step_invariant ?name r tr =
  let rec go i = function
    | a :: (b :: _ as rest) ->
      if r a b then go (i + 1) rest
      else
        Violated
          { at = i + 1; reason = describe name "step-invariant" ^ " fails" }
    | [] | [ _ ] -> Holds
  in
  go 0 tr

let leads_to ?name ~p ~q tr =
  ignore name;
  (* Walk backwards: remember the nearest later-or-equal q-point. *)
  let arr = Array.of_list tr in
  let n = Array.length arr in
  let pending = ref [] in
  let q_ahead = ref false in
  for i = n - 1 downto 0 do
    if q arr.(i) then q_ahead := true;
    if p arr.(i) && not !q_ahead then pending := i :: !pending
  done;
  if !pending = [] then Holds else Pending { obligations = !pending }

let ok_with_tail ~trace_len ~margin = function
  | Holds -> true
  | Violated _ -> false
  | Pending { obligations } ->
    List.for_all (fun i -> i >= trace_len - margin) obligations

let both a b =
  match a, b with
  | Violated _, _ -> a
  | _, Violated _ -> b
  | Pending { obligations = xs }, Pending { obligations = ys } ->
    Pending { obligations = List.sort_uniq compare (xs @ ys) }
  | Pending _, Holds -> a
  | Holds, _ -> b

let all vs = List.fold_left both Holds vs

let forall f n = all (List.init n f)

let forall_pairs f n =
  let pairs =
    List.concat_map
      (fun j -> List.filter_map (fun k -> if j <> k then Some (j, k) else None)
                  (List.init n Fun.id))
      (List.init n Fun.id)
  in
  all (List.map (fun (j, k) -> f j k) pairs)
