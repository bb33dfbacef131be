type phase = Global | Split

type topo = {
  epoch : int;
  phase : phase;
  groups : Pid.t list list;
  live : bool array;
  since : int;
}

type timeline = { segs : topo array }

(* effective windows, extracted syntactically from the plan *)
type swin = { w_groups : Pid.t list list; w_from : int; w_until : int }
type cwin = { c_procs : Pid.t list; c_from : int; c_until : int }

let windows ~n plan =
  let splits, crashes =
    List.fold_left
      (fun (ws, cs) (e : _ Faults.event) ->
        match e.Faults.kind with
        | Faults.Split { groups; from_t; until_t; mode = _ }
          when until_t > from_t ->
          let groups = Faults.split_groups ~n groups in
          if List.length groups > 1 then
            ({ w_groups = groups; w_from = from_t; w_until = until_t } :: ws, cs)
          else (ws, cs)
        | Faults.Crash { proc; until_t; lose_deliveries = _ }
          when until_t > e.Faults.at ->
          ( ws,
            { c_procs = Faults.select_procs ~n proc;
              c_from = e.Faults.at;
              c_until = until_t }
            :: cs )
        | _ -> (ws, cs))
      ([], []) plan
  in
  (List.rev splits, List.rev crashes)

let group_index groups k =
  let rec go i = function
    | [] -> -1
    | g :: rest -> if List.mem k g then i else go (i + 1) rest
  in
  go 0 groups

(* the topology at one instant: refine the partitions of every active
   split window (same group iff same group in each), kill crashed pids.
   Iterating pids ascending makes the first-seen bucket order canonical:
   groups ordered by least member, members ascending. *)
let topo_of ~n ~splits ~crashes t =
  let active = List.filter (fun w -> w.w_from <= t && t < w.w_until) splits in
  let live = Array.make n true in
  List.iter
    (fun c ->
      if c.c_from <= t && t < c.c_until then
        List.iter (fun p -> if p >= 0 && p < n then live.(p) <- false) c.c_procs)
    crashes;
  let groups =
    match active with
    | [] -> [ List.init n Fun.id ]
    | ws ->
      let buckets = ref [] in
      (* assoc list key -> rev members, kept in first-seen order *)
      List.iter
        (fun k ->
          let key = List.map (fun w -> group_index w.w_groups k) ws in
          match List.assoc_opt key !buckets with
          | Some cell -> cell := k :: !cell
          | None -> buckets := !buckets @ [ (key, ref [ k ]) ])
        (List.init n Fun.id);
      List.map (fun (_, cell) -> List.rev !cell) !buckets
  in
  let phase = if List.length groups > 1 then Split else Global in
  { epoch = 0; phase; groups; live; since = t }

let same_topo a b =
  a.phase = b.phase && a.groups = b.groups && a.live = b.live

let of_plan ~n plan =
  let splits, crashes = windows ~n plan in
  let bounds =
    List.concat_map (fun w -> [ w.w_from; w.w_until ]) splits
    @ List.concat_map (fun c -> [ c.c_from; c.c_until ]) crashes
    |> List.filter (fun t -> t > 0)
    |> List.sort_uniq compare
  in
  let raw = List.map (topo_of ~n ~splits ~crashes) (0 :: bounds) in
  let merged =
    List.fold_left
      (fun acc t ->
        match acc with
        | prev :: _ when same_topo prev t -> acc
        | _ -> t :: acc)
      [] raw
    |> List.rev
    |> List.mapi (fun i t -> { t with epoch = i })
  in
  { segs = Array.of_list merged }

let trivial ~n = of_plan ~n []
let nontrivial tl = Array.length tl.segs > 1
let epochs tl = Array.to_list tl.segs

let at tl t =
  (* greatest epoch with [since <= t]; epoch 0 for earlier times *)
  let segs = tl.segs in
  let rec go lo hi =
    (* invariant: segs.(lo).since <= t (or lo = 0), segs above hi are > t *)
    if lo >= hi then segs.(lo)
    else
      let mid = (lo + hi + 1) / 2 in
      if segs.(mid).since <= t then go mid hi else go lo (mid - 1)
  in
  go 0 (Array.length segs - 1)

let group_of topo k = group_index topo.groups k

let group_members topo k =
  match group_of topo k with
  | -1 -> []
  | i -> List.nth topo.groups i

let same_group topo j k =
  let gj = group_of topo j in
  gj >= 0 && gj = group_of topo k

type cursor = { tl : timeline; mutable idx : int }

let cursor tl = { tl; idx = 0 }

let advance c t =
  let segs = c.tl.segs in
  let len = Array.length segs in
  while c.idx + 1 < len && segs.(c.idx + 1).since <= t do
    c.idx <- c.idx + 1
  done;
  segs.(c.idx)

let groups_label topo =
  String.concat "|"
    (List.map
       (fun g ->
         "{" ^ String.concat "," (List.map string_of_int g) ^ "}")
       topo.groups)
