open Stdext
module S = Tme.Scenarios

type config = { n : int; horizon : int; budget : int; partitions : bool }

let config ?(partitions = false) ~n ~horizon ~budget () =
  if n < 2 then invalid_arg "Plan_gen.config: need n >= 2";
  if horizon < 10 then invalid_arg "Plan_gen.config: need horizon >= 10";
  if budget < 0 then invalid_arg "Plan_gen.config: need budget >= 0";
  { n; horizon; budget; partitions }

(* Faults land in the first ~60% of the horizon so the tail is long
   enough for convergence analysis to have a suffix to judge. *)
let latest_fault cfg = max 1 (cfg.horizon * 3 / 5)

let spec_time = function
  | S.Drop_requests { at; _ }
  | S.Drop_any { at; _ }
  | S.Duplicate { at; _ }
  | S.Corrupt_messages { at; _ }
  | S.Reorder { at; _ }
  | S.Flush { at }
  | S.Corrupt_state { at; _ }
  | S.Reset_state { at; _ } -> at
  | S.Drop_requests_window { from_t; _ }
  | S.Partition { from_t; _ }
  | S.Crash { from_t; _ }
  | S.Split { from_t; _ } -> from_t
  | S.Delay { at; _ } -> at

let gen_procs rng n =
  if Rng.chance rng 0.3 then Sim.Faults.Any_proc
  else Sim.Faults.Proc (Rng.int rng n)

(* A random two-sided partition: [k] shuffled pids on one side, the
   implicit remainder on the other — stored explicitly so labels and
   shrinking see the whole group structure. *)
let gen_split rng cfg ~at ~mode =
  let pids = Rng.shuffle_list rng (Sim.Pid.range cfg.n) in
  let k = Rng.int_in rng 1 (cfg.n - 1) in
  let groups = Sim.Faults.split_groups ~n:cfg.n [ List.filteri (fun i _ -> i < k) pids ] in
  S.Split { groups; from_t = at; until_t = at + Rng.int_in rng 20 80; mode }

let gen_chan rng n =
  match Rng.int rng 4 with
  | 0 -> Sim.Faults.Any_chan
  | 1 ->
    let src = Rng.int rng n in
    let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
    Sim.Faults.Chan (src, dst)
  | 2 -> Sim.Faults.From (Rng.int rng n)
  | _ -> Sim.Faults.Into (Rng.int rng n)

(* labels print only a heavy tail's mean: [parse] restores this cap *)
let heavy_tail_cap = 120

let gen_dist rng =
  match Rng.int rng 3 with
  | 0 -> Sim.Faults.Fixed (Rng.int_in rng 1 6)
  | 1 -> Sim.Faults.Uniform (0, Rng.int_in rng 4 20)
  | _ -> Sim.Faults.Heavy_tail { mean = Rng.int_in rng 5 30; cap = heavy_tail_cap }

let gen_spec rng cfg =
  let at = Rng.int_in rng 1 (latest_fault cfg) in
  let per_chan = Rng.int_in rng 1 3 in
  (* the partition family joins the draw pool only when enabled, so
     default plan streams (and the golden campaign report) are
     unchanged kind for kind, draw for draw *)
  match Rng.int rng (if cfg.partitions then 13 else 11) with
  | 0 -> S.Drop_requests { at; per_chan }
  | 1 ->
    S.Drop_requests_window { from_t = at; until_t = at + Rng.int_in rng 1 40 }
  | 2 -> S.Drop_any { at; per_chan }
  | 3 -> S.Duplicate { at; per_chan }
  | 4 -> S.Corrupt_messages { at; per_chan }
  | 5 -> S.Reorder { at; per_chan }
  | 6 -> S.Flush { at }
  | 7 ->
    S.Partition
      { pid = Rng.int rng cfg.n; from_t = at; until_t = at + Rng.int_in rng 1 40 }
  | 8 -> S.Corrupt_state { at; procs = gen_procs rng cfg.n }
  | 9 -> S.Reset_state { at; procs = gen_procs rng cfg.n }
  | 10 ->
    S.Crash
      { procs = gen_procs rng cfg.n;
        from_t = at;
        until_t = at + Rng.int_in rng 1 60;
        lose = Rng.bool rng }
  | 11 ->
    gen_split rng cfg ~at
      ~mode:(if Rng.bool rng then Sim.Faults.Buffered else Sim.Faults.Lossy)
  | _ -> S.Delay { at; chan = gen_chan rng cfg.n; dist = gen_dist rng }

let generate rng cfg =
  List.init cfg.budget (fun _ -> gen_spec rng cfg)
  |> List.stable_sort (fun a b -> compare (spec_time a) (spec_time b))

let split_plan rng cfg ~mode =
  [ gen_split rng cfg ~at:(Rng.int_in rng 1 (latest_fault cfg)) ~mode ]

(* ------------------------------------------------------------------ *)
(* Labels: the one text form of a plan.  Reports print them and
   [graybox-cli run -f] reads them back through [parse].              *)

let procs_label = function
  | Sim.Faults.Any_proc -> "any"
  | Sim.Faults.Proc p -> "p" ^ string_of_int p

let chan_label = function
  | Sim.Faults.Any_chan -> "*"
  | Sim.Faults.Chan (src, dst) -> Printf.sprintf "p%d->p%d" src dst
  | Sim.Faults.From src -> Printf.sprintf "p%d->*" src
  | Sim.Faults.Into dst -> Printf.sprintf "*->p%d" dst

let groups_label groups =
  String.concat "|"
    (List.map
       (fun g ->
         "{" ^ String.concat "," (List.map string_of_int g) ^ "}")
       groups)

let mode_label = function Sim.Faults.Lossy -> "lossy" | Sim.Faults.Buffered -> "buf"

let dist_label = function
  | Sim.Faults.Fixed d -> Printf.sprintf "=%d" d
  | Sim.Faults.Uniform (lo, hi) -> Printf.sprintf "~u%d-%d" lo hi
  | Sim.Faults.Heavy_tail { mean; _ } -> Printf.sprintf "~exp%d" mean

let spec_label = function
  | S.Drop_requests { at; per_chan } ->
    Printf.sprintf "drop-requests@%d/%d" at per_chan
  | S.Drop_requests_window { from_t; until_t } ->
    Printf.sprintf "drop-requests@%d-%d" from_t until_t
  | S.Drop_any { at; per_chan } -> Printf.sprintf "drop@%d/%d" at per_chan
  | S.Duplicate { at; per_chan } -> Printf.sprintf "duplicate@%d/%d" at per_chan
  | S.Corrupt_messages { at; per_chan } ->
    Printf.sprintf "corrupt-msgs@%d/%d" at per_chan
  | S.Reorder { at; per_chan } -> Printf.sprintf "reorder@%d/%d" at per_chan
  | S.Flush { at } -> Printf.sprintf "flush@%d" at
  | S.Partition { pid; from_t; until_t } ->
    Printf.sprintf "partition@%d-%d(p%d)" from_t until_t pid
  | S.Corrupt_state { at; procs } ->
    Printf.sprintf "corrupt-state@%d(%s)" at (procs_label procs)
  | S.Reset_state { at; procs } ->
    Printf.sprintf "reset@%d(%s)" at (procs_label procs)
  | S.Crash { procs; from_t; until_t; lose } ->
    Printf.sprintf "crash@%d-%d(%s%s)" from_t until_t (procs_label procs)
      (if lose then ",lose" else "")
  | S.Split { groups; from_t; until_t; mode } ->
    Printf.sprintf "split@%d-%d(%s,%s)" from_t until_t (groups_label groups)
      (mode_label mode)
  | S.Delay { at; chan; dist } ->
    Printf.sprintf "delay@%d(%s,%s)" at (chan_label chan) (dist_label dist)

let plan_label plan = String.concat " " (List.map spec_label plan)

exception Bad of string

let fail what fmt = Printf.ksprintf (fun m -> raise (Bad (what ^ ": " ^ m))) fmt

let syntax =
  "a label as chaos reports print it, e.g. drop@700/3, crash@120-160(p2,lose), \
   split@742-805({0,1,2}|{3},lossy), delay@80(p0->p2,~exp30), or burst@TIME"

(* The inverse of [spec_label], plus the input-only [burst@T]. *)
let parse_spec tok =
  let bad fmt = fail tok fmt in
  let cut ?(last = false) c s =
    match (if last then String.rindex_opt else String.index_opt) s c with
    | Some i ->
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
    | None -> (s, None)
  in
  let chop ?(prefix = "") ?(suffix = "") s =
    let k = String.length s - String.length prefix - String.length suffix in
    if k >= 0 && String.starts_with ~prefix s && String.ends_with ~suffix s
    then Some (String.sub s (String.length prefix) k)
    else None
  in
  let num s =
    match int_of_string_opt s with
    | Some v when String.for_all (fun c -> '0' <= c && c <= '9') s -> v
    | Some v when v < 0 -> bad "negative number %s" s
    | _ -> bad "not a number: %s" s
  in
  let pid s =
    match chop ~prefix:"p" s with Some p -> num p | None -> bad "not a pN: %s" s
  in
  let procs s = if s = "any" then Sim.Faults.Any_proc else Sim.Faults.Proc (pid s) in
  let chan s =
    match cut '-' s with
    | "*", None -> Sim.Faults.Any_chan
    | src, Some dst when String.starts_with ~prefix:">" dst -> (
      match (src, String.sub dst 1 (String.length dst - 1)) with
      | "*", dst -> Sim.Faults.Into (pid dst)
      | src, "*" -> Sim.Faults.From (pid src)
      | src, dst -> Sim.Faults.Chan (pid src, pid dst))
    | _ -> bad "not a channel: %s" s
  in
  let dist s =
    match (chop ~prefix:"=" s, chop ~prefix:"~u" s, chop ~prefix:"~exp" s) with
    | Some d, _, _ -> Sim.Faults.Fixed (num d)
    | _, Some r, _ -> (
      match cut '-' r with
      | lo, Some hi when num lo <= num hi -> Sim.Faults.Uniform (num lo, num hi)
      | _ -> bad "not a range LO-HI: %s" r)
    | _, _, Some m ->
      Sim.Faults.Heavy_tail { mean = num m; cap = heavy_tail_cap }
    | _ -> bad "not a delay distribution: %s" s
  in
  let groups s =
    let group g =
      match chop ~prefix:"{" ~suffix:"}" g with
      | Some g -> List.map num (String.split_on_char ',' g)
      | None -> bad "not a group {P,...}: %s" g
    in
    let groups = List.map group (String.split_on_char '|' s) in
    let rec disjoint = function
      | a :: (b :: _ as rest) ->
        if a = b then bad "process %d is in two groups" a else disjoint rest
      | _ -> groups
    in
    disjoint (List.sort compare (List.concat groups))
  in
  (* KIND@TIME, KIND@TIME/COUNT or KIND@FROM-TO, then (ARG[,ARG]) *)
  let kind, body =
    match cut '@' tok with k, Some b -> (k, b) | _ -> bad "expected %s" syntax
  in
  let body, args = cut '(' body in
  let args =
    match Option.map (chop ~suffix:")") args with
    | Some (Some a) -> Some (cut ~last:true ',' a)
    | Some None -> bad "unclosed ("
    | None -> None
  in
  let time =
    match (cut '/' body, cut '-' body) with
    | (t, Some k), _ when num k > 0 -> `Count (num t, num k)
    | (_, Some k), _ -> bad "count %s is not positive" k
    | _, (f, Some u) when f <> "" ->
      if num u < num f then bad "empty window %s" body else `Window (num f, num u)
    | _ -> `At (num body)
  in
  match (kind, time, args) with
  | ("crash" | "split"), `Window (f, u), _ when f = u ->
    bad "empty window %s (the window is half-open)" body
  | "drop-requests", `Count (at, per_chan), None -> [ S.Drop_requests { at; per_chan } ]
  | "drop-requests", `Window (from_t, until_t), None ->
    [ S.Drop_requests_window { from_t; until_t } ]
  | "drop", `Count (at, per_chan), None -> [ S.Drop_any { at; per_chan } ]
  | "duplicate", `Count (at, per_chan), None -> [ S.Duplicate { at; per_chan } ]
  | "corrupt-msgs", `Count (at, per_chan), None ->
    [ S.Corrupt_messages { at; per_chan } ]
  | "reorder", `Count (at, per_chan), None -> [ S.Reorder { at; per_chan } ]
  | "flush", `At at, None -> [ S.Flush { at } ]
  | "burst", `At at, None -> S.burst ~at
  | "partition", `Window (from_t, until_t), Some (p, None) ->
    [ S.Partition { pid = pid p; from_t; until_t } ]
  | "corrupt-state", `At at, Some (p, None) ->
    [ S.Corrupt_state { at; procs = procs p } ]
  | "reset", `At at, Some (p, None) -> [ S.Reset_state { at; procs = procs p } ]
  | "crash", `Window (from_t, until_t), Some (p, (None | Some "lose" as lose)) ->
    [ S.Crash { procs = procs p; from_t; until_t; lose = lose <> None } ]
  | "split", `Window (from_t, until_t), Some (g, Some ("lossy" | "buf" as m)) ->
    let mode = if m = "buf" then Sim.Faults.Buffered else Sim.Faults.Lossy in
    [ S.Split { groups = groups g; from_t; until_t; mode } ]
  | "delay", `At at, Some (c, Some d) ->
    [ S.Delay { at; chan = chan c; dist = dist d } ]
  | _ -> bad "expected %s" syntax

let parse s =
  match
    List.concat_map parse_spec
      (List.filter (( <> ) "") (String.split_on_char ' ' s))
  with
  | plan -> Ok plan
  | exception Bad msg -> Error msg

(* A fault at or after the last step never fires, yet its window would
   shape the regime timeline; a split that cuts nothing still fires its
   Split and Heal events as faults, while the timeline ignores it. *)
let check ~n ~steps plan =
  let named = function
    | S.Partition { pid = p; _ }
    | S.Corrupt_state { procs = Sim.Faults.Proc p; _ }
    | S.Reset_state { procs = Sim.Faults.Proc p; _ }
    | S.Crash { procs = Sim.Faults.Proc p; _ }
    | S.Delay { chan = Sim.Faults.From p | Sim.Faults.Into p; _ } -> [ p ]
    | S.Delay { chan = Sim.Faults.Chan (src, dst); _ } -> [ src; dst ]
    | S.Split { groups; _ } -> List.concat groups
    | _ -> []
  in
  let fits spec =
    let bad fmt = fail (spec_label spec) fmt in
    if spec_time spec >= steps then bad "starts at or after step %d, the run's end" steps;
    List.iter (fun p -> if p >= n then bad "no process %d at n = %d" p n) (named spec);
    match spec with
    | S.Split { groups; _ } when List.length (Sim.Faults.split_groups ~n groups) < 2 ->
      bad "cuts nothing at n = %d (need at least 2 groups)" n
    | _ -> ()
  in
  match List.iter fits plan with () -> Ok () | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* OCaml syntax, for the JSON report's [shrunk_ocaml]                  *)

let pp_procs ppf = function
  | Sim.Faults.Any_proc -> Format.pp_print_string ppf "Sim.Faults.Any_proc"
  | Sim.Faults.Proc p -> Format.fprintf ppf "Sim.Faults.Proc %d" p

let pp_spec ppf spec =
  match spec with
  | S.Drop_requests { at; per_chan } ->
    Format.fprintf ppf "Tme.Scenarios.Drop_requests { at = %d; per_chan = %d }"
      at per_chan
  | S.Drop_requests_window { from_t; until_t } ->
    Format.fprintf ppf
      "Tme.Scenarios.Drop_requests_window { from_t = %d; until_t = %d }" from_t
      until_t
  | S.Drop_any { at; per_chan } ->
    Format.fprintf ppf "Tme.Scenarios.Drop_any { at = %d; per_chan = %d }" at
      per_chan
  | S.Duplicate { at; per_chan } ->
    Format.fprintf ppf "Tme.Scenarios.Duplicate { at = %d; per_chan = %d }" at
      per_chan
  | S.Corrupt_messages { at; per_chan } ->
    Format.fprintf ppf
      "Tme.Scenarios.Corrupt_messages { at = %d; per_chan = %d }" at per_chan
  | S.Reorder { at; per_chan } ->
    Format.fprintf ppf "Tme.Scenarios.Reorder { at = %d; per_chan = %d }" at
      per_chan
  | S.Flush { at } -> Format.fprintf ppf "Tme.Scenarios.Flush { at = %d }" at
  | S.Partition { pid; from_t; until_t } ->
    Format.fprintf ppf
      "Tme.Scenarios.Partition { pid = %d; from_t = %d; until_t = %d }" pid
      from_t until_t
  | S.Corrupt_state { at; procs } ->
    Format.fprintf ppf "Tme.Scenarios.Corrupt_state { at = %d; procs = %a }" at
      pp_procs procs
  | S.Reset_state { at; procs } ->
    Format.fprintf ppf "Tme.Scenarios.Reset_state { at = %d; procs = %a }" at
      pp_procs procs
  | S.Crash { procs; from_t; until_t; lose } ->
    Format.fprintf ppf
      "Tme.Scenarios.Crash { procs = %a; from_t = %d; until_t = %d; lose = %b \
       }"
      pp_procs procs from_t until_t lose
  | S.Split { groups; from_t; until_t; mode } ->
    Format.fprintf ppf
      "Tme.Scenarios.Split { groups = [ %s ]; from_t = %d; until_t = %d; mode \
       = Sim.Faults.%s }"
      (String.concat "; "
         (List.map
            (fun g ->
              "[ " ^ String.concat "; " (List.map string_of_int g) ^ " ]")
            groups))
      from_t until_t
      (match mode with Sim.Faults.Lossy -> "Lossy" | Sim.Faults.Buffered -> "Buffered")
  | S.Delay { at; chan; dist } ->
    let pp_chan ppf = function
      | Sim.Faults.Any_chan -> Format.pp_print_string ppf "Sim.Faults.Any_chan"
      | Sim.Faults.Chan (s, d) -> Format.fprintf ppf "Sim.Faults.Chan (%d, %d)" s d
      | Sim.Faults.From p -> Format.fprintf ppf "Sim.Faults.From %d" p
      | Sim.Faults.Into p -> Format.fprintf ppf "Sim.Faults.Into %d" p
    in
    let pp_dist ppf = function
      | Sim.Faults.Fixed d -> Format.fprintf ppf "Sim.Faults.Fixed %d" d
      | Sim.Faults.Uniform (lo, hi) ->
        Format.fprintf ppf "Sim.Faults.Uniform (%d, %d)" lo hi
      | Sim.Faults.Heavy_tail { mean; cap } ->
        Format.fprintf ppf "Sim.Faults.Heavy_tail { mean = %d; cap = %d }" mean
          cap
    in
    Format.fprintf ppf "Tme.Scenarios.Delay { at = %d; chan = %a; dist = %a }"
      at pp_chan chan pp_dist dist

let pp_plan ppf = function
  | [] -> Format.pp_print_string ppf "[]"
  | plan ->
    Format.fprintf ppf "@[<hv 2>[ %a ]@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
         pp_spec)
      plan
