(* [compare OLD NEW]: judge every (end-to-end metric, workload) pair of
   two sets of benchmark records against the bounds of BENCHMARK.json,
   and fail on any drift of a digest or exact result. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile, as Python's [statistics.quantiles(xs, n=4)]
   computes them (the exclusive method); [None] below two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then None
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (i * m / 4) (ld - 1)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    Some (q 1, q 3)

(* Inter-quartile distance as a share of the median. *)
let spread xs =
  Option.map (fun (q1, q3) -> (q3 -. q1) /. median xs) (quartiles xs)

type verdict = Same | Better | Worse | Unresolved

let verdict_label = function
  | Same -> "same"
  | Better -> "better"
  | Worse -> "WORSE"
  | Unresolved -> "unresolved"

type row = {
  workload : string;
  metric : Spec.metric;
  old_median : float;
  new_median : float;
  change : float;  (* signed share of the old median; positive = worse *)
  spread : float option;  (* the wider of the two sets' spreads *)
  verdict : verdict;
}

type report = {
  rows : row list;
  layers : (string * string * string * float * float) list;
      (* workload, metric, unit, old median, new median *)
  drift : string list;
  failed_rise : string list;
}

let judge (m : Spec.metric) ~workload ~old ~new_ =
  let om = median old and nm = median new_ in
  let lower = m.Spec.lower_is_better in
  let change = (if lower then nm -. om else om -. nm) /. om in
  let spread =
    match (spread old, spread new_) with
    | Some a, Some b -> Some (Float.max a b)
    | (Some _ as s), None | None, (Some _ as s) -> s
    | None, None -> None
  in
  let bound = Option.value m.Spec.bound ~default:0. in
  let beats n o = if lower then n < o else n > o in
  let every_run_better =
    List.for_all (fun n -> List.for_all (beats n) old) new_
  in
  let verdict =
    match spread with
    | Some s when s > bound -> if every_run_better then Better else Unresolved
    | _ ->
      if change > bound then Worse
      else if change < -.bound then Better
      else Same
  in
  { workload; metric = m; old_median = om; new_median = nm; change; spread;
    verdict }

(* Records of one kind ("workloads" or "traced") across BENCH lines. *)
let records key lines =
  List.concat_map (fun l -> Json.to_list (Json.member key l)) lines

let str k r = Json.to_str (Json.member k r)

let seed r = Json.to_num (Json.member "seed" r)

let workloads recs = List.sort_uniq compare (List.map (str "workload") recs)

let of_workload w recs = List.filter (fun r -> str "workload" r = w) recs

let values section name recs =
  List.filter_map
    (fun r ->
      match Json.member name (Json.member section r) with
      | Json.Null -> None
      | Json.Obj _ as m -> Some (Json.to_num (Json.member "value" m))
      | v -> Some (Json.to_num v))
    recs

(* Exact results and digests must agree between every pair of records
   of one workload and seed. *)
let drift ~old ~new_ w =
  List.concat_map
    (fun s ->
      let at recs = List.filter (fun r -> seed r = s) recs in
      if at new_ = [] then []
      else
        let both = at old @ at new_ in
        let differs f =
          List.length (List.sort_uniq compare (List.map f both)) > 1
        in
        let exact k r = Json.member k (Json.member "exact" r) in
        let keys =
          List.sort_uniq compare
            (List.concat_map
               (fun r -> List.map fst (Json.to_obj (Json.member "exact" r)))
               both)
        in
        List.filter_map
          (fun (what, f) ->
            if differs f then
              Some (Printf.sprintf "%s seed %g: %s drift" w s what)
            else None)
          (("digest", Json.member "digest")
          :: List.map (fun k -> (k, exact k)) keys))
    (List.sort_uniq compare (List.map seed old))

let run (spec : Spec.t) ~old ~new_ =
  let old_w = records "workloads" old and new_w = records "workloads" new_ in
  let old_t = records "traced" old and new_t = records "traced" new_ in
  let shared o n =
    List.filter (fun w -> List.mem w (workloads n)) (workloads o)
  in
  (* (metric, old medians, new medians) for every metric both sets have *)
  let paired section metrics o n =
    List.filter_map
      (fun (m : Spec.metric) ->
        match (values section m.Spec.name o, values section m.Spec.name n) with
        | [], _ | _, [] -> None
        | ov, nv -> Some (m, ov, nv))
      metrics
  in
  let common = shared old_w new_w in
  let rows =
    List.concat_map
      (fun w ->
        List.map
          (fun (m, ov, nv) -> judge m ~workload:w ~old:ov ~new_:nv)
          (paired "metrics" spec.Spec.end_to_end (of_workload w old_w)
             (of_workload w new_w)))
      common
  in
  let failed_rise =
    List.filter_map
      (fun w ->
        let share recs =
          median (values "exact" "failed_share" (of_workload w recs))
        in
        let o = share old_w and n = share new_w in
        if n > o then
          Some (Printf.sprintf "%s: failed_share rose from %g to %g" w o n)
        else None)
      common
  in
  let layers =
    List.concat_map
      (fun w ->
        List.map
          (fun ((m : Spec.metric), ov, nv) ->
            (w, m.Spec.name, m.Spec.unit_, median ov, median nv))
          (paired "layer" spec.Spec.per_layer (of_workload w old_t)
             (of_workload w new_t)))
      (shared old_t new_t)
  in
  { rows;
    layers;
    drift =
      List.concat_map
        (fun w ->
          drift ~old:(of_workload w old_w) ~new_:(of_workload w new_w) w)
        common;
    failed_rise }

let failed r =
  r.drift <> [] || r.failed_rise <> []
  || List.exists (fun row -> row.verdict = Worse) r.rows

let print r =
  let pct x = Printf.sprintf "%+.1f%%" (100. *. x) in
  let share = function
    | Some s -> Printf.sprintf "%.1f%%" (100. *. s)
    | None -> "-"
  in
  let t =
    Stdext.Tabular.create
      [ "workload"; "metric"; "unit"; "old"; "new"; "change"; "spread";
        "bound"; "verdict" ]
  in
  List.iter
    (fun row ->
      let m = row.metric in
      Stdext.Tabular.add_row t
        [ row.workload; m.Spec.name; m.Spec.unit_;
          Printf.sprintf "%.6g" row.old_median;
          Printf.sprintf "%.6g" row.new_median;
          pct (if m.Spec.lower_is_better then row.change else -.row.change);
          share row.spread; share m.Spec.bound; verdict_label row.verdict ])
    r.rows;
  Stdext.Tabular.print
    ~title:"end-to-end (median per workload; change is new vs old)" t;
  if r.layers <> [] then begin
    let lt =
      Stdext.Tabular.create
        [ "workload"; "layer metric"; "unit"; "old"; "new"; "new/old" ]
    in
    List.iter
      (fun (w, name, u, o, n) ->
        Stdext.Tabular.add_row lt
          [ w; name; u; Printf.sprintf "%.6g" o; Printf.sprintf "%.6g" n;
            (if o = 0. then "-" else Printf.sprintf "%.3f" (n /. o)) ])
      r.layers;
    Stdext.Tabular.print ~title:"per-layer (traced runs; reported, not gated)"
      lt
  end;
  List.iter (fun d -> Printf.printf "DRIFT: %s\n" d) r.drift;
  List.iter (fun d -> Printf.printf "FAILED: %s\n" d) r.failed_rise;
  Printf.printf "compare: %s\n" (if failed r then "FAIL" else "ok")
