(* The benchmark command.  See README.md for the workloads and metrics.
   [--call] and [--kernel] are internal: the timed call and the
   machine-speed kernel, each run in a child process. *)

open Perfbench

let usage =
  {|usage:
  main.exe --workload W --seed N --seconds T --trace 0|1 [--record FILE]
      run one workload for T seconds and print its metrics, ending with
      one JSON line; --record writes the full record to FILE
  main.exe benchmark [--seed N] [--trace] [--out FILE]
      run every workload in its own process and write BENCH.json
      (and, with --trace, BENCH_trace.json)
  main.exe compare OLD NEW
      compare two files of BENCH.json lines against BENCHMARK.json|}

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let num x = Json.Num x
let int_ x = Json.Num (float_of_int x)
let strs xs = Json.Arr (List.map (fun s -> Json.Str s) xs)
let metric_json (v, u) = Json.Obj [ ("value", num v); ("unit", Json.Str u) ]
let metrics_json ms =
  Json.Obj (List.map (fun (n, vu) -> (n, metric_json vu)) ms)

let exact_json xs = Json.Obj (List.map (fun (n, v) -> (n, num v)) xs)
let read_file file = In_channel.with_open_text file In_channel.input_all

let write_json file j =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)

let peak_rss_mb () =
  read_file "/proc/self/status"
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           Scanf.sscanf l "VmHWM: %d kB" (fun kb ->
               Some (float_of_int kb /. 1024.))
         else None)
  |> Option.get

(* A timed call runs in a fresh process of this program, as a user's
   command would: [--call] makes one call, reads its peak RSS and prints
   one JSON line. *)
let call_child (w : Workloads.t) ~seed ~spawned_at =
  let inst = w.Workloads.prepare ~seed in
  let t0 = Probe.now_ns () in
  let o = inst.Workloads.call () in
  let wall = Probe.secs_since t0 in
  let rss = peak_rss_mb () in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("setup_s", num (float_of_int (t0 - spawned_at) *. 1e-9));
            ("wall_s", num wall);
            ("rss_mb", num rss);
            ("digest", Json.Str o.Workloads.digest);
            ("units", int_ o.Workloads.units);
            ("failed_share", num o.Workloads.failed_share);
            ("exact", exact_json o.Workloads.exact);
            ("problems", strs o.Workloads.problems) ]))

type sample = {
  setup_s : float;
      (* spawn to the first timed call: exec, module init and registry
         fill, argument parsing, input construction *)
  wall_s : float;
  rss_mb : float;
  kernel_s : float;
}

(* The one line a child process of this program prints, parsed. *)
let child_line args ~what =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.append [| Sys.executable_name |] args)
  in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> Json.of_string l
  | _ -> die "%s failed" what

(* The outcome of one child call and its raw measurements; the
   machine-speed kernel runs in a second fresh process right after. *)
let timed_call (w : Workloads.t) ~seed =
  let spawned_at = Probe.now_ns () in
  let j =
    child_line
      [| "--call"; string_of_int spawned_at; "--workload"; w.Workloads.name;
         "--seed"; string_of_int seed |]
      ~what:("the timed call of " ^ w.Workloads.name)
  in
  let kernel_s =
    Json.to_num (child_line [| "--kernel" |] ~what:"the machine-speed kernel")
  in
  let get k = Json.to_num (Json.member k j) in
  ( { Workloads.digest = Json.to_str (Json.member "digest" j);
      units = int_of_float (get "units");
      exact =
        List.map
          (fun (k, v) -> (k, Json.to_num v))
          (Json.to_obj (Json.member "exact" j));
      failed_share = get "failed_share";
      problems = List.map Json.to_str (Json.to_list (Json.member "problems" j))
    },
    { setup_s = get "setup_s";
      wall_s = get "wall_s";
      rss_mb = get "rss_mb";
      kernel_s } )

(* Calls [f] until [seconds] have passed, at least once. *)
let repeat ~seconds f =
  let t0 = Probe.now_ns () in
  let rec go acc =
    let acc = f () :: acc in
    if Probe.secs_since t0 >= seconds then List.rev acc else go acc
  in
  go []

(* End-to-end metrics of a run of timed calls, and its raw samples. *)
let timed_run w ~seed ~seconds =
  let reps = repeat ~seconds (fun () -> timed_call w ~seed) in
  let samples f = List.map (fun (_, s) -> f s) reps in
  (* the median over calls of each call's time at the reference machine
     speed, as the kernel timed right after that call measured it *)
  let scaled f =
    Compare.median (samples (fun s -> f s *. Probe.speed_factor s.kernel_s))
  in
  let wall_s = scaled (fun s -> s.wall_s) in
  let units = (fst (List.hd reps)).Workloads.units in
  ( List.map fst reps,
    [ ("setup_s", (scaled (fun s -> s.setup_s), "s"));
      ("wall_s", (wall_s, "s"));
      ("work_per_s", (float_of_int units /. wall_s, "1/s"));
      ("peak_rss_mb", (Compare.median (samples (fun s -> s.rss_mb)), "MB")) ],
    List.map
      (fun (k, f) -> (k, Json.Arr (List.map num (samples f))))
      [ ("setup_samples", fun s -> s.setup_s);
        ("wall_samples", fun s -> s.wall_s);
        ("rss_samples", fun s -> s.rss_mb);
        ("kernel_samples", fun s -> s.kernel_s) ] )

(* Per-layer metrics of a run of traced sets: medians by name. *)
let traced_run (w : Workloads.t) ~seed ~seconds =
  let inst = w.Workloads.prepare ~seed in
  let reps =
    repeat ~seconds (fun () ->
        Probe.span ~workload:w.Workloads.name "workload" inst.Workloads.trace)
  in
  let layer =
    List.map
      (fun (name, _, u) ->
        let values =
          List.concat_map
            (fun t ->
              List.filter_map
                (fun (n, v, _) -> if n = name then Some v else None)
                t.Workloads.layer)
            reps
        in
        (name, (Compare.median values, u)))
      (List.hd reps).Workloads.layer
  in
  ( List.concat_map (fun t -> t.Workloads.outcomes) reps,
    List.concat_map (fun t -> t.Workloads.extra_problems) reps,
    layer,
    [ ("layer", metrics_json layer) ] )

(* The metrics object of the result line: every declared metric, in
   declaration order.  A layer a workload does not exercise reads 0;
   declared times must be measured on every workload. *)
let declared_metrics (declared : Spec.metric list) measured =
  Json.Obj
    (List.map
       (fun (m : Spec.metric) ->
         let name = m.Spec.name and u = m.Spec.unit_ in
         let v =
           match List.assoc_opt name measured with
           | Some (v, u') when u' = u -> v
           | Some (_, u') ->
             die "%s is measured in %s but declared in %s" name u' u
           | None when List.mem u [ "s"; "ms"; "ns" ] ->
             die "no measurement of %s" name
           | None -> 0.
         in
         (name, metric_json (v, u)))
       declared)

let print_metrics measured =
  List.iter
    (fun (name, (v, u)) -> Printf.printf "  %-36s %14.6g %s\n" name v u)
    measured

let drive (w : Workloads.t) ~seed ~seconds ~trace ~record =
  let spec = Spec.load () in
  let outcomes, extra, measured, extra_json =
    if trace then traced_run w ~seed ~seconds
    else
      let outcomes, measured, samples = timed_run w ~seed ~seconds in
      (outcomes, [], measured, samples)
  in
  let first = List.hd outcomes in
  let digest (o : Workloads.outcome) = o.Workloads.digest in
  let drifted = List.exists (fun o -> digest o <> digest first) outcomes in
  let problems =
    List.sort_uniq compare
      (List.concat_map
         (fun (o : Workloads.outcome) -> o.Workloads.problems)
         outcomes
      @ extra)
    @ if drifted then [ "digests differ between calls on the same inputs" ]
      else []
  in
  let failed =
    List.length
      (List.filter
         (fun (o : Workloads.outcome) ->
           o.Workloads.problems <> [] || digest o <> digest first)
         outcomes)
  in
  let correct = problems = [] in
  Printf.printf "perfbench %s: seed %d, %d %s call(s), jobs %d, digest %s\n"
    w.Workloads.name seed (List.length outcomes)
    (if trace then "traced-set" else "timed")
    w.Workloads.jobs (digest first);
  print_metrics measured;
  print_metrics
    (List.map (fun (n, v) -> (n, (v, "exact"))) first.Workloads.exact);
  List.iter (fun p -> Printf.printf "  CHECK FAILED: %s\n" p) problems;
  let full =
    Json.Obj
      ([ ("workload", Json.Str w.Workloads.name);
         ("seed", int_ seed);
         ("seconds", num seconds);
         ("trace", Json.Bool trace);
         ("jobs", int_ w.Workloads.jobs);
         ("correct", Json.Bool correct);
         ("attempted", int_ (List.length outcomes));
         ("failed", int_ failed);
         ("problems", strs problems);
         ("digest", Json.Str (digest first));
         ("metrics", metrics_json (if trace then [] else measured));
         ("exact", exact_json first.Workloads.exact) ]
      @ extra_json
      @ if trace then [ ("spans", Json.Arr (Probe.recorded ())) ] else [])
  in
  (match record with
   | Some file -> write_json file full
   | None ->
     if trace then
       write_json "BENCH_trace.json"
         (Json.Obj
            [ ("schema", Json.Str "graybox-perfbench-trace/1");
              ("workloads", Json.Arr [ full ]) ]));
  let declared = if trace then spec.Spec.per_layer else spec.Spec.end_to_end in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", int_ (List.length outcomes));
            ("failed", int_ failed);
            ("metrics", declared_metrics declared measured) ]));
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* benchmark: every workload, each in its own process                  *)

let git_rev () =
  try
    let r, wr = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process "git"
        [| "git"; "rev-parse"; "HEAD" |]
        Unix.stdin wr null
    in
    Unix.close wr;
    Unix.close null;
    let ic = Unix.in_channel_of_descr r in
    let line = In_channel.input_line ic in
    close_in ic;
    match (Unix.waitpid [] pid, line) with
    | (_, Unix.WEXITED 0), Some l -> l
    | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

let manifest ~seed ~run_seconds =
  let t = Unix.gmtime (Unix.time ()) in
  Json.Obj
    [ ("nproc", int_ (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("git_rev", Json.Str (git_rev ()));
      ("dune_profile", Json.Str Build_info.profile);
      ("seed", int_ seed);
      ("run_seconds", int_ run_seconds);
      ( "date",
        Json.Str
          (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ"
             (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1) t.Unix.tm_mday
             t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec) ) ]

let without key = function
  | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> k <> key) kvs)
  | j -> j

(* One workload run in a child process: its record, or the record (if
   any) with the reason it failed. *)
let child_run (w : Workloads.t) ~seed ~seconds ~traced =
  let label = w.Workloads.name ^ if traced then " (traced)" else "" in
  let file =
    Filename.concat Workloads.work_dir
      (w.Workloads.name ^ (if traced then ".trace" else "") ^ ".json")
  in
  if Sys.file_exists file then Sys.remove file;
  flush stdout;
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--workload"; w.Workloads.name;
         "--seed"; string_of_int seed; "--seconds"; string_of_int seconds;
         "--trace"; (if traced then "1" else "0"); "--record"; file |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  let record =
    if Sys.file_exists file then Some (Json.of_string (read_file file))
    else None
  in
  match (status, record) with
  | Unix.WEXITED 0, Some r when Json.member "correct" r = Json.Bool true -> Ok r
  | _, Some r -> Error (r, label ^ ": checks failed")
  | _ -> Error (Json.Null, label ^ ": no result")

let benchmark ~seed ~trace ~out =
  let spec = Spec.load () in
  let seconds = spec.Spec.run_seconds in
  Workloads.ensure_work_dir ();
  let runs =
    List.map
      (fun (w : Workloads.t) ->
        let plain = child_run w ~seed ~seconds ~traced:false in
        let traced =
          if trace then Some (child_run w ~seed ~seconds ~traced:true)
          else None
        in
        (w, plain, traced))
      Workloads.all
  in
  let record = function Ok r | Error (r, _) -> r in
  let problems =
    List.concat_map
      (fun ((w : Workloads.t), plain, traced) ->
        (match plain with Ok _ -> [] | Error (_, e) -> [ e ])
        @
        match traced with
        | None -> []
        | Some (Error (_, e)) -> [ e ]
        | Some (Ok t) ->
          if Json.member "digest" t = Json.member "digest" (record plain)
          then []
          else [ w.Workloads.name ^ ": traced and untraced digests differ" ])
      runs
  in
  let table =
    Stdext.Tabular.create [ "workload"; "metric"; "value"; "unit" ]
  in
  List.iter
    (fun ((w : Workloads.t), plain, traced) ->
      let row section name r =
        match Json.member name (Json.member section r) with
        | Json.Obj _ as m ->
          Stdext.Tabular.add_row table
            [ w.Workloads.name;
              name;
              Printf.sprintf "%.6g" (Json.to_num (Json.member "value" m));
              Json.to_str (Json.member "unit" m) ]
        | _ -> ()
      in
      List.iter
        (fun (m : Spec.metric) -> row "metrics" m.Spec.name (record plain))
        spec.Spec.end_to_end;
      Option.iter (fun t -> row "layer" "trace_overhead" (record t)) traced)
    runs;
  Stdext.Tabular.print ~title:(Printf.sprintf "benchmark (seed %d)" seed)
    table;
  let manifest = manifest ~seed ~run_seconds:seconds in
  let records f = Json.Arr (List.filter_map f runs) in
  write_json out
    (Json.Obj
       [ ("schema", Json.Str "graybox-perfbench/1");
         ("manifest", manifest);
         ("workloads", records (fun (_, p, _) -> Some (record p)));
         ( "traced",
           records (fun (_, _, t) ->
               Option.map (fun t -> without "spans" (record t)) t) ) ]);
  Printf.printf "wrote %s\n" out;
  if trace then begin
    write_json "BENCH_trace.json"
      (Json.Obj
         [ ("schema", Json.Str "graybox-perfbench-trace/1");
           ("manifest", manifest);
           ("workloads", records (fun (_, _, t) -> Option.map record t)) ]);
    print_endline "wrote BENCH_trace.json"
  end;
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) problems;
  exit (if problems = [] then 0 else 1)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let read_lines file =
  read_file file
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Json.of_string

let compare_files old_file new_file =
  let report =
    Compare.run (Spec.load ()) ~old:(read_lines old_file)
      ~new_:(read_lines new_file)
  in
  Compare.print report;
  exit (if Compare.failed report then 1 else 0)

(* ------------------------------------------------------------------ *)

let () =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s: not a number: %s" flag v
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "--kernel" ] -> print_endline (Json.to_string (num (Probe.kernel_s ())))
  | [ "compare"; old_file; new_file ] -> compare_files old_file new_file
  | "compare" :: _ -> die "%s" usage
  | "benchmark" :: args ->
    let rec parse ~seed ~trace ~out = function
      | [] -> benchmark ~seed ~trace ~out
      | "--seed" :: v :: rest ->
        parse ~seed:(int_arg "--seed" v) ~trace ~out rest
      | "--trace" :: rest -> parse ~seed ~trace:true ~out rest
      | "--out" :: f :: rest -> parse ~seed ~trace ~out:f rest
      | a :: _ -> die "unexpected argument %s\n%s" a usage
    in
    parse ~seed:1 ~trace:false ~out:"BENCH.json" args
  | args ->
    let flags =
      [ "--workload"; "--seed"; "--seconds"; "--trace"; "--record"; "--call" ]
    in
    let rec parse acc = function
      | [] -> acc
      | flag :: v :: rest when List.mem flag flags ->
        parse ((flag, v) :: acc) rest
      | a :: _ -> die "unexpected argument %s\n%s" a usage
    in
    let opts = parse [] args in
    let get flag =
      match List.assoc_opt flag opts with
      | Some v -> v
      | None -> die "missing %s\n%s" flag usage
    in
    let w =
      match Workloads.find (get "--workload") with
      | Some w -> w
      | None ->
        die "unknown workload %s (known: %s)" (get "--workload")
          (String.concat ", "
             (List.map (fun (w : Workloads.t) -> w.Workloads.name)
                Workloads.all))
    in
    let seed = int_arg "--seed" (get "--seed") in
    Option.iter
      (fun t ->
        call_child w ~seed ~spawned_at:(int_arg "--call" t);
        exit 0)
      (List.assoc_opt "--call" opts);
    let seconds = int_arg "--seconds" (get "--seconds") in
    if seconds < 1 then die "--seconds: need at least 1";
    let trace =
      match get "--trace" with
      | "0" -> false
      | "1" -> true
      | v -> die "--trace: expected 0 or 1, got %s" v
    in
    drive w ~seed ~seconds:(float_of_int seconds) ~trace
      ~record:(List.assoc_opt "--record" opts)
