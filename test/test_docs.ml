(* Doc-audit gate: README.md, EXPERIMENTS.md and DESIGN.md are
   cross-checked against the live protocol registry, so a rename, a
   re-roling, or a changed recovery expectation fails CI instead of
   silently drifting the prose.  The dune stanza declares the three
   documents as deps; dune stages them one directory up in the build
   tree, which is where the test's cwd sees them. *)

module R = Graybox.Registry

(* referencing Scenarios forces tme's registration side effect *)
let _force_registration = Tme.Scenarios.run

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let readme = lazy (read_file "../README.md")
let experiments = lazy (read_file "../EXPERIMENTS.md")
let design = lazy (read_file "../DESIGN.md")
let lines s = String.split_on_char '\n' s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_mentions doc text needles =
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %S" doc needle)
        true
        (contains text needle))
    needles

(* "| `ra` | reference | ... |" -> ["ra"; "reference"; ...]; an escaped
   "\|" stays inside its cell as "|" *)
let cells line =
  let untick c =
    let n = String.length c in
    if n >= 2 && c.[0] = '`' && c.[n - 1] = '`' then String.sub c 1 (n - 2)
    else c
  in
  String.split_on_char '|' line
  |> List.fold_left
       (fun acc c ->
         match acc with
         | prev :: rest when String.ends_with ~suffix:"\\" prev ->
           (String.sub prev 0 (String.length prev - 1) ^ "|" ^ c) :: rest
         | _ -> c :: acc)
       []
  |> List.rev
  |> List.map String.trim
  |> List.filter (fun c -> c <> "")
  |> List.map untick

(* rows of the markdown table whose header line is [header]: the
   contiguous run of "| `..." lines after the |---| separator *)
let table_rows ~doc ~header text =
  let rec find = function
    | [] -> Alcotest.fail (Printf.sprintf "%s: table %S not found" doc header)
    | l :: rest when String.trim l = header -> rest
    | _ :: rest -> find rest
  in
  let rest = find (lines text) in
  let rest =
    match rest with
    | sep :: r when String.length sep >= 2 && sep.[0] = '|' && sep.[1] = '-' ->
      r
    | r -> r
  in
  let is_row l = String.length l >= 3 && l.[0] = '|' && l.[1] = ' ' && l.[2] = '`' in
  let rec take acc = function
    | l :: rest when is_row l -> take (cells l :: acc) rest
    | _ -> List.rev acc
  in
  take [] rest

(* ------------------------------------------------------------------ *)
(* README: the protocols table is the registry, column for column      *)

let test_readme_protocol_table () =
  let rows =
    table_rows ~doc:"README.md"
      ~header:
        "| name | role | expect | partition | during | por | synth | what \
         it is |"
      (Lazy.force readme)
  in
  let entries = R.all () in
  Alcotest.(check int)
    "one row per registry entry"
    (List.length entries) (List.length rows);
  List.iter2
    (fun (e : R.entry) row ->
      match row with
      | name :: role :: expect :: partition :: during :: por :: synth :: _ ->
        Alcotest.(check string) "name, in registration order" e.R.name name;
        Alcotest.(check string)
          (e.R.name ^ ": role column")
          (R.role_label e.R.role) role;
        Alcotest.(check string)
          (e.R.name ^ ": expect column")
          (R.expectation_label e.R.expectation) expect;
        Alcotest.(check string)
          (e.R.name ^ ": partition column")
          (R.partition_expectation_label e.R.partition_expectation)
          partition;
        Alcotest.(check string)
          (e.R.name ^ ": during column")
          (R.during_partition_label e.R.during_partition)
          during;
        Alcotest.(check string)
          (e.R.name ^ ": por column")
          (if e.R.por_safe then "yes" else "no")
          por;
        Alcotest.(check string)
          (e.R.name ^ ": synth column")
          (if e.R.synthesizable then "yes" else "no")
          synth
      | _ -> Alcotest.fail (e.R.name ^ ": row has too few columns"))
    entries rows

(* every fault_spec constructor has a row in the README fault-model
   table.  The list below is gated for completeness by test_chaos's
   exhaustive spec_tag match: a new constructor breaks that compile,
   whose fix adds a tag there and (via this test) a doc row here. *)
let fault_spec_names =
  [ "Drop_requests"; "Drop_requests_window"; "Drop_any"; "Duplicate";
    "Corrupt_messages"; "Reorder"; "Flush"; "Partition"; "Corrupt_state";
    "Reset_state"; "Crash"; "Split"; "Delay" ]

let constructor_name = function
  | Tme.Scenarios.Drop_requests _ -> "Drop_requests"
  | Tme.Scenarios.Drop_requests_window _ -> "Drop_requests_window"
  | Tme.Scenarios.Drop_any _ -> "Drop_any"
  | Tme.Scenarios.Duplicate _ -> "Duplicate"
  | Tme.Scenarios.Corrupt_messages _ -> "Corrupt_messages"
  | Tme.Scenarios.Reorder _ -> "Reorder"
  | Tme.Scenarios.Flush _ -> "Flush"
  | Tme.Scenarios.Partition _ -> "Partition"
  | Tme.Scenarios.Corrupt_state _ -> "Corrupt_state"
  | Tme.Scenarios.Reset_state _ -> "Reset_state"
  | Tme.Scenarios.Crash _ -> "Crash"
  | Tme.Scenarios.Split _ -> "Split"
  | Tme.Scenarios.Delay _ -> "Delay"

let test_readme_fault_model_table () =
  let rows =
    table_rows ~doc:"README.md"
      ~header:"| spec | label | window | what it does |"
      (Lazy.force readme)
  in
  Alcotest.(check (list string))
    "one row per fault_spec constructor, declaration order"
    fault_spec_names
    (List.map
       (function
         | name :: _ -> name
         | [] -> Alcotest.fail "empty fault-model row")
       rows);
  (* each row's label is a concrete example that `run -f` parses into
     that constructor and that prints back unchanged *)
  List.iter
    (function
      | name :: label :: _ -> (
        match Chaos.Plan_gen.parse label with
        | Ok [ spec ] ->
          Alcotest.(check string) (label ^ " constructor") name
            (constructor_name spec);
          Alcotest.(check string) (label ^ " prints back") label
            (Chaos.Plan_gen.spec_label spec)
        | Ok _ -> Alcotest.fail (label ^ ": not one spec")
        | Error e -> Alcotest.fail e)
      | _ -> Alcotest.fail "fault-model row without a label")
    rows;
  (* the isolation-vs-group-partition distinction must stay documented *)
  check_mentions "README.md" (Lazy.force readme)
    [ "isolation"; "split-lossy"; "split-buf"; "--partitions" ]

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS.md: the PARTITION section exists and names the sweep    *)

let test_experiments_partition_section () =
  let text = Lazy.force experiments in
  check_mentions "EXPERIMENTS.md" text
    ([ "## Partitions, heal, and delay (PARTITION, \
         `bench/expected/partition.txt`)";
       "lossy"; "buffered"; "--partitions" ]
     @ R.default_sweep ()
     @ List.map R.partition_expectation_label
         [ R.Recovers_after_heal; R.Deadlocks ]
     (* the during-split story: every non-wedge entry (the ones with
        something to prove or disprove while the partition is up) must
        be named, and the gate vocabulary must be present *)
     @ List.filter_map
         (fun (e : R.entry) ->
           if e.R.during_partition <> R.Wedge then Some e.R.name else None)
         (R.all ())
     @ [ "(PARTITION-SPEC)"; "regime epoch"; "epoch-safe";
         R.during_partition_label R.Weak_me1;
         R.during_partition_label R.Unsafe ])

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS.md: the LOAD section exists, names its golden table,   *)
(* the methodology caveat, and every reference protocol it sweeps      *)

let test_experiments_load_section () =
  let text = Lazy.force experiments in
  check_mentions "EXPERIMENTS.md" text
    ([ "## Open-loop load (LOAD, `bench/expected/load.txt`)";
       "--max-steps"; "coordinated omission"; "open-loop";
       "p50/p99/p999"; "Oracles.Schedule" ]
     @ List.map
         (fun (e : R.entry) -> e.R.name)
         (R.all ~role:R.Reference ()))

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS.md: the MCHECK section names the out-of-core and POR    *)
(* machinery, its pinned results, and every por-safe protocol          *)

let test_experiments_mcheck_section () =
  let text = Lazy.force experiments in
  check_mentions "EXPERIMENTS.md" text
    ([ "test/mcheck_deep_smoke.txt"; "--mem-budget"; "--spill-dir"; "--shards";
       "--por"; "--jobs"; "out-of-core"; "partial-order reduction";
       "quiet receiver"; "peak_mem_words"; "spill_bytes"; "por_safe" ]
     @ R.por_safe_names ())

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS.md: the measured-tables block quotes bench/expected/    *)

(* The fenced block under the "## Measured tables" heading, as lines. *)
let measured_block () =
  let rec heading = function
    | [] -> Alcotest.fail "EXPERIMENTS.md: no \"## Measured tables\" heading"
    | l :: rest when String.starts_with ~prefix:"## Measured tables" l -> rest
    | _ :: rest -> heading rest
  in
  let rec fence = function
    | [] -> Alcotest.fail "EXPERIMENTS.md: measured tables are not fenced"
    | "```" :: rest -> rest
    | _ :: rest -> fence rest
  in
  let rec body acc = function
    | [] -> Alcotest.fail "EXPERIMENTS.md: measured-tables fence not closed"
    | "```" :: _ -> List.rev acc
    | l :: rest -> body (l :: acc) rest
  in
  body [] (fence (heading (lines (Lazy.force experiments))))

(* "T9b: ..." -> Some "t9": the golden file a quoted title belongs to *)
let golden_of_title l =
  match String.index_opt l ':' with
  | Some i when i >= 2 && l.[0] = 'T' ->
    let id = String.sub l 1 (i - 1) in
    let id =
      if id.[String.length id - 1] = 'b' then
        String.sub id 0 (String.length id - 1)
      else id
    in
    if String.for_all (fun c -> c >= '0' && c <= '9') id then Some ("t" ^ id)
    else None
  | _ -> None

(* Each golden file opens with a blank line and ends with a newline, so
   the block is their concatenation, in the order its titles name
   them. *)
let test_experiments_measured_tables () =
  let block = measured_block () in
  let files =
    List.fold_left
      (fun acc l ->
        match golden_of_title l with
        | Some f when not (List.mem f acc) -> f :: acc
        | _ -> acc)
      [] block
    |> List.rev
  in
  Alcotest.(check bool) "the block quotes some table" true (files <> []);
  let quoted = String.concat "\n" block ^ "\n" in
  let golden =
    List.map (fun f -> (f, read_file ("../bench/expected/" ^ f ^ ".txt"))) files
  in
  List.iter
    (fun (f, table) ->
      Alcotest.(check bool)
        (Printf.sprintf "EXPERIMENTS.md quotes bench/expected/%s.txt verbatim" f)
        true (contains quoted table))
    golden;
  Alcotest.(check string)
    "the block is exactly the quoted golden tables"
    (String.concat "" (List.map snd golden))
    quoted

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS.md: numbers quoted in prose come from bench/expected/   *)

(* A Tabular row's cells: cells are separated by two spaces or more,
   and no cell holds two spaces in a row. *)
let row_cells l =
  let close cur cells =
    if cur = [] then cells else String.concat " " (List.rev cur) :: cells
  in
  let cells, cur =
    List.fold_left
      (fun (cells, cur) tok ->
        if tok = "" then (close cur cells, []) else (cells, tok :: cur))
      ([], [])
      (String.split_on_char ' ' l)
  in
  List.rev (close cur cells)

(* bench/expected/[table].txt as its file name, its header cells, a
   reader [cell col row] and its rows' cells; the header is the line
   above the first dashed rule, and the rows are the nonempty lines
   below it. *)
let golden_table table =
  let file = "bench/expected/" ^ table ^ ".txt" in
  let rec split = function
    | h :: rule :: rows when String.starts_with ~prefix:"--" rule ->
      (row_cells h, List.map row_cells (List.filter (( <> ) "") rows))
    | _ :: rest -> split rest
    | [] -> Alcotest.failf "%s: no header" file
  in
  let header, rows = split (lines (read_file ("../" ^ file))) in
  let rec index col i = function
    | h :: _ when h = col -> i
    | _ :: rest -> index col (i + 1) rest
    | [] -> Alcotest.failf "%s: no column %S" file col
  in
  let cell col row = List.nth row (index col 0 header) in
  (file, header, cell, rows)

(* The cell of bench/expected/[table].txt in the row whose first cell
   is [row] and the column whose header is [col]. *)
let golden_cell table ~row ~col =
  let file, _, cell, rows = golden_table table in
  match List.find_opt (fun r -> List.nth_opt r 0 = Some row) rows with
  | Some r -> cell col r
  | None -> Alcotest.failf "%s: no row %S" file row

let test_experiments_quoted_numbers () =
  let t4 row =
    float_of_string (golden_cell "t4" ~row ~col:"msgs/1k steps (fault-free)")
  in
  let w = t4 "W (refined)" and w64 = t4 "W'(64)" in
  let refined = t4 "W'(4)" and unrefined = t4 "W'(4) unrefined (ablation)" in
  let t10 row = golden_cell "t10" ~row ~col:"recovery steps" in
  let synth col = golden_cell "synth" ~row:"ra" ~col in
  Alcotest.(check string)
    "SYNTH: the synthesized term sends what the hand-written one does"
    (synth "sends/1k (hand)") (synth "sends/1k (synth)");
  check_mentions "EXPERIMENTS.md" (Lazy.force experiments)
    [ Printf.sprintf "(%.0f→%.0f msgs/1k steps over δ=0..64)" w w64;
      Printf.sprintf "costs ~%.1f× the refined one at δ=4"
        (unrefined /. refined);
      Printf.sprintf
        "in ~%s steps (n=5); RA+W from full state corruption in ~%s"
        (t10 "Dijkstra K-state ring (n=5)")
        (t10 "RA + graybox wrapper (n=5)");
      Printf.sprintf "`w_refined`: %s per 1k" (synth "sends/1k (synth)") ];
  check_mentions "README.md" (Lazy.force readme)
    [ Printf.sprintf "(%.0f → %.0f msgs per" w w64 ]

(* The lines of the EXPERIMENTS.md section whose heading starts with
   [heading], up to the next "## " heading. *)
let section ls ~heading =
  let rec find = function
    | l :: rest when String.starts_with ~prefix:heading l ->
      let rec body = function
        | l :: _ when String.starts_with ~prefix:"## " l -> []
        | l :: rest -> l :: body rest
        | [] -> []
      in
      body rest
    | _ :: rest -> find rest
    | [] -> Alcotest.failf "EXPERIMENTS.md: no section %S" heading
  in
  find ls

let partition_index_row ls =
  List.find (String.starts_with ~prefix:"| PARTITION |") ls

let partition_section ls =
  String.concat "\n" (section ls ~heading:"## Partitions, heal")

(* The heal-flood premium, in EXPERIMENTS.md's index row and PARTITION
   section and in the README, is the golden table's: per wrapped
   reference, the range over widths of the buffered row's extra latency
   after heal over the lossy row's, in whole percent rounded down. *)
let test_experiments_heal_premium () =
  let _, _, cell, rows = golden_table "partition" in
  let premium proto =
    (* (width, latency after heal) of each of [proto]'s [mode] rows *)
    let latencies mode =
      List.filter_map
        (fun r ->
          if cell "protocol+W'(delta)" r = proto ^ "+W'(8)"
             && cell "heal mode" r = mode
          then Some (cell "width" r, int_of_string (cell "latency after heal" r))
          else None)
        rows
    in
    let buffered = latencies "buffered" in
    let premiums =
      List.map
        (fun (w, lossy) -> (List.assoc w buffered - lossy) * 100 / lossy)
        (latencies "lossy")
    in
    Printf.sprintf "`%s` %+d %% to %+d %%" proto
      (List.fold_left min max_int premiums)
      (List.fold_left max min_int premiums)
  in
  let quoted = [ premium "lamport"; premium "ra" ] in
  let ls = lines (Lazy.force experiments) in
  check_mentions "EXPERIMENTS.md's PARTITION index row"
    (partition_index_row ls) quoted;
  check_mentions "EXPERIMENTS.md's PARTITION section" (partition_section ls)
    quoted;
  check_mentions "README.md" (Lazy.force readme) quoted

(* The negative control's partition figures, wherever quoted, are those
   of CI's partition campaign (--partitions --seeds 25 --budget 4
   --steps 1200, n = 4) run over lamport-unmod alone: a cell's plans
   depend on the seeds, not on the protocol list. *)
let test_partition_negative_control () =
  let report =
    Chaos.Campaign.run
      (Chaos.Campaign.config ~seeds:25 ~budget:4 ~steps:1200 ~n:4
         ~protocols:[ "lamport-unmod" ] ~shrink:false ~partitions:true ())
  in
  let share label verdict =
    let c =
      List.find
        (fun (c : Chaos.Campaign.cell) -> c.Chaos.Campaign.cell_label = label)
        report.Chaos.Campaign.cells
    in
    Printf.sprintf "%d/%d"
      (List.assoc verdict c.Chaos.Campaign.counts)
      (List.length c.Chaos.Campaign.rows)
  in
  let lossy = share "lamport-unmod+W'(8)/split-lossy" Chaos.Outcome.Deadlock in
  let buffered =
    share "lamport-unmod+W'(8)/split-buf" Chaos.Outcome.Recovered
  in
  let ls = lines (Lazy.force experiments) in
  check_mentions "EXPERIMENTS.md's PARTITION index row"
    (partition_index_row ls)
    [ Printf.sprintf "deadlocks %s lossy, recovers %s buffered" lossy buffered ];
  check_mentions "EXPERIMENTS.md's PARTITION section" (partition_section ls)
    [ Printf.sprintf "lossy-split failure is deadlock, %s" lossy;
      Printf.sprintf "deadlocks on %s lossy partitions" lossy;
      Printf.sprintf "from %s buffered ones" buffered ];
  check_mentions "README.md" (Lazy.force readme)
    [ Printf.sprintf "deadlocks (%s seeds at n = 4" lossy ]

(* ------------------------------------------------------------------ *)
(* DESIGN.md: the inventory covers the partition fault model           *)

let test_design_inventory () =
  check_mentions "DESIGN.md" (Lazy.force design)
    [ "`Split`"; "`Delay`"; "`Heal`"; "partition_expectation";
      "`Lossy`/`Buffered`"; "bench/expected/partition.txt";
      "delivery-ready staging" ]

let test_design_move_indexes () =
  check_mentions "DESIGN.md" (Lazy.force design)
    [ "move indexes"; "Fenwick"; "rank/select"; "bit-identical";
      "Oracles.Schedule"; "dense_threshold"; "Tme.Load" ];
  (* the README must tell the same scale story *)
  check_mentions "README.md" (Lazy.force readme)
    [ "bench/expected/load.txt"; "p50/p99/p999"; "Oracles.Schedule";
      "coordinated omission" ]

let test_design_regime_section () =
  check_mentions "DESIGN.md" (Lazy.force design)
    [ "## 8. Regime epochs and weakened specs"; "`Regime.of_plan`";
      "cross-epoch obligation"; "`during_partition`"; "golden-tested" ];
  (* the README must surface the during column and its gate reading *)
  check_mentions "README.md" (Lazy.force readme)
    [ "during"; R.during_partition_label R.Weak_me1;
      R.during_partition_label R.Wedge; R.during_partition_label R.Unsafe ]

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS.md: the SYNTH section exists, names its golden table,   *)
(* the one wrapper mode, the synthesized term, and every target        *)

(* EXPERIMENTS.md's SYNTH table leaves out bench/expected/synth.txt's
   [term] column and copies every other cell, row for row. *)
let test_experiments_synth_table () =
  let _, header, _, rows = golden_table "synth" in
  let rec from_title = function
    | l :: rest when String.starts_with ~prefix:"SYNTH: " l -> rest
    | _ :: rest -> from_title rest
    | [] -> Alcotest.fail "EXPERIMENTS.md: no SYNTH table"
  in
  let rec until_fence = function
    | l :: _ when String.starts_with ~prefix:"```" l -> []
    | l :: rest -> row_cells l :: until_fence rest
    | [] -> []
  in
  let quoted =
    until_fence
      (from_title
         (section (lines (Lazy.force experiments))
            ~heading:"## Wrapper synthesis"))
  in
  let without_term cells =
    List.filteri (fun i _ -> List.nth header i <> "term") cells
  in
  Alcotest.(check (list (list string)))
    "EXPERIMENTS.md's SYNTH table = bench/expected/synth.txt without term"
    (List.map without_term (header :: rows))
    quoted

let test_experiments_synth_section () =
  let text = Lazy.force experiments in
  check_mentions "EXPERIMENTS.md" text
    ([ "## Wrapper synthesis (SYNTH, `bench/expected/synth.txt`)";
       "`Harness.On { term; delta }`"; "graybox-synth/1"; "CEGIS";
       "ra-synth";
       Graybox.Wrapper.to_string Graybox.Wrapper.w_refined ]
     @ R.synthesizable_names ())

let test_design_synth_section () =
  check_mentions "DESIGN.md" (Lazy.force design)
    [ "## 9. Guard DSL and CEGIS wrapper synthesis"; "`Mcheck.Oracle`";
      "has no timer gate"; "pid-symmetric"; "blame"; "`ra-synth`";
      "graybox-synth/1"; "bench/expected/synth.txt" ];
  (* the README must surface the synthesis entry points *)
  check_mentions "README.md" (Lazy.force readme)
    [ "graybox-cli synth"; "bench/expected/synth.txt"; "ra-synth";
      R.role_label R.Synthesized ]

let test_design_checker_section () =
  check_mentions "DESIGN.md" (Lazy.force design)
    [ "sharded"; "Stdext.Blockfile"; "--mem-budget"; "fingerprint";
      "(tag, seq)"; "quiet receiver"; "por_safe"; "Pool.shard_of" ];
  (* the README must surface the out-of-core and POR knobs *)
  check_mentions "README.md" (Lazy.force readme)
    [ "--mem-budget"; "--por"; "--shards"; "test/mcheck_deep_smoke.txt" ]

let () =
  Alcotest.run "docs"
    [ ( "readme",
        [ Alcotest.test_case "protocols table mirrors the registry" `Quick
            test_readme_protocol_table;
          Alcotest.test_case "fault-model table covers every spec" `Quick
            test_readme_fault_model_table ] );
      ( "experiments",
        [ Alcotest.test_case "partition section present and named" `Quick
            test_experiments_partition_section;
          Alcotest.test_case "load section present and named" `Quick
            test_experiments_load_section;
          Alcotest.test_case "mcheck section present and named" `Quick
            test_experiments_mcheck_section;
          Alcotest.test_case "synth section present and named" `Quick
            test_experiments_synth_section;
          Alcotest.test_case "measured tables equal bench/expected" `Quick
            test_experiments_measured_tables;
          Alcotest.test_case "quoted numbers equal bench/expected" `Quick
            test_experiments_quoted_numbers;
          Alcotest.test_case "negative control's partition figures" `Quick
            test_partition_negative_control;
          Alcotest.test_case "synth table equals bench/expected" `Quick
            test_experiments_synth_table;
          Alcotest.test_case "heal-flood premium equals bench/expected" `Quick
            test_experiments_heal_premium ] );
      ( "design",
        [ Alcotest.test_case "inventory covers the partition model" `Quick
            test_design_inventory;
          Alcotest.test_case "move-index architecture documented" `Quick
            test_design_move_indexes;
          Alcotest.test_case "regime-epoch architecture documented" `Quick
            test_design_regime_section;
          Alcotest.test_case "checker architecture documented" `Quick
            test_design_checker_section;
          Alcotest.test_case "synthesis architecture documented" `Quick
            test_design_synth_section ] ) ]
