open Unityspec
open Clocks

(* the clause labels of every TME_Spec report *)
let clauses ~me1 ~me2 ~me3 =
  Report.of_list
    [ ("ME1 (mutual exclusion)", me1);
      ("ME2 (starvation freedom)", me2);
      ("ME3 (FCFS)", me3) ]

(* ------------------------------------------------------------------ *)
(* Epoch-indexed monitors: the same spec, weakened per regime.  During
   a [Global] epoch the classical clauses apply unchanged; during a
   [Split] epoch ME1 weakens to at-most-one-eater *per connected
   group*, ME2 stops opening obligations (a minority group may starve
   legitimately), and ME3 compares only entries that could have
   communicated (same group, or either in a global epoch).  A
   cross-epoch obligation watches regime changes: the eater set
   carried over a transition may violate the new topology (one eater
   per side of a heal); it is tolerated as long as it only shrinks,
   and must reach a topology-legal state before the run ends — a
   dual-holder surviving heal-complete is the violation the classical
   ME1 would have charged to the wrong epoch.  On a one-epoch
   timeline nothing weakens and no obligation opens: the fold is the
   classical spec, the one monitor the product runs for TME_Spec. *)

module Epoch = struct
  type row = {
    topo : Sim.Regime.topo;
    me1 : Temporal.verdict;
    row_entries : int;  (** CS entries while this epoch governed *)
  }

  type report = {
    rows : row list;
    heal : Temporal.verdict;
    me2 : Temporal.verdict;
    me3 : Temporal.verdict;
    split_entries : int;  (** CS entries during [Split] epochs *)
    snapshots : int;
  }

  type row_state = {
    r_topo : Sim.Regime.topo;
    r_group : int array;  (** pid -> index of its group in [r_topo.groups] *)
    mutable r_me1 : Temporal.verdict;
    mutable r_entries : int;
  }

  type obligation = {
    ob_pids : Sim.Pid.t list;  (** carried-over eaters, ascending *)
    ob_time : int;
    ob_idx : int;
  }

  (* The fold updates arrays in place: a snapshot costs O(n) reads and
     allocates nothing unless a process's hungry run breaks, and a
     snapshot that repeats the previous one's modes within its epoch
     costs O(1).  ME1 counts eaters per group of the current epoch;
     ME2 keeps each process's open obligations — the snapshot indices
     at which it was hungry in a global epoch and has not eaten
     since — as index intervals: the current run
     [\[me2_start, me2_last\]] and the runs closed by a snapshot that
     opened nothing.  A repeated snapshot changes no verdict, so only
     the open runs move: a run that reached the latest fully fed
     snapshot ([full_idx]) extends lazily through every repeat since,
     and settles at the next fully fed snapshot or at [report].  ME3
     keeps, instead of every earlier entry, the maximal request stamps
     of the entries an entry may be compared with (see
     [feed_entry]). *)
  type t = {
    n : int;
    split : bool;
        (** the timeline has a [Split] epoch: only then does an
            entry's ME3 check read the global-epoch and per-process
            stamp sets, so only then are they kept *)
    cursor : Sim.Regime.cursor;
    rows : row_state array;
    mutable cur_epoch : int;
    mutable idx : int;  (** snapshots fed so far *)
    mutable full_idx : int;  (** the latest snapshot not fed as a repeat *)
    mutable obligation : obligation option;
    group_eaters : int array;  (** eaters per group, current snapshot *)
    me2_start : int array;  (** per process; -1 when no run is open *)
    me2_last : int array;
    me2_closed : (int * int) list array;
        (** per process, closed runs as (start, last), most recent
            first *)
    mutable me3 : Temporal.verdict;
    mutable me3_all : Vector_clock.t list;
        (** maximal request stamps of all entries so far *)
    mutable me3_global : Vector_clock.t list;
        (** maximal request stamps of the entries made in global
            epochs *)
    me3_by_pid : Vector_clock.t list array;
        (** per process, the maximal request stamps of its entries *)
    mutable entry_idx : int;
    mutable split_entries : int;
  }

  let create ~n ~timeline =
    let row (topo : Sim.Regime.topo) =
      let r_group = Array.make n (-1) in
      List.iteri
        (fun g members -> List.iter (fun k -> r_group.(k) <- g) members)
        topo.Sim.Regime.groups;
      { r_topo = topo; r_group; r_me1 = Temporal.Holds; r_entries = 0 }
    in
    let epochs = Sim.Regime.epochs timeline in
    { n;
      split =
        List.exists
          (fun (t : Sim.Regime.topo) -> t.Sim.Regime.phase = Sim.Regime.Split)
          epochs;
      cursor = Sim.Regime.cursor timeline;
      rows = Array.of_list (List.map row epochs);
      cur_epoch = 0;
      idx = 0;
      full_idx = -1;
      obligation = None;
      group_eaters = Array.make n 0;
      me2_start = Array.make n (-1);
      me2_last = Array.make n (-1);
      me2_closed = Array.make n [];
      me3 = Temporal.Holds;
      me3_all = [];
      me3_global = [];
      me3_by_pid = Array.make n [];
      entry_idx = 0;
      split_entries = 0 }

  let eater_pids views =
    let acc = ref [] in
    for j = Array.length views - 1 downto 0 do
      if View.eating views.(j) then acc := j :: !acc
    done;
    !acc

  let pids_label pids =
    "{" ^ String.concat "," (List.map string_of_int pids) ^ "}"

  (* every current eater is one of the carried-over holders *)
  let shrunk_to ob views =
    let ok = ref true in
    Array.iteri
      (fun j v ->
        if View.eating v && not (List.mem j ob.ob_pids) then ok := false)
      views;
    !ok

  let violate_me1 m row (topo : Sim.Regime.topo) views =
    let bad = ref (-1) in
    Array.iteri (fun g c -> if c > 1 && !bad < 0 then bad := g) m.group_eaters;
    row.r_me1 <-
      Temporal.Violated
        { at = m.idx;
          reason =
            Printf.sprintf "ME1[epoch %d]: concurrent CS holders %s in group %s"
              topo.Sim.Regime.epoch
              (pids_label (eater_pids views))
              (pids_label (List.nth topo.Sim.Regime.groups !bad)) }

  (* The last index of process [j]'s open ME2 run: one that reached
     the latest fully fed snapshot has been extended by every repeat
     since. *)
  let run_last m j =
    let last = m.me2_last.(j) in
    if m.me2_start.(j) >= 0 && last = m.full_idx then m.idx - 1 else last

  (* A snapshot fed in full: O(n). *)
  let feed_full m ~time (topo : Sim.Regime.topo) views =
    let row = m.rows.(topo.Sim.Regime.epoch) in
    (* ME1: at most one eater per connected group *)
    Array.fill m.group_eaters 0 m.n 0;
    let legal = ref true in
    for j = 0 to m.n - 1 do
      if View.eating views.(j) then begin
        let g = row.r_group.(j) in
        m.group_eaters.(g) <- m.group_eaters.(g) + 1;
        if m.group_eaters.(g) > 1 then legal := false
      end
    done;
    if topo.Sim.Regime.epoch <> m.cur_epoch then begin
      m.cur_epoch <- topo.Sim.Regime.epoch;
      (* regime change: the CS holders observed at the first snapshot
         of the new regime carry over (an entry granted under the old
         topology can land in the boundary step itself, so the last
         pre-change snapshot under-counts).  If they violate the new
         topology they are on notice: tolerated only while shrinking,
         and the obligation must discharge before the run ends. *)
      if (not !legal) && Option.is_none m.obligation then
        m.obligation <-
          Some { ob_pids = eater_pids views; ob_time = time; ob_idx = m.idx }
    end;
    if !legal then m.obligation <- None
    else begin
      let tolerated =
        match m.obligation with Some ob -> shrunk_to ob views | None -> false
      in
      match row.r_me1 with
      | Temporal.Holds when not tolerated -> violate_me1 m row topo views
      | _ -> ()
    end;
    (* ME2: eating discharges a process's obligations; being hungry
       opens one, but only while the regime is global.  A run still
       extending lazily settles here. *)
    let global = topo.Sim.Regime.phase = Sim.Regime.Global in
    for j = 0 to m.n - 1 do
      let v = views.(j) in
      let last = run_last m j in
      if View.eating v then begin
        m.me2_start.(j) <- -1;
        if m.me2_closed.(j) <> [] then m.me2_closed.(j) <- []
      end
      else if global && View.hungry v then begin
        let start = m.me2_start.(j) in
        if start < 0 || last < m.idx - 1 then begin
          if start >= 0 then
            m.me2_closed.(j) <- (start, last) :: m.me2_closed.(j);
          m.me2_start.(j) <- m.idx
        end;
        m.me2_last.(j) <- m.idx
      end
      else m.me2_last.(j) <- last
    done;
    m.full_idx <- m.idx

  let feed m ~time ~repeat views =
    let topo = Sim.Regime.advance m.cursor time in
    (* a repeat within its epoch changes no verdict: the open ME2 runs
       extend lazily ([run_last]) *)
    if not (repeat && m.idx > 0 && topo.Sim.Regime.epoch = m.cur_epoch) then
      feed_full m ~time topo views;
    m.idx <- m.idx + 1

  (* [stamps] with [vc] added, kept to its maximal elements *)
  let add_maximal vc stamps =
    if List.exists (fun s -> Vector_clock.leq vc s) stamps then stamps
    else vc :: List.filter (fun s -> not (Vector_clock.leq s vc)) stamps

  (* An entry violates FCFS iff its request happened-before the request
     of an earlier entry it is comparable with — and so iff it
     happened-before a maximal one of those: every earlier stamp lies
     under a maximal one.  An entry in a global epoch is comparable
     with every earlier entry; one in a split epoch with those made in
     global epochs and those of processes in its own group (entries in
     different groups of a split could not have communicated; FCFS
     scopes to intra-group requests). *)
  let feed_entry m ~time (e : Harness.entry_record) =
    let topo = Sim.Regime.advance m.cursor time in
    let row = m.rows.(topo.Sim.Regime.epoch) in
    row.r_entries <- row.r_entries + 1;
    let global = topo.Sim.Regime.phase = Sim.Regime.Global in
    if not global then m.split_entries <- m.split_entries + 1;
    (match m.me3 with
     | Temporal.Holds ->
       let vc = e.entry_req_vc in
       let below stamps = List.exists (Vector_clock.lt vc) stamps in
       let bad =
         if global then below m.me3_all
         else
           below m.me3_global
           || List.exists
                (fun k -> below m.me3_by_pid.(k))
                (Sim.Regime.group_members topo e.entry_pid)
       in
       if bad then
         m.me3 <-
           Temporal.Violated
             { at = m.entry_idx;
               reason =
                 Printf.sprintf
                   "entry %d by process %d served a request that \
                    happened-before an already-served one"
                   m.entry_idx e.entry_pid }
       else begin
         m.me3_all <- add_maximal vc m.me3_all;
         if m.split then begin
           if global then m.me3_global <- add_maximal vc m.me3_global;
           m.me3_by_pid.(e.entry_pid) <-
             add_maximal vc m.me3_by_pid.(e.entry_pid)
         end
       end
     | _ -> ());
    m.entry_idx <- m.entry_idx + 1

  (* The sorted, deduplicated union of the open obligations — what
     conjoining the per-process leads-to verdicts yields — in one pass:
     mark each open interval, then read the marks back in order. *)
  let me2_verdict m =
    let open_at = Bytes.make m.idx '\000' in
    let mark (start, last) =
      Bytes.fill open_at start (last - start + 1) '\001'
    in
    for j = 0 to m.n - 1 do
      if m.me2_start.(j) >= 0 then mark (m.me2_start.(j), run_last m j);
      List.iter mark m.me2_closed.(j)
    done;
    let obligations = ref [] in
    for i = m.idx - 1 downto 0 do
      if Bytes.get open_at i <> '\000' then obligations := i :: !obligations
    done;
    match !obligations with
    | [] -> Temporal.Holds
    | obligations -> Temporal.Pending { obligations }

  let report m =
    let heal =
      match m.obligation with
      | Some ob ->
        Temporal.Violated
          { at = ob.ob_idx;
            reason =
              Printf.sprintf
                "CS holders %s spanning the regime change at time %d \
                 were never resolved to one"
                (pids_label ob.ob_pids) ob.ob_time }
      | None -> Temporal.Holds
    in
    { rows =
        Array.to_list m.rows
        |> List.map (fun r ->
               { topo = r.r_topo; me1 = r.r_me1; row_entries = r.r_entries });
      heal;
      me2 = me2_verdict m;
      me3 = m.me3;
      split_entries = m.split_entries;
      snapshots = m.idx }

  let tme_report (r : report) =
    clauses
      ~me1:(Temporal.all (List.map (fun row -> row.me1) r.rows))
      ~me2:r.me2 ~me3:r.me3

  let safe (r : report) =
    List.for_all (fun row -> Temporal.is_ok row.me1) r.rows
    && Temporal.is_ok r.heal

  let pp_row ppf row =
    let phase =
      match row.topo.Sim.Regime.phase with
      | Sim.Regime.Global -> "global"
      | Sim.Regime.Split -> "split"
    in
    Format.fprintf ppf "epoch %d %-6s since %5d  %-18s entries %3d  ME1 %a"
      row.topo.Sim.Regime.epoch phase row.topo.Sim.Regime.since
      (Sim.Regime.groups_label row.topo)
      row.row_entries Temporal.pp_verdict row.me1

  (* one line per row and per verdict: a vertical box breaks at every
     cut, whatever the lines' widths *)
  let pp ppf (r : report) =
    Format.fprintf ppf "@[<v>";
    List.iter (fun row -> Format.fprintf ppf "%a@," pp_row row) r.rows;
    Format.fprintf ppf "heal obligation: %a@," Temporal.pp_verdict r.heal;
    Format.fprintf ppf "ME2 (global epochs): %a@," Temporal.pp_verdict r.me2;
    Format.fprintf ppf "ME3 (intra-group): %a@," Temporal.pp_verdict r.me3;
    Format.fprintf ppf "during-split entries: %d@]" r.split_entries
end
