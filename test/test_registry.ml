(* Tests for the protocol registry: table invariants, entry metadata,
   per-protocol contract smoke tests, and — the refactor's acceptance
   bar — byte-identical chaos-campaign JSON against a golden report
   generated by the pre-registry code. *)

module R = Graybox.Registry
module S = Tme.Scenarios

let entries = R.all ()
let entry_names = List.map (fun (e : R.entry) -> e.R.name) entries

(* ------------------------------------------------------------------ *)
(* Table invariants                                                    *)

let test_names_unique_nonempty () =
  Alcotest.(check bool) "table populated" true (List.length entries >= 8);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ ": non-empty") false (name = ""))
    entry_names;
  let sorted = List.sort_uniq compare entry_names in
  Alcotest.(check int)
    "names unique" (List.length entry_names) (List.length sorted)

let test_name_matches_module () =
  List.iter
    (fun (e : R.entry) ->
      let module P = (val e.R.proto : Graybox.Protocol.S) in
      Alcotest.(check string) "entry name is the module's" P.name e.R.name)
    entries

let test_duplicate_registration_rejected () =
  let dup =
    R.entry ~doc:"duplicate of an already-registered name"
      (module Tme.Ra_me : Graybox.Protocol.S)
  in
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Registry.register: duplicate protocol \"ra\"")
    (fun () -> R.register dup)

let test_lookups_agree () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ ": mem") true (R.mem name);
      (match R.find name with
       | None -> Alcotest.fail (name ^ ": find returned None")
       | Some e -> Alcotest.(check string) "find name" name e.R.name);
      Alcotest.(check bool)
        (name ^ ": find_protocol") true
        (R.find_protocol name <> None))
    entry_names;
  Alcotest.(check bool) "unknown absent" true (R.find "nope" = None);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let msg = R.unknown_protocol_message "nope" in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " listed in error") true (contains msg name))
    entry_names

(* ------------------------------------------------------------------ *)
(* Metadata-derived views                                              *)

let test_role_filters () =
  let names role = List.map (fun (e : R.entry) -> e.R.name) (R.all ~role ()) in
  let refs = names R.Reference in
  let negs = names R.Negative_control in
  let abls = names R.Ablation in
  let synths = names R.Synthesized in
  Alcotest.(check int)
    "roles partition the table"
    (List.length entries)
    (List.length refs + List.length negs + List.length abls
    + List.length synths);
  Alcotest.(check bool) "ra is a reference" true (List.mem "ra" refs);
  Alcotest.(check (list string)) "ra-synth is the synthesized entry"
    [ "ra-synth" ] synths;
  Alcotest.(check bool)
    "lamport-unmod is a negative control" true
    (List.mem "lamport-unmod" negs);
  Alcotest.(check bool)
    "the safety mutant is a negative control" true
    (List.mem "ra-mutant" negs);
  Alcotest.(check int) "two ablations" 2 (List.length abls);
  List.iter
    (fun (e : R.entry) ->
      Alcotest.(check bool)
        (e.R.name ^ ": negative controls are never gated on recovery") true
        (e.R.expectation <> R.Expect_recover))
    (R.all ~role:R.Negative_control ())

let test_default_sweep () =
  Alcotest.(check (list string))
    "sweep ranks give the acceptance order"
    [ "lamport"; "ra"; "lamport-unmod" ]
    (R.default_sweep ());
  Alcotest.(check (list string))
    "campaign default is the registry sweep"
    (R.default_sweep ()) Chaos.Campaign.default_protocols

let test_partition_expectations () =
  (* partition expectations follow the role unless overridden —
     ra-lease-stale opts out of the Deadlocks gate: whether a lossy
     heal leaves it stuck or split-brained varies by seed, and its
     teeth-check lives in the during-split (epoch-unsafe) gate; central
     opts out of both recovery gates: W is an Lspec wrapper, central's
     coordinator is outside Lspec, and its wrapped runs wedge *)
  List.iter
    (fun (e : R.entry) ->
      let want =
        if e.R.name = "ra-lease-stale" || e.R.name = "central" then
          R.Partition_observe
        else
          match e.R.role with
          | R.Reference -> R.Recovers_after_heal
          | R.Negative_control -> R.Deadlocks
          | R.Ablation | R.Synthesized -> R.Partition_observe
      in
      Alcotest.(check string)
        (e.R.name ^ ": partition expectation follows role")
        (R.partition_expectation_label want)
        (R.partition_expectation_label e.R.partition_expectation))
    entries;
  let central = Option.get (R.find "central") in
  Alcotest.(check (pair string string))
    "central is observed, not gated"
    ( R.expectation_label R.Observe,
      R.partition_expectation_label R.Partition_observe )
    ( R.expectation_label central.R.expectation,
      R.partition_expectation_label central.R.partition_expectation );
  Alcotest.(check (list string)) "stable labels"
    [ "recovers-after-heal"; "deadlocks"; "observe" ]
    (List.map R.partition_expectation_label
       [ R.Recovers_after_heal; R.Deadlocks; R.Partition_observe ]);
  (* the chaos gate each expectation lowers to *)
  Alcotest.(check bool) "recovers gates recovery" true
    (R.expectation_of_partition R.Recovers_after_heal = R.Expect_recover);
  Alcotest.(check bool) "deadlocks gates failure" true
    (R.expectation_of_partition R.Deadlocks = R.Expect_failure);
  Alcotest.(check bool) "observe stays informational" true
    (R.expectation_of_partition R.Partition_observe = R.Observe)

let test_during_partition () =
  (* during-split expectations follow the role, with two registered
     exceptions: ra-lease degrades to per-group mutual exclusion, and
     lamport-unmod's failure mode is a wedge (deadlock is epoch-safe),
     not a safety violation *)
  List.iter
    (fun (e : R.entry) ->
      let want =
        if e.R.name = "ra-lease" then R.Weak_me1
        else if e.R.name = "lamport-unmod" then R.Wedge
        else
          match e.R.role with
          | R.Reference | R.Ablation | R.Synthesized -> R.Wedge
          | R.Negative_control -> R.Unsafe
      in
      Alcotest.(check string)
        (e.R.name ^ ": during-partition expectation follows role")
        (R.during_partition_label want)
        (R.during_partition_label e.R.during_partition))
    entries;
  Alcotest.(check (list string)) "stable during labels"
    [ "weak-me1"; "wedge"; "unsafe" ]
    (List.map R.during_partition_label [ R.Weak_me1; R.Wedge; R.Unsafe ]);
  (* the expectation lattice: base readings and the two demotions *)
  Alcotest.(check bool) "weak-me1 gates epoch safety" true
    (R.expectation_of_during R.Weak_me1 = R.Expect_recover);
  Alcotest.(check bool) "wedge gates epoch safety" true
    (R.expectation_of_during R.Wedge = R.Expect_recover);
  Alcotest.(check bool) "unsafe gates a caught violation" true
    (R.expectation_of_during R.Unsafe = R.Expect_failure);
  Alcotest.(check bool) "unwrapped demotes recovery gates" true
    (R.demote_unwrapped R.Expect_recover = R.Observe);
  Alcotest.(check bool) "unwrapped keeps failure gates" true
    (R.demote_unwrapped R.Expect_failure = R.Expect_failure);
  Alcotest.(check bool) "buffered demotes failure gates" true
    (R.demote_buffered R.Expect_failure = R.Observe);
  Alcotest.(check bool) "buffered keeps recovery gates" true
    (R.demote_buffered R.Expect_recover = R.Expect_recover)

let test_default_reference () =
  match R.default_reference () with
  | None -> Alcotest.fail "no reference registered"
  | Some e ->
    Alcotest.(check string) "first reference" "ra" e.R.name;
    Alcotest.(check bool) "role" true (e.R.role = R.Reference)

let test_synthesizable () =
  (* synthesizable follows Reference + spec-level views: the oracle's
     monitors need them, so central (lspec_monitorable = false) and
     every non-reference drop out *)
  List.iter
    (fun (e : R.entry) ->
      Alcotest.(check bool)
        (e.R.name ^ ": synthesizable follows role and capabilities")
        (e.R.role = R.Reference && e.R.lspec_monitorable)
        e.R.synthesizable)
    entries;
  Alcotest.(check (list string)) "synthesizable names"
    [ "ra"; "ra-gcl"; "lamport"; "ra-lease" ]
    (R.synthesizable_names ());
  (* the synthesized entry carries its term; everything else is run
     under the hand-written wrapper *)
  List.iter
    (fun (e : R.entry) ->
      Alcotest.(check bool)
        (e.R.name ^ ": wrapper_term iff synthesized")
        (e.R.role = R.Synthesized)
        (e.R.wrapper_term <> None))
    entries;
  match R.find "ra-synth" with
  | None -> Alcotest.fail "ra-synth not registered"
  | Some e ->
    Alcotest.(check bool) "ra-synth term is the refined W" true
      (e.R.wrapper_term = Some Graybox.Wrapper.w_refined)

let test_por_safe () =
  (* por_safe follows the role: references may trade interleavings
     for reach, everything registered to be caught stays exhaustive *)
  List.iter
    (fun (e : R.entry) ->
      Alcotest.(check bool)
        (e.R.name ^ ": por_safe follows role")
        (e.R.role = R.Reference) e.R.por_safe)
    entries;
  Alcotest.(check (list string)) "por-safe names are the references"
    (R.names ~role:R.Reference ())
    (R.por_safe_names ())

(* ------------------------------------------------------------------ *)
(* Per-entry contract smoke tests                                      *)

let test_perturb_deterministic () =
  (* Protocol.S.perturb promises a bounded, non-empty enumeration
     identical on every call — everywhere-mode checking (mcheck
     --everywhere, the synthesis oracle's safety leg) seeds from it for
     every entry *)
  List.iter
    (fun (e : R.entry) ->
      let module P = (val e.R.proto : Graybox.Protocol.S) in
      let s = P.init ~n:3 0 in
      let a = P.perturb ~n:3 s and b = P.perturb ~n:3 s in
      Alcotest.(check bool) (e.R.name ^ ": identical lists") true (a = b);
      Alcotest.(check bool) (e.R.name ^ ": non-empty") true (a <> []))
    entries

let test_references_survive_smoke () =
  (* every Reference and Ablation entry runs fault-free at n = 3 and
     makes progress; negative controls are exempt (the mutant is
     *supposed* to violate ME1, lamport-unmod to wedge under faults) *)
  List.iter
    (fun (e : R.entry) ->
      let r = S.run e.R.proto ~n:3 ~seed:11 ~steps:1200 in
      Alcotest.(check bool)
        (e.R.name ^ ": made CS entries") true (r.S.total_entries > 0);
      Alcotest.(check bool)
        (e.R.name ^ ": no violation fault-free") true
        r.S.analysis.Graybox.Stabilize.recovered)
    (R.all ~role:R.Reference () @ R.all ~role:R.Ablation ()
    @ R.all ~role:R.Synthesized ())

(* ------------------------------------------------------------------ *)
(* Campaign integration                                                *)

let campaign_json cfg =
  Chaos.Jsonx.to_string (Chaos.Campaign.to_json (Chaos.Campaign.run cfg))

let test_registry_sweep_equals_explicit () =
  (* naming every protocol explicitly and sweeping Registry.names ()
     produce byte-identical reports: the registry adds no dispatch
     overhead or reordering *)
  let cfg protocols =
    Chaos.Campaign.config ~seeds:2 ~budget:2 ~steps:800 ~protocols
      ~shrink:false ~jobs:2 ()
  in
  let explicit =
    [ "ra"; "ra-gcl"; "lamport"; "lamport-unmod"; "lamport-m1";
      "lamport-m12"; "central"; "ra-mutant"; "ra-lease"; "ra-lease-stale";
      "ra-synth" ]
  in
  Alcotest.(check (list string))
    "registration order" explicit
    (Chaos.Campaign.known_protocols ());
  Alcotest.(check string) "byte-identical JSON"
    (campaign_json (cfg explicit))
    (campaign_json (cfg (R.names ())))

let test_golden_campaign_unchanged () =
  (* the committed golden was generated by the pre-registry seed code:
     the refactor must not move a byte of the default-config report *)
  let golden =
    let ic = open_in_bin "golden_campaign.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    String.trim s
  in
  let now =
    campaign_json
      (Chaos.Campaign.config ~seeds:3 ~budget:3 ~steps:1200 ~jobs:2 ())
  in
  Alcotest.(check string) "byte-identical to seed report" golden now

let () =
  Alcotest.run "registry"
    [ ( "table",
        [ Alcotest.test_case "names unique and non-empty" `Quick
            test_names_unique_nonempty;
          Alcotest.test_case "name matches module" `Quick
            test_name_matches_module;
          Alcotest.test_case "duplicate registration rejected" `Quick
            test_duplicate_registration_rejected;
          Alcotest.test_case "lookups agree" `Quick test_lookups_agree ] );
      ( "metadata",
        [ Alcotest.test_case "role filters" `Quick test_role_filters;
          Alcotest.test_case "default sweep" `Quick test_default_sweep;
          Alcotest.test_case "partition expectations" `Quick
            test_partition_expectations;
          Alcotest.test_case "during-partition lattice" `Quick
            test_during_partition;
          Alcotest.test_case "default reference" `Quick
            test_default_reference;
          Alcotest.test_case "por-safe capability" `Quick test_por_safe;
          Alcotest.test_case "synthesizable capability" `Quick
            test_synthesizable ] );
      ( "contract",
        [ Alcotest.test_case "perturb deterministic" `Quick
            test_perturb_deterministic;
          Alcotest.test_case "references survive fault-free smoke" `Quick
            test_references_survive_smoke ] );
      ( "campaign",
        [ Alcotest.test_case "registry sweep == explicit sweep" `Quick
            test_registry_sweep_equals_explicit;
          Alcotest.test_case "golden report unchanged" `Quick
            test_golden_campaign_unchanged ] ) ]
