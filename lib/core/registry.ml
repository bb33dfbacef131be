type role = Reference | Negative_control | Ablation | Synthesized

type expectation = Expect_recover | Expect_failure | Observe

type partition_expectation = Recovers_after_heal | Deadlocks | Partition_observe

type during_partition = Weak_me1 | Wedge | Unsafe

type entry = {
  name : string;
  proto : (module Protocol.S);
  role : role;
  expectation : expectation;
  partition_expectation : partition_expectation;
  during_partition : during_partition;
  default_delta : int;
  lspec_monitorable : bool;
  por_safe : bool;
  synthesizable : bool;
  wrapper_term : Wrapper.t option;
  sweep_rank : int option;
  doc : string;
}

let entry ?(role = Reference) ?expectation ?partition_expectation
    ?during_partition ?(delta = 8) ?(lspec_monitorable = true) ?wrapper_term
    ?sweep_rank ~doc (module P : Protocol.S) =
  let expectation =
    match expectation with
    | Some e -> e
    | None -> (
      match role with
      | Reference | Synthesized -> Expect_recover
      | Negative_control | Ablation -> Expect_failure)
  in
  let partition_expectation =
    match partition_expectation with
    | Some e -> e
    | None -> (
      (* the role defaults mirror the chaos-expectation defaults: a
         wrapped reference must come back after the heal; a negative
         control is expected to get stuck; ablations are measured but
         not gated; synthesized wrappers are certified against wedges,
         not partitions, so their partition cells are informational *)
      match role with
      | Reference -> Recovers_after_heal
      | Negative_control -> Deadlocks
      | Ablation | Synthesized -> Partition_observe)
  in
  let during_partition =
    match during_partition with
    | Some d -> d
    | None -> (
      (* the classical programs need grants from severed peers, so by
         default a split wedges them; negative controls are expected
         to be caught by the epoch monitors *)
      match role with
      | Reference | Ablation | Synthesized -> Wedge
      | Negative_control -> Unsafe)
  in
  (* references are verified exhaustively elsewhere and their expected
     verdict is Ok, so trading interleavings for reach is safe;
     controls and ablations exist to be caught, and their
     counterexamples are compared across runs — keep those sweeps
     exhaustive.  A synthesized entry's wrapper is box-composed by the
     checker, and wrapper moves are outside the ample-set argument *)
  let por_safe = role = Reference in
  (* synthesis needs spec-level views the oracle's monitors understand;
     every [perturb] enumerates the safety leg's seeds *)
  let synthesizable = role = Reference && lspec_monitorable in
  { name = P.name;
    proto = (module P);
    role;
    expectation;
    partition_expectation;
    during_partition;
    default_delta = delta;
    lspec_monitorable;
    por_safe;
    synthesizable;
    wrapper_term;
    sweep_rank;
    doc }

(* Registration order is meaningful (listings, the default reference),
   so the table is an append-only list, not a hashtable — it holds
   O(10) entries and is scanned only at dispatch boundaries. *)
let table : entry list ref = ref []

let register e =
  if e.name = "" then invalid_arg "Registry.register: empty protocol name";
  if List.exists (fun e' -> e'.name = e.name) !table then
    invalid_arg (Printf.sprintf "Registry.register: duplicate protocol %S" e.name);
  table := !table @ [ e ]

let all ?role () =
  match role with
  | None -> !table
  | Some r -> List.filter (fun e -> e.role = r) !table

let names ?role () = List.map (fun e -> e.name) (all ?role ())

let find name = List.find_opt (fun e -> e.name = name) !table

let mem name = find name <> None

let find_protocol name = Option.map (fun e -> e.proto) (find name)

let default_sweep () =
  !table
  |> List.filter_map (fun e -> Option.map (fun r -> (r, e.name)) e.sweep_rank)
  |> List.sort compare
  |> List.map snd

let default_reference () =
  List.find_opt (fun e -> e.role = Reference) !table

let por_safe_names () =
  List.filter_map (fun e -> if e.por_safe then Some e.name else None) !table

let synthesizable_names () =
  List.filter_map (fun e -> if e.synthesizable then Some e.name else None) !table

let role_label = function
  | Reference -> "reference"
  | Negative_control -> "negative-control"
  | Ablation -> "ablation"
  | Synthesized -> "synthesized"

let expectation_label = function
  | Expect_recover -> "recover"
  | Expect_failure -> "fail"
  | Observe -> "observe"

let partition_expectation_label = function
  | Recovers_after_heal -> "recovers-after-heal"
  | Deadlocks -> "deadlocks"
  | Partition_observe -> "observe"

let during_partition_label = function
  | Weak_me1 -> "weak-me1"
  | Wedge -> "wedge"
  | Unsafe -> "unsafe"

(* The expectation lattice — base readings and demotions.  Documented
   once, in the interface; the campaign calls these and adds no rules
   of its own. *)

let expectation_of_partition = function
  | Recovers_after_heal -> Expect_recover
  | Deadlocks -> Expect_failure
  | Partition_observe -> Observe

let expectation_of_during = function
  | Weak_me1 | Wedge -> Expect_recover
  | Unsafe -> Expect_failure

let demote_unwrapped = function
  | Expect_recover -> Observe
  | (Expect_failure | Observe) as e -> e

let demote_buffered = function
  | Expect_failure -> Observe
  | (Expect_recover | Observe) as e -> e

let unknown_protocol_message name =
  Printf.sprintf "unknown protocol %S (known: %s)" name
    (String.concat ", " (names ()))
