(* The paper's §4 deadlock scenario, narrated step by step.

   "Suppose processes j and k have both requested the CS.  Due to
   transient faults (e.g., REQ_j and REQ_k are both dropped from the
   channels) j and k may have mutually inconsistent information:
   j.REQ_k lt REQ_j and k.REQ_j lt REQ_k.  Process j cannot enter CS
   ... likewise k ... the state of M has a deadlock."

   This example reproduces the deadlock in the simulator, shows the
   mutual inconsistency in the views, and then shows the wrapper
   clearing it.

   Run with:  dune exec examples/deadlock_recovery.exe *)

open Graybox

let faults =
  [ Tme.Scenarios.Drop_requests_window { from_t = 400; until_t = 460 } ]

let hungry_views (r : Tme.Scenarios.result) =
  (* the views at the end of the run *)
  match List.rev r.vtrace with
  | [] -> [||]
  | last :: _ -> last.Sim.Trace.states

let show_views label views =
  Printf.printf "%s\n" label;
  Array.iter (fun v -> Format.printf "  %a@." View.pp v) views

let mutual_inconsistency views =
  (* find a hungry pair with j.REQ_k lt REQ_j and k.REQ_j lt REQ_k *)
  let n = Array.length views in
  let pairs = ref [] in
  for j = 0 to n - 1 do
    for k = j + 1 to n - 1 do
      let vj = views.(j) and vk = views.(k) in
      if
        View.hungry vj && View.hungry vk
        && View.earlier vj ~than:vj.View.req k
        && View.earlier vk ~than:vk.View.req j
      then pairs := (j, k) :: !pairs
    done
  done;
  !pairs

let () =
  let protocol = Option.get (Tme.Scenarios.find_protocol "ra") in
  print_endline "== The paper's deadlock scenario (unwrapped) ==";
  (* recorded: the final views are read off the trace *)
  let bare =
    Tme.Scenarios.run protocol ~n:4 ~seed:7 ~steps:6000 ~faults ~record:true
  in
  let views = hungry_views bare in
  show_views "Final views (t/h/e = thinking/hungry/eating):" views;
  (match mutual_inconsistency views with
   | [] ->
     print_endline "No mutually inconsistent hungry pair found (try another seed)."
   | pairs ->
     List.iter
       (fun (j, k) ->
         Printf.printf
           "Processes %d and %d are mutually inconsistent:\n\
           \  %d.REQ_%d lt REQ_%d and %d.REQ_%d lt REQ_%d - each waits for the other.\n"
           j k j k j k j k)
       pairs);
  Printf.printf "Recovered: %b; starving: [%s]\n\n" bare.analysis.recovered
    (String.concat ";" (List.map string_of_int bare.analysis.starving));

  print_endline "== Same fault, with the graybox wrapper W ==";
  let wrapped =
    Tme.Scenarios.run protocol ~n:4 ~seed:7 ~steps:6000 ~faults ~record:true
      ~wrapper:(Tme.Scenarios.wrapped ~delta:0 ())
  in
  show_views "Final views:" (hungry_views wrapped);
  Printf.printf "Recovered: %b; wrapper sent %d corrective requests.\n"
    wrapped.analysis.recovered wrapped.wrapper_sends;
  print_endline "";
  print_endline
    "W_j :: h.j -> (forall k : j.REQ_k lt REQ_j : send(REQ_j, j, k))  -";
  print_endline
    "resending the own request repairs k.REQ_j at the receiver, whose";
  print_endline
    "reply (Reply Spec) then repairs j.REQ_k: the deadlock dissolves."
