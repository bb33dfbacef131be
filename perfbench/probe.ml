(* Measurement from outside the library: a monotonic clock, a probe
   functor that counts and times every [Graybox.Protocol.S] call, and
   an in-memory span recorder.  Traced runs are single-domain, so the
   counters are plain mutable state. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* [time f] is [f ()] and its wall-clock seconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(* ------------------------------------------------------------------ *)
(* Machine speed                                                       *)

(* The shared machine's speed drifts by 10-30 % over minutes as other
   tenants load it, and every timing drifts with it.  This fixed kernel
   does what the workloads do most — allocate small blocks, hash them
   and chase pointers through a heap of some 16 MB, under the minor and
   major GC — with the standard library only, so it slows down with
   the machine about as much as they do.  It runs in a fresh process
   ([main.exe --kernel]) right after each call, so its time depends
   neither on the program under test nor on the heap a call leaves
   behind. *)
let kernel () =
  let t0 = now_ns () in
  let key i = ((i * 7919) land 0xFFFFF, [| i; i + 1 |]) in
  let h = Hashtbl.create 1024 in
  for i = 0 to 200_000 - 1 do
    Hashtbl.replace h (key i) i
  done;
  let s = ref 0 in
  for i = 0 to 400_000 - 1 do
    match Hashtbl.find_opt h (key i) with Some v -> s := !s + v | None -> ()
  done;
  ignore (Sys.opaque_identity !s);
  secs_since t0

(* The kernel's median time on the 2-core Xeon VM the baseline was
   taken on: a timing scaled by [speed_factor k], with [k] the kernel's
   time right after it, reads as if the machine ran at that speed. *)
let kernel_reference_s = 0.2

let speed_factor kernel_s = kernel_reference_s /. kernel_s

(* The median of three runs, after one that grows the fresh heap. *)
let kernel_s () =
  ignore (kernel ());
  List.nth
    (List.sort compare
       (List.init 3 (fun _ ->
            Gc.full_major ();
            kernel ())))
    1

(* ------------------------------------------------------------------ *)
(* Protocol probe                                                      *)

let fns =
  [| "on_message"; "request_cs"; "try_enter"; "release_cs"; "view";
     "on_view_change"; "perturb" |]

let calls = Array.make (Array.length fns) 0
let sends = ref 0
let self_ns = ref 0

type counts = { c_calls : int array; c_sends : int; c_self_s : float }

let reset () =
  Array.fill calls 0 (Array.length calls) 0;
  sends := 0;
  self_ns := 0

let counts () =
  { c_calls = Array.copy calls; c_sends = !sends;
    c_self_s = float_of_int !self_ns *. 1e-9 }

let timed k f =
  let t0 = now_ns () in
  let r = f () in
  self_ns := !self_ns + (now_ns () - t0);
  calls.(k) <- calls.(k) + 1;
  r

let sent ((_, out) as r) =
  sends := !sends + List.length out;
  r

(* Behaves exactly like [P] (same name, same states, same messages);
   the harness test holds it to that. *)
module Make (P : Graybox.Protocol.S) :
  Graybox.Protocol.S with type state = P.state = struct
  include P

  let on_message ~from m s = sent (timed 0 (fun () -> P.on_message ~from m s))
  let request_cs s = sent (timed 1 (fun () -> P.request_cs s))
  let try_enter s = Option.map sent (timed 2 (fun () -> P.try_enter s))
  let release_cs s = sent (timed 3 (fun () -> P.release_cs s))
  let view s = timed 4 (fun () -> P.view s)

  let on_view_change ~members s =
    timed 5 (fun () -> P.on_view_change ~members s)

  let perturb ~n s = timed 6 (fun () -> P.perturb ~n s)
end

let wrap (module P : Graybox.Protocol.S) =
  (module Make (P) : Graybox.Protocol.S)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = {
  id : int;
  name : string;
  workload : string;
  parent : int option;
  start_s : float;  (* seconds since the recorder started *)
  end_s : float;
}

let origin = now_ns ()
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0

(* [span ~workload name f] runs [f] inside a span whose parent is the
   innermost span still open. *)
let span ~workload name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> Some p | [] -> None in
  open_spans := id :: !open_spans;
  let start_s = secs_since origin in
  let finish () =
    open_spans := List.tl !open_spans;
    let end_s = secs_since origin in
    spans := { id; name; workload; parent; start_s; end_s } :: !spans
  in
  Fun.protect ~finally:finish f

let span_json s =
  Json.Obj
    [ ("id", Json.Num (float_of_int s.id));
      ("name", Json.Str s.name);
      ("workload", Json.Str s.workload);
      ( "parent",
        match s.parent with
        | Some p -> Json.Num (float_of_int p)
        | None -> Json.Null );
      ("start_s", Json.Num s.start_s);
      ("end_s", Json.Num s.end_s) ]

let recorded () =
  List.map span_json (List.sort (fun a b -> compare a.id b.id) !spans)
