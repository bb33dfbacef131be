type t = {
  mutable sent : int;
  mutable delivered : int;
  mutable internal_steps : int;
  mutable stutters : int;
  mutable faults : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable reordered : int;
  mutable flushed : int;
  mutable crashes : int;
  by_label : (string, int ref) Hashtbl.t;
      (* counters are cells so the hot path is one lookup, no
         re-insertion *)
}

let create () =
  { sent = 0;
    delivered = 0;
    internal_steps = 0;
    stutters = 0;
    faults = 0;
    dropped = 0;
    duplicated = 0;
    corrupted = 0;
    reordered = 0;
    flushed = 0;
    crashes = 0;
    by_label = Hashtbl.create 16 }

let reset t =
  t.sent <- 0;
  t.delivered <- 0;
  t.internal_steps <- 0;
  t.stutters <- 0;
  t.faults <- 0;
  t.dropped <- 0;
  t.duplicated <- 0;
  t.corrupted <- 0;
  t.reordered <- 0;
  t.flushed <- 0;
  t.crashes <- 0;
  Hashtbl.reset t.by_label

let note_sends t ~label k =
  if k > 0 then begin
    t.sent <- t.sent + k;
    match Hashtbl.find t.by_label label with
    | r -> r := !r + k
    | exception Not_found -> Hashtbl.add t.by_label label (ref k)
  end

let note_delivery t = t.delivered <- t.delivered + 1
let note_internal t = t.internal_steps <- t.internal_steps + 1
let note_stutter t = t.stutters <- t.stutters + 1
let note_fault t = t.faults <- t.faults + 1
let note_dropped t k = t.dropped <- t.dropped + k
let note_duplicated t k = t.duplicated <- t.duplicated + k
let note_corrupted t k = t.corrupted <- t.corrupted + k
let note_reordered t k = t.reordered <- t.reordered + k
let note_flushed t k = t.flushed <- t.flushed + k
let note_crashed t = t.crashes <- t.crashes + 1

let sent t = t.sent
let delivered t = t.delivered
let internal_steps t = t.internal_steps
let stutters t = t.stutters
let faults t = t.faults
let dropped t = t.dropped
let duplicated t = t.duplicated
let corrupted t = t.corrupted
let reordered t = t.reordered
let flushed t = t.flushed
let crashes t = t.crashes

let sends_with_label t label =
  match Hashtbl.find_opt t.by_label label with Some r -> !r | None -> 0

let labels t =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.by_label []
  |> List.sort compare

let sends_matching t p =
  List.fold_left (fun acc (l, c) -> if p l then acc + c else acc) 0 (labels t)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>sent=%d delivered=%d internal=%d stutters=%d@,\
     faults=%d dropped=%d duplicated=%d corrupted=%d reordered=%d flushed=%d \
     crashes=%d@,\
     sends by label: %a@]"
    t.sent t.delivered t.internal_steps t.stutters t.faults t.dropped
    t.duplicated t.corrupted t.reordered t.flushed t.crashes
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (l, c) -> Format.fprintf ppf "%s=%d" l c))
    (labels t)
