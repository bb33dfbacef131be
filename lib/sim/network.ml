open Stdext
module Imap = Map.Make (Int)

(* Channel-keyed hash table.  Keys are src * n + dst; the multiply and
   xorshift spread them over the buckets even when n is a power of two,
   where every channel into one destination shares its low bits. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash i =
    let h = i * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 32)
end)

(* Channel contents live in a mutable table of persistent queues, one
   cell per nonempty channel (absent key = empty channel), so memory
   and [create] are O(occupied channels) instead of O(n^2), and a send
   or a delivery is one table lookup (plus an insertion or a removal
   when the channel fills or empties) and its queue cell.

   Trace capture reads a persistent mirror of that table instead: the
   first [capture] builds it, and from then on every write journals its
   channel, so each later capture folds only the channels written since
   the previous one into the mirror and keeps the resulting map value —
   unaffected by anything done to the network afterwards.  A network
   that is never captured (an unrecorded run) journals nothing.

   The index over the contents is ephemeral, updated in place:
   - [live_src], a Fenwick tree over sources counting each source's
     channels with a deliverable head, and [rows], a per-source bitset
     of those channels' destinations.  The k-th live channel in
     (src, dst) order is a Fenwick select for the source plus an
     in-row select for the destination — O(log n + n/62), the
     scheduler's delivery draw;
   - [live_dst], the same channels counted per destination, so the
     crash bookkeeping's inbound counts are array reads;
   - [waiting], the channels whose head is staged for a later step.

   Every message carries a ready step.  Plain sends stamp [now], so on
   fault-free runs [waiting] stays empty, heads are always ready, and
   the staging layer is invisible.  Link delays stamp [now + delay]; a
   Buffered partition mask restamps to the heal time.  A nonempty
   channel is in exactly one of the live index (head ready at [now]) or
   [waiting] (head staged for later); [advance] promotes waiting
   channels as [now] grows.  Delivery always pops the head, so a
   delayed head also delays everything behind it, preserving FIFO
   exactly. *)
type 'm t = {
  n : int;
  mutable now : int; (* last [advance] step; readiness is judged against it *)
  chans : ('m * int) Fqueue.t ref Itbl.t;
      (* (payload, ready step), keyed src * n + dst; nonempty channels
         only *)
  mutable captured : bool; (* [capture] has run: writes are journaled *)
  mutable mirror : ('m * int) Fqueue.t Imap.t;
      (* the contents as of the last journal fold *)
  mutable journal : int array;
      (* the first [journal_len] entries: channels written since that
         fold *)
  mutable journal_len : int;
  live_src : Fenwick.t; (* per source: channels with a deliverable head *)
  rows : int array array;
      (* per source: bitset over destinations of those channels, [bits]
         to a word; [[||]] until the source first has a live channel *)
  live_dst : int array; (* per destination: channels with a deliverable head *)
  mutable waiting : unit Imap.t;
      (* src-major: nonempty channels whose head is not ready yet *)
  mutable blocked : (int * [ `Lossy | `Buffered ]) Imap.t;
      (* partition mask: channel index -> (heal step, mode); consulted
         on [send] and pruned lazily by [advance] *)
}

(* 62 bits a word keeps every word non-negative, so the bit tricks
   below need no sign handling. *)
let bits = 62

let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

(* index of the single set bit of [b] *)
let bit_index b =
  let i = ref 0 and b = ref b in
  if !b land 0xFFFFFFFF = 0 then begin b := !b lsr 32; i := 32 end;
  if !b land 0xFFFF = 0 then begin b := !b lsr 16; i := !i + 16 end;
  if !b land 0xFF = 0 then begin b := !b lsr 8; i := !i + 8 end;
  if !b land 0xF = 0 then begin b := !b lsr 4; i := !i + 4 end;
  if !b land 0x3 = 0 then begin b := !b lsr 2; i := !i + 2 end;
  if !b land 0x1 = 0 then !i + 1 else !i

let idx t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Network: pid out of range";
  (src * t.n) + dst

let create ~n =
  if n <= 0 then invalid_arg "Network.create: need n > 0";
  { n;
    now = 0;
    chans = Itbl.create 64;
    captured = false;
    mirror = Imap.empty;
    journal = Array.make 16 0;
    journal_len = 0;
    live_src = Fenwick.create n;
    rows = Array.make n [||];
    live_dst = Array.make n 0;
    waiting = Imap.empty;
    blocked = Imap.empty }

let chan t i =
  match Itbl.find t.chans i with c -> !c | exception Not_found -> Fqueue.empty

(* Fold the journaled channels into the mirror.  Each entry reads the
   channel's current contents, so order and repeats do not matter (a
   repeat re-adds the same queue, which [Imap.add] turns into a no-op
   returning the same map). *)
let sync t =
  let m = ref t.mirror in
  for k = 0 to t.journal_len - 1 do
    let i = t.journal.(k) in
    m :=
      match Itbl.find t.chans i with
      | c -> Imap.add i !c !m
      | exception Not_found -> Imap.remove i !m
  done;
  t.mirror <- !m;
  t.journal_len <- 0

(* Note a write to channel [i] for the next capture.  A full journal
   that has outgrown the table (writes continuing long after the last
   capture) is folded in early instead of growing, so it never holds
   more than O(occupied channels) entries. *)
let note_write t i =
  if t.captured then begin
    let len = t.journal_len in
    if len = Array.length t.journal then
      if len > (2 * Itbl.length t.chans) + 64 then sync t
      else begin
        let bigger = Array.make (2 * len) 0 in
        Array.blit t.journal 0 bigger 0 len;
        t.journal <- bigger
      end;
    t.journal.(t.journal_len) <- i;
    t.journal_len <- t.journal_len + 1
  end

let set_live t ~src ~dst =
  let row =
    match t.rows.(src) with
    | [||] ->
      let row = Array.make (((t.n - 1) / bits) + 1) 0 in
      t.rows.(src) <- row;
      row
    | row -> row
  in
  let w = dst / bits in
  row.(w) <- row.(w) lor (1 lsl (dst mod bits));
  Fenwick.add t.live_src src 1;
  t.live_dst.(dst) <- t.live_dst.(dst) + 1

let clear_live t ~src ~dst =
  let row = t.rows.(src) and w = dst / bits in
  row.(w) <- row.(w) land lnot (1 lsl (dst mod bits));
  Fenwick.add t.live_src src (-1);
  t.live_dst.(dst) <- t.live_dst.(dst) - 1

type status = Empty | Live | Waiting

let status t q =
  match Fqueue.peek q with
  | None -> Empty
  | Some (_, ready) -> if ready <= t.now then Live else Waiting

(* Replace channel [i]'s queue wholesale, moving the channel between
   the index's classes as its head demands — the fault primitives' path
   ([send] and [deliver] take cheaper special cases). *)
let set_chan t i q =
  let cell = Itbl.find_opt t.chans i in
  let old = match cell with Some c -> !c | None -> Fqueue.empty in
  let before = status t old and after = status t q in
  (if Fqueue.is_empty q then Itbl.remove t.chans i
   else
     match cell with Some c -> c := q | None -> Itbl.add t.chans i (ref q));
  note_write t i;
  if before <> after then begin
    let src = i / t.n and dst = i mod t.n in
    (match before with
     | Live -> clear_live t ~src ~dst
     | Waiting -> t.waiting <- Imap.remove i t.waiting
     | Empty -> ());
    match after with
    | Live -> set_live t ~src ~dst
    | Waiting -> t.waiting <- Imap.add i () t.waiting
    | Empty -> ()
  end

let advance t ~now =
  if now > t.now then begin
    t.now <- now;
    if not (Imap.is_empty t.blocked) then
      t.blocked <- Imap.filter (fun _ (until, _) -> until > now) t.blocked;
    Imap.iter
      (fun i () ->
        match Fqueue.peek (chan t i) with
        | Some (_, ready) when ready <= now ->
          t.waiting <- Imap.remove i t.waiting;
          set_live t ~src:(i / t.n) ~dst:(i mod t.n)
        | _ -> ())
      t.waiting
  end

let link_status t ~src ~dst =
  match Imap.find_opt (idx t ~src ~dst) t.blocked with
  | Some (until, _) when until <= t.now -> `Open
  | Some (until, `Lossy) -> `Lossy until
  | Some (until, `Buffered) -> `Buffered until
  | None -> `Open

let send ?delay t ~src ~dst m =
  let i = idx t ~src ~dst in
  let ready =
    match delay with None -> t.now | Some d -> t.now + Int.max 0 d
  in
  (* the partition mask is consulted on send: a Buffered window holds
     the message until the heal (Lossy windows are handled by the
     sender, which consults [link_status] and never enqueues) *)
  let ready =
    if Imap.is_empty t.blocked then ready
    else
      match Imap.find_opt i t.blocked with
      | Some (until, `Buffered) when until > t.now -> Int.max ready until
      | _ -> ready
  in
  (match Itbl.find t.chans i with
   | c ->
     (* the head, and with it the channel's class, is unchanged *)
     c := Fqueue.push (m, ready) !c
   | exception Not_found ->
     Itbl.add t.chans i (ref (Fqueue.of_list [ (m, ready) ]));
     if ready <= t.now then set_live t ~src ~dst
     else t.waiting <- Imap.add i () t.waiting);
  note_write t i

let deliver t ~src ~dst =
  let i = idx t ~src ~dst in
  match Itbl.find t.chans i with
  | exception Not_found -> None
  | c ->
    (match Fqueue.pop !c with
     | Some ((m, ready), q) when ready <= t.now ->
       (* a ready head means the channel was live *)
       if Fqueue.is_empty q then begin
         Itbl.remove t.chans i;
         clear_live t ~src ~dst
       end
       else begin
         c := q;
         match Fqueue.peek q with
         | Some (_, next) when next > t.now ->
           clear_live t ~src ~dst;
           t.waiting <- Imap.add i () t.waiting
         | _ -> ()
       end;
       note_write t i;
       Some m
     | _ -> None (* head staged for a later step *))

let contents t ~src ~dst =
  List.map fst (Fqueue.to_list (chan t (idx t ~src ~dst)))

let channel_length t ~src ~dst = Fqueue.length (chan t (idx t ~src ~dst))

(* Ascending sources, each with its live destinations ascending:
   (src, dst) lexicographic order — the order the scheduler has always
   seen. *)
let fold_nonempty f acc t =
  let acc = ref acc in
  for src = 0 to t.n - 1 do
    if Fenwick.get t.live_src src > 0 then begin
      let row = t.rows.(src) in
      for w = 0 to Array.length row - 1 do
        let x = ref row.(w) in
        while !x <> 0 do
          let low = !x land - !x in
          acc := f !acc ~src ~dst:((w * bits) + bit_index low);
          x := !x lxor low
        done
      done
    end
  done;
  !acc

let live_count t = Fenwick.total t.live_src

let nth_live t k =
  if k < 0 || k >= live_count t then
    invalid_arg "Network.nth_live: rank out of range";
  let src, r = Fenwick.select_rem t.live_src k in
  let row = t.rows.(src) in
  let rec go w r =
    let c = popcount row.(w) in
    if r >= c then go (w + 1) (r - c)
    else begin
      let x = ref row.(w) in
      for _ = 1 to r do
        x := !x land (!x - 1)
      done;
      (w * bits) + bit_index (!x land - !x)
    end
  in
  (src, go 0 r)

let live_into t ~dst = t.live_dst.(dst)

(* Every nonempty channel into [dst], staged heads included — the
   crash drain's enumeration: O(1) when nothing is inbound, else one
   bit test per source plus the (normally empty) waiting set. *)
let fold_inbound_nonempty f acc t ~dst =
  let acc = ref acc in
  if t.live_dst.(dst) > 0 then begin
    let w = dst / bits and b = 1 lsl (dst mod bits) in
    for src = 0 to t.n - 1 do
      let row = t.rows.(src) in
      if Array.length row > 0 && row.(w) land b <> 0 then acc := f !acc ~src
    done
  end;
  Imap.fold
    (fun i () acc -> if i mod t.n = dst then f acc ~src:(i / t.n) else acc)
    t.waiting !acc

let waiting_count t = Imap.cardinal t.waiting

let apply_split t ~pairs ~until ~mode =
  if until <= t.now then 0
  else
    List.fold_left
      (fun dropped (src, dst) ->
        let i = idx t ~src ~dst in
        (* overlapping windows: the heal time only grows, the newest
           injection decides the mode *)
        t.blocked <-
          Imap.update i
            (function
              | Some (u, _) -> Some (Int.max u until, mode)
              | None -> Some (until, mode))
            t.blocked;
        let q = chan t i in
        match mode with
        | `Lossy ->
          set_chan t i Fqueue.empty;
          dropped + Fqueue.length q
        | `Buffered ->
          set_chan t i
            (Fqueue.map (fun (m, ready) -> (m, Int.max ready until)) q);
          dropped)
      0 pairs

let drop_at t ~src ~dst ~pos =
  let i = idx t ~src ~dst in
  match Fqueue.remove_at pos (chan t i) with
  | None -> ()
  | Some (_, q) -> set_chan t i q

let duplicate_at t ~src ~dst ~pos =
  let i = idx t ~src ~dst in
  match Fqueue.remove_at pos (chan t i) with
  | None -> ()
  | Some (m, q) -> set_chan t i (Fqueue.insert_at pos m (Fqueue.insert_at pos m q))

let corrupt_at t ~src ~dst ~pos ~f =
  let i = idx t ~src ~dst in
  match Fqueue.remove_at pos (chan t i) with
  | None -> ()
  | Some ((m, ready), q) -> set_chan t i (Fqueue.insert_at pos (f m, ready) q)

let reorder_at t ~src ~dst ~pos =
  let i = idx t ~src ~dst in
  match Fqueue.remove_at pos (chan t i) with
  | None -> ()
  | Some (m, q) -> set_chan t i (Fqueue.push m q)

let flush_channel t ~src ~dst = set_chan t (idx t ~src ~dst) Fqueue.empty

(* The first capture builds the mirror from the table; every later one
   folds in the journal.  The mirror holds exactly the nonempty
   channels, staged or not, in (src, dst) order. *)
let capture t =
  if t.captured then sync t
  else begin
    t.mirror <- Itbl.fold (fun i c m -> Imap.add i !c m) t.chans Imap.empty;
    t.captured <- true
  end;
  let n = t.n and chans = t.mirror in
  lazy
    (Imap.fold
       (fun i q acc -> (i / n, i mod n, List.map fst (Fqueue.to_list q)) :: acc)
       chans []
    |> List.rev)
