(* High-throughput explicit-state checker over Protocol.S.

   Four design decisions carry the throughput (see mcheck.mli for the
   user-facing contract):

   - process states and messages are hash-consed into small integer
     ids, and a global state is a flat int array: the interned id of
     every process, then every channel as a length-prefixed run of
     interned message ids.  Dedup hashing is two FNV folds over that
     array (a mixed probe/route hash plus an independent stored
     fingerprint), equality is an int compare against an arena slice,
     and successor keys are spliced directly out of the parent's array
     into reusable scratch buffers: the actor's id, the popped
     channel and the actor's out-channels are rewritten, and the runs
     of the parent key between them copied in bulk.  Keys move by a barrier-free int
     copy ([blit_ints]), never by Array.blit into a major-heap buffer.
     The steady-state hot path never deep-traverses (let alone
     marshals) a process state.  Deep hashing happens once per
     *distinct* process state or message, at intern time.

   - transitions are memoized on ids: delivering message [m] to
     process state [s] always yields the same successor, so after the
     first occurrence the checker replays it as an int-keyed lookup,
     never re-running the protocol.  Per-process views are cached at
     intern time, so predicate checks are pointer reads.

   - the visited set is sharded by hash range: each shard owns a slice
     of key space (routed by the high bits of the mixed hash, see
     Stdext.Pool.shard_of) with its own open-addressing slot array and
     paged key arena, so the admission phase fans the candidate stream out
     over a domain pool and every domain inserts into its own shard
     with no locking.  Admission order is still globally fixed — every
     candidate carries a (frontier-index, emission-index) tag and each
     shard admits its candidates in tag order — so ids, traces and
     stats are identical for every ~jobs value AND every shard count.
     When the hot arenas outgrow ~mem_budget words, they are flushed
     to per-shard Stdext.Blockfile temp files (flat int words, no
     Marshal); frontier states are re-read by word offset at expansion
     time and spilled keys dedup against a stored ~125-bit fingerprint
     (mixed hash + independent FNV-64 fold), so visited capacity is
     bounded by disk, not RAM.

   - the BFS is level-synchronous with parent-pointer traces, swept in
     fixed-size chunks.  Each chunk runs three phases.  A read-only
     expansion phase does predicate checks, successor splicing and
     per-shard routing: each piece writes candidate records straight
     into its own per-shard buckets, skipping a successor that its
     small per-chunk filter shows it wrote already, and a memo miss
     truncates them back to the parent's marks and flags the whole
     parent.  It never reads the visited set, so a successor costs one
     key build, one hash and, only when it is new to its piece, one
     record and one visited-set probe at admission.  A serial fixup
     recomputes flagged parents in frontier order (so intern ids stay
     deterministic) into one more set of buckets.  A shard-parallel
     admission phase reads each shard's records in place, in (tag,
     seq) order, through one cursor.  Near the ~max_states bound the
     admission falls back to a serial sweep in global tag order over
     the same cursors, so the hard bound admits exactly the states the
     serial checker would.  Every sweep buffer (candidate buckets and
     filters, admission outputs, the two frontier levels) and the
     visited set's storage live in a caller-owned workspace that each
     run resets rather than rebuilds, and the key arenas grow by fixed
     pages, so a run allocates little beyond what the visited set
     keeps, and a run on a reused workspace (the synthesis oracle's
     legs and candidates) allocates almost nothing.  Per-state
     resident memory is O(1): three packed index words (location,
     fingerprint, parent+label) plus the key itself until it spills.

   Optional partial-order reduction (~por) explores, at states that
   have one, only the deliveries into a "quiet receiver": the lowest
   process p that is hungry with entry disabled (no client move, and
   none can be enabled by other processes' moves), whose in-channels
   are all nonempty, and whose pending head deliveries are all silent
   (no sends) and leave p hungry.  Those deliveries commute with every
   other enabled action (FIFO appends land behind the heads), are
   invisible to mode-level predicates, and strictly consume in-flight
   messages (so no cycle is reduced everywhere and nothing is deferred
   forever).  The ample decision reads only memoized data, never the
   visited set, so reduced runs are as jobs- and shard-deterministic
   as exhaustive ones.  See EXPERIMENTS.md for the soundness argument;
   the registry's por_safe flag gates which protocols opt in. *)

module Vec = Stdext.Vec
module Blockfile = Stdext.Blockfile

type stats = {
  name : string;
  explored : int;
  visited : int;
  frontier_peak : int;
  depth_reached : int;
  truncated : bool;
  peak_mem_words : int;
  spill_bytes : int;
}

type 'v result =
  | Ok of stats
  | Violation of {
      trace : string list;
      witness : 'v;
      path : 'v list;
      stats : stats;
    }

(* Compact action labels; rendered to strings only when a trace is
   reconstructed, so the hot path never sprintf-allocates. *)
type label =
  | L_root
  | L_seed of string
  | L_request of int
  | L_enter of int
  | L_release of int
  | L_deliver of int * int
  | L_wrap of int

let label_to_string = function
  | L_root -> "init"
  | L_seed tag -> tag
  | L_request p -> Printf.sprintf "request(%d)" p
  | L_enter p -> Printf.sprintf "enter(%d)" p
  | L_release p -> Printf.sprintf "release(%d)" p
  | L_deliver (src, dst) -> Printf.sprintf "deliver(%d->%d)" src dst
  | L_wrap p -> Printf.sprintf "wrap(%d)" p

(* Hot-path label encoding: client and delivery labels fit a packed
   int (kind in bits 12+, operands in two 6-bit fields), so
   enumerating a successor allocates nothing; the variant is
   materialized only for states actually admitted.  Seed labels
   (L_root / L_seed) never flow through the hot path. *)
let il_request p = (1 lsl 12) lor p
let il_enter p = (2 lsl 12) lor p
let il_release p = (3 lsl 12) lor p
let il_deliver src dst = (4 lsl 12) lor (src lsl 6) lor dst
let il_wrap p = (5 lsl 12) lor p

let decode_ilabel il =
  let a = (il lsr 6) land 63 and b = il land 63 in
  match il lsr 12 with
  | 1 -> L_request b
  | 2 -> L_enter b
  | 3 -> L_release b
  | 5 -> L_wrap b
  | _ -> L_deliver (a, b)

(* Two hashes in one pass over the key: [h1] is an FNV-32 fold pushed
   through a splitmix-style finalizer — its low bits probe the shard's
   slot array, its high bits pick the shard (Pool.shard_of), so the
   two never correlate; [fp] is an independent FNV-64-style fold kept
   as the stored fingerprint that stands in for a spilled key's bytes
   at dedup time.  Together a spilled-key match asserts ~125 hash
   bits plus the exact length. *)
let hash2 (k : int array) off len =
  let h = ref 0x811c9dc5 in
  let g = ref 0x2545F4914F6CDD1D in
  for i = off to off + len - 1 do
    let x = k.(i) in
    h := (!h * 0x01000193) lxor x;
    g := (!g lxor x) * 0x100000001b3
  done;
  let a = !h * 0x9e3779b97f4a7c1 in
  let a = a lxor (a lsr 31) in
  let a = a * 0x2545F4914F6CDD1D in
  ((a lxor (a lsr 29)) land max_int, !g land max_int)

(* [Array.blit] between two distinct int arrays, without the write
   barrier.  OCaml 5's blit stores every word through [caml_modify]
   once the destination lives in the major heap, as every sweep buffer
   here does; a store the compiler knows to be an int needs no barrier
   (2-3x cheaper per word).  Same bounds contract: checked once, then a
   plain loop. *)
let blit_ints (src : int array) soff (dst : int array) doff len =
  if
    len < 0 || soff < 0
    || soff > Array.length src - len
    || doff < 0
    || doff > Array.length dst - len
  then invalid_arg "Mcheck.blit_ints";
  for i = 0 to len - 1 do
    Array.unsafe_set dst (doff + i) (Array.unsafe_get src (soff + i))
  done

(* A growable int buffer with exposed backing, so record streams can
   be built by copies and parsed by direct indexing, and so a push
   stores an int with no write barrier (a polymorphic Vec pays
   [caml_modify] per push). *)
module Buf = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let ensure b extra =
    let need = b.len + extra in
    if need > Array.length b.data then begin
      let d = Array.make (max need (max 16 (2 * Array.length b.data))) 0 in
      blit_ints b.data 0 d 0 b.len;
      b.data <- d
    end

  let push b x =
    ensure b 1;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let get b i =
    if i < 0 || i >= b.len then invalid_arg "Mcheck.Buf.get";
    Array.unsafe_get b.data i

  let clear b = b.len <- 0
end

(* ------------------------------------------------------------------ *)
(* The sharded visited set.  Each shard owns a hash-range slice of key
   space: an open-addressing slot array (interleaved (local id + 1,
   hash) pairs, one cache line per probe), a hot key arena holding the
   keys admitted since the last spill, and three packed index words
   per state — location ((global word offset << 20) | length),
   fingerprint, and parent ((parent ref + 1) << 16 | label).  A state
   ref packs (local id << 6) | shard.  Shard-local reads and inserts
   never touch another shard, so the admission phase runs one domain
   per shard with no synchronization; all cross-shard coordination
   happens in the serial parts of the sweep.

   The hot arena is a list of fixed 2^16-word pages, filled in order;
   a key may straddle two pages.  The arena never doubles and copies:
   growth allocates one more page.  [reset] empties a table for its
   next run and keeps its pages, slot arrays and index buffers, so a
   reused table allocates only past the largest run it has held.

   Spill: when the hot arenas together exceed [mem_budget] words (the
   checkpoint runs between chunks), every shard appends its pages, in
   order, to its own Blockfile and resets; the pages stay allocated
   for the keys admitted next.  [disk] is the count of words flushed,
   which makes stored offsets stable global offsets.  A spilled key is
   re-read positionally for expansion and compared by fingerprint for
   dedup. *)
module Table = struct
  let page_bits = 16
  let page_words = 1 lsl page_bits
  let page_mask = page_words - 1

  type shard = {
    mutable slots : int array;
        (* 2i: local id + 1 (0 = empty); 2i+1: h1.  Only the first
           2 * (mask + 1) words are live: a reset or a growth zeroes
           just that region of an array kept from a larger run. *)
    mutable spare : int array;  (* [grow_slots]' target, kept for reuse *)
    mutable mask : int;  (* slot-pair count - 1, a power of 2 *)
    mutable count : int;
    pages : int array Vec.t;  (* hot arena: word o is in page o lsr 16 *)
    mutable used : int;  (* hot words *)
    mutable disk : int;  (* words flushed; global offset of hot word 0 *)
    fp : Buf.t;  (* local id -> stored fingerprint *)
    loc : Buf.t;  (* local id -> (global offset lsl 20) lor length *)
    parents : Buf.t;  (* local id -> packed (parent ref, label) *)
    mutable file : Blockfile.t option;
  }

  type t = {
    shards : shard array;
    nshards : int;
    spill_dir : string;
    mem_budget : int;
    mutable spill_words : int;
    mutable peak_words : int;
  }

  let len_bits = 20
  let len_mask = (1 lsl len_bits) - 1
  let initial_pairs = 1024

  let create ~shards ~mem_budget ~spill_dir =
    if shards < 1 || shards > 64 then
      invalid_arg "Mcheck: need 1 <= shards <= 64";
    if mem_budget < 1 then invalid_arg "Mcheck: need mem_budget >= 1";
    { shards =
        Array.init shards (fun _ ->
            { slots = Array.make (2 * initial_pairs) 0;
              spare = [||];
              mask = initial_pairs - 1;
              count = 0;
              pages = Vec.create ();
              used = 0;
              disk = 0;
              fp = Buf.create ();
              loc = Buf.create ();
              parents = Buf.create ();
              file = None });
      nshards = shards;
      spill_dir;
      mem_budget;
      spill_words = 0;
      peak_words = 0 }

  let route t h1 = Stdext.Pool.shard_of ~hash:h1 ~shards:t.nshards
  let pack_ref ~shard ~local = (local lsl 6) lor shard

  let count t = Array.fold_left (fun a sh -> a + sh.count) 0 t.shards
  let hot_words t = Array.fold_left (fun a sh -> a + sh.used) 0 t.shards

  let key_len t r = Buf.get t.shards.(r land 63).loc (r lsr 6) land len_mask
  let parent_packed t r = Buf.get t.shards.(r land 63).parents (r lsr 6)

  let hot_word sh o = (Vec.get sh.pages (o lsr page_bits)).(o land page_mask)

  (* Equality of stored state [local] against a candidate key: length,
     then a word compare when the key is hot, the fingerprint when it
     has spilled (the caller already matched the 62-bit slot hash). *)
  let matches sh local ~fp (k : int array) koff klen =
    let l = Buf.get sh.loc local in
    l land len_mask = klen
    &&
    let off = l lsr len_bits in
    if off >= sh.disk then begin
      let o = off - sh.disk in
      let base = o land page_mask in
      let i = ref 0 in
      if base + klen <= page_words then begin
        let a = Vec.get sh.pages (o lsr page_bits) in
        while !i < klen && a.(base + !i) = k.(koff + !i) do
          incr i
        done
      end
      else
        while !i < klen && hot_word sh (o + !i) = k.(koff + !i) do
          incr i
        done;
      !i = klen
    end
    else Buf.get sh.fp local = fp

  (* The slot pair where a key's probe stops: the one holding the key,
     or the first empty one.  Read-only, and allocation-free (it runs
     once per candidate). *)
  let find_slot sh ~h1 ~fp (k : int array) koff klen =
    let slots = sh.slots and mask = sh.mask in
    let i = ref (h1 land mask) in
    while
      let s = slots.(2 * !i) in
      s <> 0
      && not (slots.((2 * !i) + 1) = h1 && matches sh (s - 1) ~fp k koff klen)
    do
      i := (!i + 1) land mask
    done;
    !i

  (* Read-only membership probe; safe from several domains while no
     insert into this shard is in flight. *)
  let mem_sh sh ~h1 ~fp k koff klen =
    sh.slots.(2 * find_slot sh ~h1 ~fp k koff klen) <> 0

  let grow_slots sh =
    let pairs = (sh.mask + 1) * 2 in
    if Array.length sh.spare < 2 * pairs then
      sh.spare <- Array.make (2 * pairs) 0
    else Array.fill sh.spare 0 (2 * pairs) 0;
    let slots = sh.spare in
    let mask = pairs - 1 in
    for i = 0 to sh.mask do
      match sh.slots.(2 * i) with
      | 0 -> ()
      | s ->
        let h = sh.slots.((2 * i) + 1) in
        let rec place j =
          if slots.(2 * j) = 0 then begin
            slots.(2 * j) <- s;
            slots.((2 * j) + 1) <- h
          end
          else place ((j + 1) land mask)
        in
        place (h land mask)
    done;
    sh.spare <- sh.slots;
    sh.slots <- slots;
    sh.mask <- mask

  (* Copies between a flat key array and the hot arena, split where a
     key crosses a page boundary: [append_arena] writes at the arena's
     end, [blit_hot] reads from hot offset [o]. *)
  let rec append_arena sh (k : int array) koff klen =
    if klen > 0 then begin
      let p = sh.used lsr page_bits and i = sh.used land page_mask in
      if p = Vec.length sh.pages then
        Vec.push sh.pages (Array.make page_words 0);
      let len = min klen (page_words - i) in
      blit_ints k koff (Vec.get sh.pages p) i len;
      sh.used <- sh.used + len;
      append_arena sh k (koff + len) (klen - len)
    end

  let rec blit_hot sh o (buf : int array) boff len =
    if len > 0 then begin
      let i = o land page_mask in
      let n = min len (page_words - i) in
      blit_ints (Vec.get sh.pages (o lsr page_bits)) i buf boff n;
      blit_hot sh (o + n) buf (boff + n) (len - n)
    end

  (* One probe pass answers "seen before?" and inserts on miss.
     Returns the existing local id (>= 0), or [-local - 1] for a fresh
     insert.  Shard-local: safe to run one call per shard
     concurrently. *)
  let find_or_add sh ~h1 ~fp (k : int array) koff klen ~parent =
    if 2 * (sh.count + 1) > sh.mask then grow_slots sh;
    let i = find_slot sh ~h1 ~fp k koff klen in
    match sh.slots.(2 * i) with
    | 0 ->
      let local = sh.count in
      sh.slots.(2 * i) <- local + 1;
      sh.slots.((2 * i) + 1) <- h1;
      sh.count <- local + 1;
      if klen > len_mask then failwith "Mcheck: state key exceeds 2^20 words";
      Buf.push sh.loc (((sh.disk + sh.used) lsl len_bits) lor klen);
      Buf.push sh.fp fp;
      Buf.push sh.parents parent;
      append_arena sh k koff klen;
      -local - 1
    | s -> s - 1

  (* Serial bounded admission (seeds and the near-max_states sweep):
     -2 = bound hit on a novel key (the caller's [truncated]), -1 =
     already visited (or bound hit on a visited key), else the fresh
     ref. *)
  let admit t (k : int array) koff klen ~parent ~max_states =
    let h1, fp = hash2 k koff klen in
    let si = route t h1 in
    let sh = t.shards.(si) in
    if count t >= max_states then
      if mem_sh sh ~h1 ~fp k koff klen then -1 else -2
    else
      match find_or_add sh ~h1 ~fp k koff klen ~parent with
      | r when r >= 0 -> -1
      | fresh -> pack_ref ~shard:si ~local:(-fresh - 1)

  (* Load the key of state [r] into [buf]: a blit when hot, a
     positional Blockfile read when spilled.  [readers] is the
     caller's per-shard read-handle cache (one open fd per shard per
     sweeping domain, so concurrent expansion never shares a seek
     pointer). *)
  let read t (readers : Blockfile.reader option array) r (buf : int array) =
    let si = r land 63 in
    let sh = t.shards.(si) in
    let l = Buf.get sh.loc (r lsr 6) in
    let off = l lsr len_bits and len = l land len_mask in
    if off >= sh.disk then blit_hot sh (off - sh.disk) buf 0 len
    else begin
      let rd =
        match readers.(si) with
        | Some rd -> rd
        | None ->
          let rd =
            match sh.file with
            | Some f -> Blockfile.reader f
            | None -> assert false (* off < disk implies a spill happened *)
          in
          readers.(si) <- Some rd;
          rd
      in
      Blockfile.pread rd ~woff:off buf ~off:0 ~len
    end

  (* Resident words at a checkpoint: the hot arenas plus the 3-word
     per-state index (location, fingerprint, parent).  Slot-array
     geometry is excluded on purpose — it depends on the shard count,
     and this figure is asserted identical across shard counts (it
     adds ~4 words/state; EXPERIMENTS.md documents the accounting). *)
  let resident_words t =
    Array.fold_left (fun a sh -> a + sh.used + (3 * sh.count)) 0 t.shards

  let note_peak t =
    let w = resident_words t in
    if w > t.peak_words then t.peak_words <- w

  (* Between-chunks checkpoint: record the residency peak and, when
     the hot arenas outgrow the budget, stream every shard's pages to
     its blockfile.  Runs at fixed points of the sweep (after seeding
     and after each chunk's admission), so peak and spill figures are
     identical for every ~jobs and every shard count. *)
  let checkpoint t =
    note_peak t;
    if hot_words t > t.mem_budget then
      Array.iter
        (fun sh ->
          if sh.used > 0 then begin
            let f =
              match sh.file with
              | Some f -> f
              | None ->
                let f =
                  Blockfile.create ~dir:t.spill_dir ~prefix:"mcheck-shard"
                in
                sh.file <- Some f;
                f
            in
            assert (Blockfile.words f = sh.disk);
            for p = 0 to (sh.used - 1) lsr page_bits do
              let len = min page_words (sh.used - (p lsl page_bits)) in
              ignore (Blockfile.append f (Vec.get sh.pages p) ~off:0 ~len)
            done;
            t.spill_words <- t.spill_words + sh.used;
            sh.disk <- sh.disk + sh.used;
            sh.used <- 0
          end)
        t.shards

  let cleanup t =
    Array.iter
      (fun sh ->
        match sh.file with
        | Some f ->
          Blockfile.remove f;
          sh.file <- None
        | None -> ())
      t.shards

  (* Empty the table for a new run, keeping its storage: slot arrays,
     arena pages and index buffers.  Any spill file goes, so [disk]
     and the file restart together at 0 ([checkpoint] asserts they
     agree). *)
  let reset t =
    cleanup t;
    t.spill_words <- 0;
    t.peak_words <- 0;
    Array.iter
      (fun sh ->
        Array.fill sh.slots 0 (2 * initial_pairs) 0;
        sh.mask <- initial_pairs - 1;
        sh.count <- 0;
        sh.used <- 0;
        sh.disk <- 0;
        Buf.clear sh.fp;
        Buf.clear sh.loc;
        Buf.clear sh.parents)
      t.shards
end

module Search (P : Graybox.Protocol.S) = struct
  (* Deep-traversal parameters so states holding maps and sets hash on
     their full contents, not just the first ten nodes; paid once per
     distinct process state. *)
  module StateH = Hashtbl.Make (struct
    type t = P.state

    let equal (a : P.state) b = a = b
    let hash s = Hashtbl.hash_param 64 256 s
  end)

  module MsgH = Hashtbl.Make (struct
    type t = Graybox.Msg.t

    let equal (a : Graybox.Msg.t) b = a = b
    let hash m = Hashtbl.hash_param 64 256 m
  end)

  (* A memoized transition: successor process id plus sends as
     (dst, msg id) pairs. *)
  type memo = (int * (int * int) list) option ref

  (* Interners and transition memos.  All writes happen in the serial
     phases (seeding, serial sweep, miss fixup, replay); parallel
     expansion only reads.  A context outlives a run: the oracle's
     checker certifies every leg of every candidate on one, so its
     tables grow to the union of the states those runs reach. *)
  type ctx = {
    n : int;
    mutable wrapper : Graybox.Wrapper.t option;
        (* box-composed wrapper term: adds a per-process correction
           action (sends only, no state change), memoized like the
           client actions.  The checker abstracts the W'(δ) timer to
           zero — it explores the timer-expired interleavings, which
           contain every behaviour the rate-limited wrapper has.
           Change it only through [set_wrapper]. *)
    proc_id : int StateH.t;
    proc_of : P.state Vec.t;
    view_of : Graybox.View.t Vec.t;  (* cached per interned process *)
    msg_id : int MsgH.t;
    msg_of : Graybox.Msg.t Vec.t;
    (* client-action memos, dense by process id; [m_enter]'s inner
       option is [try_enter]'s own: [Some None] = computed, disabled *)
    m_request : memo Vec.t;
    m_enter : (int * (int * int) list) option option ref Vec.t;
    m_release : memo Vec.t;
    m_wrap : (int * int) list option ref Vec.t;
        (* wrapper sends per process id (the successor process state is
           the process itself) *)
    (* delivery memo: open-addressing map from the packed int of
       [deliver_key] to an index into [d_res]; slots interleave
       (key + 1, index) so a hit costs one probe and zero allocation *)
    mutable d_slots : int array;
    mutable d_mask : int;
    mutable d_count : int;
    d_res : (int * (int * int) list) Vec.t;
  }

  let make_ctx ?wrapper ~n () =
    if n < 1 || n > 64 then invalid_arg "Mcheck: need 1 <= n <= 64";
    { n;
      wrapper;
      proc_id = StateH.create 1024;
      proc_of = Vec.create ();
      view_of = Vec.create ();
      msg_id = MsgH.create 256;
      msg_of = Vec.create ();
      m_request = Vec.create ();
      m_enter = Vec.create ();
      m_release = Vec.create ();
      m_wrap = Vec.create ();
      d_slots = Array.make (2 * 4096) 0;
      d_mask = 4095;
      d_count = 0;
      d_res = Vec.create () }

  (* [m_wrap] holds the only memos that depend on the wrapper. *)
  let set_wrapper ctx w =
    ctx.wrapper <- w;
    Vec.iter (fun cell -> cell := None) ctx.m_wrap

  let intern_proc ctx s =
    match StateH.find_opt ctx.proc_id s with
    | Some id -> id
    | None ->
      let id = Vec.length ctx.proc_of in
      (* viewed before any push, so a raising [P.view] leaves the
         dense tables aligned for the context's next run *)
      let v = P.view s in
      Vec.push ctx.proc_of s;
      Vec.push ctx.view_of v;
      Vec.push ctx.m_request (ref None);
      Vec.push ctx.m_enter (ref None);
      Vec.push ctx.m_release (ref None);
      Vec.push ctx.m_wrap (ref None);
      StateH.add ctx.proc_id s id;
      id

  let intern_msg ctx m =
    match MsgH.find_opt ctx.msg_id m with
    | Some id -> id
    | None ->
      let id = Vec.length ctx.msg_of in
      if id >= 1 lsl 20 then
        failwith "Mcheck: more than 2^20 distinct messages";
      Vec.push ctx.msg_of m;
      MsgH.add ctx.msg_id m id;
      id

  (* Injective packing: mid < 2^20 (guarded in intern_msg), src < 64
     (guarded in make_ctx), pid below 2^37 (beyond any intern count
     reachable under the visited-set bound). *)
  let deliver_key pid ~src mid = (pid lsl 26) lor (mid lsl 6) lor src

  (* Fibonacci scramble; take bits from the middle, the low bits of a
     multiplicative hash are weak. *)
  let dhash dk = (dk * 0x9e3779b97f4a7c1) lsr 20

  (* -1 if absent, else the index into [d_res].  Read-only: safe from
     several domains while no [deliver_add] is in flight. *)
  let deliver_find ctx dk =
    let mask = ctx.d_mask and slots = ctx.d_slots in
    let i = ref (dhash dk land mask) in
    while slots.(2 * !i) <> 0 && slots.(2 * !i) <> dk + 1 do
      i := (!i + 1) land mask
    done;
    if slots.(2 * !i) = 0 then -1 else slots.((2 * !i) + 1)

  let deliver_add ctx dk r =
    if 2 * (ctx.d_count + 1) > ctx.d_mask then begin
      let pairs = (ctx.d_mask + 1) * 2 in
      let slots = Array.make (2 * pairs) 0 in
      let mask = pairs - 1 in
      for i = 0 to ctx.d_mask do
        let k = ctx.d_slots.(2 * i) in
        if k <> 0 then begin
          let rec place j =
            if slots.(2 * j) = 0 then begin
              slots.(2 * j) <- k;
              slots.((2 * j) + 1) <- ctx.d_slots.((2 * i) + 1)
            end
            else place ((j + 1) land mask)
          in
          place (dhash (k - 1) land mask)
        end
      done;
      ctx.d_slots <- slots;
      ctx.d_mask <- mask
    end;
    let idx = Vec.length ctx.d_res in
    Vec.push ctx.d_res r;
    let mask = ctx.d_mask in
    let rec place j =
      if ctx.d_slots.(2 * j) = 0 then begin
        ctx.d_slots.(2 * j) <- dk + 1;
        ctx.d_slots.((2 * j) + 1) <- idx
      end
      else place ((j + 1) land mask)
    in
    place (dhash dk land mask);
    ctx.d_count <- ctx.d_count + 1

  let intern_sends ctx sends =
    List.map (fun (dst, m) -> (dst, intern_msg ctx m)) sends

  let initial ctx =
    let n = ctx.n in
    let k = Array.make (n + (n * n)) 0 in
    for p = 0 to n - 1 do
      k.(p) <- intern_proc ctx (P.init ~n p)
    done;
    k

  (* Reusable per-sweep buffers: parent key, successor key, views,
     channel offsets, plus this sweep's spill read handles.  A scratch
     belongs to exactly one sequential sweep (the serial parts, one
     expansion piece, a replay). *)
  type scratch = {
    mutable kbuf : int array;
    mutable sbuf : int array;
    vbuf : Graybox.View.t array;
    offs : int array;
    readers : Blockfile.reader option array;
  }

  (* [views_into] overwrites every slot of a scratch's [vbuf] before a
     predicate reads it, so a fresh one can hold any view. *)
  let blank_view =
    Graybox.View.make ~self:0 ~mode:Graybox.View.Thinking
      ~req:(Clocks.Timestamp.zero ~pid:0) ~local_req:Sim.Pid.Map.empty ~clock:0

  let make_scratch ctx =
    { kbuf = Array.make 256 0;
      sbuf = Array.make 256 0;
      vbuf = Array.make ctx.n blank_view;
      offs = Array.make (ctx.n * ctx.n) 0;
      readers = Array.make 64 None }

  let close_scratch st =
    Array.iteri
      (fun i rd ->
        match rd with
        | Some rd ->
          Blockfile.close_reader rd;
          st.readers.(i) <- None
        | None -> ())
      st.readers

  let ensure_kbuf st l =
    if Array.length st.kbuf < l then
      st.kbuf <- Array.make (max l (2 * Array.length st.kbuf)) 0

  let ensure_sbuf st l =
    if Array.length st.sbuf < l then
      st.sbuf <- Array.make (max l (2 * Array.length st.sbuf)) 0

  (* The views of the state in [st.kbuf], into [st.vbuf].  The array
     is reused across states; predicates must not retain it. *)
  let views_into ctx st =
    for p = 0 to ctx.n - 1 do
      st.vbuf.(p) <- Vec.get ctx.view_of st.kbuf.(p)
    done

  let fill_offsets ctx st =
    let n = ctx.n in
    let off = ref n in
    for ci = 0 to (n * n) - 1 do
      st.offs.(ci) <- !off;
      off := !off + 1 + st.kbuf.(!off)
    done

  (* ---------------- successor key splicing ---------------- *)

  (* Append to [s] at [w] the messages of [sends] addressed to [dst],
     in list order; returns the write position after them. *)
  let rec put_sends (s : int array) w dst = function
    | [] -> w
    | (d, mid) :: tl ->
      if d = dst then begin
        s.(w) <- mid;
        put_sends s (w + 1) dst tl
      end
      else put_sends s w dst tl

  (* The lowest channel above [ci] that a successor rewrites: [pop], or
     one of the actor's out-channels [lo, hi) (empty when it sends
     nothing); [max_int] when none is left. *)
  let next_changed ~pop ~lo ~hi ci =
    let c = ci + 1 in
    let out = if c < lo then lo else if c < hi then c else max_int in
    if pop >= c && pop < out then pop else out

  (* Write into [st.sbuf] the successor key for: process [p] stepping
     to [pid'], optionally consuming the front message of channel
     [pop] (-1 for none), and sending [sends'] (dst, msg id) from [p].
     Returns the successor key length.  Only the popped channel and
     [p]'s out-channels change: each is rebuilt, and the runs of the
     parent key between them are copied in bulk, by inline loops: the
     runs average a few words, too short to pay for a [blit_ints]
     call. *)
  let splice ctx st klen ~p ~pid' ~pop ~sends' =
    let k = st.kbuf in
    let slen = klen + List.length sends' - (if pop >= 0 then 1 else 0) in
    ensure_sbuf st slen;
    let s = st.sbuf in
    let lo = match sends' with [] -> max_int | _ -> p * ctx.n in
    let hi = match sends' with [] -> max_int | _ -> lo + ctx.n in
    let rd = ref 0 and wr = ref 0 in
    let ci = ref (next_changed ~pop ~lo ~hi (-1)) in
    while !ci < max_int do
      let c = !ci in
      let o = st.offs.(c) in
      (* the unchanged run [rd, o), then channel c's kept messages *)
      let d = !wr - !rd in
      for i = !rd to o - 1 do
        s.(i + d) <- k.(i)
      done;
      let lp = o + d in
      let len = k.(o) in
      let drop = if c = pop then 1 else 0 in
      let e = lp - o - drop in
      for i = o + 1 + drop to o + len do
        s.(i + e) <- k.(i)
      done;
      let w = lp + 1 + len - drop in
      let w = if c >= lo && c < hi then put_sends s w (c - lo) sends' else w in
      s.(lp) <- w - lp - 1;
      rd := o + 1 + len;
      wr := w;
      ci := next_changed ~pop ~lo ~hi c
    done;
    let d = !wr - !rd in
    for i = !rd to klen - 1 do
      s.(i + d) <- k.(i)
    done;
    s.(p) <- pid';
    slen

  (* Serial transition computation: decode, run the protocol, intern
     and memoize.  Must not race with parallel expansion. *)
  let compute_client ctx pid cell step =
    match !cell with
    | Some r -> r
    | None ->
      let s', sends = step (Vec.get ctx.proc_of pid) in
      let r = (intern_proc ctx s', intern_sends ctx sends) in
      cell := Some r;
      r

  let compute_enter ctx pid cell =
    match !cell with
    | Some r -> r
    | None ->
      let r =
        match P.try_enter (Vec.get ctx.proc_of pid) with
        | None -> None
        | Some (s', sends) ->
          Some (intern_proc ctx s', intern_sends ctx sends)
      in
      cell := Some r;
      r

  let compute_wrap ctx w pid cell =
    match !cell with
    | Some r -> r
    | None ->
      let v = Vec.get ctx.view_of pid in
      let r = intern_sends ctx (Graybox.Wrapper.eval w v ~n:ctx.n ~timer:0) in
      cell := Some r;
      r

  let compute_deliver ctx pid ~src mid =
    let dk = deliver_key pid ~src mid in
    let idx = deliver_find ctx dk in
    if idx >= 0 then Vec.get ctx.d_res idx
    else begin
      let s', sends =
        P.on_message ~from:src (Vec.get ctx.msg_of mid)
          (Vec.get ctx.proc_of pid)
      in
      let r = (intern_proc ctx s', intern_sends ctx sends) in
      deliver_add ctx dk r;
      r
    end

  (* ---------------- partial-order reduction ---------------- *)

  exception Por_miss

  (* The quiet-receiver ample set: the lowest process p that is hungry
     with entry disabled (so p has no client move, and no other
     process's move can enable one — nothing else writes p's state),
     every in-channel (q,p), q <> p, nonempty, the self-channel empty,
     and every pending head delivery into p silent (no sends) and
     leaving p hungry.  At such a state only the deliveries into p are
     explored: they commute with every other enabled action (FIFO
     appends land behind the heads), are invisible to mode-level
     predicates, and strictly consume in-flight messages, so no cycle
     of the reduced graph is reduced at every state.  The decision
     reads only views, channel heads and memos — never the visited set
     — so it is identical for every ~jobs and shard count; in a
     read-only sweep a missing memo raises [Por_miss] and the parent
     is recomputed serially through the read-write path, which takes
     the same decision. *)
  let ample_owner ctx ~rw st =
    let n = ctx.n in
    if n < 2 then -1
    else begin
      let rec try_p p =
        if p >= n then -1
        else
          let pid = st.kbuf.(p) in
          let v = Vec.get ctx.view_of pid in
          if not (Graybox.View.hungry v) then try_p (p + 1)
          else begin
            let enter =
              if rw then compute_enter ctx pid (Vec.get ctx.m_enter pid)
              else
                match !(Vec.get ctx.m_enter pid) with
                | Some r -> r
                | None -> raise Por_miss
            in
            if enter <> None then try_p (p + 1)
            else begin
              let ok = ref true in
              let q = ref 0 in
              while !ok && !q < n do
                let src = !q in
                let off = st.offs.((src * n) + p) in
                if src = p then begin
                  (* no protocol sends to itself; a nonempty
                     self-channel (only an exotic seed could build
                     one) disqualifies conservatively *)
                  if st.kbuf.(off) > 0 then ok := false
                end
                else if st.kbuf.(off) = 0 then ok := false
                else begin
                  let mid = st.kbuf.(off + 1) in
                  let pid', sends' =
                    if rw then compute_deliver ctx pid ~src mid
                    else begin
                      let idx = deliver_find ctx (deliver_key pid ~src mid) in
                      if idx >= 0 then Vec.get ctx.d_res idx
                      else raise Por_miss
                    end
                  in
                  if
                    sends' <> []
                    || not (Graybox.View.hungry (Vec.get ctx.view_of pid'))
                  then ok := false
                end;
                incr q
              done;
              if !ok then p else try_p (p + 1)
            end
          end
      in
      try_p 0
    end

  (* Whether message [mid] is on channel [ci] of the key in [st.kbuf]
     (its offsets filled). *)
  let in_flight st ci mid =
    let off = st.offs.(ci) in
    let last = off + st.kbuf.(off) in
    let j = ref (off + 1) in
    while !j <= last && st.kbuf.(!j) <> mid do
      incr j
    done;
    !j <= last

  let rec any_in_flight st ~n ~p = function
    | [] -> false
    | (dst, mid) :: tl ->
      in_flight st ((p * n) + dst) mid || any_in_flight st ~n ~p tl

  (* The maximally nondeterministic client (request / enter / release
     whenever the view allows) interleaved with every FIFO delivery.
     Iterates the successors of the state in [st.kbuf] (length
     [klen]), calling [f label slen] with each successor key in
     [st.sbuf] — valid only during [f] — in a fixed order (client
     actions by process, then deliveries by channel), so every sweep
     enumerates identically.  With [por = true], a state that has an
     ample owner emits only the deliveries into it (in channel
     order).

     [rw = true]: serial context — memo misses run the protocol and
     cache the result; [miss] is never called.
     [rw = false]: parallel context — the ctx is read-only and a memo
     miss (in enumeration or in the ample decision) invokes [miss]
     instead; the serial fixup recomputes that parent via the
     [rw = true] path.  Both paths build keys with [splice], so the
     results are identical. *)
  let iter_successors ctx ~rw ~por st klen ~miss ~f =
    let n = ctx.n in
    fill_offsets ctx st;
    let emit il p pop (pid', sends') =
      f il (splice ctx st klen ~p ~pid' ~pop ~sends')
    in
    let owner =
      if not por then -1
      else
        match ample_owner ctx ~rw st with
        | p -> p
        | exception Por_miss -> -2
    in
    if owner = -2 then miss 0
    else if owner >= 0 then begin
      let p = owner in
      let pid = st.kbuf.(p) in
      for src = 0 to n - 1 do
        let ci = (src * n) + p in
        let off = st.offs.(ci) in
        if st.kbuf.(off) > 0 then begin
          let mid = st.kbuf.(off + 1) in
          let r =
            if rw then compute_deliver ctx pid ~src mid
            else Vec.get ctx.d_res (deliver_find ctx (deliver_key pid ~src mid))
          in
          emit (il_deliver src p) p ci r
        end
      done
    end
    else begin
      for p = 0 to n - 1 do
        let pid = st.kbuf.(p) in
        let v = Vec.get ctx.view_of pid in
        if Graybox.View.thinking v then begin
          let cell = Vec.get ctx.m_request pid in
          if rw then
            emit (il_request p) p (-1) (compute_client ctx pid cell P.request_cs)
          else
            match !cell with
            | Some r -> emit (il_request p) p (-1) r
            | None -> miss (il_request p)
        end;
        if Graybox.View.hungry v then begin
          let cell = Vec.get ctx.m_enter pid in
          if rw then (
            match compute_enter ctx pid cell with
            | None -> ()  (* entry not enabled *)
            | Some r -> emit (il_enter p) p (-1) r)
          else
            match !cell with
            | Some None -> ()  (* computed: entry not enabled *)
            | Some (Some r) -> emit (il_enter p) p (-1) r
            | None -> miss (il_enter p)
        end;
        if Graybox.View.eating v then begin
          let cell = Vec.get ctx.m_release pid in
          if rw then
            emit (il_release p) p (-1) (compute_client ctx pid cell P.release_cs)
          else
            match !cell with
            | Some r -> emit (il_release p) p (-1) r
            | None -> miss (il_release p)
        end;
        (match ctx.wrapper with
        | None -> ()
        | Some w -> (
          let cell = Vec.get ctx.m_wrap pid in
          let sends =
            if rw then Some (compute_wrap ctx w pid cell) else !cell
          in
          match sends with
          | None -> miss (il_wrap p)
          | Some sends ->
            (* Throttle: a correction already in flight is not re-sent
               — without this the wrapper's (state-preserving) action
               would re-enable forever and pump channels unboundedly.
               Reads only the parent key, so both sweep modes and every
               domain take the same decision.  The filtered list is
               built only when some send is in flight. *)
            let fresh =
              if not (any_in_flight st ~n ~p sends) then sends
              else
                List.filter
                  (fun (dst, mid) -> not (in_flight st ((p * n) + dst) mid))
                  sends
            in
            if fresh <> [] then emit (il_wrap p) p (-1) (pid, fresh)))
      done;
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let ci = (src * n) + dst in
          let off = st.offs.(ci) in
          if st.kbuf.(off) > 0 then begin
            let mid = st.kbuf.(off + 1) in
            let pid = st.kbuf.(dst) in
            if rw then
              emit (il_deliver src dst) dst ci
                (compute_deliver ctx pid ~src mid)
            else begin
              let idx = deliver_find ctx (deliver_key pid ~src mid) in
              if idx >= 0 then
                emit (il_deliver src dst) dst ci (Vec.get ctx.d_res idx)
              else miss (il_deliver src dst)
            end
          end
        done
      done
    end

  (* ---------------- everywhere-mode seeding ---------------- *)

  (* Arbitrary in-flight messages: every kind, stamped low so they look
     like plausible leftovers rather than clock corruption (which would
     defeat any timestamp-ordered protocol, correct or not). *)
  let inflight_msgs src =
    let ts c = Clocks.Timestamp.make ~clock:c ~pid:src in
    [ Graybox.Msg.Request (ts 1);
      Graybox.Msg.Reply (ts 1);
      Graybox.Msg.Release (ts 1);
      Graybox.Msg.Request (ts 7) ]

  let rec take k = function
    | [] -> []
    | _ when k <= 0 -> []
    | x :: tl -> x :: take (k - 1) tl

  let everywhere_seeds ?(inflight = true) ~max_seeds ctx =
    let n = ctx.n in
    let base = initial ctx in
    let corrupted =
      List.concat_map
        (fun p ->
          List.mapi
            (fun i s' ->
              let k = Array.copy base in
              k.(p) <- intern_proc ctx s';
              (L_seed (Printf.sprintf "corrupt(%d#%d)" p i), k))
            (P.perturb ~n (Vec.get ctx.proc_of base.(p))))
        (List.init n Fun.id)
    in
    (* [base]'s channels are all empty, so channel [ci]'s length slot
       sits at [n + ci]: insert one message by splitting there. *)
    let inflight =
      if not inflight then []
      else
      List.concat_map
        (fun src ->
          List.concat_map
            (fun dst ->
              if src = dst then []
              else
                List.map
                  (fun m ->
                    let ci = (src * n) + dst in
                    let k = Array.make (Array.length base + 1) 0 in
                    Array.blit base 0 k 0 (n + ci);
                    k.(n + ci) <- 1;
                    k.(n + ci + 1) <- intern_msg ctx m;
                    Array.blit base (n + ci + 1) k (n + ci + 2)
                      (Array.length base - (n + ci + 1));
                    ( L_seed
                        (Printf.sprintf "inflight(%d->%d,%s)" src dst
                           (Graybox.Msg.to_string m)),
                      k ))
                  (inflight_msgs src))
            (List.init n Fun.id))
        (List.init n Fun.id)
    in
    (L_root, base) :: take max_seeds (corrupted @ inflight)

  (* The paper's §4 deadlock, as seeds: processes whose requests were
     lost in flight.  [wedge_seeds ctx] is the all-lost state (every
     process hungry, channels empty — without a wrapper, no transition
     is enabled at all) plus each single-loss state.  The recovery leg
     of the synthesis oracle demands that entry be reachable again
     from every one of them. *)
  let wedge_seeds ctx =
    let n = ctx.n in
    let base = initial ctx in
    let hungry p =
      let s, _lost_sends = P.request_cs (Vec.get ctx.proc_of base.(p)) in
      intern_proc ctx s
    in
    let all = Array.copy base in
    for p = 0 to n - 1 do
      all.(p) <- hungry p
    done;
    (L_seed "wedge(all)", all)
    :: List.init n (fun p ->
           let k = Array.copy base in
           k.(p) <- hungry p;
           (L_seed (Printf.sprintf "wedge(%d)" p), k))

  (* ---------------- the level-synchronous BFS ---------------- *)

  (* Candidate records flow from expansion to admission as flat int
     runs: [tag; seq; il; h1; fp; klen; key words].  [tag] is the
     parent's index in the level, [seq] the emission index within the
     parent — (tag, seq) is the global admission order, which neither
     the domain count nor the shard count can perturb. *)
  let rec_words = 6

  let push_rec (b : Buf.t) ~tag ~seq ~il ~h1 ~fp (k : int array) klen =
    Buf.ensure b (rec_words + klen);
    let d = b.Buf.data and i = b.Buf.len in
    d.(i) <- tag;
    d.(i + 1) <- seq;
    d.(i + 2) <- il;
    d.(i + 3) <- h1;
    d.(i + 4) <- fp;
    d.(i + 5) <- klen;
    blit_ints k 0 d (i + rec_words) klen;
    b.Buf.len <- i + rec_words + klen

  (* Per-shard candidate buckets, their total record count, and a
     duplicate filter.  A run owns one sink per expansion piece and one
     for the miss fixup, and clears them per chunk: the buckets grow to
     the largest chunk's need once, then stop allocating.

     The filter is a direct-mapped table of [filter_slots] pairs, each
     the h1 of a record this sink wrote and [stamp] of that record's
     offset in its shard's bucket (h1 names the shard).  A stamp
     carries the sink's generation, which [clear_sink] bumps, so a
     slot names a record only within the chunk that wrote it and
     clearing the filter costs nothing.  A successor whose full record
     matches the one its slot names is not written again.  The sink
     writes in (tag, seq) order, so the record kept is the first
     occurrence: the one admission would admit, with the same parent
     word. *)
  let filter_slots = 1 lsl 13

  type sink = {
    buckets : Buf.t array;
    mutable cands : int;
    filter : int array;
    mutable gen : int;  (* >= 1; a slot stamped 0 is empty *)
  }

  (* Bucket offsets stay below 2^32 words (32 GB), generations below
     2^30. *)
  let gen_shift = 32
  let off_mask = (1 lsl gen_shift) - 1
  let max_gen = (1 lsl 30) - 1
  let stamp sk o = (sk.gen lsl gen_shift) lor o

  let make_sink nshards =
    { buckets = Array.init nshards (fun _ -> Buf.create ());
      cands = 0;
      filter = Array.make (2 * filter_slots) 0;
      gen = 1 }

  let clear_sink sk =
    Array.iter Buf.clear sk.buckets;
    sk.cands <- 0;
    if sk.gen < max_gen then sk.gen <- sk.gen + 1
    else begin
      Array.fill sk.filter 0 (2 * filter_slots) 0;
      sk.gen <- 1
    end

  (* Whether the record at [d.(o)] holds this successor. *)
  let same_record (d : int array) o ~h1 ~fp (k : int array) klen =
    d.(o + 3) = h1
    && d.(o + 4) = fp
    && d.(o + 5) = klen
    &&
    let i = ref 0 in
    while !i < klen && d.(o + rec_words + !i) = k.(!i) do
      incr i
    done;
    !i = klen

  (* Record the successor key in [st.sbuf] into its owning shard's
     bucket, unless it repeats a record this sink already wrote in the
     chunk.  A successor visited in an earlier chunk is recorded too:
     admission's probe rejects it, and probing here as well would cost
     a cold visited-set read for every successor to save a record for
     a few percent of them.  Reads no shared state, so expansion pieces
     call it concurrently. *)
  let offer table sk st ~tag ~seq ~il slen =
    let h1, fp = hash2 st.sbuf 0 slen in
    let b = sk.buckets.(Table.route table h1) in
    let f = sk.filter and j = 2 * (h1 land (filter_slots - 1)) in
    let e = f.(j + 1) in
    if
      not
        (e lsr gen_shift = sk.gen
        && f.(j) = h1
        && same_record b.Buf.data (e land off_mask) ~h1 ~fp st.sbuf slen)
    then begin
      f.(j) <- h1;
      f.(j + 1) <- stamp sk b.Buf.len;
      push_rec b ~tag ~seq ~il ~h1 ~fp st.sbuf slen;
      sk.cands <- sk.cands + 1
    end

  (* Truncate bucket [si] back to [mark], first emptying the filter
     slots that name the records dropped: a parent that hit a memo
     miss takes back what it wrote (the fixup emits it again). *)
  let roll_back sk si mark =
    let b = sk.buckets.(si) and f = sk.filter in
    let d = b.Buf.data in
    let o = ref mark in
    while !o < b.Buf.len do
      let h1 = d.(!o + 3) in
      let j = 2 * (h1 land (filter_slots - 1)) in
      if f.(j) = h1 && f.(j + 1) = stamp sk !o then f.(j + 1) <- 0;
      o := !o + rec_words + d.(!o + 5)
    done;
    b.Buf.len <- mark

  (* One expansion piece's state: its scratch (so its spill read
     handles live as long as the run), its sink, the bucket
     lengths at the current parent's start (a memo miss truncates the
     buckets back to them), the tags whose expansion hit a memo miss,
     and the first violating tag with its witness views. *)
  type piece = {
    ws : scratch;
    out : sink;
    marks : int array;
    misses : Buf.t;
    mutable bad : int;
    mutable witness : Graybox.View.t array option;
  }

  (* A shard's candidate stream in (tag, seq) order, read in place.
     The piece buckets concatenate to an ascending-tag stream (pieces
     cover disjoint ascending tag ranges, a parent's emissions are in
     seq order), and the fixup bucket merges in by tag (a parent is
     either clean or missed, never both).  A record at or past the
     violation cut [vlimit] ends the stream.  [advance] points the
     cursor at the next record, [d.(i)], or sets [i] to -1 at the
     end. *)
  type cursor = {
    mutable d : int array;
    mutable i : int;
    mutable p : int;  (* current piece *)
    mutable pi : int;  (* next record in piece [p]'s bucket *)
    mutable fi : int;  (* next record in the fixup bucket *)
  }

  let advance c si (pieces : piece Vec.t) npieces fix vlimit =
    while
      c.p < npieces && c.pi >= (Vec.get pieces c.p).out.buckets.(si).Buf.len
    do
      c.p <- c.p + 1;
      c.pi <- 0
    done;
    let pt =
      if c.p >= npieces then max_int
      else
        let t = (Vec.get pieces c.p).out.buckets.(si).Buf.data.(c.pi) in
        if t < vlimit then t else max_int
    in
    let fb = fix.buckets.(si) in
    let ft = if c.fi < fb.Buf.len then fb.Buf.data.(c.fi) else max_int in
    if pt < ft then begin
      let d = (Vec.get pieces c.p).out.buckets.(si).Buf.data in
      c.d <- d;
      c.i <- c.pi;
      c.pi <- c.pi + rec_words + d.(c.pi + 5)
    end
    else if ft < max_int then begin
      c.d <- fb.Buf.data;
      c.i <- c.fi;
      c.fi <- c.fi + rec_words + fb.Buf.data.(c.fi + 5)
    end
    else c.i <- -1

  (* States per chunk.  Fixed (never derived from ~jobs): chunk
     boundaries are spill/peak checkpoints and violation cut points,
     so they must be identical for every domain count. *)
  let chunk_states = 8192

  (* A run's storage, owned by the caller and reused by every run it
     hands the workspace to: the visited set (slot arrays, arena pages,
     index buffers), the serial scratch, the expansion pieces and the
     fixup sink with their buckets and filters, the admission outputs
     and cursors, the seed labels and the two frontier levels.  [run]
     resets it when it starts, so a run that raised or spilled leaves
     nothing stale for the next.  Reuse cannot move a result: admission
     follows (tag, seq), never storage history or slot placement, and
     every stats figure counts states and key words, never capacity. *)
  type workspace = {
    table : Table.t;
    st : scratch;
    pieces : piece Vec.t;  (* grown to the widest [jobs] seen *)
    fix : sink;
    outs : Buf.t array;
    cursors : cursor array;
    seed_labels : label Vec.t;
    mutable frontier : Buf.t;
    mutable next : Buf.t;
  }

  let make_workspace ctx ~shards ~mem_budget ~spill_dir =
    let table = Table.create ~shards ~mem_budget ~spill_dir in
    let nshards = table.Table.nshards in
    { table;
      st = make_scratch ctx;
      pieces = Vec.create ();
      fix = make_sink nshards;
      outs = Array.init nshards (fun _ -> Buf.create ());
      cursors =
        Array.init nshards (fun _ -> { d = [||]; i = -1; p = 0; pi = 0; fi = 0 });
      seed_labels = Vec.create ();
      frontier = Buf.create ();
      next = Buf.create () }

  let close_readers ws =
    close_scratch ws.st;
    Vec.iter (fun pc -> close_scratch pc.ws) ws.pieces

  (* Explore from [seeds ctx] on [ctx] and [ws].  The context's
     wrapper, if any, is composed; the workspace fixes the shard count,
     memory budget and spill directory. *)
  let run ctx ws ~jobs ~max_depth ~max_states ~por ~name ~seeds predicate =
    if jobs < 1 then invalid_arg "Mcheck: need jobs >= 1";
    if max_states < 1 then invalid_arg "Mcheck: need max_states >= 1";
    if por && ctx.wrapper <> None then
      invalid_arg
        "Mcheck: --por is not sound under a composed wrapper (ample sets \
         ignore wrapper moves)";
    close_readers ws;
    Table.reset ws.table;
    Vec.clear ws.seed_labels;
    Buf.clear ws.frontier;
    Buf.clear ws.next;
    let { table; st; pieces; fix; outs; cursors; seed_labels; _ } = ws in
    let nshards = table.Table.nshards in
    let truncated = ref false in
    let explored = ref 0 in
    let frontier_peak = ref 0 in
    let depth_reached = ref 0 in
    (* (tag, ref, witness views) of the first violation in frontier
       order, if any *)
    let violation = ref None in
    (* Seeds are admitted serially in seed order; a seed state's
       parent word packs its index into [seed_labels] (ref part 0). *)
    List.iter
      (fun (label, key) ->
        let si = Vec.length seed_labels in
        if si >= 1 lsl 16 then invalid_arg "Mcheck: need max_seeds < 65536";
        Vec.push seed_labels label;
        match
          Table.admit table key 0 (Array.length key) ~parent:si ~max_states
        with
        | -2 -> truncated := true
        | -1 -> ()
        | r -> Buf.push ws.frontier r)
      (seeds ctx);
    Table.checkpoint table;
    (* Sweep buffers are cleared per chunk (or, for the two frontier
       levels, swapped per level), never rebuilt. *)
    let depth = ref 0 in
    Fun.protect
      ~finally:(fun () ->
        close_readers ws;
        Table.cleanup ws.table)
      (fun () ->
        while ws.frontier.Buf.len > 0 && !violation = None do
          let level = ws.frontier.Buf.data in
          let width = ws.frontier.Buf.len in
          if width > !frontier_peak then frontier_peak := width;
          depth_reached := !depth;
          let capped = !depth >= max_depth in
          let nx = ws.next in
          let rw = jobs = 1 in

          (* One chunk [lo, hi) of the level: expansion pieces in
             parallel, serial miss fixup, shard-parallel admission. *)
          let process_chunk lo hi =
            let w = hi - lo in
            let npieces = min jobs w in
            while Vec.length pieces < npieces do
              Vec.push pieces
                { ws = make_scratch ctx;
                  out = make_sink nshards;
                  marks = Array.make nshards 0;
                  misses = Buf.create ();
                  bad = -1;
                  witness = None }
            done;
            (* Phase A: read-only against the visited table and the
               intern/memo tables; piece [i] expands its slice of
               [lo, hi) into its own sink. *)
            let expand i =
              let pc = Vec.get pieces i in
              let ws = pc.ws and out = pc.out in
              clear_sink out;
              Buf.clear pc.misses;
              pc.bad <- -1;
              pc.witness <- None;
              let tag = ref (lo + (w * i / npieces)) in
              let phi = lo + (w * (i + 1) / npieces) in
              while pc.bad < 0 && !tag < phi do
                let t = !tag in
                let r = level.(t) in
                let klen = Table.key_len table r in
                ensure_kbuf ws klen;
                Table.read table ws.readers r ws.kbuf;
                views_into ctx ws;
                if not (predicate ws.vbuf) then begin
                  pc.bad <- t;
                  pc.witness <- Some (Array.copy ws.vbuf)
                end
                else if not capped then begin
                  for si = 0 to nshards - 1 do
                    pc.marks.(si) <- out.buckets.(si).Buf.len
                  done;
                  let cands = out.cands in
                  let missed = ref false in
                  let seq = ref 0 in
                  iter_successors ctx ~rw ~por ws klen
                    ~miss:(fun _ -> missed := true)
                    ~f:(fun il slen ->
                      let s = !seq in
                      incr seq;
                      if not !missed then
                        offer table out ws ~tag:t ~seq:s ~il slen);
                  if !missed then begin
                    for si = 0 to nshards - 1 do
                      roll_back out si pc.marks.(si)
                    done;
                    out.cands <- cands;
                    Buf.push pc.misses t
                  end
                end;
                tag := t + 1
              done
            in
            ignore (Stdext.Pool.map ~jobs expand (List.init npieces Fun.id));
            (* Pieces cover ascending tag ranges, so the first piece
               reporting a violation holds the globally first one. *)
            let vtag = ref max_int in
            for i = 0 to npieces - 1 do
              let pc = Vec.get pieces i in
              if !vtag = max_int && pc.bad >= 0 then begin
                vtag := pc.bad;
                violation :=
                  Some (pc.bad, level.(pc.bad), Option.get pc.witness)
              end
            done;
            let vlimit = if !vtag = max_int then hi else !vtag in
            explored :=
              !explored + (vlimit - lo) + (if !vtag = max_int then 0 else 1);
            if capped && vlimit > lo then truncated := true;
            (* Serial miss fixup, in frontier order: recompute flagged
               parents read-write so intern ids and memos grow exactly
               as a fully serial sweep's would. *)
            clear_sink fix;
            if not capped then
              for i = 0 to npieces - 1 do
                let m = (Vec.get pieces i).misses in
                for j = 0 to m.Buf.len - 1 do
                  let t = m.Buf.data.(j) in
                  if t < vlimit then begin
                    let r = level.(t) in
                    let klen = Table.key_len table r in
                    ensure_kbuf st klen;
                    Table.read table st.readers r st.kbuf;
                    let seq = ref 0 in
                    iter_successors ctx ~rw:true ~por st klen
                      ~miss:(fun _ -> assert false)
                      ~f:(fun il slen ->
                        let s = !seq in
                        incr seq;
                        offer table fix st ~tag:t ~seq:s ~il slen)
                  end
                done
              done;
            let total_cand = ref fix.cands in
            for i = 0 to npieces - 1 do
              total_cand := !total_cand + (Vec.get pieces i).out.cands
            done;
            let advance si =
              advance cursors.(si) si pieces npieces fix vlimit
            in
            let start si =
              let c = cursors.(si) in
              c.p <- 0;
              c.pi <- 0;
              c.fi <- 0;
              advance si
            in
            if Table.count table + !total_cand <= max_states then begin
              (* Fast path: the bound cannot bite this chunk, so every
                 shard admits its own stream on its own domain with no
                 bound bookkeeping and no locks. *)
              let shard_admit si =
                let sh = table.Table.shards.(si) in
                let c = cursors.(si) and out = outs.(si) in
                Buf.clear out;
                start si;
                while c.i >= 0 do
                  let d = c.d and i = c.i in
                  let t = d.(i) in
                  let parent = ((level.(t) + 1) lsl 16) lor d.(i + 2) in
                  (match
                     Table.find_or_add sh ~h1:d.(i + 3) ~fp:d.(i + 4) d
                       (i + rec_words) d.(i + 5) ~parent
                   with
                  | r when r >= 0 -> ()
                  | fresh ->
                    Buf.push out t;
                    Buf.push out d.(i + 1);
                    Buf.push out
                      (Table.pack_ref ~shard:si ~local:(-fresh - 1)));
                  advance si
                done
              in
              ignore
                (Stdext.Pool.map ~jobs shard_admit (List.init nshards Fun.id));
              (* Serial k-way merge of the per-shard admissions back
                 into one (tag, seq)-ordered frontier. *)
              let cur = Array.make nshards 0 in
              let continue = ref true in
              while !continue do
                let best = ref (-1) in
                for si = 0 to nshards - 1 do
                  if cur.(si) < outs.(si).Buf.len then
                    if !best < 0 then best := si
                    else begin
                      let d = outs.(si).Buf.data and i = cur.(si) in
                      let e = outs.(!best).Buf.data and j = cur.(!best) in
                      if
                        d.(i) < e.(j)
                        || (d.(i) = e.(j) && d.(i + 1) < e.(j + 1))
                      then best := si
                    end
                done;
                match !best with
                | -1 -> continue := false
                | si ->
                  Buf.push nx outs.(si).Buf.data.(cur.(si) + 2);
                  cur.(si) <- cur.(si) + 3
              done
            end
            else begin
              (* Near the visited bound: admit serially in global
                 (tag, seq) order, exactly the order a single-table
                 serial sweep admits in, so the hard bound keeps and
                 rejects the same states. *)
              for si = 0 to nshards - 1 do
                start si
              done;
              let continue = ref true in
              while !continue do
                let best = ref (-1) in
                for si = 0 to nshards - 1 do
                  let c = cursors.(si) in
                  if c.i >= 0 then
                    if !best < 0 then best := si
                    else begin
                      let b = cursors.(!best) in
                      let t = c.d.(c.i) and u = b.d.(b.i) in
                      if t < u || (t = u && c.d.(c.i + 1) < b.d.(b.i + 1))
                      then best := si
                    end
                done;
                match !best with
                | -1 -> continue := false
                | si ->
                  let d = cursors.(si).d and i = cursors.(si).i in
                  let h1 = d.(i + 3) and fp = d.(i + 4) and klen = d.(i + 5) in
                  let sh = table.Table.shards.(si) in
                  if Table.count table >= max_states then begin
                    if not (Table.mem_sh sh ~h1 ~fp d (i + rec_words) klen)
                    then truncated := true
                  end
                  else begin
                    let parent = ((level.(d.(i)) + 1) lsl 16) lor d.(i + 2) in
                    match
                      Table.find_or_add sh ~h1 ~fp d (i + rec_words) klen
                        ~parent
                    with
                    | r when r >= 0 -> ()
                    | fresh ->
                      Buf.push nx (Table.pack_ref ~shard:si ~local:(-fresh - 1))
                  end;
                  advance si
              done
            end;
            Table.checkpoint table
          in
          let c0 = ref 0 in
          while !c0 < width && !violation = None do
            let hi = min width (!c0 + chunk_states) in
            process_chunk !c0 hi;
            c0 := hi
          done;
          let cur = ws.frontier in
          Buf.clear cur;
          ws.frontier <- nx;
          ws.next <- cur;
          incr depth
        done;
        Table.note_peak table;
        let stats =
          { name;
            explored = !explored;
            visited = Table.count table;
            frontier_peak = !frontier_peak;
            depth_reached = !depth_reached;
            truncated = !truncated;
            peak_mem_words = table.Table.peak_words;
            spill_bytes = 8 * table.Table.spill_words }
        in
        match !violation with
        | None -> Ok stats
        | Some (_, r, witness) ->
          (* Parent-pointer walk: the only place a trace is
             materialized.  Only packed index words are read for the
             labels; the states along the path are re-read (possibly
             from spill) here, inside the protected section, while the
             table is still alive. *)
          let rec build acc refs r =
            let refs = r :: refs in
            let p = Table.parent_packed table r in
            let pr = (p lsr 16) - 1 in
            if pr < 0 then
              ( (match Vec.get seed_labels (p land 0xFFFF) with
                | L_root -> acc
                | l -> label_to_string l :: acc),
                refs )
            else
              build
                (label_to_string (decode_ilabel (p land 0xFFFF)) :: acc)
                refs pr
          in
          let trace, refs = build [] [] r in
          let path =
            List.map
              (fun r ->
                let klen = Table.key_len table r in
                ensure_kbuf st klen;
                Table.read table st.readers r st.kbuf;
                Array.init ctx.n (fun p -> Vec.get ctx.view_of st.kbuf.(p)))
              refs
          in
          Violation { trace; witness; path; stats })

  (* Materialized successor list, for replay: (label string, key). *)
  let successor_list ctx k =
    let st = make_scratch ctx in
    let klen = Array.length k in
    ensure_kbuf st klen;
    Array.blit k 0 st.kbuf 0 klen;
    let acc = ref [] in
    iter_successors ctx ~rw:true ~por:false st klen
      ~miss:(fun _ -> assert false)
      ~f:(fun il slen ->
        acc :=
          (label_to_string (decode_ilabel il), Array.sub st.sbuf 0 slen)
          :: !acc);
    List.rev !acc

  let views ctx (k : int array) =
    Array.init ctx.n (fun p -> Vec.get ctx.view_of k.(p))
end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let default_spill_dir () = Filename.get_temp_dir_name ()

let explore ?wrapper (module P : Graybox.Protocol.S) ~n ~jobs ~shards
    ~max_depth ~max_states ~mem_budget ~spill_dir ~por ~name predicate =
  let module S = Search (P) in
  let ctx = S.make_ctx ?wrapper ~n () in
  S.run ctx
    (S.make_workspace ctx ~shards ~mem_budget ~spill_dir)
    ~jobs ~max_depth ~max_states ~por ~name
    ~seeds:(fun ctx -> [ (L_root, S.initial ctx) ])
    predicate

let check_invariant ?wrapper proto ~n ?(jobs = 1) ?shards ?(max_depth = 30)
    ?(max_states = 200_000) ?(mem_budget = max_int) ?spill_dir ?(por = false)
    ~name p =
  let shards = match shards with Some s -> s | None -> min jobs 64 in
  let spill_dir =
    match spill_dir with Some d -> d | None -> default_spill_dir ()
  in
  explore ?wrapper proto ~n ~jobs ~shards ~max_depth ~max_states ~mem_budget
    ~spill_dir ~por ~name p

let me1 views =
  Array.fold_left
    (fun acc v -> if Graybox.View.eating v then acc + 1 else acc)
    0 views
  <= 1

let check_me1 ?wrapper proto ~n ?jobs ?shards ?max_depth ?max_states
    ?mem_budget ?spill_dir ?por () =
  check_invariant ?wrapper proto ~n ?jobs ?shards ?max_depth ?max_states
    ?mem_budget ?spill_dir ?por ~name:"ME1" me1

let check_everywhere ?wrapper ?inflight (module P : Graybox.Protocol.S) ~n
    ?(jobs = 1) ?shards ?(max_depth = 30) ?(max_states = 200_000)
    ?(mem_budget = max_int) ?spill_dir ?(por = false) ?(max_seeds = 256) ~name
    p =
  let shards = match shards with Some s -> s | None -> min jobs 64 in
  let spill_dir =
    match spill_dir with Some d -> d | None -> default_spill_dir ()
  in
  let module S = Search (P) in
  let ctx = S.make_ctx ?wrapper ~n () in
  S.run ctx
    (S.make_workspace ctx ~shards ~mem_budget ~spill_dir)
    ~jobs ~max_depth ~max_states ~por ~name
    ~seeds:(S.everywhere_seeds ?inflight ~max_seeds)
    p

let check_me1_everywhere ?wrapper ?inflight proto ~n ?jobs ?shards ?max_depth
    ?max_states ?mem_budget ?spill_dir ?por ?max_seeds () =
  check_everywhere ?wrapper ?inflight proto ~n ?jobs ?shards ?max_depth
    ?max_states ?mem_budget ?spill_dir ?por ?max_seeds ~name:"ME1" me1

let replay ?wrapper (module P : Graybox.Protocol.S) ~n trace =
  let module S = Search (P) in
  let ctx = S.make_ctx ?wrapper ~n () in
  let rec go k = function
    | [] -> Some (S.views ctx k)
    | l :: tl -> (
      match
        List.find_opt (fun (l', _) -> l' = l) (S.successor_list ctx k)
      with
      | Some (_, k') -> go k' tl
      | None -> None)
  in
  go (S.initial ctx) trace

(* ------------------------------------------------------------------ *)
(* The synthesis oracle                                                *)

module Oracle = struct
  type obligation = Safety | Recovery of int | Progress

  type cex = {
    obligation : obligation;
    seed : string;
    trace : string list;
    path : Graybox.View.t array list;
    fired : (int * Graybox.View.t) list;
    stats : stats list;
  }

  type verdict = Safe of stats list | Cex of cex

  let obligation_label = function
    | Safety -> "safety"
    | Recovery p -> Printf.sprintf "recovery(%d)" p
    | Progress -> "progress"

  (* The last [length path - 1] labels of [trace] are actions (the
     rest is the seed tag); action [j] maps [path.(j)] to
     [path.(j+1)], so a wrap(p) there fired from p's view in
     [path.(j)]. *)
  let firings ~trace ~path =
    let n_actions = List.length path - 1 in
    let actions =
      let rec drop k l = if k <= 0 then l else drop (k - 1) (List.tl l) in
      drop (List.length trace - n_actions) trace
    in
    List.concat
      (List.mapi
         (fun j l ->
           match Scanf.sscanf_opt l "wrap(%d)" (fun p -> p) with
           | Some p -> [ (p, (List.nth path j : Graybox.View.t array).(p)) ]
           | None -> [])
         actions)

  let seed_of ~trace ~path =
    if List.length trace = List.length path then List.hd trace else "init"

  let checker (module P : Graybox.Protocol.S) ~n ?(jobs = 1) ?shards
      ?(safety_depth = 8) ?(recovery_depth = 14) ?(max_states = 200_000)
      ?(mem_budget = max_int) ?spill_dir ?(max_seeds = 256) () =
    let shards = match shards with Some s -> s | None -> min jobs 64 in
    let spill_dir =
      match spill_dir with Some d -> d | None -> default_spill_dir ()
    in
    let module S = Search (P) in
    (* One context and one workspace certify every leg of every
       candidate handed to this checker; [set_wrapper] forgets the
       only memos that depend on the candidate. *)
    let ctx = S.make_ctx ~n () in
    let ws = S.make_workspace ctx ~shards ~mem_budget ~spill_dir in
    let run ~max_depth ~name ~seeds p =
      S.run ctx ws ~jobs ~max_depth ~max_states ~por:false ~name ~seeds p
    in
    fun wrapper ->
      S.set_wrapper ctx (Some wrapper);
      (* Safety leg: everywhere-mode ME1 of the wrapped system over the
         state-corruption closure.  In-flight-message seeds are
         excluded on purpose: a forged reply delivered in one step
         defeats any view-reading wrapper at this abstraction (wrappers
         correct state, not channels) — message faults are covered
         statistically by the chaos campaign's wrapped-recover gates. *)
      match
        run ~max_depth:safety_depth ~name:"ME1"
          ~seeds:(S.everywhere_seeds ~inflight:false ~max_seeds)
          me1
      with
      | Violation { trace; path; stats; _ } ->
        Cex
          { obligation = Safety;
            seed = seed_of ~trace ~path;
            trace;
            path;
            fired = firings ~trace ~path;
            stats = [ stats ] }
      | Ok s ->
        (* Recovery legs: a plain reachability check suffices — the
           all-lost wedge has no enabled transition at all without a
           wrapper, so any path back to the CS goes through the
           candidate.  Two obligation shapes keep the search shallow:
           from each singleton wedge(p), process p itself must re-enter
           (a few steps: the candidate resends, idle peers reply); from
           wedge(all), it is enough that {e some} process re-enters —
           the deadlock is broken, and once requests are known the
           protocol's own priority order drains the queue.  (Demanding
           that the {e lowest}-priority process eats from wedge(all)
           would push the frontier through every full CS rotation —
           exponentially deep for no extra discrimination: the guard
           language cannot name process ids, so candidates are
           pid-symmetric.) *)
        let wedge seed_idx = List.nth (S.wedge_seeds ctx) seed_idx in
        let legs = (0, Progress) :: List.init n (fun p -> (p + 1, Recovery p)) in
        let rec sweep acc = function
          | [] -> Safe (List.rev acc)
          | (seed_idx, obligation) :: rest -> (
            let stuck views =
              match obligation with
              | Recovery p -> not (Graybox.View.eating views.(p))
              | Progress | Safety ->
                not (Array.exists Graybox.View.eating views)
            in
            match
              run ~max_depth:recovery_depth
                ~name:(obligation_label obligation)
                ~seeds:(fun _ -> [ wedge seed_idx ])
                stuck
            with
            | Violation { stats; _ } -> sweep (stats :: acc) rest
            | Ok s_run ->
              let label, key = wedge seed_idx in
              Cex
                { obligation;
                  seed = (match label with L_seed s -> s | _ -> "init");
                  trace = [];
                  path = [ S.views ctx key ];
                  fired = [];
                  stats = List.rev (s_run :: acc) })
        in
        sweep [ s ] legs

  let check proto ~n ?jobs ?shards ?safety_depth ?recovery_depth ?max_states
      ?mem_budget ?spill_dir ?max_seeds wrapper =
    checker proto ~n ?jobs ?shards ?safety_depth ?recovery_depth ?max_states
      ?mem_budget ?spill_dir ?max_seeds () wrapper
end
