(** Flat int-array block files: the out-of-core substrate.

    A blockfile stores raw OCaml ints as fixed-width little-endian
    64-bit words, append-only.  There is no Marshal, no framing
    overhead and no per-record allocation on the write path: a caller
    hands a slice of an int array, the words are staged through one
    reusable byte buffer and written with a single [write].  Readers
    address the file by {e word offset} — [pread] fills a caller
    buffer from any offset, so several {!reader} handles (one per
    domain) can stream disjoint ranges of the same file concurrently
    with no shared seek pointer.

    Files are created under a caller-supplied directory with
    [O_CREAT|O_EXCL] temp names and are deleted by {!remove}; a
    crashed run leaves them behind for post-mortem, nothing re-reads
    them implicitly. *)

type t
(** An append-only write handle (owns the fd and the staging buffer).
    Not thread-safe: one writer per file, by design — the checker
    gives every visited-set shard its own blockfile. *)

type reader
(** An independent positional read handle on the same path.  Each
    reader owns its fd, so concurrent readers never race on a seek
    pointer. *)

val create : dir:string -> prefix:string -> t
(** [create ~dir ~prefix] makes a fresh, empty blockfile
    [dir/prefix-XXXXXX.blk].
    @raise Sys_error when [dir] is unusable. *)

val path : t -> string

val words : t -> int
(** Words appended so far (= the word offset the next {!append}
    returns). *)

val append : t -> int array -> off:int -> len:int -> int
(** [append t a ~off ~len] appends [a.(off .. off+len-1)] and returns
    the word offset the slice starts at.  Data is written through,
    not buffered: a {!reader} opened afterwards sees it. *)

val close : t -> unit
(** Close the writer fd; the file stays on disk. *)

val remove : t -> unit
(** Close (if open) and delete the file.  Idempotent. *)

val reader : t -> reader
(** A new positional read handle on [t]'s file.  Reads see every word
    appended before the call ({!append} writes through). *)

val pread : reader -> woff:int -> int array -> off:int -> len:int -> unit
(** [pread r ~woff buf ~off ~len] fills [buf.(off .. off+len-1)] with
    the [len] words starting at word offset [woff].
    @raise Invalid_argument when the range is beyond end-of-file. *)

val close_reader : reader -> unit
