(** The interprocess network: one FIFO channel per ordered process
    pair, as demanded by the paper's Communication Spec.

    A network is a mutable handle split in two.  The {e channel
    contents} are a mutable table holding a persistent queue per
    nonempty channel, so a send or a delivery costs one table lookup
    (plus an insertion or a removal when the channel fills or empties)
    and its queue cell.  The {e live-channel index} is updated in
    place too: a Fenwick tree over sources, a per-source destination
    bitset and per-destination counts, so {!nth_live} is
    O(log n + n/62) and {!live_count} and {!live_into} are O(1).
    {!create} and memory are O(n + occupied channels), plus one
    n/62-word bitset row per source that has had a deliverable
    channel.  Mutating functions return [unit], so no caller can hold
    a stale version.  Fault primitives (drop / duplicate / corrupt /
    flush / split / delay) are defined here; {e when} they fire is
    decided by {!Faults}.

    {b Trace capture.}  {!capture} keeps a persistent mirror of the
    contents.  The first capture builds it from the table; after that
    every write also notes its channel, and each capture folds the
    channels written since the previous one into the mirror — on a
    recorded run, O(log n) per channel a step touched.  A network that
    is never captured pays nothing for it.

    {b Delivery-ready staging.}  Every message carries a ready step.
    Undelayed sends are ready immediately, so on fault-free runs the
    staging layer is invisible (and free).  {!send}[ ~delay] and a
    {!apply_split} partition mask stage messages for a later step; a
    staged channel head keeps the whole channel out of
    {!fold_nonempty} / {!live_count} until {!advance} moves time past
    its ready step — delivery order within a channel is never changed,
    only {e when} the head becomes deliverable.  {!contents},
    {!channel_length} and {!capture} still cover every queued message,
    staged or not. *)

type 'm t

val create : n:int -> 'm t
(** [create ~n] is an empty network over processes [0 .. n-1], at time
    0 with no partition mask. *)

val send : ?delay:int -> 'm t -> src:Pid.t -> dst:Pid.t -> 'm -> unit
(** [send net ~src ~dst m] enqueues [m] at the back of channel
    [src→dst], ready [delay] steps from now (default [0]: deliverable
    immediately).  If the channel is under a [`Buffered] partition
    window, readiness is further deferred to the heal step.  Self-sends
    are allowed but unused by the protocols. *)

val deliver : 'm t -> src:Pid.t -> dst:Pid.t -> 'm option
(** [deliver net ~src ~dst] dequeues and returns the head of channel
    [src→dst], or is [None] (and changes nothing) when the channel is
    empty {e or its head is staged for a later step} — a staged head
    also shields everything behind it (FIFO).  The scheduler never hits
    the staged case: it draws from {!nth_live}/{!fold_nonempty}, which
    only surface ready heads. *)

val contents : 'm t -> src:Pid.t -> dst:Pid.t -> 'm list
(** [contents net ~src ~dst] lists channel [src→dst] front-first,
    staged messages included. *)

val channel_length : 'm t -> src:Pid.t -> dst:Pid.t -> int

val advance : 'm t -> now:int -> unit
(** [advance net ~now] moves the network clock to [now]: staged
    channels whose head has become ready go live, and partition-mask
    entries whose window has elapsed are retired.  O(1) when nothing
    is staged or masked.  [now] below the current clock is ignored
    (the clock is monotone). *)

val link_status :
  'm t -> src:Pid.t -> dst:Pid.t -> [ `Open | `Lossy of int | `Buffered of int ]
(** [link_status net ~src ~dst] reports the partition mask on channel
    [src→dst]: [`Open], or down until the given heal step.  On a
    [`Lossy] link the sender must not enqueue at all; [`Buffered]
    links accept sends ({!send} defers their readiness). *)

val fold_nonempty :
  ('acc -> src:Pid.t -> dst:Pid.t -> 'acc) -> 'acc -> 'm t -> 'acc
(** [fold_nonempty f acc net] folds over the channels with a
    {e deliverable} (ready) head, in (src, dst) lexicographic order, in
    O(n) plus O(n/62) per source with a ready channel.  Channels whose
    head is staged for a later step are excluded.  [f] must not mutate
    [net]. *)

val nth_live : 'm t -> int -> Pid.t * Pid.t
(** [nth_live net k] is the [k]-th ready channel in the
    {!fold_nonempty} order, in O(log n + n/62) — the scheduler's
    delivery draw.
    @raise Invalid_argument unless [0 <= k < live_count net]. *)

val live_count : 'm t -> int
(** [live_count net] is the number of ready channels, in O(1). *)

val live_into : 'm t -> dst:Pid.t -> int
(** [live_into net ~dst] counts ready channels into [dst], in O(1) —
    the scheduler subtracts crashed destinations' counts from
    {!live_count} instead of rescanning. *)

val fold_inbound_nonempty :
  ('acc -> src:Pid.t -> 'acc) -> 'acc -> 'm t -> dst:Pid.t -> 'acc
(** [fold_inbound_nonempty f acc net ~dst] folds over the sources of
    every nonempty channel into [dst] — staged heads included — in
    ascending source order for the ready channels, then for the staged
    ones.  O(1) when nothing is inbound, O(n) otherwise.  The crash
    drain's enumeration; [f] must not mutate [net]. *)

val waiting_count : 'm t -> int
(** [waiting_count net] is the number of nonempty channels whose head
    is staged for a later step — nonzero only after delay or buffered
    partition faults. *)

(** {2 Channel-level fault primitives} *)

val apply_split :
  'm t ->
  pairs:(Pid.t * Pid.t) list ->
  until:int ->
  mode:[ `Lossy | `Buffered ] ->
  int
(** [apply_split net ~pairs ~until ~mode] masks each channel in
    [pairs] as down until step [until].  [`Lossy] also flushes the
    in-flight messages on those channels (the count flushed is
    returned); [`Buffered] restamps them ready-at-heal instead and
    returns [0].  Overlapping windows keep the latest heal step; the
    newest injection decides the mode.  A window already in the past
    is a no-op. *)

val drop_at : 'm t -> src:Pid.t -> dst:Pid.t -> pos:int -> unit
(** [drop_at net ~src ~dst ~pos] loses the message at front-first
    position [pos]; no-op when out of range. *)

val duplicate_at : 'm t -> src:Pid.t -> dst:Pid.t -> pos:int -> unit
(** [duplicate_at net ~src ~dst ~pos] duplicates the message at [pos]
    in place (the copy sits immediately behind the original). *)

val corrupt_at : 'm t -> src:Pid.t -> dst:Pid.t -> pos:int -> f:('m -> 'm) -> unit
(** [corrupt_at net ~src ~dst ~pos ~f] replaces the message at [pos]
    with [f msg] (readiness unchanged); no-op when out of range. *)

val reorder_at : 'm t -> src:Pid.t -> dst:Pid.t -> pos:int -> unit
(** [reorder_at net ~src ~dst ~pos] moves the message at [pos] to the
    back of its channel — a FIFO violation fault (the wrapper is only
    guaranteed to stabilize once FIFO behaviour resumes, which this
    transient fault permits). *)

val flush_channel : 'm t -> src:Pid.t -> dst:Pid.t -> unit
(** [flush_channel net ~src ~dst] empties channel [src→dst]. *)

(** {2 Trace capture} *)

val capture : 'm t -> (Pid.t * Pid.t * 'm list) list Lazy.t
(** [capture net] lists every nonempty channel with its contents as
    they are now — staged messages included, channels in (src, dst)
    order — computed on first force, and unaffected by anything done
    to [net] afterwards: how the engine records trace snapshots.
    Taking it costs O(log n) per channel written since the previous
    capture, which it folds into the mirror — so capturing after every
    step adds O(log n) to each write — and nothing more; the first
    capture costs O(occupied channels · log n). *)
