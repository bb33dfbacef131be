(** Execution counters maintained by the engine.

    Message sends are attributed to the label of the action that
    produced them, which is how the benchmarks separate wrapper
    traffic (actions labeled by the wrapper) from protocol traffic
    without inspecting payloads. *)

type t

val create : unit -> t

val reset : t -> unit

(** {2 Incrementers (engine-side)} *)

val note_sends : t -> label:string -> int -> unit
(** [note_sends t ~label k] counts [k] sends by an action labeled
    [label] — one outbox, one label lookup; [k = 0] records nothing. *)

val note_delivery : t -> unit
val note_internal : t -> unit
val note_stutter : t -> unit
val note_fault : t -> unit
val note_dropped : t -> int -> unit
val note_duplicated : t -> int -> unit
val note_corrupted : t -> int -> unit
val note_reordered : t -> int -> unit
val note_flushed : t -> int -> unit
val note_crashed : t -> unit

(** {2 Readers} *)

val sent : t -> int
(** [sent t] counts all messages enqueued on channels. *)

val delivered : t -> int
val internal_steps : t -> int
val stutters : t -> int
val faults : t -> int
val dropped : t -> int
val duplicated : t -> int
val corrupted : t -> int
val reordered : t -> int
val flushed : t -> int

val crashes : t -> int
(** [crashes t] counts process-crash injections (one per process per
    {!Faults.Crash} application). *)

val sends_with_label : t -> string -> int
(** [sends_with_label t l] counts sends attributed to action label
    [l]. *)

val sends_matching : t -> (string -> bool) -> int
(** [sends_matching t p] sums send counts over labels satisfying
    [p]. *)

val labels : t -> (string * int) list
(** [labels t] lists (label, send count) pairs, label-sorted. *)

val pp : Format.formatter -> t -> unit
