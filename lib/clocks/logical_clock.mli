(** Lamport logical clocks ([10] in the paper).

    A clock is a per-process counter advanced on every local event and
    pulled forward past the clock value carried on every received
    message, so timestamps respect happened-before.  The clock is a
    persistent value: operations return the advanced clock, which keeps
    simulator snapshots cheap and makes state corruption (a transient
    fault) a pure function. *)

type t

val create : pid:int -> t
(** [create ~pid] is a clock at 0 owned by process [pid]. *)

val pid : t -> int

val now : t -> int
(** [now c] is the current counter value. *)

val read : t -> Timestamp.t
(** [read c] is the timestamp [(now c, pid c)] without advancing. *)

val tick : t -> t * Timestamp.t
(** [tick c] advances the clock by one local event and returns the new
    clock with the event's timestamp. *)

val witness : t -> Timestamp.t -> t
(** [witness c ts] incorporates a received timestamp:
    [now] becomes [max (now c) ts.clock] — call {!tick} afterwards to
    stamp the receive event itself. *)

val receive_event : t -> Timestamp.t -> t
(** [receive_event c ts] is the clock of [tick (witness c ts)]: the
    usual receive rule [now := max(now, ts.clock) + 1].  The receive
    event's stamp is {!read} of the result. *)

val with_now : t -> int -> t
(** [with_now c n] forces the counter — used only by fault injection to
    model transient clock corruption. *)

val pp : Format.formatter -> t -> unit
