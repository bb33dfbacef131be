(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of the simulator draws from a value of
    type {!t} so that entire executions — schedules, fault injections,
    workloads — are reproducible from a single integer seed.  The
    generator is splittable: {!split} derives an independent stream,
    which lets concurrent components consume randomness without
    perturbing each other's sequences. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] duplicates the generator state; the copy evolves
    independently afterwards. *)

val split : t -> t
(** [split t] advances [t] and returns a generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val bits64 : t -> int64
(** [bits64 t] returns the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] returns a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] returns a uniform integer in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val bool : t -> bool
(** [bool t] returns a uniform boolean. *)

val chance : t -> float -> bool
(** [chance t p] returns [true] with probability [p] (clamped to
    [\[0, 1\]]). *)

val float : t -> float -> float
(** [float t bound] returns a uniform float in [\[0, bound)]. *)

val pick : t -> 'a list -> 'a
(** [pick t xs] returns a uniform element of [xs].
    @raise Invalid_argument on the empty list. *)

val pick_weighted : t -> ('a * int) list -> 'a
(** [pick_weighted t choices] picks proportionally to the (positive)
    integer weights.  Entries with weight [<= 0] are never picked.
    @raise Invalid_argument if no entry has positive weight. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t xs] permutes [xs] in place, uniformly. *)

val shuffle_list : t -> 'a list -> 'a list
(** [shuffle_list t xs] returns a uniform permutation of [xs]. *)
