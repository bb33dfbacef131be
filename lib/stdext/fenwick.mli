(** Fenwick (binary-indexed) tree over nonnegative integer weights.

    The scheduler's move index: one slot per process holding its
    enabled-action count, so a weighted draw is a prefix {!select} and
    a state change is a point {!set} — both O(log n), replacing the
    per-step full scan.  {!select}'s order is ascending slot index,
    which is exactly the ascending-pid order the scheduler's virtual
    move list has always used. *)

type t

val create : int -> t
(** [create n] is a tree of [n] slots, all weight 0. *)

val length : t -> int

val get : t -> int -> int
(** [get t i] is slot [i]'s current weight, O(1). *)

val add : t -> int -> int -> unit
(** [add t i delta] adjusts slot [i] by [delta], O(log n).
    @raise Invalid_argument if the slot would go negative. *)

val set : t -> int -> int -> unit
(** [set t i v] assigns slot [i] the weight [v], O(log n); O(1) when
    [v] is already its weight. *)

val total : t -> int
(** [total t] is the sum of all weights, O(1). *)

val prefix : t -> int -> int
(** [prefix t i] is the sum of slots [0 .. i-1], O(log n). *)

val select : t -> int -> int
(** [select t k] is the unique slot [i] with
    [prefix t i <= k < prefix t (i+1)] — the slot containing the
    [k]-th unit of weight, in ascending-slot order.  O(log n).
    @raise Invalid_argument unless [0 <= k < total t]. *)

val select_rem : t -> int -> int * int
(** [select_rem t k] is [(i, k - prefix t i)] for [i = select t k]:
    the slot and [k]'s rank within it, from the same descent, so the
    caller needs no second {!prefix} walk.
    @raise Invalid_argument unless [0 <= k < total t]. *)
