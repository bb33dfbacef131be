(** Schema-typed variable stores: guarded-command process state.

    The paper writes implementations in Dijkstra's guarded-command
    style over named variables ([REQ_j], [j.REQ_k], [state.j], …).
    This module gives that style a runtime: a process's state is a
    {e store} mapping variable names to values, constrained by a
    declared {e schema} of per-variable domains.

    The payoff is principled fault injection.  "Transiently and
    arbitrarily corrupted state" means each variable takes an
    arbitrary value {e of its domain} — corrupting an [int] into a
    string is not a transient fault, it is a type error.  {!corrupt}
    derives exactly that from the schema, including the structural
    constraint that an own-request timestamp carries the owner's
    process id (domain {!Domain.D_own_ts}). *)

module Domain : sig
  type t =
    | D_bool
    | D_nat of int
        (** non-negative integers; the bound only caps corruption draws
            (legitimate values grow without bound, e.g. logical clocks) *)
    | D_mode  (** thinking / hungry / eating *)
    | D_own_ts  (** a timestamp stamped by the owner's clock *)
    | D_peer_ts_map  (** one timestamp per peer (any pid inside) *)
    | D_pid_set  (** a subset of the peers *)
end

module Value : sig
  type t =
    | V_bool of bool
    | V_nat of int
    | V_mode of Graybox.View.mode
    | V_own_ts of Clocks.Timestamp.t
    | V_peer_ts_map of Clocks.Timestamp.t Sim.Pid.Map.t
    | V_pid_set of Sim.Pid.Set.t

  val in_domain : self:Sim.Pid.t -> n:int -> Domain.t -> t -> bool
  (** [in_domain ~self ~n d v] checks [v] inhabits [d] for a process
      [self] among [n] (own timestamps must carry pid [self]; map keys
      and set members must be peers). *)

  val random : Stdext.Rng.t -> self:Sim.Pid.t -> n:int -> Domain.t -> t
  (** [random rng ~self ~n d] draws an arbitrary inhabitant of [d] —
      the transient-corruption generator. *)
end

type schema = (string * Domain.t) list

type t
(** A store: named values conforming to a schema. *)

val create : schema -> self:Sim.Pid.t -> n:int -> (string * Value.t) list -> t
(** [create schema ~self ~n bindings] validates that the bindings
    cover the schema exactly and every value inhabits its domain.
    @raise Invalid_argument otherwise. *)

val self : t -> Sim.Pid.t
val size : t -> int
(** [size t] is [n], the number of processes. *)

val schema : t -> schema

(** {2 Typed accessors} — each raises [Invalid_argument] on a missing
    variable or a domain mismatch, which in a guarded-command program
    is a programming error, not a runtime condition. *)

val get_bool : t -> string -> bool

val get_nat : t -> string -> int
val set_nat : t -> string -> int -> t

val get_mode : t -> string -> Graybox.View.mode
val set_mode : t -> string -> Graybox.View.mode -> t

val get_ts : t -> string -> Clocks.Timestamp.t
val set_ts : t -> string -> Clocks.Timestamp.t -> t
(** Own timestamps: [set_ts] enforces the owner-pid constraint. *)

val get_map : t -> string -> Clocks.Timestamp.t Sim.Pid.Map.t
val map_entry : t -> string -> Sim.Pid.t -> Clocks.Timestamp.t
val set_map_entry : t -> string -> Sim.Pid.t -> Clocks.Timestamp.t -> t

val get_set : t -> string -> Sim.Pid.Set.t
val set_set : t -> string -> Sim.Pid.Set.t -> t
val add_to_set : t -> string -> Sim.Pid.t -> t
val remove_from_set : t -> string -> Sim.Pid.t -> t

val corrupt : Stdext.Rng.t -> t -> t
(** [corrupt rng t] replaces a random subset of the variables with
    arbitrary values of their domains — the schema-derived transient
    fault. *)

val well_formed : t -> bool
(** [well_formed t]: every value inhabits its domain (holds by
    construction; exposed for property tests). *)
