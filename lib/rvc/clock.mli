(** Resettable vector clocks: the second graybox case study.

    The paper's references [1, 4] (Arora–Kulkarni–Demirbas, PODC 2000)
    design {e resettable vector clocks} as a case study in graybox
    fault tolerance, and §2.2 describes the design method they
    exercise: a {e level-1} wrapper restores a process to an
    internally consistent state and may {e raise an exception} to
    notify other processes' wrappers.  TME needed no level-1 wrapper;
    this module shows one.

    A resettable vector clock is a vector clock whose components live
    in the bounded domain [\[0, bound\]].  The local everywhere
    specification asks each process to keep its vector well formed
    (all components in range) and to advance it by the usual
    tick/merge rules.  Overflow — or arbitrary transient corruption —
    makes the vector ill-formed; the level-1 wrapper {e resets} it to
    zero and bumps an {e epoch} number, which rides on every
    subsequent stamp.  The epoch is the exception notification: a
    receiver whose epoch is behind adopts the newer epoch and resets
    its own vector (its level-2 reconciliation), so causality tracking
    resumes consistently.  Stamps are causally comparable only within
    an epoch. *)

type stamp = { epoch : int; vec : Clocks.Vector_clock.t }

type t

val create : n:int -> bound:int -> self:int -> t
(** [create ~n ~bound ~self] is a fresh clock for process [self] of
    [n], with component domain [\[0, bound\]].
    @raise Invalid_argument if [bound < 1] or [self] out of range. *)

val self : t -> int
val epoch : t -> int
val bound : t -> int
val vector : t -> Clocks.Vector_clock.t

val read : t -> stamp
(** [read t] is the current stamp (no advance). *)

val local_event : t -> t
(** [local_event t] ticks the own component.  The result may overflow
    past [bound]; overflow makes the state ill-formed and it is the
    {e wrapper's} job (not this function's) to reset — that division
    of labour is the graybox point. *)

val send : t -> t * stamp
(** [send t] ticks and returns the stamp to attach to the message. *)

val receive : t -> stamp -> t
(** [receive t s] reconciles epochs and merges:
    - [s.epoch > epoch t]: adopt [s.epoch] and restart from [s.vec]
      (the level-2 reaction to another process's reset exception);
    - equal epochs: componentwise max, then tick;
    - [s.epoch < epoch t]: the stamp is stale — tick only. *)

val well_formed : t -> bool
(** All components within [\[0, bound\]] — the internal-consistency
    predicate of the local everywhere specification. *)

val needs_reset : t -> bool
(** The level-1 wrapper's guard: [not (well_formed t)]. *)

val reset : t -> t
(** The level-1 wrapper's action: zero the vector and advance the
    epoch.  Always yields a well-formed state with a strictly larger
    epoch. *)

val hb : stamp -> stamp -> bool option
(** [hb a b] is [Some true]/[Some false] when both stamps belong to
    the same epoch (ordinary vector-clock comparison), [None] when the
    epochs differ (a reset intervened; causality is not claimed). *)

val corrupt : Stdext.Rng.t -> t -> t
(** Transient arbitrary corruption of vector components and/or epoch
    (fault injection hook). *)

val pp : Format.formatter -> t -> unit
