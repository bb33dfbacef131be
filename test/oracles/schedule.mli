(** The scheduler's specification, checked one step at a time.

    Before every step the oracle rebuilds the engine's move list from
    scratch out of exported state — the channels with a deliverable
    head into processes outside any crash window, in (src, dst) order,
    then each such process's [N.actions], called afresh, in pid order —
    draws from its own replica of the seed's schedule stream, and
    checks that {!Sim.Engine.Make.step} made the move that draw picks.
    The engine reaches the same list through its cached action lists,
    a Fenwick tree of action counts, its crashed-pid list and the
    network's counting and selection index ({!Sim.Network.live_count},
    {!Sim.Network.live_into}, {!Sim.Network.nth_live}); the oracle
    reads none of them. *)

module Make (N : Sim.Engine.NODE) (E : module type of Sim.Engine.Make (N)) : sig
  val run :
    ?plan:(N.state, N.msg) Sim.Faults.plan ->
    ?before_step:(E.t -> unit) ->
    seed:int -> steps:int -> E.t -> string option
  (** [run ?plan ?before_step ~seed ~steps e] drives [e], which must be
      fresh from [E.create ~seed] (time 0, nothing drawn), the way
      [E.run ?plan ~steps] does: before each step it applies the
      faults due at that time, then calls [before_step e] (the place
      for {!Sim.Engine.Make.set_state} writes), then predicts and takes
      the step.  It is [None] when every step made the predicted move,
      else the first mismatch and how many steps mismatched (after a
      mismatch the replica stream may run out of step with the
      engine's, so the count is only a size).
      @raise Invalid_argument if [e] has already stepped. *)
end
