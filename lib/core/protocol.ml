(** The contract an implementation must satisfy to be wrapped.

    This is the repository's rendering of "any system [M] that
    everywhere implements Lspec": a module of this type supplies the
    TME actions (request, try-enter, release, message handling), the
    projection {!S.view} onto the specification-level state, and the
    whitebox hooks the {e fault injector} (not the wrapper!) needs.
    The wrapper and all monitors see implementations only through
    views and {!Msg.t} values. *)

module type S = sig
  type state

  val name : string
  (** Short identifier, e.g. ["ra"] or ["lamport"]. *)

  val init : n:int -> Sim.Pid.t -> state
  (** [init ~n self] is the proper initial state for a ring of [n]
      processes — the paper's Init: thinking, [REQ_j = 0], clock 0. *)

  val view : state -> View.t
  (** The graybox projection. *)

  val request_cs : state -> state * (Sim.Pid.t * Msg.t) list
  (** Client decided to request the critical section.  Only called
      when [view] is [Thinking]; implementations should be robust to
      other modes anyway (fault tolerance). *)

  val try_enter : state -> (state * (Sim.Pid.t * Msg.t) list) option
  (** [try_enter s] is [Some] exactly when the implementation's CS
      entry guard holds; the returned state is [Eating]. *)

  val release_cs : state -> state * (Sim.Pid.t * Msg.t) list
  (** Client finished the critical section.  Only called when [view]
      is [Eating]. *)

  val on_message :
    from:Sim.Pid.t -> Msg.t -> state -> state * (Sim.Pid.t * Msg.t) list
  (** Handle a delivered message.  Must be total: after faults,
      messages can arrive that no legitimate execution would produce
      (stale, duplicated, corrupted); everywhere-implementations
      handle them from any state. *)

  val corrupt : Stdext.Rng.t -> state -> state
  (** Whitebox fault-injection hook: an {e arbitrary} transient
      corruption of this implementation's representation.  Used only
      by the fault injector — the wrapper never sees inside. *)

  val reset : n:int -> Sim.Pid.t -> state
  (** Improper-initialization hook: a plausible but not-necessarily-
      legitimate restart state (the fault injector may also use
      {!init}). *)

  val membership_aware : bool
  (** Whether this implementation subscribes to the simulated group
      membership service: during a {!Sim.Faults.Split} window the
      fault injector announces each process's connected group via
      {!on_view_change}.  [false] for classical TME programs — they
      receive no announcements and their executions are unchanged. *)

  val on_view_change : members:Sim.Pid.t list -> state -> state
  (** Membership announcement: [members] is the set of processes
      (including self) the membership service currently believes
      reachable.  Called at partition open and heal for subscribing
      implementations ([membership_aware = true]); must be the
      identity for the rest.  Like {!on_message}, must be total from
      any state. *)

  val perturb : n:int -> state -> state list
  (** Everywhere-mode model-checking hook ([Mcheck.check_everywhere]):
      a {e bounded, deterministic} enumeration of transiently corrupted
      variants of [state] — mode flips no message explains, phantom
      bookkeeping, improper restarts.  Where {!corrupt} draws one
      arbitrary corruption for the randomized fault injector, this list
      seeds {e exhaustive} exploration from non-initial states (the
      paper's [C ⇒ A] as opposed to [C ⇒ A]init), so it must be small
      (O(10) states) and identical on every call. *)
end
