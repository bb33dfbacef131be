(** The graybox view: the specification-level state of one process.

    Lspec is written over exactly these variables — the mode
    ([t.j]/[h.j]/[e.j]), the own request timestamp [REQ_j], the local
    copies [j.REQ_k], and the logical-clock reading [ts.j].  Every
    implementation must expose a projection of its concrete state onto
    a view; the wrapper and every specification monitor consume
    {e only} views, never implementation state.  That projection
    boundary is the repository's embodiment of "graybox": replace the
    implementation and nothing on this side of the boundary changes. *)

type mode = Thinking | Hungry | Eating

type t = {
  self : Sim.Pid.t;
  mode : mode;
  req : Clocks.Timestamp.t;  (** [REQ_j] *)
  local_req : Clocks.Timestamp.t Sim.Pid.Map.t;
      (** [j.REQ_k] for every [k ≠ j] *)
  clock : int;  (** the logical-clock value behind [ts.j] *)
}

val make :
  self:Sim.Pid.t -> mode:mode -> req:Clocks.Timestamp.t ->
  local_req:Clocks.Timestamp.t Sim.Pid.Map.t -> clock:int -> t

val thinking : t -> bool
(** [thinking v] is the paper's [t.j]. *)

val hungry : t -> bool
(** [hungry v] is the paper's [h.j]. *)

val eating : t -> bool
(** [eating v] is the paper's [e.j]. *)

val local_req : t -> Sim.Pid.t -> Clocks.Timestamp.t
(** [local_req v k] is [j.REQ_k]; defaults to [Timestamp.zero ~pid:k]
    when the map has no binding (no information). *)

val earlier : t -> than:Clocks.Timestamp.t -> Sim.Pid.t -> bool
(** [earlier v ~than k] is [j.REQ_k lt than] — the wrapper's test. *)

val earliest : t -> peers:Sim.Pid.t list -> bool
(** [earliest v ~peers] is the paper's [earliest.j] computed from [j]'s
    local knowledge: [∀k ∈ peers : REQ_j lt j.REQ_k]. *)

val mode_to_string : mode -> string

val pp : Format.formatter -> t -> unit
