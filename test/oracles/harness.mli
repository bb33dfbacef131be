(** The CS-entry log of a recorded run, read off its node trace. *)

module Make (P : Graybox.Protocol.S) : sig
  val entry_log :
    (Graybox.Harness.Make(P).node, Graybox.Harness.Make(P).envelope) Sim.Trace.t ->
    Graybox.Harness.entry_record list
  (** Oracle CS-entry records in trace order (for {!Tme_spec.me3}), each
      [entry_since] read off the views: a trace recorded with
      [Run.recorder] from [Init]. *)
end
