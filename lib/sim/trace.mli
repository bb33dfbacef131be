(** Execution traces: the finite computations over which the UNITY
    monitors check the paper's specifications.

    A trace is a chronological list of snapshots.  Snapshot [i]'s
    [states]/[channels] describe the global state {e after} the
    snapshot's [event] executed, so consecutive snapshots are exactly
    the state pairs quantified over by [unless]-style properties. *)

type ('s, 'm) event =
  | Init  (** the pseudo-event preceding the first real step *)
  | Deliver of { src : Pid.t; dst : Pid.t; msg : 'm }
  | Internal of { pid : Pid.t; label : string }
  | Fault of { label : string }
  | Stutter  (** no enabled move: global quiescence (or deadlock) *)

type ('s, 'm) snapshot = {
  time : int;
  event : ('s, 'm) event;
  states : 's array;
  channels : (Pid.t * Pid.t * 'm list) list Lazy.t;
      (** materialized on first access: the engine's recorder keeps
          a copy of the network's persistent channel queues
          ({!Network.capture}), and the per-channel lists are built
          only for analyses that read them (memoized thereafter) *)
}

type ('s, 'm) t = ('s, 'm) snapshot list

val channels : ('s, 'm) snapshot -> (Pid.t * Pid.t * 'm list) list
(** [channels snap] forces and returns the nonempty-channel contents,
    in (src, dst) lexicographic order. *)

val map_states : ('s -> 'v) -> ('s, 'm) t -> ('v, 'm) t
(** [map_states f tr] maps every process state, e.g. projecting
    implementation states to graybox views. *)

val map_msgs : ('m -> 'p) -> ('s, 'm) t -> ('s, 'p) t
(** [map_msgs f tr] maps every message in events and channel snapshots,
    e.g. stripping oracle metadata from envelopes. *)
