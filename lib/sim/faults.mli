(** Fault injection: the paper's §3.1 fault model, as data — extended
    with the production fault family the paper never ran (group
    partitions that heal, and per-link delivery delays).

    "Messages may be corrupted, lost, or duplicated at any time.
    Processes (respectively channels) can be improperly initialized,
    fail, recover, or their state could be transiently (and
    arbitrarily) corrupted at any time.  Stabilization is desired
    notwithstanding the occurrence of any finite number of these
    faults."

    A fault {!kind} describes one transient corruption; a {!plan}
    schedules finitely many of them at simulated times.  Kinds that
    need protocol knowledge (message corruption, state corruption,
    improper re-initialization) carry their mutation as a closure, so
    the engine stays protocol-agnostic while protocols decide what
    "arbitrary corruption" means for their representation. *)

type chan_selector =
  | Any_chan            (** every channel *)
  | Chan of Pid.t * Pid.t  (** one directed channel [src → dst] *)
  | From of Pid.t       (** all channels leaving a process *)
  | Into of Pid.t       (** all channels entering a process *)

type proc_selector = Any_proc | Proc of Pid.t

type heal_mode =
  | Lossy
      (** cross-partition messages are {e lost} for the window — the
          classic severed-link case *)
  | Buffered
      (** cross-partition messages queue for the window and flood in
          at heal time — the stress case for stabilization *)

(** Per-link delivery-delay distribution, in scheduler steps.  Draws
    come from the engine's fault RNG, so delayed runs stay
    seed-deterministic. *)
type delay_dist =
  | Fixed of int  (** every message waits exactly this many steps *)
  | Uniform of int * int  (** uniform in [\[lo, hi\]] *)
  | Heavy_tail of { mean : int; cap : int }
      (** exponential with the given mean, truncated at [cap]: most
          messages are barely delayed, a few straggle *)

type ('s, 'm) kind =
  | Drop of { chan : chan_selector; count : int; only : ('m -> bool) option }
      (** Lose up to [count] messages per selected channel, front-first,
          restricted to messages matching [only] when given. *)
  | Duplicate of { chan : chan_selector; count : int }
      (** Duplicate up to [count] messages per selected channel. *)
  | Corrupt_messages of
      { chan : chan_selector; count : int; f : Stdext.Rng.t -> 'm -> 'm }
      (** Replace up to [count] messages per selected channel by
          corrupted versions. *)
  | Reorder of { chan : chan_selector; count : int }
      (** Move up to [count] random messages per selected channel to
          the channel's back: a transient FIFO violation. *)
  | Flush of chan_selector
      (** Empty the selected channels (channel failure/recovery). *)
  | Mutate_state of { proc : proc_selector; f : Stdext.Rng.t -> 's -> 's }
      (** Transient arbitrary corruption of process state. *)
  | Reset_state of { proc : proc_selector; f : Pid.t -> 's }
      (** Improper (re)initialization: replace a process's state
          wholesale, e.g. with a fresh-but-wrong initial state. *)
  | Crash of { proc : proc_selector; until_t : int; lose_deliveries : bool }
      (** Process failure and recovery ("processes … fail, recover"): from
          the moment of injection until simulated time [until_t] the
          selected processes take no internal actions and receive no
          deliveries.  With [lose_deliveries] their inbound channels are
          emptied for the whole crash window (messages sent to a dead
          process are lost); otherwise deliveries merely stall and resume
          after recovery.  State survives the crash — combine with
          [Reset_state] for crash-with-amnesia.  A window that has already
          elapsed ([until_t] at or before the injection time) is a
          no-op. *)
  | Split of
      { groups : Pid.t list list;
        from_t : int;
        until_t : int;
        mode : heal_mode }
      (** Group partition: from injection (scheduled at [from_t]) until
          [until_t], {e every} channel between processes in different
          groups is down.  Pids not named by any group form one
          implicit remainder group, so [\[\[0; 1\]\]] over n = 3 means
          [{0,1} | {2}].  [mode] decides the fate of cross-partition
          traffic: {!Lossy} loses it (in-flight messages included),
          {!Buffered} holds it and delivers everything after the heal.
          Processes keep taking internal actions throughout — only
          cross-group channels are affected. *)
  | Delay of { chan : chan_selector; dist : delay_dist }
      (** From injection on, every message sent over the selected
          channels is delivered no earlier than [send time + draw],
          with draws from [dist] — asymmetric link delays ([Chan]/
          [From]/[Into] select directions independently).  Per-channel
          FIFO order is preserved: delays stage {e readiness}, they do
          not reorder. *)
  | Heal
      (** A no-op marker recorded as a fault event.  {!Split} lowering
          schedules one at [until_t] so convergence (and recovery
          latency) is measured from the heal, not from the moment the
          partition began. *)

type ('s, 'm) event = { at : int; kind : ('s, 'm) kind }

type ('s, 'm) plan = ('s, 'm) event list

val label : ('s, 'm) kind -> string
(** [label k] is a short trace tag, e.g. ["drop"], ["split"], ["heal"]. *)

val at : int -> ('s, 'm) kind -> ('s, 'm) event

val due : ('s, 'm) plan -> int -> ('s, 'm) kind list * ('s, 'm) plan
(** [due plan t] splits off the kinds scheduled at time [<= t]
    (in schedule order) from the remainder of the plan. *)

val first_time : ('s, 'm) plan -> int
(** [first_time plan] is the earliest scheduled time, [max_int] for the
    empty plan: {!due} fires nothing before it. *)

val last_time : ('s, 'm) plan -> int
(** [last_time plan] is the latest scheduled time, [-1] for the empty
    plan — convergence is measured from this point on. *)

val select_chans : n:int -> chan_selector -> (Pid.t * Pid.t) list
(** [select_chans ~n sel] expands a selector over [n] processes into
    directed pairs (excluding self-loops). *)

val select_procs : n:int -> proc_selector -> Pid.t list

val split_groups : n:int -> Pid.t list list -> Pid.t list list
(** [split_groups ~n groups] normalizes a {!Split}'s group list:
    out-of-range pids and empty groups are dropped, and unlisted pids
    are appended as one implicit remainder group. *)

val cross_pairs : n:int -> Pid.t list list -> (Pid.t * Pid.t) list
(** [cross_pairs ~n groups] lists every directed channel that crosses
    the partition described by [groups] (after {!split_groups}
    normalization) — the channels a {!Split} takes down. *)

val draw_delay : delay_dist -> Stdext.Rng.t -> int
(** [draw_delay dist rng] samples one non-negative delay. *)
