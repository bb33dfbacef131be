type ('s, 'm) event =
  | Init
  | Deliver of { src : Pid.t; dst : Pid.t; msg : 'm }
  | Internal of { pid : Pid.t; label : string }
  | Fault of { label : string }
  | Stutter

type ('s, 'm) snapshot = {
  time : int;
  event : ('s, 'm) event;
  states : 's array;
  channels : (Pid.t * Pid.t * 'm list) list Lazy.t;
}

type ('s, 'm) t = ('s, 'm) snapshot list

let channels snap = Lazy.force snap.channels

let map_event : ('s, 'm) event -> ('v, 'm) event = function
  | Init -> Init
  | Deliver { src; dst; msg } -> Deliver { src; dst; msg }
  | Internal { pid; label } -> Internal { pid; label }
  | Fault { label } -> Fault { label }
  | Stutter -> Stutter

let map_states f tr =
  List.map
    (fun snap ->
      { time = snap.time;
        event = map_event snap.event;
        states = Array.map f snap.states;
        channels = snap.channels })
    tr

let map_msgs f tr =
  let map_event : ('s, 'm) event -> ('s, 'p) event = function
    | Init -> Init
    | Deliver { src; dst; msg } -> Deliver { src; dst; msg = f msg }
    | Internal { pid; label } -> Internal { pid; label }
    | Fault { label } -> Fault { label }
    | Stutter -> Stutter
  in
  List.map
    (fun snap ->
      { time = snap.time;
        event = map_event snap.event;
        states = snap.states;
        channels =
          lazy
            (List.map
               (fun (src, dst, ms) -> (src, dst, List.map f ms))
               (Lazy.force snap.channels)) })
    tr
