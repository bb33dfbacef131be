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

let length = List.length

let nth = List.nth

let events tr = List.map (fun snap -> snap.event) tr

let last_fault_index tr =
  let _, found =
    List.fold_left
      (fun (i, found) snap ->
        match snap.event with
        | Fault _ -> (i + 1, Some i)
        | Init | Deliver _ | Internal _ | Stutter -> (i + 1, found))
      (0, None) tr
  in
  found

let rec suffix_from tr i =
  match tr with
  | rest when i <= 0 -> rest
  | [] -> []
  | _ :: rest -> suffix_from rest (i - 1)
