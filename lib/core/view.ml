open Clocks

type mode = Thinking | Hungry | Eating

type t = {
  self : Sim.Pid.t;
  mode : mode;
  req : Timestamp.t;
  local_req : Timestamp.t Sim.Pid.Map.t;
  clock : int;
}

let make ~self ~mode ~req ~local_req ~clock =
  { self; mode; req; local_req; clock }

let thinking v = v.mode = Thinking
let hungry v = v.mode = Hungry
let eating v = v.mode = Eating

let local_req v k =
  match Sim.Pid.Map.find_opt k v.local_req with
  | Some ts -> ts
  | None -> Timestamp.zero ~pid:k

let earlier v ~than k = Timestamp.lt (local_req v k) than

let earliest v ~peers =
  List.for_all (fun k -> Timestamp.lt v.req (local_req v k)) peers

let mode_to_string = function
  | Thinking -> "t"
  | Hungry -> "h"
  | Eating -> "e"

let pp ppf v =
  Format.fprintf ppf "@[<h>%d:%s req=%a lc=%d [%a]@]" v.self
    (mode_to_string v.mode) Timestamp.pp v.req v.clock
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       (fun ppf (k, ts) -> Format.fprintf ppf "%d:%a" k Timestamp.pp ts))
    (Sim.Pid.Map.bindings v.local_req)
