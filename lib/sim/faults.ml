type chan_selector =
  | Any_chan
  | Chan of Pid.t * Pid.t
  | From of Pid.t
  | Into of Pid.t

type proc_selector = Any_proc | Proc of Pid.t

type heal_mode = Lossy | Buffered

type delay_dist =
  | Fixed of int
  | Uniform of int * int
  | Heavy_tail of { mean : int; cap : int }

type ('s, 'm) kind =
  | Drop of { chan : chan_selector; count : int; only : ('m -> bool) option }
  | Duplicate of { chan : chan_selector; count : int }
  | Corrupt_messages of
      { chan : chan_selector; count : int; f : Stdext.Rng.t -> 'm -> 'm }
  | Reorder of { chan : chan_selector; count : int }
  | Flush of chan_selector
  | Mutate_state of { proc : proc_selector; f : Stdext.Rng.t -> 's -> 's }
  | Reset_state of { proc : proc_selector; f : Pid.t -> 's }
  | Crash of { proc : proc_selector; until_t : int; lose_deliveries : bool }
  | Split of
      { groups : Pid.t list list;
        from_t : int;
        until_t : int;
        mode : heal_mode }
  | Delay of { chan : chan_selector; dist : delay_dist }
  | Heal

type ('s, 'm) event = { at : int; kind : ('s, 'm) kind }

type ('s, 'm) plan = ('s, 'm) event list

let label = function
  | Drop _ -> "drop"
  | Duplicate _ -> "duplicate"
  | Corrupt_messages _ -> "corrupt-msg"
  | Reorder _ -> "reorder"
  | Flush _ -> "flush"
  | Mutate_state _ -> "mutate-state"
  | Reset_state _ -> "reset-state"
  | Crash _ -> "crash"
  | Split _ -> "split"
  | Delay _ -> "delay"
  | Heal -> "heal"

let at time kind = { at = time; kind }

let due plan t =
  let fired, rest = List.partition (fun e -> e.at <= t) plan in
  (List.map (fun e -> e.kind) fired, rest)

let first_time plan = List.fold_left (fun acc e -> min acc e.at) max_int plan

let last_time = function
  | [] -> -1
  | plan -> List.fold_left (fun acc e -> max acc e.at) min_int plan

let select_chans ~n = function
  | Chan (src, dst) -> [ (src, dst) ]
  | Any_chan ->
    List.concat_map
      (fun src -> List.map (fun dst -> (src, dst)) (Pid.others ~self:src ~n))
      (Pid.range n)
  | From src -> List.map (fun dst -> (src, dst)) (Pid.others ~self:src ~n)
  | Into dst -> List.map (fun src -> (src, dst)) (Pid.others ~self:dst ~n)

let select_procs ~n = function
  | Any_proc -> Pid.range n
  | Proc p -> [ p ]

(* Pids not named by any group form one implicit remainder group, so a
   two-sided partition can be written as a single group. *)
let split_groups ~n groups =
  let groups =
    List.filter_map
      (fun g ->
        match List.filter (fun p -> p >= 0 && p < n) g with
        | [] -> None
        | g -> Some g)
      groups
  in
  let listed = List.concat groups in
  match List.filter (fun p -> not (List.mem p listed)) (Pid.range n) with
  | [] -> groups
  | remainder -> groups @ [ remainder ]

let cross_pairs ~n groups =
  let gid = Array.make n (-1) in
  List.iteri
    (fun i g -> List.iter (fun p -> gid.(p) <- i) g)
    (split_groups ~n groups);
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst -> if gid.(src) <> gid.(dst) then Some (src, dst) else None)
        (Pid.others ~self:src ~n))
    (Pid.range n)

let draw_delay dist rng =
  match dist with
  | Fixed d -> max 0 d
  | Uniform (lo, hi) ->
    let lo = max 0 lo in
    Stdext.Rng.int_in rng lo (max lo hi)
  | Heavy_tail { mean; cap } ->
    (* inverse-transform exponential with the given mean, truncated at
       [cap]: most messages see a short delay, a few see a long one *)
    let mean = float_of_int (max 1 mean) in
    let u = Stdext.Rng.float rng 1.0 in
    min (max 0 cap) (int_of_float (-.mean *. log (1.0 -. u)))
