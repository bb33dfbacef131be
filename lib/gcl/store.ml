open Clocks
module SMap = Map.Make (String)

module Domain = struct
  type t =
    | D_bool
    | D_nat of int
    | D_mode
    | D_own_ts
    | D_peer_ts_map
    | D_pid_set
end

module Value = struct
  type t =
    | V_bool of bool
    | V_nat of int
    | V_mode of Graybox.View.mode
    | V_own_ts of Timestamp.t
    | V_peer_ts_map of Timestamp.t Sim.Pid.Map.t
    | V_pid_set of Sim.Pid.Set.t

  let peers ~self ~n = Sim.Pid.others ~self ~n

  let in_domain ~self ~n domain v =
    match domain, v with
    | Domain.D_bool, V_bool _ -> true
    | Domain.D_nat _, V_nat x -> x >= 0
    | Domain.D_mode, V_mode _ -> true
    | Domain.D_own_ts, V_own_ts ts ->
      ts.Timestamp.pid = self && ts.Timestamp.clock >= 0
    | Domain.D_peer_ts_map, V_peer_ts_map m ->
      (* keys range over the peers; an absent key reads as the zero
         timestamp ({!map_entry}), so the domain admits any subset —
         large systems keep the map sparse *)
      Sim.Pid.Map.for_all (fun k _ -> k >= 0 && k < n && k <> self) m
    | Domain.D_pid_set, V_pid_set s ->
      Sim.Pid.Set.for_all (fun p -> p >= 0 && p < n && p <> self) s
    | ( ( Domain.D_bool | Domain.D_nat _ | Domain.D_mode | Domain.D_own_ts
        | Domain.D_peer_ts_map | Domain.D_pid_set ),
        _ ) ->
      false

  let random rng ~self ~n domain =
    let open Stdext in
    let random_clock () = Rng.int rng 64 in
    match domain with
    | Domain.D_bool -> V_bool (Rng.bool rng)
    | Domain.D_nat k -> V_nat (Rng.int rng (k + 1))
    | Domain.D_mode ->
      V_mode
        (match Rng.int rng 3 with
         | 0 -> Graybox.View.Thinking
         | 1 -> Graybox.View.Hungry
         | _ -> Graybox.View.Eating)
    | Domain.D_own_ts ->
      V_own_ts (Timestamp.make ~clock:(random_clock ()) ~pid:self)
    | Domain.D_peer_ts_map ->
      V_peer_ts_map
        (List.fold_left
           (fun m k ->
             Sim.Pid.Map.add k
               (Timestamp.make ~clock:(random_clock ()) ~pid:(Rng.int rng n))
               m)
           Sim.Pid.Map.empty (peers ~self ~n))
    | Domain.D_pid_set ->
      V_pid_set
        (List.fold_left
           (fun s k -> if Rng.bool rng then Sim.Pid.Set.add k s else s)
           Sim.Pid.Set.empty (peers ~self ~n))
end

type schema = (string * Domain.t) list

type t = {
  self : Sim.Pid.t;
  n : int;
  schema : schema;
  values : Value.t SMap.t;
}

let create schema ~self ~n bindings =
  let expected = List.sort compare (List.map fst schema) in
  let given = List.sort compare (List.map fst bindings) in
  if expected <> given then
    invalid_arg "Store.create: bindings do not match the schema";
  List.iter
    (fun (name, v) ->
      let domain = List.assoc name schema in
      if not (Value.in_domain ~self ~n domain v) then
        invalid_arg (Printf.sprintf "Store.create: %s out of domain" name))
    bindings;
  { self;
    n;
    schema;
    values = List.fold_left (fun m (k, v) -> SMap.add k v m) SMap.empty bindings }

let self t = t.self
let size t = t.n
let schema t = t.schema

let fetch t name =
  match SMap.find_opt name t.values with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Store: unknown variable %s" name)

let update t name v =
  let domain =
    match List.assoc_opt name t.schema with
    | Some d -> d
    | None -> invalid_arg (Printf.sprintf "Store: unknown variable %s" name)
  in
  if not (Value.in_domain ~self:t.self ~n:t.n domain v) then
    invalid_arg (Printf.sprintf "Store: %s assignment out of domain" name);
  { t with values = SMap.add name v t.values }

let type_error name = invalid_arg (Printf.sprintf "Store: %s wrong type" name)

let get_bool t name =
  match fetch t name with Value.V_bool b -> b | _ -> type_error name

let get_nat t name =
  match fetch t name with Value.V_nat x -> x | _ -> type_error name

let set_nat t name x = update t name (Value.V_nat x)

let get_mode t name =
  match fetch t name with Value.V_mode m -> m | _ -> type_error name

let set_mode t name m = update t name (Value.V_mode m)

let get_ts t name =
  match fetch t name with Value.V_own_ts ts -> ts | _ -> type_error name

let set_ts t name ts = update t name (Value.V_own_ts ts)

let get_map t name =
  match fetch t name with Value.V_peer_ts_map m -> m | _ -> type_error name

let map_entry t name k =
  if k < 0 || k >= t.n || k = t.self then
    invalid_arg (Printf.sprintf "Store: %s has no entry for %d" name k);
  match Sim.Pid.Map.find_opt k (get_map t name) with
  | Some ts -> ts
  | None -> Timestamp.zero ~pid:k

(* Single-entry writes happen per delivered message, so this validates
   only the touched key instead of re-checking the whole map through
   [update] — with a valid key, domain membership is preserved. *)
let set_map_entry t name k ts =
  let m = get_map t name in
  if k < 0 || k >= t.n || k = t.self then
    invalid_arg (Printf.sprintf "Store: %s entry %d out of domain" name k);
  { t with
    values = SMap.add name (Value.V_peer_ts_map (Sim.Pid.Map.add k ts m)) t.values }

let get_set t name =
  match fetch t name with Value.V_pid_set s -> s | _ -> type_error name

let set_set t name s = update t name (Value.V_pid_set s)

let add_to_set t name p = set_set t name (Sim.Pid.Set.add p (get_set t name))

let remove_from_set t name p =
  set_set t name (Sim.Pid.Set.remove p (get_set t name))

let corrupt rng t =
  let open Stdext in
  List.fold_left
    (fun t (name, domain) ->
      if Rng.chance rng 0.5 then
        update t name (Value.random rng ~self:t.self ~n:t.n domain)
      else t)
    t t.schema

let well_formed t =
  List.for_all
    (fun (name, domain) ->
      Value.in_domain ~self:t.self ~n:t.n domain (fetch t name))
    t.schema
