open Clocks

type stamp = { epoch : int; vec : Vector_clock.t }

type t = {
  self : int;
  n : int;
  bound : int;
  epoch : int;
  vec : Vector_clock.t;
}

let create ~n ~bound ~self =
  if bound < 1 then invalid_arg "Rvc.create: bound must be >= 1";
  if self < 0 || self >= n then invalid_arg "Rvc.create: self out of range";
  { self; n; bound; epoch = 0; vec = Vector_clock.create ~n }

let self t = t.self
let epoch t = t.epoch
let bound t = t.bound
let vector t = t.vec

let read t = { epoch = t.epoch; vec = t.vec }

let local_event t = { t with vec = Vector_clock.tick t.vec t.self }

let send t =
  let t = local_event t in
  (t, read t)

let receive t (s : stamp) =
  if s.epoch > t.epoch then
    local_event { t with epoch = s.epoch; vec = s.vec }
  else if s.epoch = t.epoch then
    local_event { t with vec = Vector_clock.merge t.vec s.vec }
  else local_event t

let well_formed t =
  List.for_all
    (fun x -> x >= 0 && x <= t.bound)
    (Vector_clock.to_list t.vec)

let needs_reset t = not (well_formed t)

let reset t =
  { t with epoch = t.epoch + 1; vec = Vector_clock.create ~n:t.n }

let hb (a : stamp) (b : stamp) =
  if a.epoch <> b.epoch then None else Some (Vector_clock.lt a.vec b.vec)

let corrupt rng t =
  let open Stdext in
  let vec =
    List.fold_left
      (fun vec i ->
        if Rng.chance rng 0.4 then
          Vector_clock.set vec i (Rng.int_in rng (-2) (2 * t.bound))
        else vec)
      t.vec
      (List.init t.n Fun.id)
  in
  let epoch = if Rng.chance rng 0.2 then Rng.int rng (t.epoch + 2) else t.epoch in
  { t with vec; epoch }

let pp ppf t =
  Format.fprintf ppf "rvc[%d e=%d %a%s]" t.self t.epoch Vector_clock.pp t.vec
    (if well_formed t then "" else " ILL")
