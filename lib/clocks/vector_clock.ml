type t = int array

let create ~n =
  if n <= 0 then invalid_arg "Vector_clock.create: need n > 0";
  Array.make n 0

let dim = Array.length

let check v i =
  if i < 0 || i >= Array.length v then
    invalid_arg "Vector_clock: component out of range"

let get v i =
  check v i;
  v.(i)

let tick v i =
  check v i;
  let v' = Array.copy v in
  v'.(i) <- v'.(i) + 1;
  v'

let merge a b =
  let n = Array.length a in
  if n <> Array.length b then
    invalid_arg "Vector_clock.merge: dimension mismatch";
  let c = Array.copy a in
  for i = 0 to n - 1 do
    if b.(i) > c.(i) then c.(i) <- b.(i)
  done;
  c

let leq (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) <= b.(!i) do incr i done;
  !i = n

let equal a b = a = b

(* one pass: every component [<=], at least one [<] *)
let lt (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 and strict = ref false in
  while !i < n && a.(!i) <= b.(!i) do
    if a.(!i) < b.(!i) then strict := true;
    incr i
  done;
  !i = n && !strict

let concurrent a b = (not (leq a b)) && not (leq b a)

let set v i x =
  check v i;
  let v' = Array.copy v in
  v'.(i) <- x;
  v'

let to_list = Array.to_list

let of_list = Array.of_list

let pp ppf v =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    (to_list v)
