type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

(* SplitMix64 finalizer: xor-shift/multiply mix of the advancing
   counter; passes BigCrush and is trivially seedable. *)
let mix64 z =
  let z = Int64.logxor z (Int64.shift_right_logical z 30) in
  let z = Int64.mul z 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  let z = Int64.mul z 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = bits64 t in
  { state = mix64 seed }

let positive_int t =
  (* 62 usable bits keeps the result a nonnegative OCaml [int]. *)
  Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  positive_int t mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (bits64 t) 1L = 1L

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (x /. 9007199254740992.0 (* 2^53 *))

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let pick_weighted t choices =
  let total =
    List.fold_left (fun acc (_, w) -> if w > 0 then acc + w else acc) 0 choices
  in
  if total <= 0 then invalid_arg "Rng.pick_weighted: no positive weight";
  let stop = int t total in
  let rec go acc = function
    | [] -> invalid_arg "Rng.pick_weighted: internal error"
    | (x, w) :: rest ->
      if w <= 0 then go acc rest
      else if stop < acc + w then x
      else go (acc + w) rest
  in
  go 0 choices

let shuffle t xs =
  for i = Array.length xs - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- tmp
  done

let shuffle_list t xs =
  let arr = Array.of_list xs in
  shuffle t arr;
  Array.to_list arr
