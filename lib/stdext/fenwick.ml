(* Fenwick (binary-indexed) tree over nonnegative integer weights.
   [tree] is the classic 1-based partial-sum array; [vals] shadows the
   current weight of every slot so point reads and assignments are O(1)
   and O(log n) respectively without a prefix subtraction. *)

type t = {
  n : int;
  tree : int array; (* 1-based: tree.(j) sums a binary-indexed block *)
  vals : int array; (* current weight per 0-based slot *)
  mutable total : int;
  topbit : int; (* largest power of two <= n, for [select]'s descent *)
}

let create n =
  if n < 0 then invalid_arg "Fenwick.create: need n >= 0";
  let topbit =
    let b = ref 1 in
    while 2 * !b <= n do
      b := 2 * !b
    done;
    if n = 0 then 0 else !b
  in
  { n; tree = Array.make (n + 1) 0; vals = Array.make (max n 1) 0; total = 0; topbit }

let length t = t.n

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Fenwick.get: index out of bounds";
  t.vals.(i)

let add t i delta =
  if i < 0 || i >= t.n then invalid_arg "Fenwick.add: index out of bounds";
  if t.vals.(i) + delta < 0 then invalid_arg "Fenwick.add: negative weight";
  t.vals.(i) <- t.vals.(i) + delta;
  t.total <- t.total + delta;
  let j = ref (i + 1) in
  while !j <= t.n do
    t.tree.(!j) <- t.tree.(!j) + delta;
    j := !j + (!j land - !j)
  done

(* An unchanged weight skips the tree walk: the scheduler re-sets every
   refreshed process, most of them to the weight they already had. *)
let set t i v =
  let delta = v - get t i in
  if delta <> 0 then add t i delta

let total t = t.total

let prefix t i =
  if i < 0 || i > t.n then invalid_arg "Fenwick.prefix: index out of bounds";
  let s = ref 0 and j = ref i in
  while !j > 0 do
    s := !s + t.tree.(!j);
    j := !j - (!j land - !j)
  done;
  !s

(* Binary-lifting descent: O(log n), no prefix recomputation.  What is
   left of [k] once the descent stops is its rank within the slot. *)
let select_rem t k =
  if k < 0 || k >= t.total then invalid_arg "Fenwick.select: rank out of range";
  let idx = ref 0 and rem = ref k and bit = ref t.topbit in
  while !bit > 0 do
    let next = !idx + !bit in
    if next <= t.n && t.tree.(next) <= !rem then begin
      idx := next;
      rem := !rem - t.tree.(next)
    end;
    bit := !bit / 2
  done;
  (!idx, !rem)

let select t k = fst (select_rem t k)
