type t = { pid : int; now : int }

let create ~pid = { pid; now = 0 }

let pid c = c.pid
let now c = c.now

let read c = Timestamp.make ~clock:c.now ~pid:c.pid

let tick c =
  let c = { c with now = c.now + 1 } in
  (c, read c)

let witness c (ts : Timestamp.t) = { c with now = Int.max c.now ts.clock }

let receive_event c (ts : Timestamp.t) =
  { c with now = Int.max c.now ts.clock + 1 }

let with_now c now = { c with now }

let pp ppf c = Format.fprintf ppf "lc(%d)=%d" c.pid c.now
