(* Raw little-endian 64-bit words over a Unix fd.  The staging buffer
   turns an int-array slice into bytes with Bytes.set_int64_le (a
   store, not a syscall, per word) so an append is one write(2); pread
   is implemented as lseek+read on a per-reader fd, which keeps the
   handles positionally independent without depending on a pread
   binding. *)

type t = {
  w_path : string;
  mutable w_fd : Unix.file_descr option;
  mutable w_words : int;
  mutable w_buf : Bytes.t;
  mutable removed : bool;
}

type reader = {
  mutable r_fd : Unix.file_descr option;
  mutable r_buf : Bytes.t;
  r_path : string;
}

let create ~dir ~prefix =
  let rec attempt tries =
    if tries = 0 then
      raise (Sys_error (Printf.sprintf "Blockfile.create: cannot create in %s" dir));
    (* stamp from a counter + pid so concurrent creators in one dir
       (shards, parallel tests) never collide; O_EXCL is the arbiter *)
    let name =
      Printf.sprintf "%s-%d-%d.blk" prefix (Unix.getpid ())
        (Random.bits () land 0xFFFFFF)
    in
    let path = Filename.concat dir name in
    match Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL ] 0o600 with
    | fd -> (path, fd)
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> attempt (tries - 1)
    | exception Unix.Unix_error (e, _, _) ->
      raise
        (Sys_error
           (Printf.sprintf "Blockfile.create: cannot create in %s: %s" dir
              (Unix.error_message e)))
  in
  let path, fd = attempt 100 in
  { w_path = path;
    w_fd = Some fd;
    w_words = 0;
    w_buf = Bytes.create 65536;
    removed = false }

let path t = t.w_path
let words t = t.w_words

let really_write fd buf len =
  let rec go off =
    if off < len then go (off + Unix.write fd buf off (len - off))
  in
  go 0

let append t (a : int array) ~off ~len =
  if off < 0 || len < 0 || off + len > Array.length a then
    invalid_arg "Blockfile.append: bad slice";
  let fd =
    match t.w_fd with
    | Some fd -> fd
    | None -> invalid_arg "Blockfile.append: closed"
  in
  let bytes = 8 * len in
  if Bytes.length t.w_buf < bytes then
    t.w_buf <- Bytes.create (max bytes (2 * Bytes.length t.w_buf));
  for i = 0 to len - 1 do
    Bytes.set_int64_le t.w_buf (8 * i) (Int64.of_int a.(off + i))
  done;
  really_write fd t.w_buf bytes;
  let at = t.w_words in
  t.w_words <- t.w_words + len;
  at

let close t =
  match t.w_fd with
  | None -> ()
  | Some fd ->
    t.w_fd <- None;
    Unix.close fd

let remove t =
  close t;
  if not t.removed then begin
    t.removed <- true;
    try Unix.unlink t.w_path with Unix.Unix_error _ -> ()
  end

let reader t =
  { r_fd = Some (Unix.openfile t.w_path [ Unix.O_RDONLY ] 0);
    r_buf = Bytes.create 65536;
    r_path = t.w_path }

let pread r ~woff (buf : int array) ~off ~len =
  if woff < 0 || len < 0 || off < 0 || off + len > Array.length buf then
    invalid_arg "Blockfile.pread: bad range";
  let fd =
    match r.r_fd with
    | Some fd -> fd
    | None -> invalid_arg "Blockfile.pread: closed"
  in
  let bytes = 8 * len in
  if Bytes.length r.r_buf < bytes then
    r.r_buf <- Bytes.create (max bytes (2 * Bytes.length r.r_buf));
  ignore (Unix.lseek fd (8 * woff) Unix.SEEK_SET);
  let rec go got =
    if got < bytes then begin
      let k = Unix.read fd r.r_buf got (bytes - got) in
      if k = 0 then
        invalid_arg
          (Printf.sprintf "Blockfile.pread: short read at word %d in %s" woff
             r.r_path);
      go (got + k)
    end
  in
  go 0;
  for i = 0 to len - 1 do
    buf.(off + i) <- Int64.to_int (Bytes.get_int64_le r.r_buf (8 * i))
  done

let close_reader r =
  match r.r_fd with
  | None -> ()
  | Some fd ->
    r.r_fd <- None;
    Unix.close fd
