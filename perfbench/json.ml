(* A small JSON value with a reader and a writer.  The repo's own
   [Chaos.Jsonx] only writes, and prints floats with six significant
   digits; benchmark records must round-trip every digit of a timing
   and be read back by [compare]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f ->
    if Float.is_finite f then Buffer.add_string buf (num_to_string f)
    else Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        write buf (Str k);
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what =
    raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos))
  in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> incr pos; skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
         | '"' | '\\' | '/' -> Buffer.add_char buf e
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' when !pos + 4 <= n ->
           let code = int_of_string ("0x" ^ String.sub s !pos 4) in
           pos := !pos + 4;
           Buffer.add_utf_8_uchar buf (Uchar.of_int code)
         | _ -> fail "bad escape");
        go ()
      | c -> Buffer.add_char buf c; go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do incr pos done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing data";
  v

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let expected what = raise (Parse_error ("expected " ^ what))
let to_num = function Num f -> f | _ -> expected "a number"
let to_str = function Str s -> s | _ -> expected "a string"
let to_list = function Arr xs -> xs | _ -> expected "an array"
let to_obj = function Obj kvs -> kvs | _ -> expected "an object"
