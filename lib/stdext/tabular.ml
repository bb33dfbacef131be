type row = Cells of string list | Sep

type t = {
  headers : string list;
  mutable rows : row list; (* reversed *)
}

let create headers = { headers; rows = [] }

let pad_to n filler cells =
  let len = List.length cells in
  if len >= n then List.filteri (fun i _ -> i < n) cells
  else cells @ List.init (n - len) (fun _ -> filler)

let add_row t cells =
  let cells = pad_to (List.length t.headers) "" cells in
  t.rows <- Cells cells :: t.rows

let add_sep t = t.rows <- Sep :: t.rows

let render t =
  let ncols = List.length t.headers in
  let rows = List.rev t.rows in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri
      (fun i c -> if i < ncols then widths.(i) <- max widths.(i) (String.length c))
      cells
  in
  measure t.headers;
  List.iter (function Cells c -> measure c | Sep -> ()) rows;
  let buf = Buffer.create 1024 in
  (* the label column is left-aligned, the measurements right *)
  let emit_cells cells =
    List.iteri
      (fun i c ->
        let w = widths.(i) in
        let pad = String.make (w - String.length c) ' ' in
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (if i = 0 then c ^ pad else pad ^ c))
      cells;
    Buffer.add_char buf '\n'
  in
  let rule () =
    Array.iteri
      (fun i w ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (String.make w '-'))
      widths;
    Buffer.add_char buf '\n'
  in
  emit_cells t.headers;
  rule ();
  List.iter (function Cells c -> emit_cells c | Sep -> rule ()) rows;
  Buffer.contents buf

let print ?title t =
  (match title with
   | Some s ->
     print_newline ();
     print_endline s;
     print_endline (String.make (String.length s) '=')
   | None -> ());
  print_string (render t);
  flush stdout

let cell_int = string_of_int

let cell_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x

let cell_bool b = if b then "yes" else "no"
