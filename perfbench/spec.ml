(* BENCHMARK.json: the benchmark's declared metrics, bounds and run
   length, read at run time so the file stays their single source. *)

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float option;  (* allowed worsening, as a share of the old median *)
}

type t = {
  run_seconds : int;
  end_to_end : metric list;
  per_layer : metric list;
}

let metric j =
  { name = Json.to_str (Json.member "name" j);
    unit_ = Json.to_str (Json.member "unit" j);
    lower_is_better = Json.to_str (Json.member "better" j) = "lower";
    bound =
      (match Json.member "bound" j with
       | Json.Null -> None
       | b -> Some (Json.to_num b)) }

let of_json j =
  { run_seconds = int_of_float (Json.to_num (Json.member "run_seconds" j));
    end_to_end = List.map metric (Json.to_list (Json.member "end_to_end" j));
    per_layer = List.map metric (Json.to_list (Json.member "per_layer" j)) }

let file = "BENCHMARK.json"

let load () =
  of_json (Json.of_string (In_channel.with_open_text file In_channel.input_all))
