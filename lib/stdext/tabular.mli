(** Plain-text table rendering for experiment reports.

    The bench harness regenerates each experiment as an aligned ASCII
    table; this module owns the formatting so every table in
    [bench/main.exe]'s output reads uniformly. *)

type t

val create : string list -> t
(** [create headers] starts a table.  The first column is
    left-aligned and the rest right-aligned, the usual layout for a
    label column followed by measurements. *)

val add_row : t -> string list -> unit
(** [add_row t cells] appends a row.  Rows shorter than the header are
    padded with empty cells; longer rows are truncated. *)

val add_sep : t -> unit
(** [add_sep t] appends a horizontal separator row. *)

val render : t -> string
(** [render t] lays the table out with one space of padding, a header
    rule, and the alignments of {!create}. *)

val print : ?title:string -> t -> unit
(** [print ?title t] writes the rendered table (preceded by an
    underlined title if given) to standard output. *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_bool : bool -> string
(** Cell constructors with uniform formatting ([yes]/[no] for bools,
    fixed decimals for floats). *)
