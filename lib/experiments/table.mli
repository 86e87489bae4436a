(** Minimal aligned-column table printing for experiment reports, and
    the stopwatch behind their wall-clock columns. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] is [f ()] and the wall-clock seconds it took. *)

val print : header:string list -> string list list -> unit
(** Right-aligns numeric-looking cells, left-aligns the rest, pads to
    the widest cell per column, separates header with a rule. *)

val fi : int -> string
val ff : ?decimals:int -> float -> string
val fb : bool -> string
val fpct : float -> string
(** [fpct 0.0123] = ["1.23%"]. *)
