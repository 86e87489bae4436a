(** The telemetry text table every experiment's golden ends with:
    one aligned row per metric, sorted by name, with fixed formats and
    no wall-clock anywhere — the output is byte-identical across runs
    of the same deterministic experiment. *)

val to_string : ?title:string -> Registry.t -> string
(** The table under a [-- title --] line (default ["telemetry"]).
    {!print} forwards its [title] here. For tests: [?title], which the
    golden cross-check sets on the string form. *)

val print : ?title:string -> Registry.t -> unit
