(** Hierarchical naming: a scope is a registry plus a dotted prefix,
    so subsystems mint their metrics without string-pasting at every
    site — [Scope.v reg "sfi.null" |> Scope.counter _ "invocations"]
    resolves [sfi.null.invocations]. *)

type t

val v : Registry.t -> string -> t
(** Raises [Invalid_argument] on an empty prefix. *)

val counter : t -> string -> Counter.t
val gauge : t -> string -> Gauge.t
val histogram : t -> string -> Histogram.t
