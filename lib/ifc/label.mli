(** Security labels: a powerset lattice of confidentiality taints.

    A label is the set of categories that have tainted a piece of data
    ("secret", "client-3", ...). The lattice is ordered by subset:
    [public] (the empty set) is ⊥; joining accumulates taints. A flow
    of data labelled [l] into a channel bounded by [b] is legal iff
    [leq l b] — the channel may carry at most the taints in its bound.

    This is the decentralised-label-model-style lattice the paper's §4
    needs: the two-point secret/non-secret lattice of the Buffer
    listing is the special case of a single category, and the secure
    data store's per-client privileges are categories [client-i]. *)

type t

val public : t
(** ⊥ — untainted data; flows anywhere. *)

val of_list : string list -> t
val singleton : string -> t

val secret : t
(** [of_list \["secret"\]] — the annotation of the paper's listing. *)

val join : t -> t -> t
val leq : t -> t -> bool
val equal : t -> t -> bool
val is_public : t -> bool

val cardinal : t -> int

val fold : (string -> 'a -> 'a) -> t -> 'a -> 'a
(** Over the categories in sorted order, without building the list. *)

val to_string : t -> string
(** ["public"] or ["{a,b}"]. *)

val pp : Format.formatter -> t -> unit
