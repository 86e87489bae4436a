(** Packet buffer storage: one off-heap {!Bigarray} slab per
    {!Mempool}, sliced into fixed slot views — the GC never scans
    payload memory. Every accessor bounds-checks against the buffer's
    own length and raises [Invalid_argument] out of range. *)

type buf
(** One packet buffer: a [Bigarray.Array1] view of its pool's slab
    (or a free-standing one-slot slab), with no box around it. *)

val of_bytes : Bytes.t -> buf
(** A free-standing buffer holding a {e copy} of the argument (tests,
    scratch packets): later writes to the [Bytes.t] are not seen. *)

val make_slots : slots:int -> bytes:int -> buf array
(** [make_slots ~slots ~bytes] allocates one zero-filled slab for the
    pool and returns its disjoint per-slot views. *)

val length : buf -> int

val unsafe_get : buf -> int -> char
val unsafe_set : buf -> int -> char -> unit

val get_u8 : buf -> int -> int
val set_u8 : buf -> int -> int -> unit
val get_u16_be : buf -> int -> int
val set_u16_be : buf -> int -> int -> unit

val sum_be_words : buf -> int -> words:int -> int
(** [sum_be_words buf off ~words] is the plain integer sum of [words]
    consecutive big-endian 16-bit words starting at [off] — the RFC
    1071 inner loop, bounds-checked once for the whole window. *)

val blit : buf -> int -> buf -> int -> int -> unit
(** Overlap-safe, memmove semantics (within one buffer too). Like
    every copy here it moves 8 bytes per access and raises
    [Invalid_argument] before writing when a window is out of range. *)

val blit_bytes : Bytes.t -> int -> buf -> int -> int -> unit
val blit_string : string -> int -> buf -> int -> int -> unit
val blit_to_bytes : buf -> int -> Bytes.t -> int -> int -> unit

val sub_string : buf -> int -> int -> string

(** {1 For tests}

    oracle, hook: byte access the slab and rx oracle tests read and
    corrupt frames with. *)

val get : buf -> int -> char

val set : buf -> int -> char -> unit
