(** Deterministic binary wire primitives for the durable checkpoint
    store ({!Durable}).

    Everything is fixed-width big-endian, so the bytes a writer
    produces are a pure function of the values written — no varints, no
    platform endianness, no padding. Readers are cursors over an
    immutable string; running off the end raises {!Truncated} carrying
    the section label the caller supplied, which {!Durable} turns into
    its deterministic [Truncated] rejection (the label, not the byte
    offset, is what recovery telemetry and goldens see — byte offsets
    would leak layout details into CI diffs). *)

exception Truncated of string
(** Raised by the [r_*] readers when fewer bytes remain than the field
    needs. The payload is the [section] label of the enclosing
    {!with_section} (or ["wire"] outside any). *)

val fnv64 : string -> int64
(** Standard 64-bit FNV-1a over the whole string — the content hash
    that names pool chunks {e and} the per-chunk checksum (one function,
    two roles: a chunk whose bytes hash to [h] lives at
    [chunks/<h>.chunk], and a loaded chunk is valid iff its bytes still
    hash to the name).

    Allocation-free: it allocates only its boxed result, nothing per
    byte. Each byte is one 64-bit multiply that waits on the previous
    one, so one string hashes at multiply latency; hash many at once
    with {!fnv64_many}. *)

val fnv64_many : string array -> int64 array
(** [fnv64_many a] is [Array.map fnv64 a], bit for bit, computed four
    strings at a time: four independent FNV-1a chains run side by side
    over the common prefix of four payloads (grouped by length), so
    their multiplies overlap, and each chain then finishes its own
    tail. It allocates a constant per string, nothing per byte. This is
    what {!Durable} hashes a save's payloads and a manifest's chunks
    with. *)

val hex_of_hash : int64 -> string
(** 16 lowercase hex digits, zero-padded — the pool filename stem. *)

(** {2 Writing} *)

val w_u8 : Buffer.t -> int -> unit
val w_u32 : Buffer.t -> int -> unit
(** Raises [Invalid_argument] outside [\[0, 2^32)]. *)

val w_i64 : Buffer.t -> int64 -> unit

val w_string : Buffer.t -> string -> unit
(** Length-prefixed: [w_u32 (length s)] then the bytes. *)

(** {2 Reading} *)

type reader

val reader : string -> reader
val with_section : reader -> string -> (unit -> 'a) -> 'a
(** Label truncation errors raised inside [f]. Sections nest; the
    innermost label wins. *)

val r_u8 : reader -> int
val r_u32 : reader -> int
val r_i64 : reader -> int64
val r_string : reader -> string
val r_bytes : reader -> int -> string
val pos : reader -> int
val remaining : reader -> int
val at_end : reader -> bool
