(** Connection 5-tuples and their hashing.

    Maglev ([§3]'s comparison network function) steers packets by
    hashing the connection 5-tuple; the traffic generators synthesise
    flows as 5-tuples directly. *)

type protocol = Tcp | Udp

type t = {
  src_ip : int32;
  dst_ip : int32;
  src_port : int;
  dst_port : int;
  protocol : protocol;
}

val make :
  src_ip:int32 -> dst_ip:int32 -> src_port:int -> dst_port:int -> protocol:protocol -> t

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** FNV-1a over the packed tuple; non-negative. Deterministic across
    runs (unlike [Hashtbl.hash] on boxed values it is specified here,
    so Maglev tables are stable artefacts). Computed in native int
    arithmetic — bit-identical to the historical Int64 chain masked to
    62 bits, but allocation-free. *)

val hash2 : t -> int
(** A second independent hash (FNV with a different offset basis), used
    by Maglev's (offset, skip) permutation pair. *)

type flow = t
(** Alias so {!Key.of_flow} can name the record type it consumes. *)

(** Packed immediate flow keys — the value memoised per packet slot
    by {!Batch}'s header plane so that pipeline stages stop re-parsing
    headers (and re-hashing tuples) on every hop. *)
module Key : sig
  type t = int
  (** [hash] of the tuple; always non-negative. *)

  val pack :
    src_ip:int -> dst_ip:int -> src_port:int -> dst_port:int -> proto:int -> t
  (** Pack a 5-tuple given as unboxed ints ([src_ip]/[dst_ip] are the
      raw unsigned 32-bit values, [proto] the IP protocol number).
      Equals [of_flow] of the corresponding flow record. *)

  val of_flow : flow -> t
end

val protocol_number : protocol -> int
(** 6 for TCP, 17 for UDP — the IP header protocol byte. *)

(** {1 For tests}

    oracle: the printers with which the property tests report a case
    their oracle rejects. *)

val pp : Format.formatter -> t -> unit

val protocol_to_string : protocol -> string
