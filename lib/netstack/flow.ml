type protocol = Tcp | Udp

type t = {
  src_ip : int32;
  dst_ip : int32;
  src_port : int;
  dst_port : int;
  protocol : protocol;
}

let make ~src_ip ~dst_ip ~src_port ~dst_port ~protocol =
  { src_ip; dst_ip; src_port; dst_port; protocol }

(* Flows on the data path are interned by the traffic generator, so
   the physical test settles most comparisons in one instruction. *)
let equal a b =
  a == b
  || Int32.equal a.src_ip b.src_ip
     && Int32.equal a.dst_ip b.dst_ip
     && a.src_port = b.src_port
     && a.dst_port = b.dst_port
     && a.protocol = b.protocol

let compare = Stdlib.compare

let protocol_to_string = function Tcp -> "tcp" | Udp -> "udp"
let protocol_number = function Tcp -> 6 | Udp -> 17

(* FNV-1a in native int arithmetic. The historical implementation ran
   the chain in Int64 and masked the *final* accumulator to 62 bits;
   since xor is bitwise and the low k bits of a product depend only on
   the low k bits of its operands, masking every step to 62 bits
   yields the same final value — so this allocation-free version is
   bit-identical to the boxed one (qcheck-verified in
   test_packet_fast) while never leaving the immediate int range. *)
let mask62 = 0x3FFFFFFFFFFFFFFF
let fnv_prime = 0x100000001B3
let basis1 = 0x0BF29CE484222325 (* 0xCBF29CE484222325 land mask62 *)
let basis2 = 0x04222325CBF29CE4 (* 0x84222325CBF29CE4 land mask62 *)

let[@inline] feed acc byte = ((acc lxor (byte land 0xff)) * fnv_prime) land mask62

(* Feed a 32-bit value least-significant byte first, as the Int64
   implementation did via [Int32.shift_right_logical]. *)
let[@inline] feed_u32 acc v =
  let acc = feed acc v in
  let acc = feed acc (v lsr 8) in
  let acc = feed acc (v lsr 16) in
  feed acc (v lsr 24)

(* The packed 5-tuple fed from already-unboxed fields: what a batch
   uses to derive its flow memo from the header-plane columns.
   [src_ip]/[dst_ip] are the raw unsigned 32-bit values. *)
let fnv_raw basis ~src_ip ~dst_ip ~src_port ~dst_port ~proto =
  let acc = feed_u32 basis src_ip in
  let acc = feed_u32 acc dst_ip in
  let acc = feed acc src_port in
  let acc = feed acc (src_port lsr 8) in
  let acc = feed acc dst_port in
  let acc = feed acc (dst_port lsr 8) in
  feed acc proto

let fnv basis t =
  fnv_raw basis
    ~src_ip:(Int32.to_int t.src_ip land 0xFFFFFFFF)
    ~dst_ip:(Int32.to_int t.dst_ip land 0xFFFFFFFF)
    ~src_port:t.src_port ~dst_port:t.dst_port
    ~proto:(protocol_number t.protocol)

let hash t = fnv basis1 t
let hash2 t = fnv basis2 t

type flow = t

module Key = struct
  type nonrec t = int

  (* A 97-bit 5-tuple cannot be packed injectively into one immediate
     int, and no hot-path consumer needs it to be: RSS buckets, the
     Maglev table index and the heavy-hitter hash probes all key on
     [hash]. The packed key therefore *is* the 62-bit FNV of the tuple,
     always non-negative. *)
  let pack ~src_ip ~dst_ip ~src_port ~dst_port ~proto =
    fnv_raw basis1 ~src_ip ~dst_ip ~src_port ~dst_port ~proto

  let of_flow = hash
end

let pp ppf t =
  let ip v =
    Printf.sprintf "%ld.%ld.%ld.%ld"
      (Int32.logand (Int32.shift_right_logical v 24) 0xFFl)
      (Int32.logand (Int32.shift_right_logical v 16) 0xFFl)
      (Int32.logand (Int32.shift_right_logical v 8) 0xFFl)
      (Int32.logand v 0xFFl)
  in
  Format.fprintf ppf "%s %s:%d -> %s:%d"
    (protocol_to_string t.protocol)
    (ip t.src_ip) t.src_port (ip t.dst_ip) t.dst_port
