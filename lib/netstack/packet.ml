type t = {
  buf : Slab.buf;
  mutable len : int;
  addr : int;
  slot : int;
}

let eth_header_bytes = 14
let ipv4_header_bytes = 20
let udp_header_bytes = 8
let tcp_header_bytes = 20

(* Byte-order helpers: network order is big-endian. 16-bit words go
   through {!Slab}'s word accessors; 32-bit quantities are composed
   from two word reads so the value stays an immediate int end to
   end — there is no boxed [int32] anywhere on the data path. *)
let[@inline] get_u8 b off = Slab.get_u8 b off
let[@inline] set_u8 b off v = Slab.set_u8 b off v
let[@inline] get_u16 b off = Slab.get_u16_be b off
let[@inline] set_u16 b off v = Slab.set_u16_be b off v

let[@inline] get_u32_int b off = (Slab.get_u16_be b off lsl 16) lor Slab.get_u16_be b (off + 2)

let[@inline] set_u32_int b off v =
  Slab.set_u16_be b off (v lsr 16);
  Slab.set_u16_be b (off + 2) v

let of_bytes ?(addr = 0) b = { buf = Slab.of_bytes b; len = 0; addr; slot = -1 }

(* Placeholder for empty array slots (batches, pipeline scratch): a
   plain array with a sentinel instead of an option array, because
   wrapping every stored packet in [Some] would allocate a box per
   packet on the fast path. Never observable: every holder guards it
   by a length. *)
let null = of_bytes Bytes.empty

let to_string t = Slab.sub_string t.buf 0 t.len

(* --- IPv4 header ---------------------------------------------------- *)

let ip_off = eth_header_bytes

let check_ipv4 t =
  if t.len < ip_off + ipv4_header_bytes then invalid_arg "Packet: truncated IPv4 header";
  let vihl = get_u8 t.buf ip_off in
  if vihl lsr 4 <> 4 then invalid_arg "Packet: not IPv4";
  if vihl land 0xf <> 5 then invalid_arg "Packet: IPv4 options unsupported"

(* RFC 1071 checksum of the 20-byte header, with the checksum field
   itself treated as zero: one contiguous pass over all ten words with
   the checksum word (word 5) subtracted back out — arithmetically
   identical to summing the nine live words, and the contiguous window
   lets {!Slab.sum_be_words} bounds-check once and skip the per-word
   backing dispatch. The raw sum is at most 9 * 0xffff, so two fold
   steps always clear the carries. *)
let ipv4_checksum_compute t =
  let b = t.buf in
  let sum = Slab.sum_be_words b ip_off ~words:10 - get_u16 b (ip_off + 10) in
  let sum = (sum land 0xffff) + (sum lsr 16) in
  let sum = (sum land 0xffff) + (sum lsr 16) in
  lnot sum land 0xffff

let install_checksum t = set_u16 t.buf (ip_off + 10) (ipv4_checksum_compute t)

let ipv4_checksum_ok t =
  check_ipv4 t;
  get_u16 t.buf (ip_off + 10) = ipv4_checksum_compute t

(* --- Crafting ------------------------------------------------------- *)

(* Deterministic payload: byte [i] of the payload is [i land 0xff], so
   any payload is a whole number of copies of this 256-byte ramp plus a
   prefix — filled by blits rather than a byte-at-a-time loop. *)
let payload_pattern = String.init 256 Char.chr

let fill_payload b pos bytes =
  let full = bytes / 256 in
  for k = 0 to full - 1 do
    Slab.blit_string payload_pattern 0 b (pos + (k * 256)) 256
  done;
  Slab.blit_string payload_pattern 0 b (pos + (full * 256)) (bytes - (full * 256))

(* Unchecked header writers for {!craft} only: the crafting path
   validates [total <= length buf] once up front, and every offset it
   writes is below [total], so per-field bounds checks are redundant —
   and measurable, since the NIC crafts every simulated packet. *)
let[@inline] uset b i v = Slab.unsafe_set b i (Char.unsafe_chr (v land 0xff))

let[@inline] uset16 b i v =
  uset b i (v lsr 8);
  uset b (i + 1) v

let frame_bytes protocol ~payload_bytes =
  eth_header_bytes + ipv4_header_bytes
  + (match protocol with Flow.Udp -> udp_header_bytes | Flow.Tcp -> tcp_header_bytes)
  + payload_bytes

(* The L4 header is written by a match on the protocol: a closure
   capturing [payload_bytes] would allocate on every template miss. *)
let craft t ~(flow : Flow.t) ~payload_bytes ~ttl =
  let total = frame_bytes flow.protocol ~payload_bytes in
  if total > Slab.length t.buf then invalid_arg "Packet.craft: buffer too small";
  if ttl < 0 || ttl > 255 then invalid_arg "Packet.craft: bad TTL";
  let b = t.buf in
  let src = Int32.to_int flow.Flow.src_ip land 0xFFFFFFFF in
  let dst = Int32.to_int flow.Flow.dst_ip land 0xFFFFFFFF in
  (* Ethernet: synthetic MACs derived from the IPs (byte [i] of a MAC
     is byte [i mod 4] of the IP); ethertype IPv4. *)
  let d0 = dst land 0xff and d1 = (dst lsr 8) land 0xff in
  let d2 = (dst lsr 16) land 0xff and d3 = (dst lsr 24) land 0xff in
  let s0 = src land 0xff and s1 = (src lsr 8) land 0xff in
  let s2 = (src lsr 16) land 0xff and s3 = (src lsr 24) land 0xff in
  uset b 0 d0; uset b 1 d1; uset b 2 d2; uset b 3 d3; uset b 4 d0; uset b 5 d1;
  uset b 6 s0; uset b 7 s1; uset b 8 s2; uset b 9 s3; uset b 10 s0; uset b 11 s1;
  uset16 b 12 0x0800;
  (* IPv4. *)
  let ip_len = total - eth_header_bytes in
  let ttl_proto = (ttl lsl 8) lor Flow.protocol_number flow.protocol in
  uset b ip_off 0x45;
  uset b (ip_off + 1) 0;
  uset16 b (ip_off + 2) ip_len;
  uset16 b (ip_off + 4) 0 (* identification *);
  uset16 b (ip_off + 6) 0x4000 (* DF, no fragments *);
  uset16 b (ip_off + 8) ttl_proto;
  uset16 b (ip_off + 12) (src lsr 16);
  uset16 b (ip_off + 14) src;
  uset16 b (ip_off + 16) (dst lsr 16);
  uset16 b (ip_off + 18) dst;
  (* RFC 1071 checksum, computed from the values just written instead
     of re-reading the header — same nine live words as
     {!ipv4_checksum_compute}. *)
  let sum =
    0x4500 + ip_len + 0x4000 + ttl_proto
    + (src lsr 16) + (src land 0xffff)
    + (dst lsr 16) + (dst land 0xffff)
  in
  let sum = (sum land 0xffff) + (sum lsr 16) in
  let sum = (sum land 0xffff) + (sum lsr 16) in
  uset16 b (ip_off + 10) (lnot sum land 0xffff);
  (* L4. *)
  let l4 = ip_off + ipv4_header_bytes in
  uset16 b l4 flow.src_port;
  uset16 b (l4 + 2) flow.dst_port;
  (match flow.protocol with
  | Flow.Udp ->
    (* Length; the checksum is optional over IPv4. *)
    uset16 b (l4 + 4) (udp_header_bytes + payload_bytes);
    uset16 b (l4 + 6) 0
  | Flow.Tcp ->
    (* Seq and ack 0; data offset 5 with PSH|ACK; window 0xffff;
       checksum elided; urgent pointer 0. *)
    uset16 b (l4 + 4) 0; uset16 b (l4 + 6) 0; uset16 b (l4 + 8) 0; uset16 b (l4 + 10) 0;
    uset16 b (l4 + 12) 0x5018; uset16 b (l4 + 14) 0xffff;
    uset16 b (l4 + 16) 0; uset16 b (l4 + 18) 0);
  fill_payload b (total - payload_bytes) payload_bytes;
  t.len <- total

(* --- Accessors ------------------------------------------------------ *)

let ethertype t =
  if t.len < eth_header_bytes then invalid_arg "Packet: truncated Ethernet header";
  get_u16 t.buf 12

let protocol_number t =
  check_ipv4 t;
  get_u8 t.buf (ip_off + 9)

let protocol t =
  match protocol_number t with
  | 6 -> Flow.Tcp
  | 17 -> Flow.Udp
  | p -> invalid_arg (Printf.sprintf "Packet: unsupported IP protocol %d" p)

let l4_off = ip_off + ipv4_header_bytes

let flow_of t =
  if ethertype t <> 0x0800 then invalid_arg "Packet: not IPv4 ethertype";
  let protocol = protocol t in
  if t.len < l4_off + 4 then invalid_arg "Packet: truncated L4 header";
  Flow.make
    ~src_ip:(Int32.of_int (get_u32_int t.buf (ip_off + 12)))
    ~dst_ip:(Int32.of_int (get_u32_int t.buf (ip_off + 16)))
    ~src_port:(get_u16 t.buf l4_off)
    ~dst_port:(get_u16 t.buf (l4_off + 2))
    ~protocol

let ttl t =
  check_ipv4 t;
  get_u8 t.buf (ip_off + 8)

let stored_checksum t =
  check_ipv4 t;
  get_u16 t.buf (ip_off + 10)

(* RFC 1624 incremental checksum update for a 16-bit word change. The
   sum of three 16-bit quantities carries at most twice. *)
let update_checksum_word t ~old_word ~new_word =
  let csum = get_u16 t.buf (ip_off + 10) in
  let sum = (lnot csum land 0xffff) + (lnot old_word land 0xffff) + new_word in
  let sum = (sum land 0xffff) + (sum lsr 16) in
  let sum = (sum land 0xffff) + (sum lsr 16) in
  set_u16 t.buf (ip_off + 10) (lnot sum land 0xffff)

let set_ttl t v =
  check_ipv4 t;
  if v < 0 || v > 255 then invalid_arg "Packet.set_ttl";
  let old_word = get_u16 t.buf (ip_off + 8) in
  set_u8 t.buf (ip_off + 8) v;
  update_checksum_word t ~old_word ~new_word:(get_u16 t.buf (ip_off + 8))

(* Unboxed 32-bit address accessors: the values are immediate ints on
   the whole data path (Maglev backend steering). The deprecated boxed
   [int32] wrappers are gone. *)

let dst_ip_int t =
  check_ipv4 t;
  get_u32_int t.buf (ip_off + 16)

let set_dst_ip_int t v =
  check_ipv4 t;
  let old_hi = get_u16 t.buf (ip_off + 16) and old_lo = get_u16 t.buf (ip_off + 18) in
  set_u32_int t.buf (ip_off + 16) v;
  update_checksum_word t ~old_word:old_hi ~new_word:(get_u16 t.buf (ip_off + 16));
  update_checksum_word t ~old_word:old_lo ~new_word:(get_u16 t.buf (ip_off + 18))

let src_ip_int t =
  check_ipv4 t;
  get_u32_int t.buf (ip_off + 12)

let src_port t =
  ignore (protocol t);
  if t.len < l4_off + 4 then invalid_arg "Packet: truncated L4 header";
  get_u16 t.buf l4_off

let dst_port t =
  ignore (protocol t);
  if t.len < l4_off + 4 then invalid_arg "Packet: truncated L4 header";
  get_u16 t.buf (l4_off + 2)

let l4_header_bytes t =
  match protocol t with Flow.Tcp -> tcp_header_bytes | Flow.Udp -> udp_header_bytes

let payload_offset t = l4_off + l4_header_bytes t

let ip_total_length t =
  check_ipv4 t;
  get_u16 t.buf (ip_off + 2)

let payload_length t = ip_total_length t + eth_header_bytes - payload_offset t

let read_payload_byte t i =
  let off = payload_offset t + i in
  if i < 0 || off >= t.len then invalid_arg "Packet.read_payload_byte: out of bounds";
  get_u8 t.buf off

(* --- Deferred header writeback (SoA column plane) -------------------- *)

(* Per-column dirty bits, shared with the {!Batch} header plane. Both
   columns a stage rewrites (TTL, destination IP) are IPv4 header
   words under the checksum. *)
let dirty_ttl = 1
let dirty_dst_ip = 2

(* One-pass materialization of deferred column writes: each dirty IPv4
   header word is written once and its RFC 1624 delta ([~old + new])
   accumulated in a register; the checksum field is then read and
   stored exactly once. Bit-identical to a chain of
   {!update_checksum_word} calls in any order: every fold chain over
   the same deltas computes [(total - 1) mod 0xffff + 1] (or 0 when the
   total is literally zero), so the store-per-stage path and this
   accumulate-then-store path agree on every byte. With no dirty bit
   the delta is zero and the fold stores the checksum word unchanged.
   Returns the checksum word now stored in the header, so the caller
   can refresh its own cached copy without a second read. *)
let apply_hdr t ~dirty ~ttl ~dst_ip =
  check_ipv4 t;
  let b = t.buf in
  let delta = ref 0 in
  if dirty land dirty_ttl <> 0 then begin
    let old_word = get_u16 b (ip_off + 8) in
    let new_word = ((ttl land 0xff) lsl 8) lor (old_word land 0xff) in
    set_u16 b (ip_off + 8) new_word;
    delta := !delta + (lnot old_word land 0xffff) + new_word
  end;
  if dirty land dirty_dst_ip <> 0 then begin
    let old_hi = get_u16 b (ip_off + 16) and old_lo = get_u16 b (ip_off + 18) in
    set_u32_int b (ip_off + 16) dst_ip;
    delta :=
      !delta
      + (lnot old_hi land 0xffff)
      + ((dst_ip lsr 16) land 0xffff)
      + (lnot old_lo land 0xffff)
      + (dst_ip land 0xffff)
  end;
  (* delta <= 3 words * 2 * 0xffff, so with the checksum complement
     added the raw sum stays below 0x70000: two folds clear it. *)
  let csum = get_u16 b (ip_off + 10) in
  let sum = (lnot csum land 0xffff) + !delta in
  let sum = (sum land 0xffff) + (sum lsr 16) in
  let sum = (sum land 0xffff) + (sum lsr 16) in
  let csum' = lnot sum land 0xffff in
  set_u16 b (ip_off + 10) csum';
  csum'

(* --- GRE encapsulation ----------------------------------------------- *)

let gre_overhead_bytes = ipv4_header_bytes + 4

let encap_gre t ~outer_src ~outer_dst =
  check_ipv4 t;
  if t.len + gre_overhead_bytes > Slab.length t.buf then
    invalid_arg "Packet.encap_gre: buffer too small";
  let inner_bytes = t.len - ip_off in
  (* Shift the inner IPv4 packet right to make room for outer IP + GRE. *)
  Slab.blit t.buf ip_off t.buf (ip_off + gre_overhead_bytes) inner_bytes;
  t.len <- t.len + gre_overhead_bytes;
  let b = t.buf in
  (* Outer IPv4 header: protocol 47 (GRE). *)
  set_u8 b ip_off 0x45;
  set_u8 b (ip_off + 1) 0;
  set_u16 b (ip_off + 2) (ipv4_header_bytes + 4 + inner_bytes);
  set_u16 b (ip_off + 4) 0;
  set_u16 b (ip_off + 6) 0x4000;
  set_u8 b (ip_off + 8) 64;
  set_u8 b (ip_off + 9) 47;
  set_u16 b (ip_off + 10) 0;
  set_u32_int b (ip_off + 12) (outer_src land 0xFFFFFFFF);
  set_u32_int b (ip_off + 16) (outer_dst land 0xFFFFFFFF);
  install_checksum t;
  (* Minimal GRE header: no flags, protocol type IPv4. *)
  set_u16 b (ip_off + ipv4_header_bytes) 0;
  set_u16 b (ip_off + ipv4_header_bytes + 2) 0x0800

let is_gre t =
  t.len >= ip_off + ipv4_header_bytes
  && get_u8 t.buf ip_off lsr 4 = 4
  && get_u8 t.buf (ip_off + 9) = 47

let decap_gre t =
  if not (is_gre t) then invalid_arg "Packet.decap_gre: not a GRE packet";
  if get_u16 t.buf (ip_off + ipv4_header_bytes + 2) <> 0x0800 then
    invalid_arg "Packet.decap_gre: GRE payload is not IPv4";
  let inner_bytes = t.len - ip_off - gre_overhead_bytes in
  Slab.blit t.buf (ip_off + gre_overhead_bytes) t.buf ip_off inner_bytes;
  t.len <- t.len - gre_overhead_bytes
