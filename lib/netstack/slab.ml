(* Packet payload storage: one off-heap [Bigarray] slab per pool. The
   GC never scans payload memory, and a packet buffer is a fixed
   slot-sized view into the slab, created once at pool construction.
   The view is the buffer — no variant, no box — and every accessor
   bounds-checks against the view's own length, raising the
   Invalid_argument the panic-containment paths rely on. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

(* One contiguous allocation per pool, sliced into slot views. Slicing
   up front keeps the per-access bounds check local to the slot: a
   stage that runs off the end of its packet faults at the slot
   boundary, not somewhere in its neighbour's payload. *)
let make_slots ~slots ~bytes =
  let slab = create (slots * bytes) in
  Bigarray.Array1.fill slab '\000';
  Array.init slots (fun i -> Bigarray.Array1.sub slab (i * bytes) bytes)

let[@inline] length (buf : buf) = Bigarray.Array1.dim buf

let oob () = invalid_arg "Slab: index out of bounds"

let[@inline] check buf off n =
  if off < 0 || n < 0 || off + n > length buf then oob ()

let[@inline] unsafe_get (buf : buf) i = Bigarray.Array1.unsafe_get buf i
let[@inline] unsafe_set (buf : buf) i c = Bigarray.Array1.unsafe_set buf i c

let get buf i = if i < 0 || i >= length buf then oob () else unsafe_get buf i
let set buf i c = if i < 0 || i >= length buf then oob () else unsafe_set buf i c

let[@inline] get_u8 buf i = Char.code (get buf i)
let[@inline] set_u8 buf i v = set buf i (Char.unsafe_chr (v land 0xff))

let get_u16_be buf i =
  if i < 0 || i + 2 > length buf then oob ()
  else (Char.code (unsafe_get buf i) lsl 8) lor Char.code (unsafe_get buf (i + 1))

let set_u16_be buf i v =
  if i < 0 || i + 2 > length buf then oob ()
  else begin
    unsafe_set buf i (Char.unsafe_chr ((v lsr 8) land 0xff));
    unsafe_set buf (i + 1) (Char.unsafe_chr (v land 0xff))
  end

(* RFC 1071 inner loop: the sum of [words] consecutive big-endian
   16-bit words starting at [off]. One bounds check covers the whole
   window — checksum folds run once per packet, so the per-word check
   of {!get_u16_be} is measurable. *)
let sum_be_words buf off ~words =
  check buf off (words * 2);
  let s = ref 0 in
  for k = 0 to words - 1 do
    let i = off + (k * 2) in
    s := !s + ((Char.code (unsafe_get buf i) lsl 8) lor Char.code (unsafe_get buf (i + 1)))
  done;
  !s

(* Overlap-safe: copies backward when the destination window sits
   above the source window of the same view. Distinct views never
   alias — [make_slots] slices the slab into disjoint slots and
   [of_bytes] copies — so aliasing can only mean [src == dst] (header
   shifts inside one packet), which the physical-equality test
   catches. The [Array1.sub]+[Array1.blit] route (a memmove) is
   reserved for large copies: each [sub] allocates a custom block and
   bumps the slab proxy, which costs more than the loop for
   packet-sized moves. Those move 8 bytes per (bounds-checked) access,
   then a byte tail; a backward word copy is safe at any overlap, as
   each word is loaded whole before it is stored. *)
let big_copy = 256

external get64 : buf -> int -> int64 = "%caml_bigstring_get64"
external set64 : buf -> int -> int64 -> unit = "%caml_bigstring_set64"

let blit (src : buf) soff (dst : buf) doff n =
  check src soff n;
  check dst doff n;
  let w = n land lnot 7 in
  if n >= big_copy then
    Bigarray.Array1.blit (Bigarray.Array1.sub src soff n) (Bigarray.Array1.sub dst doff n)
  else if src == dst && doff > soff then begin
    for k = n - 1 downto w do set dst (doff + k) (get src (soff + k)) done;
    for j = (w / 8) - 1 downto 0 do set64 dst (doff + (j * 8)) (get64 src (soff + (j * 8))) done
  end
  else begin
    for j = 0 to (w / 8) - 1 do set64 dst (doff + (j * 8)) (get64 src (soff + (j * 8))) done;
    for k = w to n - 1 do set dst (doff + k) (get src (soff + k)) done
  end

let blit_bytes b boff dst doff n =
  if boff < 0 || n < 0 || boff + n > Bytes.length b then
    invalid_arg "Slab.blit_bytes: source out of bounds";
  check dst doff n;
  let w = n land lnot 7 in
  for j = 0 to (w / 8) - 1 do set64 dst (doff + (j * 8)) (Bytes.get_int64_ne b (boff + (j * 8))) done;
  for k = w to n - 1 do set dst (doff + k) (Bytes.get b (boff + k)) done

let blit_string s soff dst doff n = blit_bytes (Bytes.unsafe_of_string s) soff dst doff n

let blit_to_bytes buf off b boff n =
  check buf off n;
  if boff < 0 || boff + n > Bytes.length b then
    invalid_arg "Slab.blit_to_bytes: destination out of bounds";
  let w = n land lnot 7 in
  for j = 0 to (w / 8) - 1 do Bytes.set_int64_ne b (boff + (j * 8)) (get64 buf (off + (j * 8))) done;
  for k = w to n - 1 do Bytes.set b (boff + k) (get buf (off + k)) done

let sub_string buf off n =
  check buf off n;
  let b = Bytes.create n in
  blit_to_bytes buf off b 0 n;
  Bytes.unsafe_to_string b

(* A free-standing buffer is a one-slot slab holding a copy: callers
   fill the [Bytes.t] first and only ever write through the buffer. *)
let of_bytes b : buf =
  let a = create (Bytes.length b) in
  blit_bytes b 0 a 0 (Bytes.length b);
  a
