exception Truncated of string

(* FNV-1a, 64-bit. Chosen over Digest (MD5) for the chunk pool because
   the hash doubles as a filename and a fixed 8-byte record field; the
   store is a deterministic simulation artifact, not an adversarial
   setting, so 64 bits of content addressing is plenty. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* One FNV-1a step: xor the byte in, multiply by the prime. *)
let[@inline] fnv_step h b = Int64.mul (Int64.logxor h b) fnv_prime

(* The low byte of a word read with a little-endian load: the byte at
   the lowest offset of the bytes read. *)
let[@inline] low_byte w = Int64.logand w 0xffL

(* One lane: continue state [h] over [s] from offset [i] to the end.
   A round is one bounds-checked little-endian load of eight bytes,
   folded low byte first (wire order), then the tail one byte at a
   time: the same per-byte step as the textbook loop, so hashes are
   unchanged. Every [int64] local stays unboxed (no closure captures
   them, no ref escapes), so the loop allocates nothing per byte. *)
let fnv_from h s i =
  let n = String.length s in
  let h = ref h and i = ref i in
  while !i + 8 <= n do
    let w = ref (String.get_int64_le s !i) in
    for _ = 1 to 8 do
      h := fnv_step !h (low_byte !w);
      w := Int64.shift_right_logical !w 8
    done;
    i := !i + 8
  done;
  for j = !i to n - 1 do
    h := fnv_step !h (Int64.of_int (Char.code (String.get s j)))
  done;
  !h

let fnv64 s = fnv_from fnv_offset s 0

(* Four lanes of the same round over the first [m] bytes ([m] a
   multiple of 8, at most every length), side by side: each step waits
   on its own lane's previous multiply only, so the four multiplies of a
   step overlap and the loop is paced by multiply throughput, not
   latency. The states land in [out] at [k0..k3], tails left to the
   caller; a lane given twice (same [k], same string) writes the same
   value twice. *)
let fnv_lanes (out : int64 array) s0 s1 s2 s3 k0 k1 k2 k3 m =
  let h0 = ref fnv_offset and h1 = ref fnv_offset in
  let h2 = ref fnv_offset and h3 = ref fnv_offset in
  let i = ref 0 in
  while !i + 8 <= m do
    let w0 = ref (String.get_int64_le s0 !i) and w1 = ref (String.get_int64_le s1 !i) in
    let w2 = ref (String.get_int64_le s2 !i) and w3 = ref (String.get_int64_le s3 !i) in
    for _ = 1 to 8 do
      h0 := fnv_step !h0 (low_byte !w0);
      w0 := Int64.shift_right_logical !w0 8;
      h1 := fnv_step !h1 (low_byte !w1);
      w1 := Int64.shift_right_logical !w1 8;
      h2 := fnv_step !h2 (low_byte !w2);
      w2 := Int64.shift_right_logical !w2 8;
      h3 := fnv_step !h3 (low_byte !w3);
      w3 := Int64.shift_right_logical !w3 8
    done;
    i := !i + 8
  done;
  out.(k0) <- !h0;
  out.(k1) <- !h1;
  out.(k2) <- !h2;
  out.(k3) <- !h3

(* Payloads go four to a group in order of decreasing length, so a
   group's lengths are close and its common prefix is most of each; the
   last group is padded with its own shortest member. Each lane then
   finishes its own tail with the one-lane loop. *)
let fnv64_many a =
  let n = Array.length a in
  let out = Array.make n 0L in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> compare (String.length a.(j)) (String.length a.(i))) order;
  let lane j = order.(if j < n then j else n - 1) in
  let g = ref 0 in
  while !g < n do
    let k0 = lane !g and k1 = lane (!g + 1) and k2 = lane (!g + 2) and k3 = lane (!g + 3) in
    let m = String.length a.(k3) land lnot 7 in
    fnv_lanes out a.(k0) a.(k1) a.(k2) a.(k3) k0 k1 k2 k3 m;
    for j = !g to min (!g + 3) (n - 1) do
      let k = order.(j) in
      out.(k) <- fnv_from out.(k) a.(k) m
    done;
    g := !g + 4
  done;
  out

let hex_of_hash h = Printf.sprintf "%016Lx" h

(* --- Writing --------------------------------------------------------- *)

let w_u8 buf v =
  if v < 0 || v > 0xff then invalid_arg "Wire.w_u8: out of range";
  Buffer.add_uint8 buf v

let w_u32 buf v =
  if v < 0 || v > 0xffffffff then invalid_arg "Wire.w_u32: out of range";
  Buffer.add_int32_be buf (Int32.of_int v)

let w_i64 buf v = Buffer.add_int64_be buf v

let w_string buf s =
  w_u32 buf (String.length s);
  Buffer.add_string buf s

(* --- Reading --------------------------------------------------------- *)

type reader = { src : string; mutable off : int; mutable section : string }

let reader src = { src; off = 0; section = "wire" }

let with_section r label f =
  let saved = r.section in
  r.section <- label;
  Fun.protect ~finally:(fun () -> r.section <- saved) f

let need r n = if r.off + n > String.length r.src then raise (Truncated r.section)

let r_u8 r =
  need r 1;
  let v = Char.code r.src.[r.off] in
  r.off <- r.off + 1;
  v

let r_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_be r.src r.off) land 0xffffffff in
  r.off <- r.off + 4;
  v

let r_i64 r =
  need r 8;
  let v = String.get_int64_be r.src r.off in
  r.off <- r.off + 8;
  v

let r_bytes r n =
  need r n;
  let v = String.sub r.src r.off n in
  r.off <- r.off + n;
  v

let r_string r =
  let n = r_u32 r in
  r_bytes r n

let pos r = r.off
let remaining r = String.length r.src - r.off
let at_end r = r.off = String.length r.src
