(* SplitMix64 on native [int64] arithmetic.

   The generator sits on the per-packet fast path (traffic synthesis,
   the NIC's driver-state touches), where a boxed [int64] state field
   would allocate on every draw. The state lives in an 8-byte [Bytes]
   instead: [Bytes.get_int64_ne]/[set_int64_ne] move it as a raw
   machine word, and [next] is inlined into each entry point, so
   ocamlopt keeps the whole mix in unboxed registers and a draw
   allocates nothing (pinned by test_cycles, which also checks every
   entry point against a textbook Int64 implementation). *)

type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

(* state += gamma; z = state; z ^= z>>30; z *= C1; z ^= z>>27; z *= C2;
   z ^= z>>31. *)
let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t = next t

let int t bound =
  assert (bound > 0);
  (* The low 62 bits, so the value is always a nonnegative OCaml int. *)
  let r = Int64.to_int (next t) land max_int in
  (* [r] is nonnegative, so for power-of-two bounds the mask computes
     exactly [r mod bound] without the hardware divide — both hot
     callers (driver-state lines, uniform flow populations) use
     power-of-two bounds, and this sits on the per-packet path. *)
  if bound land (bound - 1) = 0 then r land (bound - 1) else r mod bound

let float t bound =
  (* Top 53 bits, scaled to [0, 1). *)
  let top53 = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int top53 /. 9007199254740992.0 *. bound

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
