type 'a tracker = {
  value : 'a;
  sync : unit -> Checkpointable.stats;
  restore : unit -> Checkpointable.stats;
  pending : unit -> int;
  synced : unit -> bool;
}

let value t = t.value
let sync t = t.sync ()
let restore t = t.restore ()
let pending t = t.pending ()
let synced t = t.synced ()

let stats ~nodes ~dirty ~reused : Checkpointable.stats =
  {
    nodes;
    rc_encounters = 0;
    rc_copies = 0;
    rc_dedup_hits = 0;
    hash_lookups = 0;
    dirty_nodes = dirty;
    reused_nodes = reused;
  }

(* --- Tracked flat int array ------------------------------------------ *)

(* Where the shadow's payloads came from: nothing yet, the verified
   image {!iarr_of_chunks} decoded, or a sync on this handle. *)
type origin = Unset | Adopted | Synced

type iarr = {
  data : int array;
  chunk : int;
  gens : int array;  (* per-chunk generation stamp *)
  shadow : string array; (* per-chunk wire payload as of the last sync *)
  mutable gen : int;        (* stamp given to writes since the last sync *)
  mutable synced_gen : int; (* chunks stamped <= this are clean *)
  mutable origin : origin;
}

let make ~chunk data shadow origin =
  let gens = Array.make (Array.length shadow) 0 in
  { data; chunk; gens; shadow; gen = 1; synced_gen = 0; origin }

let iarr ?(chunk = 16) data =
  if chunk <= 0 then invalid_arg "Incr.iarr: chunk must be positive";
  let chunks = max 1 ((Array.length data + chunk - 1) / chunk) in
  make ~chunk data (Array.make chunks "") Unset

let iarr_get a i = a.data.(i)

let iarr_set a i v =
  a.data.(i) <- v;
  a.gens.(i / a.chunk) <- a.gen

let iarr_chunks a = Array.length a.gens

let iarr_dirty_chunks a =
  let d = ref 0 in
  Array.iter (fun g -> if g > a.synced_gen then incr d) a.gens;
  !d

(* The wire payload of chunk [c], 8 bytes big-endian per slot, written
   straight into one fresh [Bytes]: nothing else is allocated. *)
let encode_chunk a c =
  let lo = c * a.chunk in
  let len = min a.chunk (Array.length a.data - lo) in
  let b = Bytes.create (len * 8) in
  for i = 0 to len - 1 do
    Bytes.set_int64_be b (i * 8) (Int64.of_int a.data.(lo + i))
  done;
  (* [b] was created above and has not escaped, so no one else can
     mutate it: handing it over as a string without the copy is safe. *)
  Bytes.unsafe_to_string b

(* Negative iff [v] does not fit OCaml's 63-bit [int] (its top two bits
   differ): such a value would wrap on decode, and the table would
   re-encode to other bytes. *)
let[@inline] spill v = Int64.logxor v (Int64.shift_left v 1)

(* Decode chunk payload [p] ([len] big-endian i64s) into [data] at [lo].
   Returns -1 when every value fits an [int], else the first slot that
   does not. The range check is or-ed into one accumulator, so the
   loop has no branch; only a bad chunk pays for the second scan. *)
let decode_chunk data ~lo ~len p =
  let acc = ref 0L in
  for i = 0 to len - 1 do
    let v = String.get_int64_be p (i * 8) in
    acc := Int64.logor !acc (spill v);
    data.(lo + i) <- Int64.to_int v
  done;
  if Int64.compare !acc 0L >= 0 then -1
  else begin
    let i = ref 0 in
    while Int64.compare (spill (String.get_int64_be p (!i * 8))) 0L >= 0 do
      incr i
    done;
    !i
  end

let iarr_sync a () =
  let chunks = iarr_chunks a in
  let encoded = ref 0 in
  for c = 0 to chunks - 1 do
    if a.gens.(c) > a.synced_gen || a.origin = Unset then begin
      a.shadow.(c) <- encode_chunk a c;
      incr encoded
    end
  done;
  (* An adopted shadow took every chunk at once, so the first sync
     reports them all as captured, as a fresh array's first sync does. *)
  let dirty = if a.origin = Synced then !encoded else chunks in
  a.synced_gen <- a.gen;
  a.gen <- a.gen + 1;
  a.origin <- Synced;
  stats ~nodes:chunks ~dirty ~reused:(chunks - dirty)

let iarr_restore a () =
  if a.origin = Unset then invalid_arg "Incr.iarr: restore before first sync";
  let chunks = iarr_chunks a in
  let dirty = ref 0 in
  for c = 0 to chunks - 1 do
    if a.gens.(c) > a.synced_gen then begin
      let p = a.shadow.(c) in
      (* Every shadow value came from an [int] or was checked to fit
         one, so the range result is always -1. *)
      ignore (decode_chunk a.data ~lo:(c * a.chunk) ~len:(String.length p / 8) p);
      a.gens.(c) <- a.synced_gen;
      incr dirty
    end
  done;
  stats ~nodes:chunks ~dirty:!dirty ~reused:(chunks - !dirty)

let iarr_length a = Array.length a.data

let iarr_dirty_list a =
  let dirty = ref [] in
  for c = Array.length a.gens - 1 downto 0 do
    if a.gens.(c) > a.synced_gen then dirty := c :: !dirty
  done;
  !dirty

let iarr_chunk_bytes a c =
  if c < 0 || c >= iarr_chunks a then invalid_arg "Incr.iarr_chunk_bytes: chunk out of range";
  encode_chunk a c

let iarr_meta_bytes a =
  let buf = Buffer.create 8 in
  Wire.w_u32 buf (Array.length a.data);
  Wire.w_u32 buf a.chunk;
  Buffer.contents buf

let iarr_to_chunks a =
  Array.init
    (1 + iarr_chunks a)
    (fun slot -> if slot = 0 then iarr_meta_bytes a else encode_chunk a (slot - 1))

let iarr_synced_chunks a =
  if a.origin = Unset then invalid_arg "Incr.iarr_synced_chunks: no snapshot";
  Array.append [| iarr_meta_bytes a |] a.shadow

let iarr_of_chunks chunks =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if Array.length chunks = 0 then fail "iarr: no meta chunk"
  else
    match
      let r = Wire.reader chunks.(0) in
      let n = Wire.r_u32 r in
      let chunk = Wire.r_u32 r in
      if not (Wire.at_end r) then Error "iarr: trailing bytes in meta chunk"
      else Ok (n, chunk)
    with
    | exception Wire.Truncated _ -> fail "iarr: truncated meta chunk"
    | Error _ as e -> e
    | Ok (_, chunk) when chunk <= 0 -> fail "iarr: chunk size %d not positive" chunk
    | Ok (n, chunk) ->
      let expected = max 1 ((n + chunk - 1) / chunk) in
      if Array.length chunks <> expected + 1 then
        fail "iarr: %d data chunks, expected %d" (Array.length chunks - 1) expected
      else
        let len c = min chunk (n - (c * chunk)) in
        (* Every payload's length is checked before the table is sized
           by [n], so a count the bytes do not back allocates nothing. *)
        let rec short c =
          if c = expected then None
          else if String.length chunks.(c + 1) <> len c * 8 then Some c
          else short (c + 1)
        in
        match short 0 with
        | Some c ->
          fail "iarr: chunk %d carries %d bytes, expected %d" c (String.length chunks.(c + 1)) (len c * 8)
        | None ->
          let data = Array.make n 0 in
          let rec decode c =
            (* The payloads just verified are the snapshot: adopted as
               the shadow, not encoded again. *)
            if c = expected then Ok (make ~chunk data (Array.sub chunks 1 expected) Adopted)
            else
              let p = chunks.(c + 1) in
              let slot = decode_chunk data ~lo:(c * chunk) ~len:(len c) p in
              if slot >= 0 then
                fail "iarr: chunk %d slot %d holds %Ld, outside the 63-bit int range" c slot
                  (String.get_int64_be p (slot * 8))
              else decode (c + 1)
          in
          decode 0

let iarr_tracker a =
  {
    value = a;
    sync = iarr_sync a;
    restore = iarr_restore a;
    pending = (fun () -> iarr_dirty_chunks a);
    synced = (fun () -> a.origin <> Unset);
  }
