type 'a tracker = {
  value : 'a;
  sync : unit -> Checkpointable.stats;
  restore : unit -> Checkpointable.stats;
}

let value t = t.value
let sync t = t.sync ()
let restore t = t.restore ()

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

(* Chunk [c] covers the [span ~n ~chunk c] slots from [c * chunk] of a
   table of [n] slots. Its wire payload is a presence bitmap of
   [bitmap_bytes len] bytes (bit [i land 7] of byte [i / 8] is set iff
   slot [i] is nonzero), then the nonzero slots in slot order, 8 bytes
   big-endian each. Each chunk state has exactly one payload, so equal
   payloads mean equal chunks. *)
let span ~n ~chunk c = min chunk (n - (c * chunk))
let bitmap_bytes len = (len + 7) / 8

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

let chunk_len a c = span ~n:(Array.length a.data) ~chunk:a.chunk c

(* The set bits of byte [x]. *)
let popcount8 x =
  let x = x - ((x lsr 1) land 0x55) in
  let x = (x land 0x33) + ((x lsr 2) land 0x33) in
  (x + (x lsr 4)) land 0x0f

(* The payload of chunk [c], in two passes over the chunk: one counts
   its nonzero slots, the other fills one exact-size [Bytes]. It only
   reads the table, so readers on any domain may encode the same table
   at once. *)
let encode_chunk a c =
  let data = a.data and lo = c * a.chunk and len = chunk_len a c in
  let nnz = ref 0 in
  for i = lo to lo + len - 1 do
    nnz := !nnz + Bool.to_int (data.(i) <> 0)
  done;
  let nb = bitmap_bytes len in
  let b = Bytes.create (nb + (8 * !nnz)) in
  Bytes.fill b 0 nb '\000';
  let pos = ref nb in
  for i = 0 to len - 1 do
    let v = data.(lo + i) in
    if v <> 0 then begin
      let k = i lsr 3 in
      Bytes.set b k (Char.unsafe_chr (Char.code (Bytes.get b k) lor (1 lsl (i land 7))));
      Bytes.set_int64_be b !pos (Int64.of_int v);
      pos := !pos + 8
    end
  done;
  (* [b] was created above and has not escaped, so no one else can
     mutate it: handing it over as a string without the copy is safe. *)
  Bytes.unsafe_to_string b

(* Negative iff [v] is 0 or does not fit OCaml's 63-bit [int] (its top
   two bits differ): a marked slot holding 0 would re-encode unmarked,
   and an out-of-range value would wrap on decode, so either way the
   table would re-encode to other bytes. *)
let[@inline] flaw v =
  Int64.logor
    (Int64.logxor v (Int64.shift_left v 1))
    (Int64.lognot (Int64.logor v (Int64.neg v)))

(* Write the marked slots of payload [p] (a chunk of [len] slots whose
   shape is already checked) into [data] at [lo]; unmarked slots are
   left as they are. Returns false when some marked value is flawed
   ({!first_flaw} names it). The checks are or-ed into one accumulator,
   so the loop does not branch on them. *)
let decode_chunk data ~lo ~len p =
  let pos = ref (bitmap_bytes len) and acc = ref 0L in
  for k = 0 to bitmap_bytes len - 1 do
    let bits = ref (Char.code p.[k]) and i = ref (lo + (8 * k)) in
    while !bits <> 0 do
      if !bits land 1 <> 0 then begin
        let v = String.get_int64_be p !pos in
        acc := Int64.logor !acc (flaw v);
        data.(!i) <- Int64.to_int v;
        pos := !pos + 8
      end;
      bits := !bits lsr 1;
      incr i
    done
  done;
  Int64.compare !acc 0L >= 0

(* The first marked slot of payload [p] whose value is flawed, and that
   value; [p] must hold one. *)
let first_flaw p ~len =
  let rec go slot pos =
    if (Char.code p.[slot / 8] lsr (slot land 7)) land 1 = 0 then go (slot + 1) pos
    else
      let v = String.get_int64_be p pos in
      if Int64.compare (flaw v) 0L < 0 then (slot, v) else go (slot + 1) (pos + 8)
  in
  go 0 (bitmap_bytes len)

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
      let lo = c * a.chunk and len = chunk_len a c in
      Array.fill a.data lo len 0;
      (* Every shadow value came from a nonzero [int] or was checked to
         be one, so none is flawed. *)
      ignore (decode_chunk a.data ~lo ~len a.shadow.(c));
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

let iarr_persist t durable ~tag ~delta =
  (* The dirty chunks must be read before the sync clears them; the
     payloads saved are the ones the sync just encoded. *)
  let dirty = iarr_dirty_list t.value in
  let stats = sync t in
  let image = iarr_synced_chunks t.value in
  let gen =
    if delta then
      Durable.save_delta durable ~tag ~dirty:(List.map (fun c -> (c + 1, image.(c + 1))) dirty)
    else Durable.save durable ~tag ~chunks:image
  in
  (stats, gen)

let iarr_digest a =
  Digest.to_hex (Digest.string (String.concat "" (Array.to_list (iarr_to_chunks a))))

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
        let len = span ~n ~chunk in
        (* Every payload's shape is checked against its bitmap before
           the table is sized by [n], so a count the bytes do not back
           allocates nothing. *)
        let rec shape c =
          if c = expected then Ok ()
          else
            let p = chunks.(c + 1) and slots = len c in
            let nb = bitmap_bytes slots and size = String.length p in
            (* Slots the last bitmap byte covers, 0 when it covers 8. *)
            let tail = slots land 7 in
            if size < nb then
              fail "iarr: chunk %d carries %d bytes, shorter than its %d-byte bitmap" c size nb
            else if tail <> 0 && Char.code p.[nb - 1] lsr tail <> 0 then
              fail "iarr: chunk %d marks a slot past its %d slots" c slots
            else begin
              let marked = ref 0 in
              for k = 0 to nb - 1 do
                marked := !marked + popcount8 (Char.code p.[k])
              done;
              if size <> nb + (8 * !marked) then
                fail "iarr: chunk %d carries %d bytes, expected %d" c size (nb + (8 * !marked))
              else shape (c + 1)
            end
        in
        match shape 0 with
        | Error _ as e -> e
        | Ok () ->
          let data = Array.make n 0 in
          let rec decode c =
            (* The payloads just verified are the snapshot: adopted as
               the shadow, not encoded again. *)
            if c = expected then Ok (make ~chunk data (Array.sub chunks 1 expected) Adopted)
            else
              let p = chunks.(c + 1) in
              if decode_chunk data ~lo:(c * chunk) ~len:(len c) p then decode (c + 1)
              else
                let slot, v = first_flaw p ~len:(len c) in
                if Int64.equal v 0L then fail "iarr: chunk %d marks slot %d, which holds 0" c slot
                else fail "iarr: chunk %d slot %d holds %Ld, outside the 63-bit int range" c slot v
          in
          decode 0

let iarr_tracker a = { value = a; sync = iarr_sync a; restore = iarr_restore a }
