(* Tests for the durable checkpoint store: [iarr] wire-codec round-trips
   and strict decoding (random tables, mutated images), exhaustive single-bit
   corruption and truncation rejection of the manifest format, pool
   chunk integrity, delta lineage + content-addressed reuse, newest-
   valid recovery ordering, and the supervisor cold-start path. *)

open Chkpt

(* ------------------------------------------------------------------ *)
(* Scratch stores                                                      *)
(* ------------------------------------------------------------------ *)

let temp_seq = ref 0

let rec fresh_dir () =
  incr temp_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bsck-test-%d-%d" (Unix.getpid ()) !temp_seq)
  in
  if Sys.file_exists dir then fresh_dir () else dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_store ?(graph = 3) f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f (Durable.open_store ~graph ~dir ()) dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let manifest_path dir gen = Filename.concat dir (Printf.sprintf "ckpt-%08d.bsck" gen)
let manifest_name gen = Printf.sprintf "ckpt-%08d.bsck" gen

(* ------------------------------------------------------------------ *)
(* iarr wire round-trip                                                *)
(* ------------------------------------------------------------------ *)

(* Values span the whole 63-bit [int] range, corners included: the
   wire carries i64s, so every int must survive the trip exactly. *)
let iarr_value =
  QCheck.(
    oneof
      [
        int_range (-1000) 1000;
        int;
        oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1 ];
      ])

let prop_iarr_roundtrip =
  QCheck.Test.make ~name:"iarr wire image round-trips" ~count:120
    QCheck.(triple (int_range 0 70) (int_range 1 9) (small_list (pair small_nat iarr_value)))
    (fun (n, chunk, writes) ->
      let a = Incr.iarr ~chunk (Array.make n 0) in
      List.iter (fun (i, v) -> if n > 0 then Incr.iarr_set a (i mod n) v) writes;
      let img = Incr.iarr_to_chunks a in
      match Incr.iarr_of_chunks img with
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m
      | Ok b ->
        Incr.iarr_length b = n
        && Incr.iarr_chunks b = Incr.iarr_chunks a
        && (let ok = ref true in
            for i = 0 to n - 1 do
              if Incr.iarr_get b i <> Incr.iarr_get a i then ok := false
            done;
            !ok)
        && Incr.iarr_to_chunks b = img)

let test_iarr_decode_rejects () =
  (* Chunk 1 covers slots 4-7, all set: bitmap 0x0f, then four values.
     Chunk 2 covers slots 8-9: bitmap 0x03, then two values. *)
  let a = Incr.iarr ~chunk:4 (Array.make 10 7) in
  let img = Incr.iarr_to_chunks a in
  let reject label img =
    match Incr.iarr_of_chunks img with
    | Ok _ -> Alcotest.failf "%s: decode unexpectedly succeeded" label
    | Error _ -> ()
  in
  let reject_with label msg img =
    match Incr.iarr_of_chunks img with
    | Ok _ -> Alcotest.failf "%s: decode unexpectedly succeeded" label
    | Error m -> Alcotest.(check string) label msg m
  in
  let with_chunk i c = Array.mapi (fun k x -> if k = i then c else x) img in
  reject "no chunks" [||];
  reject "missing data chunk" (Array.sub img 0 (Array.length img - 1));
  reject "extra data chunk" (Array.append img [| "" |]);
  reject "short chunk" (with_chunk 1 "abc");
  reject "meta trailing bytes" (with_chunk 0 (img.(0) ^ "x"));
  reject "truncated meta" (with_chunk 0 (String.sub img.(0) 0 3));
  reject_with "payload one byte short" "iarr: chunk 1 carries 32 bytes, expected 33"
    (with_chunk 2 (String.sub img.(2) 0 32));
  reject_with "payload one byte long" "iarr: chunk 1 carries 34 bytes, expected 33"
    (with_chunk 2 (img.(2) ^ "\000"));
  reject_with "payload shorter than its bitmap"
    "iarr: chunk 1 carries 0 bytes, shorter than its 1-byte bitmap" (with_chunk 2 "");
  (* Slot 10 does not exist: its bit, set in the last bitmap byte with a
     value behind it so the length still adds up, is refused. *)
  reject_with "bit set past the last slot" "iarr: chunk 2 marks a slot past its 2 slots"
    (with_chunk 3 ("\x07" ^ String.sub img.(3) 1 16 ^ String.sub img.(3) 1 8));
  (* A marked slot holding 0 would re-encode unmarked, to other bytes. *)
  let zeroed = Bytes.of_string img.(2) in
  Bytes.set_int64_be zeroed (1 + 16) 0L;
  reject_with "marked slot holding 0" "iarr: chunk 1 marks slot 2, which holds 0"
    (with_chunk 2 (Bytes.to_string zeroed));
  (* The former fixed-width layout (8 bytes per slot, no bitmap): its
     first byte reads as an empty bitmap, so the length gives it away. *)
  let fixed c =
    let len = min 4 (10 - (c * 4)) in
    let b = Bytes.create (8 * len) in
    for i = 0 to len - 1 do Bytes.set_int64_be b (8 * i) 7L done;
    Bytes.to_string b
  in
  reject_with "fixed-width image" "iarr: chunk 0 carries 32 bytes, expected 1"
    (Array.init 4 (fun i -> if i = 0 then img.(0) else fixed (i - 1)));
  (* A well-formed i64 outside OCaml's 63-bit int would wrap on decode
     and re-encode to different bytes: strict decoding refuses it,
     naming the chunk and the slot within it. Chunk 1's slot 2 value
     sits past the 1-byte bitmap and two values. *)
  List.iter
    (fun v ->
      let bad = Bytes.of_string img.(2) in
      Bytes.set_int64_be bad (1 + 16) v;
      match Incr.iarr_of_chunks (with_chunk 2 (Bytes.to_string bad)) with
      | Ok _ -> Alcotest.failf "%Ld: out-of-range value accepted" v
      | Error m ->
        Alcotest.(check string)
          (Printf.sprintf "%Ld rejected" v)
          (Printf.sprintf "iarr: chunk 1 slot 2 holds %Ld, outside the 63-bit int range" v)
          m)
    [ 0x4000000000000000L; Int64.max_int; -0x4000000000000001L; Int64.min_int ]

(* The payload size contract, on random tables of 1-70 slots in chunks
   of 1-9, all-zero and fully dense ones among them: a chunk of [len]
   slots, [nnz] of them nonzero, carries [ceil (len / 8) + 8 * nnz]
   bytes. A dense chunk of a multiple of 8 slots thus costs 1/64 more
   than 8 bytes a slot; a sparse one costs 8 bytes per nonzero slot. *)
let test_iarr_payload_sizes () =
  let rand = Random.State.make [| 0x5123 |] in
  for trial = 0 to 599 do
    let n = 1 + Random.State.int rand 70 and chunk = 1 + Random.State.int rand 9 in
    let value () =
      match trial mod 3 with
      | 0 -> 0
      | 1 -> 1 + Random.State.int rand 1000
      | _ -> if Random.State.bool rand then 0 else Random.State.int rand 1000 - 500
    in
    let a = Incr.iarr ~chunk (Array.init n (fun _ -> value ())) in
    for c = 0 to Incr.iarr_chunks a - 1 do
      let lo = c * chunk in
      let len = min chunk (n - lo) in
      let nnz = ref 0 in
      for i = lo to lo + len - 1 do
        if Incr.iarr_get a i <> 0 then incr nnz
      done;
      let got = String.length (Incr.iarr_chunk_bytes a c) in
      if got <> ((len + 7) / 8) + (8 * !nnz) then
        Alcotest.failf "n=%d chunk=%d: chunk %d (%d slots, %d nonzero) carries %d bytes" n chunk
          c len !nnz got
    done
  done

(* ------------------------------------------------------------------ *)
(* Content hash and chunk encoding                                     *)
(* ------------------------------------------------------------------ *)

(* The textbook byte-at-a-time FNV-1a 64 loop: the oracle the
   word-at-a-time kernel must match bit for bit. *)
let ref_fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

(* Lengths 0-300 cover every residue mod 8, so both the word loop and
   every tail length run against the oracle. *)
let prop_fnv64_reference =
  QCheck.Test.make ~name:"fnv64 matches the byte-at-a-time reference" ~count:600
    QCheck.(string_of_size Gen.(int_range 0 300))
    (fun s -> Int64.equal (Wire.fnv64 s) (ref_fnv64 s))

(* 0-9 payloads, so groups of four run full, short and padded; equal
   lengths (every lane's tail alike), mixed lengths and empty strings
   (a group whose common prefix is empty). *)
let payloads_gen =
  QCheck.Gen.(
    int_range 0 9 >>= fun n ->
    oneof
      [
        (int_range 0 300 >>= fun len -> array_repeat n (string_size (return len)));
        array_repeat n (string_size (int_range 0 300));
        array_repeat n (oneof [ return ""; string_size (int_range 0 20) ]);
      ])

let prop_fnv64_many_reference =
  QCheck.Test.make ~name:"fnv64_many = Array.map fnv64" ~count:600
    (QCheck.make ~print:QCheck.Print.(array string) payloads_gen)
    (fun a -> Wire.fnv64_many a = Array.map Wire.fnv64 a)

let test_fnv64_vectors () =
  (* Published FNV-1a 64 test vectors. *)
  List.iter
    (fun (s, hex) ->
      Alcotest.(check string) (Printf.sprintf "%S" s) hex (Wire.hex_of_hash (Wire.fnv64 s)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ]

(* Minor-heap words one call of [f] allocates, after a warm-up call. *)
let minor_words_of f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  int_of_float (Gc.minor_words () -. before)

let test_kernels_allocation_free () =
  (* Deterministic allocation proxies: the hash and the chunk codec
     allocate a small constant per call, nothing per byte or entry (a
     boxed-int64 kernel allocates three words per byte hashed). *)
  let s = String.init (128 * 1024) (fun i -> Char.chr (i * 131 land 0xff)) in
  let w = minor_words_of (fun () -> Wire.fnv64 s) in
  if w > 16 then Alcotest.failf "fnv64 over 128 KiB allocated %d minor words" w;
  let four = Array.init 4 (fun k -> String.map (fun c -> Char.chr (Char.code c lxor k)) s) in
  let w = minor_words_of (fun () -> Wire.fnv64_many four) in
  if w > 128 then Alcotest.failf "fnv64_many over 4 x 128 KiB allocated %d minor words" w;
  let a = Incr.iarr ~chunk:16384 (Array.init 16384 (fun i -> (i * 7919) - 5000)) in
  let w = minor_words_of (fun () -> Incr.iarr_chunk_bytes a 0) in
  if w > 16 then Alcotest.failf "iarr_chunk_bytes of 16384 entries allocated %d minor words" w;
  let img = Incr.iarr_to_chunks a in
  let w = minor_words_of (fun () -> Incr.iarr_of_chunks img) in
  if w > 64 then Alcotest.failf "iarr_of_chunks of 16384 entries allocated %d minor words" w

(* ------------------------------------------------------------------ *)
(* Manifest integrity: every bit, every truncation                     *)
(* ------------------------------------------------------------------ *)

let test_manifest_bitflips () =
  with_store (fun d dir ->
      let gen = Durable.save d ~tag:"tab" ~chunks:[| "alpha"; "beta-longer" |] in
      let path = manifest_path dir gen in
      let original = read_file path in
      (match Durable.load d ~basename:(manifest_name gen) with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "pristine load rejected: %s" (Durable.reject_to_string r));
      for byte = 0 to String.length original - 1 do
        for bit = 0 to 7 do
          let b = Bytes.of_string original in
          Bytes.set b byte (Char.chr (Char.code original.[byte] lxor (1 lsl bit)));
          write_file path (Bytes.to_string b);
          match Durable.load d ~basename:(manifest_name gen) with
          | Ok _ -> Alcotest.failf "bit %d of byte %d not detected" bit byte
          | Error _ -> ()
        done
      done;
      write_file path original)

let test_manifest_truncations () =
  with_store (fun d dir ->
      let gen = Durable.save d ~tag:"tab" ~chunks:[| "alpha"; "beta-longer"; "g" |] in
      let path = manifest_path dir gen in
      let original = read_file path in
      for n = 0 to String.length original - 1 do
        write_file path (String.sub original 0 n);
        (match Durable.load d ~basename:(manifest_name gen) with
        | Ok _ -> Alcotest.failf "truncation to %d bytes not detected" n
        | Error r1 -> (
          (* Deterministic: the same prefix maps to the same reject. *)
          match Durable.load d ~basename:(manifest_name gen) with
          | Ok _ -> Alcotest.failf "truncation to %d bytes accepted on retry" n
          | Error r2 ->
            Alcotest.(check string)
              (Printf.sprintf "reject stable at %d" n)
              (Durable.reject_to_string r1)
              (Durable.reject_to_string r2)))
      done;
      write_file path original;
      match Durable.load d ~basename:(manifest_name gen) with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "restored load rejected: %s" (Durable.reject_to_string r))

(* KB that rejecting [f ()] allocates, counted exactly: every minor-heap
   word plus the major heap's direct allocations. [Gc.allocated_bytes]
   would miss small blocks still in the minor heap. *)
let rejected_kb f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = words () in
  (match f () with Ok _ -> Alcotest.fail "a count past the end accepted" | Error _ -> ());
  (words () -. before) *. float (Sys.word_size / 8) /. 1024.

(* A count field may claim up to 2^24 records whatever the file holds;
   the decoder must size its tables by the bytes present, not allocate
   for the claim (two 2^24-entry arrays are 256 MB). *)
let test_manifest_count_bounded () =
  with_store (fun d dir ->
      let gen = Durable.save d ~tag:"tab" ~chunks:[| "alpha"; "beta-longer" |] in
      let path = manifest_path dir gen in
      let b = Bytes.of_string (read_file path) in
      (* The count sits after the 29-byte fixed header and the tag. *)
      Bytes.set_int32_be b (29 + String.length "tab") (Int32.of_int (1 lsl 24));
      write_file path (Bytes.to_string b);
      let kb = rejected_kb (fun () -> Durable.load d ~basename:(manifest_name gen)) in
      if kb > 64. then Alcotest.failf "decoding allocated %.0f KB" kb)

(* The same for the chunk decoder: an [iarr] meta chunk claiming 2^20
   slots over one data chunk its bitmap does not back (empty, a byte
   short of its 128 KB bitmap, or a full bitmap marking every slot with
   no value behind it) is rejected before anything is sized by the
   claim (8 MB). *)
let test_chunk_counts_bounded () =
  let meta = Bytes.create 8 in
  Bytes.set_int32_be meta 0 (Int32.of_int (1 lsl 20));
  Bytes.set_int32_be meta 4 (Int32.of_int (1 lsl 20));
  List.iter
    (fun (what, payload) ->
      let kb = rejected_kb (fun () -> Incr.iarr_of_chunks [| Bytes.to_string meta; payload |]) in
      if kb > 64. then Alcotest.failf "iarr decoding over %s allocated %.0f KB" what kb)
    [
      ("an empty payload", "");
      ("a short bitmap", String.make ((1 lsl 17) - 1) '\000');
      ("a full bitmap without values", String.make (1 lsl 17) '\255');
    ]

let test_pool_bitflips () =
  with_store (fun d dir ->
      let payload = "pool-chunk-payload" in
      let gen = Durable.save d ~tag:"tab" ~chunks:[| payload |] in
      let pool =
        Filename.concat
          (Filename.concat dir "chunks")
          (Wire.hex_of_hash (Wire.fnv64 payload) ^ ".chunk")
      in
      let original = read_file pool in
      for byte = 0 to String.length original - 1 do
        let b = Bytes.of_string original in
        Bytes.set b byte (Char.chr (Char.code original.[byte] lxor 0x10));
        write_file pool (Bytes.to_string b);
        match Durable.load d ~basename:(manifest_name gen) with
        | Ok _ -> Alcotest.failf "pool corruption at byte %d not detected" byte
        | Error (Durable.Chunk_checksum_mismatch 0) -> ()
        | Error r ->
          Alcotest.failf "pool corruption at byte %d: unexpected %s" byte
            (Durable.reject_to_string r)
      done;
      write_file pool original)

(* ------------------------------------------------------------------ *)
(* Deltas, reuse, recovery ordering                                    *)
(* ------------------------------------------------------------------ *)

let pool_files dir = Array.length (Sys.readdir (Filename.concat dir "chunks"))

let test_delta_lineage_and_reuse () =
  with_store (fun d dir ->
      let a = Incr.iarr ~chunk:4 (Array.make 32 0) in
      let g1 = Durable.save d ~tag:"tab" ~chunks:(Incr.iarr_to_chunks a) in
      let pool_after_full = pool_files dir in
      (* Dirty exactly one tracking chunk; the delta may add at most one
         pool file (plus none for the untouched slots). *)
      Incr.iarr_set a 5 41;
      let dirty = Incr.iarr_dirty_list a in
      Alcotest.(check (list int)) "one dirty chunk" [ 1 ] dirty;
      let g2 =
        Durable.save_delta d ~tag:"tab"
          ~dirty:(List.map (fun c -> (c + 1, Incr.iarr_chunk_bytes a c)) dirty)
      in
      Alcotest.(check int) "generations advance" (g1 + 1) g2;
      Alcotest.(check bool) "pool grew by at most one" true
        (pool_files dir <= pool_after_full + 1);
      (* The delta manifest is complete: loading it alone rebuilds the
         whole array. *)
      (match Durable.load d ~basename:(manifest_name g2) with
      | Error r -> Alcotest.failf "delta load rejected: %s" (Durable.reject_to_string r)
      | Ok (tag, chunks, gen) -> (
        Alcotest.(check string) "tag" "tab" tag;
        Alcotest.(check int) "gen" g2 gen;
        match Incr.iarr_of_chunks chunks with
        | Error m -> Alcotest.failf "decode: %s" m
        | Ok b ->
          Alcotest.(check int) "mutated slot" 41 (Incr.iarr_get b 5);
          Alcotest.(check int) "clean slot" 0 (Incr.iarr_get b 0)));
      (* Identical payloads are never written twice. *)
      let before = pool_files dir in
      ignore (Durable.save d ~tag:"tab" ~chunks:(Incr.iarr_to_chunks a));
      Alcotest.(check int) "full re-save reuses every pool chunk" before (pool_files dir))

let test_save_delta_guards () =
  with_store (fun d _dir ->
      (match Durable.save_delta d ~tag:"tab" ~dirty:[] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "delta without parent accepted");
      ignore (Durable.save d ~tag:"tab" ~chunks:[| "a"; "b" |]);
      (match Durable.save_delta d ~tag:"other" ~dirty:[] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "tag mismatch accepted");
      match Durable.save_delta d ~tag:"tab" ~dirty:[ (2, "zzz") ] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "out-of-range slot accepted");
  (* A bad index after a good one: nothing of the good one may reach
     the pool or the counters before the raise. *)
  let reg = Telemetry.Registry.create () in
  let counter name =
    match Telemetry.Registry.find reg ("chkpt.durable." ^ name) with
    | Some (Telemetry.Registry.Counter c) -> Telemetry.Counter.value c
    | _ -> -1
  in
  with_store (fun _ dir ->
      let d = Durable.open_store ~telemetry:reg ~graph:3 ~dir () in
      ignore (Durable.save d ~tag:"tab" ~chunks:[| "a"; "b" |]);
      let pool = pool_files dir in
      let written = counter "chunks_written" and bytes = counter "bytes_written" in
      (match Durable.save_delta d ~tag:"tab" ~dirty:[ (1, "p-fresh"); (99, "q-fresh") ] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "out-of-range slot after a good one accepted");
      Alcotest.(check int) "pool unchanged" pool (pool_files dir);
      Alcotest.(check int) "chunks_written unchanged" written (counter "chunks_written");
      Alcotest.(check int) "bytes_written unchanged" bytes (counter "bytes_written"))

(* Verification is batched, but the reject is still the first failing
   slot's in slot order, whichever fault comes first. *)
let test_reject_precedence () =
  with_store (fun d dir ->
      let chunks = Array.init 6 (fun i -> Printf.sprintf "chunk-%d-payload" i) in
      let pool i =
        Filename.concat (Filename.concat dir "chunks")
          (Wire.hex_of_hash (Wire.fnv64 chunks.(i)) ^ ".chunk")
      in
      let name = manifest_name (Durable.save d ~tag:"tab" ~chunks) in
      let corrupt i =
        let b = Bytes.of_string (read_file (pool i)) in
        Bytes.set b 2 (Char.chr (Char.code (Bytes.get b 2) lxor 0x40));
        write_file (pool i) (Bytes.to_string b)
      in
      let restore () = Array.iteri (fun i c -> write_file (pool i) c) chunks in
      corrupt 1;
      Sys.remove (pool 3);
      (match Durable.load d ~basename:name with
      | Error (Durable.Chunk_checksum_mismatch 1) -> ()
      | Error r -> Alcotest.failf "corrupt 1, missing 3: %s" (Durable.reject_to_string r)
      | Ok _ -> Alcotest.fail "corrupt 1, missing 3: accepted");
      restore ();
      Sys.remove (pool 1);
      corrupt 3;
      (match Durable.load d ~basename:name with
      | Error (Durable.Missing_chunk h) ->
        Alcotest.(check string) "slot 1's hash" (Wire.hex_of_hash (Wire.fnv64 chunks.(1))) h
      | Error r -> Alcotest.failf "missing 1, corrupt 3: %s" (Durable.reject_to_string r)
      | Ok _ -> Alcotest.fail "missing 1, corrupt 3: accepted");
      restore ();
      match Durable.load d ~basename:name with
      | Ok (_, got, _) -> Alcotest.(check (array string)) "restored" chunks got
      | Error r -> Alcotest.failf "restored load rejected: %s" (Durable.reject_to_string r))

let test_recover_newest_valid () =
  with_store (fun d dir ->
      let g1 = Durable.save d ~tag:"tab" ~chunks:[| "one" |] in
      let g2 = Durable.save d ~tag:"tab" ~chunks:[| "two" |] in
      let g3 = Durable.save d ~tag:"tab" ~chunks:[| "three" |] in
      (* Corrupt the newest file; recovery must fall back to g2 and
         report g3's rejection, newest first. *)
      let path = manifest_path dir g3 in
      let s = read_file path in
      write_file path (String.sub s 0 (String.length s - 3));
      let d2 = Durable.open_store ~graph:3 ~dir () in
      (match Durable.recover d2 with
      | Some rv, rejects ->
        Alcotest.(check int) "fell back to g2" g2 rv.Durable.r_generation;
        Alcotest.(check (list string))
          "g3 rejected first"
          [ manifest_name g3 ]
          (List.map fst rejects);
        Alcotest.(check string) "payload" "two" rv.Durable.r_chunks.(0)
      | None, _ -> Alcotest.fail "no checkpoint recovered");
      (* A recovered handle continues the lineage with deltas. *)
      let g4 = Durable.save_delta d2 ~tag:"tab" ~dirty:[ (0, "four") ] in
      Alcotest.(check bool) "lineage continues past newest file" true (g4 > g3);
      ignore g1)

let test_recover_empty_store () =
  with_store (fun d _dir ->
      match Durable.recover d with
      | None, [] -> ()
      | None, _ -> Alcotest.fail "rejections in an empty store"
      | Some _, _ -> Alcotest.fail "recovered from an empty store")

(* ------------------------------------------------------------------ *)
(* Supervisor cold start                                               *)
(* ------------------------------------------------------------------ *)

let test_cold_start () =
  let reg = Telemetry.Registry.create () in
  let clock = Cycles.Clock.create () in
  let sup =
    Faultinj.Supervisor.create ~telemetry:reg ~clock ~policy:Faultinj.Restart.Degrade
      ~names:[| "good"; "bad" |]
      ~restart:(fun _ -> Ok ())
      ()
  in
  let outcomes =
    Faultinj.Supervisor.cold_start sup ~restore:(fun i ->
        if i = 0 then Ok "gen 7" else Error "no valid checkpoint")
  in
  (match outcomes with
  | [ (0, Ok "gen 7"); (1, Error _) ] -> ()
  | _ -> Alcotest.fail "unexpected cold-start outcomes");
  let stats = Faultinj.Supervisor.stats sup in
  Alcotest.(check int) "one restart" 1 stats.Faultinj.Supervisor.restarts;
  Alcotest.(check int) "one failure" 1 stats.Faultinj.Supervisor.restart_failures;
  (* Degrade policy: the failed unit is skipped, service for the rest. *)
  Alcotest.(check bool) "failed unit skipped" true (Faultinj.Supervisor.is_skipped sup 1);
  Alcotest.(check bool) "good unit serves" false (Faultinj.Supervisor.is_skipped sup 0);
  let counter name =
    match Telemetry.Registry.find reg name with
    | Some (Telemetry.Registry.Counter c) -> Telemetry.Counter.value c
    | _ -> -1
  in
  Alcotest.(check int) "cold_restores minted lazily" 1 (counter "sfi.good.cold_restores");
  Alcotest.(check int) "no counter for the failed unit" (-1)
    (counter "sfi.bad.cold_restores")

(* ------------------------------------------------------------------ *)
(* Flowtab durable recovery                                            *)
(* ------------------------------------------------------------------ *)

let flowtab_ctx reg clock =
  {
    Netstack.Shard.qc_queue = 0;
    qc_clock = clock;
    qc_registry = reg;
    qc_flowcache = None;
  }

let test_flowtab_recover () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
  @@ fun () ->
  let reg = Telemetry.Registry.create () in
  let clock = Cycles.Clock.create () in
  let d = Durable.open_store ~graph:3 ~dir () in
  let a = Incr.iarr ~chunk:16 (Array.make 256 0) in
  Incr.iarr_set a 9 123;
  ignore (Durable.save d ~tag:"flowtab" ~chunks:(Incr.iarr_to_chunks a));
  (match
     Netstack.Flowtab.recover ~durable:(Durable.open_store ~graph:3 ~dir ())
       (flowtab_ctx reg clock)
   with
  | Error m -> Alcotest.failf "recover failed: %s" m
  | Ok (ft, rv) ->
    Alcotest.(check int) "bucket value survives" 123 (Netstack.Flowtab.get ft 9);
    Alcotest.(check int) "buckets" 256 (Netstack.Flowtab.buckets ft);
    Alcotest.(check string) "tag" "flowtab" rv.Durable.r_tag);
  (* A store whose newest checkpoint carries another tag is refused. *)
  ignore (Durable.save d ~tag:"other" ~chunks:[| "x" |]);
  match
    Netstack.Flowtab.recover ~durable:(Durable.open_store ~graph:3 ~dir ())
      (flowtab_ctx reg clock)
  with
  | Ok _ -> Alcotest.fail "tag mismatch accepted"
  | Error _ -> ()

(* What a flowtab persist writes: after every persist, the newest
   manifest's chunks, read back from the pool, are the wire image of
   the live table, rebuilt here from [Flowtab.get] alone. Then a
   freshly recovered table, written to without a persist, rolls back
   to the state it recovered. *)
let test_flowtab_persist_image () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
  @@ fun () ->
  let env = Experiments.Env.make ~telemetry:(Telemetry.Registry.create ()) () in
  let ctx () = flowtab_ctx (Telemetry.Registry.create ()) env.Experiments.Env.clock in
  let buckets = 256 and chunk = 16 in
  let d = Durable.open_store ~graph:3 ~dir () in
  let ft = Netstack.Flowtab.create ~buckets ~chunk ~snapshot_every:2 ~durable:d (ctx ()) in
  let image ft =
    Incr.iarr_to_chunks (Incr.iarr ~chunk (Array.init buckets (Netstack.Flowtab.get ft)))
  in
  let check_newest what =
    let gen = Option.get (Netstack.Flowtab.generation ft) in
    match Durable.load d ~basename:(manifest_name gen) with
    | Error r -> Alcotest.failf "%s: %s" what (Durable.reject_to_string r)
    | Ok (_, chunks, _) ->
      if chunks <> image ft then Alcotest.failf "%s: the manifest is not the live table" what
  in
  let nic = env.Experiments.Env.nic in
  let run ft batches =
    let pipe =
      Netstack.Pipeline.create ~engine:env.Experiments.Env.engine
        ~mode:Netstack.Pipeline.Direct [ Netstack.Flowtab.stage ft ]
    in
    for b = 1 to batches do
      let persists = Netstack.Flowtab.persists ft in
      (match Netstack.Pipeline.run pipe (Netstack.Nic.rx_batch nic 32) with
      | Ok out -> ignore (Netstack.Nic.tx_batch nic out)
      | Error _ -> Alcotest.fail "batch failed");
      if Netstack.Flowtab.persists ft > persists then
        check_newest (Printf.sprintf "persist after batch %d" b)
    done
  in
  check_newest "baseline save";
  run ft 12;
  Alcotest.(check int) "baseline + one persist per two batches" 7 (Netstack.Flowtab.persists ft);
  let durable = Durable.open_store ~graph:3 ~dir () in
  match Netstack.Flowtab.recover ~snapshot_every:1_000 ~durable (ctx ()) with
  | Error m -> Alcotest.failf "recover failed: %s" m
  | Ok (rt, _) ->
    let recovered = Netstack.Flowtab.digest rt in
    Alcotest.(check string) "recovered = last persist" (Netstack.Flowtab.digest ft) recovered;
    run rt 3;
    Alcotest.(check bool) "written since recovery" false
      (String.equal recovered (Netstack.Flowtab.digest rt));
    Netstack.Flowtab.rollback rt;
    Alcotest.(check string) "rollback restores the recovered digest" recovered
      (Netstack.Flowtab.digest rt)

(* ------------------------------------------------------------------ *)
(* Decoder fuzzing over the committed corpus                           *)
(* ------------------------------------------------------------------ *)

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Sys.mkdir dst 0o755;
    Array.iter
      (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  end
  else write_file dst (read_file src)

(* A scratch store holding the committed corpus (test/corpus/: one
   manifest per rejection class) and, on top of it, a valid full save
   and a delta of it, so mutations reach both broken and sound files.
   Its files, by path relative to the store, and what each manifest
   loads to before any mutation. *)
type fuzz_store = {
  fdir : string;
  files : (string * string) array;  (** (relative path, bytes) *)
  pristine : (string * (string * string array * int, Durable.reject) result) list;
}

let fuzz_store =
  lazy
    (let fdir = fresh_dir () in
     at_exit (fun () -> if Sys.file_exists fdir then rm_rf fdir);
     copy_tree (Data.path "corpus") fdir;
     let graph = Experiments.Recover.corpus_graph in
     let d = Durable.open_store ~graph ~dir:fdir () in
     ignore (Durable.save d ~tag:"flowtab" ~chunks:[| "fuzz-a"; "fuzz-bb"; "fuzz-ccc" |]);
     ignore (Durable.save_delta d ~tag:"flowtab" ~dirty:[ (1, "fuzz-b2") ]);
     let in_dir sub =
       Sys.readdir (Filename.concat fdir sub) |> Array.to_list |> List.sort compare
       |> List.map (fun name -> if sub = "" then name else Filename.concat sub name)
     in
     let manifests = List.filter (fun n -> Filename.check_suffix n ".bsck") (in_dir "") in
     let files =
       List.map (fun p -> (p, read_file (Filename.concat fdir p))) (manifests @ in_dir "chunks")
     in
     {
       fdir;
       files = Array.of_list files;
       pristine = List.map (fun name -> (name, Durable.load d ~basename:name)) manifests;
     })

(* Where a manifest's chunk records start: after magic, schema, graph,
   kind, generation, parent, the tag and the record count. *)
let records_at bytes =
  if String.length bytes < 29 then 0
  else min (String.length bytes) (33 + (Int32.to_int (String.get_int32_be bytes 25) land 0xffff))

(* One mutation of [s]: truncated, a range duplicated in place, or a
   range replaced by a range of another file of the store. Positions
   are record boundaries half the time, lengths whole records
   (20 bytes) half the time. *)
let mutate_bytes files s =
  let open QCheck.Gen in
  let n = String.length s in
  let base = records_at s in
  let pos n = oneof [ int_bound n; map (fun k -> min n (base + (20 * k))) (int_bound 3) ] in
  let len = oneof [ return 20; int_range 1 24 ] in
  let cut s a b = String.sub s (min a (String.length s)) (max 0 (min b (String.length s) - a)) in
  frequency
    [
      (1, map (fun k -> (Printf.sprintf "truncate %d" k, cut s 0 k)) (int_bound n));
      ( 2,
        let* from = pos n and* l = len and* at = pos n in
        return
          ( Printf.sprintf "duplicate [%d,+%d) at %d" from l at,
            cut s 0 at ^ cut s from (from + l) ^ cut s at n ) );
      ( 2,
        let* src, other = oneofa files in
        let* at = pos n and* drop = len and* from = pos (String.length other) and* l = len in
        return
          ( Printf.sprintf "splice [%d,+%d) of %s over [%d,+%d)" from l src at drop,
            cut s 0 at ^ cut other from (from + l) ^ cut s (at + drop) n ) );
    ]

(* A file of the store and one to three mutations of it: its new bytes
   and what was done. *)
let gen_fuzz rand =
  let open QCheck.Gen in
  let store = Lazy.force fuzz_store in
  let rec go path k s steps =
    if k = 0 then return (path, s, List.rev steps)
    else
      let* step, s = mutate_bytes store.files s in
      go path (k - 1) s (step :: steps)
  in
  (let* path, bytes = oneofa store.files in
   let* k = int_range 1 3 in
   go path k bytes [])
    rand

(* A mutated manifest or pool chunk, written over the original in the
   scratch store: loading every manifest and recovering the store must
   each end, without an exception, in a typed reject or in exactly what
   that manifest loaded to before the mutation (a sound file the
   mutation left sound). *)
let prop_decoder_fuzz =
  QCheck.Test.make ~name:"mutated manifests and chunks: a typed reject or a valid recovery"
    ~count:300
    (QCheck.make
       ~print:(fun (path, _, steps) -> path ^ ": " ^ String.concat "; " steps)
       gen_fuzz)
    (fun (path, bytes, _) ->
      let store = Lazy.force fuzz_store in
      let file = Filename.concat store.fdir path in
      let original = read_file file in
      write_file file bytes;
      Fun.protect
        ~finally:(fun () -> write_file file original)
        (fun () ->
          Deadline.within 10 (fun () ->
              let graph = Experiments.Recover.corpus_graph in
              let d = Durable.open_store ~graph ~dir:store.fdir () in
              let valid name got =
                match List.assoc name store.pristine with
                | Ok expected when expected = got -> ()
                | _ -> QCheck.Test.fail_reportf "%s decoded to a value it never held" name
              in
              List.iter
                (fun (name, _) ->
                  match Durable.load d ~basename:name with
                  | Ok got -> valid name got
                  | Error _ -> ())
                store.pristine;
              match Durable.recover d with
              | Some rv, _ ->
                valid (manifest_name rv.Durable.r_generation)
                  (rv.Durable.r_tag, rv.Durable.r_chunks, rv.Durable.r_generation)
              | None, _ -> ());
          true))

(* ------------------------------------------------------------------ *)
(* Chunk decoder fuzzing                                               *)
(* ------------------------------------------------------------------ *)

(* An [iarr] image (its chunk array) from a random table. *)
let gen_image =
  QCheck.Gen.(
    map
      (fun (n, chunk, writes) ->
        let a = Incr.iarr ~chunk (Array.make n 0) in
        List.iter (fun (i, v) -> if n > 0 then Incr.iarr_set a (i mod n) v) writes;
        Incr.iarr_to_chunks a)
      (triple (int_range 0 70) (int_range 1 9) (small_list (pair small_nat (QCheck.gen iarr_value)))))

(* One mutation of [img]: a bit flipped, a chunk truncated, dropped or
   duplicated, a byte range of one chunk spliced over a range of
   another, or the chunks from some index on replaced by [other]'s. *)
let mutate_image other img =
  let open QCheck.Gen in
  let n = Array.length img in
  let without i = Array.append (Array.sub img 0 i) (Array.sub img (i + 1) (n - i - 1)) in
  let insert at c = Array.concat [ Array.sub img 0 at; [| c |]; Array.sub img at (n - at) ] in
  let set i c = Array.mapi (fun k x -> if k = i then c else x) img in
  let cut s a b = String.sub s (min a (String.length s)) (max 0 (min b (String.length s) - a)) in
  let tail_from =
    let* a = int_bound n and* b = int_bound (Array.length other) in
    return
      ( Printf.sprintf "chunks %d.. replaced by the other image's %d.." a b,
        Array.append (Array.sub img 0 a) (Array.sub other b (Array.length other - b)) )
  in
  if n = 0 then tail_from
  else
    let* i = int_bound (n - 1) in
    let c = img.(i) in
    let len = String.length c in
    frequency
      [
        ( 4,
          if len = 0 then tail_from
          else
            let* j = int_bound (len - 1) and* b = int_bound 7 in
            let flipped = Bytes.of_string c in
            Bytes.set flipped j (Char.chr (Char.code c.[j] lxor (1 lsl b)));
            return (Printf.sprintf "flip chunk %d byte %d bit %d" i j b, set i (Bytes.to_string flipped)) );
        (1, map (fun k -> (Printf.sprintf "truncate chunk %d to %d" i k, set i (cut c 0 k))) (int_bound len));
        (1, return (Printf.sprintf "drop chunk %d" i, without i));
        (1, map (fun at -> (Printf.sprintf "duplicate chunk %d at %d" i at, insert at c)) (int_bound n));
        ( 1,
          let* k = int_bound (n - 1) in
          let src = img.(k) in
          let* at = int_bound len and* drop = int_bound 24 in
          let* from = int_bound (String.length src) and* l = int_bound 24 in
          return
            ( Printf.sprintf "splice [%d,+%d) of chunk %d over [%d,+%d) of chunk %d" from l k at drop i,
              set i (cut c 0 at ^ cut src from (from + l) ^ cut c (at + drop) len) ) );
        (1, tail_from);
      ]

(* Data chunk [i] of an [iarr] image split into its bitmap and its
   values, by the geometry the image's meta chunk claims; [None] when
   the meta chunk does not parse, does not cover [i], or the payload is
   shorter than its bitmap. *)
let iarr_payload img i =
  if Array.length img = 0 || String.length img.(0) <> 8 || i < 1 || i >= Array.length img then
    None
  else
    let u32 o = Int32.to_int (String.get_int32_be img.(0) o) land 0xffff_ffff in
    let n = u32 0 and chunk = u32 4 in
    let len = if chunk = 0 then -1 else min chunk (n - ((i - 1) * chunk)) in
    let p = img.(i) in
    let nb = (len + 7) / 8 in
    if len < 0 || String.length p < nb then None
    else Some (String.sub p 0 nb, String.sub p nb (String.length p - nb))

(* Mutations that know an [iarr] payload's layout, so they get past the
   length check: mark or unmark a slot (inserting a value, possibly 0 or
   out of range, or removing the marked slot's value with it), zero a
   value, or splice one payload's bitmap onto another's values. *)
let mutate_iarr other img =
  let open QCheck.Gen in
  let n = Array.length img in
  let* i = int_range 1 (max 1 (n - 1)) in
  match iarr_payload img i with
  | None -> mutate_image other img
  | Some (bitmap, values) ->
    let set p = Array.mapi (fun k x -> if k = i then p else x) img in
    let cut s a b = String.sub s a (b - a) in
    let flip =
      let bits = 8 * String.length bitmap in
      if bits = 0 then mutate_image other img
      else
        let* bit = int_bound (bits - 1) and* v = QCheck.gen iarr_value in
        let byte = Char.code bitmap.[bit / 8] in
        let marked k = (Char.code bitmap.[k / 8] lsr (k land 7)) land 1 in
        let before = ref 0 in
        for k = 0 to bit - 1 do before := !before + marked k done;
        let at = min (String.length values) (8 * !before) in
        let bitmap' = Bytes.of_string bitmap in
        Bytes.set bitmap' (bit / 8) (Char.chr (byte lxor (1 lsl (bit land 7))));
        let step, values' =
          if marked bit = 1 then
            ( Printf.sprintf "unmark slot %d of chunk %d, its value removed" bit i,
              cut values 0 at ^ cut values (min (String.length values) (at + 8)) (String.length values) )
          else
            let b = Bytes.create 8 in
            Bytes.set_int64_be b 0 (Int64.of_int v);
            ( Printf.sprintf "mark slot %d of chunk %d, value %d inserted" bit i v,
              cut values 0 at ^ Bytes.to_string b ^ cut values at (String.length values) )
        in
        return (step, set (Bytes.to_string bitmap' ^ values'))
    in
    let zero =
      if String.length values < 8 then mutate_image other img
      else
        let* k = int_bound ((String.length values / 8) - 1) in
        return
          ( Printf.sprintf "zero value %d of chunk %d" k i,
            set (bitmap ^ cut values 0 (8 * k) ^ String.make 8 '\000'
                 ^ cut values ((8 * k) + 8) (String.length values)) )
    in
    let splice =
      let* src = oneofl [ img; other ] in
      let* j = int_range 1 (max 1 (Array.length src - 1)) in
      match iarr_payload src j with
      | None -> mutate_image other img
      | Some (_, values') ->
        return
          (Printf.sprintf "chunk %d's bitmap over the values of chunk %d" i j, set (bitmap ^ values'))
    in
    frequency [ (2, flip); (1, zero); (1, splice) ]

let gen_chunk_fuzz =
  let open QCheck.Gen in
  let* img = gen_image and* other = gen_image in
  let rec go k img steps =
    if k = 0 then return (img, List.rev steps)
    else
      let* step, img = oneof [ mutate_image other img; mutate_iarr other img ] in
      go (k - 1) img (step :: steps)
  in
  let* k = int_range 1 3 in
  go k img []

(* Every mutated image decodes, without an exception and within the
   alarm, to a typed reject or to a table whose image is exactly the
   bytes decoded: a decoder that accepts a non-canonical image would
   checkpoint something other than what it loaded. *)
let prop_chunk_decoder_fuzz =
  QCheck.Test.make ~name:"mutated iarr chunks: a typed reject or the same bytes" ~count:2000
    (QCheck.make
       ~print:(fun (img, steps) ->
         Printf.sprintf "%s: %s"
           (String.concat "|" (Array.to_list (Array.map (Printf.sprintf "%S") img)))
           (String.concat "; " steps))
       gen_chunk_fuzz)
    (fun (img, _) ->
      match
        Deadline.within 10 (fun () -> Result.map Incr.iarr_to_chunks (Incr.iarr_of_chunks img))
      with
      | Error _ -> true
      | Ok img' when img' = img -> true
      | Ok _ -> QCheck.Test.fail_report "accepted an image that re-encodes to other bytes")

let () =
  let qt = Seed.to_alcotest in
  Alcotest.run "durable"
    [
      ( "codec",
        [
          qt prop_iarr_roundtrip;
          qt ~rand:(Random.State.make [| 0xf1a |]) prop_fnv64_reference;
          qt ~rand:(Random.State.make [| 0xf1b |]) prop_fnv64_many_reference;
          Alcotest.test_case "fnv64 published vectors" `Quick test_fnv64_vectors;
          Alcotest.test_case "hash and chunk codec allocate per call, not per byte" `Quick
            test_kernels_allocation_free;
          Alcotest.test_case "iarr decode rejects malformed images" `Quick
            test_iarr_decode_rejects;
          Alcotest.test_case "iarr payload is its bitmap and its nonzero slots" `Quick
            test_iarr_payload_sizes;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "every manifest bit flip detected" `Quick
            test_manifest_bitflips;
          Alcotest.test_case "every manifest truncation rejected deterministically" `Quick
            test_manifest_truncations;
          Alcotest.test_case "pool chunk corruption detected" `Quick test_pool_bitflips;
          Alcotest.test_case "the first failing slot is the one rejected" `Quick
            test_reject_precedence;
          Alcotest.test_case "a record count past the end allocates nothing for it" `Quick
            test_manifest_count_bounded;
          Alcotest.test_case "iarr counts past the end allocate nothing" `Quick
            test_chunk_counts_bounded;
          qt prop_decoder_fuzz;
          qt prop_chunk_decoder_fuzz;
        ] );
      ( "store",
        [
          Alcotest.test_case "delta lineage + content-addressed reuse" `Quick
            test_delta_lineage_and_reuse;
          Alcotest.test_case "save_delta guards" `Quick test_save_delta_guards;
          Alcotest.test_case "recover newest valid, newest-first rejects" `Quick
            test_recover_newest_valid;
          Alcotest.test_case "recover over an empty store" `Quick test_recover_empty_store;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "supervisor cold start" `Quick test_cold_start;
          Alcotest.test_case "flowtab recovers from disk" `Quick test_flowtab_recover;
          Alcotest.test_case "flowtab persists its live image" `Quick
            test_flowtab_persist_image;
        ] );
    ]
