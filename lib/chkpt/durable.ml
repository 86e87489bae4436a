type reject =
  | Bad_magic
  | Bad_schema of { found : int; expected : int }
  | Bad_graph of { found : int; expected : int }
  | Truncated of string
  | File_checksum_mismatch
  | Chunk_checksum_mismatch of int
  | Missing_chunk of string
  | Structural of string

let reject_to_string = function
  | Bad_magic -> "bad magic"
  | Bad_schema { found; expected } ->
    Printf.sprintf "schema version mismatch (found %d, expected %d)" found expected
  | Bad_graph { found; expected } ->
    Printf.sprintf "graph version mismatch (found %d, expected %d)" found expected
  | Truncated section -> Printf.sprintf "truncated in %s" section
  | File_checksum_mismatch -> "file checksum mismatch"
  | Chunk_checksum_mismatch i -> Printf.sprintf "chunk %d checksum mismatch" i
  | Missing_chunk h -> Printf.sprintf "missing pool chunk %s" h
  | Structural msg -> Printf.sprintf "structural: %s" msg

let magic = "BSCKPT1\n"
let current_schema = 1
let record_body_len = 16 (* u32 index + u32 payload length + i64 content hash *)
let max_chunks = 1 lsl 24

(* One decoded manifest: what save_delta copies clean slots from. *)
type manifest = { m_tag : string; m_hashes : int64 array; m_lengths : int array }

type counters = {
  c_saves : Telemetry.Counter.t;
  c_delta_saves : Telemetry.Counter.t;
  c_chunks_written : Telemetry.Counter.t;
  c_chunks_reused : Telemetry.Counter.t;
  c_bytes_written : Telemetry.Counter.t;
  c_recovered : Telemetry.Counter.t;
  c_rejected : Telemetry.Counter.t;
  reg : Telemetry.Registry.t;
}

type t = {
  dir : string;
  chunks_dir : string;
  graph : int;
  tele : counters option;
  mutable next_gen : int;
  mutable last : manifest option;
}

let reject_leaf = function
  | Bad_magic -> "bad_magic"
  | Bad_schema _ -> "bad_schema"
  | Bad_graph _ -> "bad_graph"
  | Truncated _ -> "truncated"
  | File_checksum_mismatch -> "file_checksum"
  | Chunk_checksum_mismatch _ -> "chunk_checksum"
  | Missing_chunk _ -> "missing_chunk"
  | Structural _ -> "structural"

let reject_leaves =
  [
    "bad_magic"; "bad_schema"; "bad_graph"; "truncated"; "file_checksum";
    "chunk_checksum"; "missing_chunk"; "structural";
  ]

let counters_of reg =
  let c leaf = Telemetry.Registry.counter reg ("chkpt.durable." ^ leaf) in
  (* Mint the reject classes eagerly too, so a store's telemetry block
     renders the same metric set whether or not it ever saw a bad file
     (the zeros are part of the deterministic recovery output). *)
  List.iter (fun leaf -> ignore (c ("reject." ^ leaf))) reject_leaves;
  {
    c_saves = c "saves";
    c_delta_saves = c "delta_saves";
    c_chunks_written = c "chunks_written";
    c_chunks_reused = c "chunks_reused";
    c_bytes_written = c "bytes_written";
    c_recovered = c "recovered";
    c_rejected = c "rejected";
    reg;
  }

let count t f = match t.tele with Some c -> f c | None -> ()

let note_reject t reject =
  count t (fun c ->
      Telemetry.Counter.incr c.c_rejected;
      Telemetry.Counter.incr
        (Telemetry.Registry.counter c.reg ("chkpt.durable.reject." ^ reject_leaf reject)))

let mkdir_p path =
  if not (Sys.file_exists path) then (
    let parent = Filename.dirname path in
    if parent <> path && not (Sys.file_exists parent) then
      (* One level of recursion is all the store layout needs. *)
      Sys.mkdir parent 0o755;
    Sys.mkdir path 0o755)

let manifest_name gen = Printf.sprintf "ckpt-%08d.bsck" gen

let gen_of_name name =
  match Scanf.sscanf_opt name "ckpt-%8d.bsck%!" (fun g -> g) with
  | Some g when g >= 0 -> Some g
  | _ -> None

let list_manifests t =
  (* (generation, basename), newest first; deterministic whatever the
     filesystem's readdir order. *)
  Sys.readdir t.dir |> Array.to_list
  |> List.filter_map (fun name ->
         match gen_of_name name with Some g -> Some (g, name) | None -> None)
  |> List.sort (fun (a, _) (b, _) -> compare b a)

let open_store ?telemetry ~graph ~dir () =
  mkdir_p dir;
  let chunks_dir = Filename.concat dir "chunks" in
  mkdir_p chunks_dir;
  let t =
    {
      dir;
      chunks_dir;
      graph;
      tele = Option.map counters_of telemetry;
      next_gen = 1;
      last = None;
    }
  in
  (match list_manifests t with (g, _) :: _ -> t.next_gen <- g + 1 | [] -> ());
  t


(* --- Pool ------------------------------------------------------------- *)

let pool_path t hash = Filename.concat t.chunks_dir (Wire.hex_of_hash hash ^ ".chunk")

let write_file path bytes =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc bytes;
  close_out oc;
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Write-if-absent: the pool is content-addressed, so a payload already
   present under its hash IS this chunk — that is the on-disk mirror of
   the shadow snapshot adopting a clean subtree wholesale. [hash] is
   [payload]'s, computed with the rest of its save's in one batch. *)
let pool_put t hash payload =
  if Sys.file_exists (pool_path t hash) then
    count t (fun c -> Telemetry.Counter.incr c.c_chunks_reused)
  else begin
    write_file (pool_path t hash) payload;
    count t (fun c ->
        Telemetry.Counter.incr c.c_chunks_written;
        Telemetry.Counter.add c.c_bytes_written (String.length payload))
  end

(* --- Encode ----------------------------------------------------------- *)

let write_manifest t ~kind ~parent ~tag ~hashes ~lengths =
  let gen = t.next_gen in
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  Wire.w_u32 buf current_schema;
  Wire.w_u32 buf t.graph;
  Wire.w_u8 buf kind;
  Wire.w_u32 buf gen;
  Wire.w_u32 buf parent;
  Wire.w_string buf tag;
  Wire.w_u32 buf (Array.length hashes);
  Array.iteri
    (fun i hash ->
      Wire.w_u32 buf record_body_len;
      Wire.w_u32 buf i;
      Wire.w_u32 buf lengths.(i);
      Wire.w_i64 buf hash)
    hashes;
  Wire.w_i64 buf (Wire.fnv64 (Buffer.contents buf));
  let bytes = Buffer.contents buf in
  write_file (Filename.concat t.dir (manifest_name gen)) bytes;
  count t (fun c -> Telemetry.Counter.add c.c_bytes_written (String.length bytes));
  t.next_gen <- gen + 1;
  t.last <- Some { m_tag = tag; m_hashes = hashes; m_lengths = lengths };
  gen

let save t ~tag ~chunks =
  let hashes = Wire.fnv64_many chunks in
  Array.iteri (fun i payload -> pool_put t hashes.(i) payload) chunks;
  let lengths = Array.map String.length chunks in
  let gen = write_manifest t ~kind:0 ~parent:0 ~tag ~hashes ~lengths in
  count t (fun c -> Telemetry.Counter.incr c.c_saves);
  gen

let save_delta t ~tag ~dirty =
  match t.last with
  | None -> invalid_arg "Durable.save_delta: no parent checkpoint in this handle"
  | Some last ->
    if not (String.equal last.m_tag tag) then
      invalid_arg "Durable.save_delta: tag differs from the parent checkpoint";
    let n = Array.length last.m_hashes in
    (* Every index is checked before anything is hashed or written, so
       a bad one leaves the pool and the counters as they were. *)
    if List.exists (fun (i, _) -> i < 0 || i >= n) dirty then
      invalid_arg "Durable.save_delta: slot index out of range";
    let dirty = Array.of_list dirty in
    let dirty_hashes = Wire.fnv64_many (Array.map snd dirty) in
    let hashes = Array.copy last.m_hashes in
    let lengths = Array.copy last.m_lengths in
    Array.iteri
      (fun j (i, payload) ->
        pool_put t dirty_hashes.(j) payload;
        hashes.(i) <- dirty_hashes.(j);
        lengths.(i) <- String.length payload)
      dirty;
    let parent = t.next_gen - 1 in
    let gen = write_manifest t ~kind:1 ~parent ~tag ~hashes ~lengths in
    count t (fun c -> Telemetry.Counter.incr c.c_delta_saves);
    gen

(* --- Decode ----------------------------------------------------------- *)

exception Rejected of reject

let decode_manifest t bytes =
  let r = Wire.reader bytes in
  try
    let tag, hashes, lengths, gen =
      Wire.with_section r "header" (fun () ->
          let m = Wire.r_bytes r (String.length magic) in
          if not (String.equal m magic) then raise (Rejected Bad_magic);
          let schema = Wire.r_u32 r in
          if schema <> current_schema then
            raise (Rejected (Bad_schema { found = schema; expected = current_schema }));
          let graph = Wire.r_u32 r in
          if graph <> t.graph then
            raise (Rejected (Bad_graph { found = graph; expected = t.graph }));
          let kind = Wire.r_u8 r in
          if kind <> 0 && kind <> 1 then
            raise (Rejected (Structural (Printf.sprintf "unknown kind %d" kind)));
          let gen = Wire.r_u32 r in
          let _parent = Wire.r_u32 r in
          let tag = Wire.r_string r in
          let count = Wire.r_u32 r in
          if count > max_chunks then
            raise (Rejected (Structural (Printf.sprintf "chunk count %d too large" count)));
          (* A record is a length word and its body, and a record is
             stored only once all of it has been read, so no more than
             the bytes left can hold are ever stored: the arrays are
             sized by those, not by a count that may lie. *)
          let room = min count (Wire.remaining r / (4 + record_body_len)) in
          let hashes = Array.make room 0L in
          let lengths = Array.make room 0 in
          for i = 0 to count - 1 do
            Wire.with_section r
              (Printf.sprintf "record %d" i)
              (fun () ->
                let body_len = Wire.r_u32 r in
                if body_len <> record_body_len then
                  raise
                    (Rejected
                       (Structural (Printf.sprintf "record %d length %d" i body_len)));
                let index = Wire.r_u32 r in
                if index <> i then
                  raise
                    (Rejected
                       (Structural (Printf.sprintf "record %d carries index %d" i index)));
                let length = Wire.r_u32 r in
                let hash = Wire.r_i64 r in
                lengths.(i) <- length;
                hashes.(i) <- hash)
          done;
          (tag, hashes, lengths, gen))
    in
    Wire.with_section r "trailer" (fun () ->
        let body = String.sub bytes 0 (Wire.pos r) in
        let stored = Wire.r_i64 r in
        if not (Wire.at_end r) then
          raise (Rejected (Structural "trailing bytes after checksum"));
        if not (Int64.equal stored (Wire.fnv64 body)) then
          raise (Rejected File_checksum_mismatch));
    Ok (tag, hashes, lengths, gen)
  with
  | Rejected reject -> Error reject
  | Wire.Truncated section -> Error (Truncated section)

(* Slots are read in order up to the first that is missing or has the
   wrong length, and the slots read are hashed in one batch. The reject
   is the one a slot-by-slot check would give, the first failing slot's:
   a checksum mismatch before the unreadable slot, else its reject. *)
let resolve_chunks t hashes lengths =
  let n = Array.length hashes in
  let chunks = Array.make n "" in
  let rec read i =
    if i = n then (n, None)
    else
      let path = pool_path t hashes.(i) in
      if not (Sys.file_exists path) then
        (i, Some (Missing_chunk (Wire.hex_of_hash hashes.(i))))
      else
        let payload = read_file path in
        if String.length payload <> lengths.(i) then
          (i, Some (Structural (Printf.sprintf "chunk %d length mismatch" i)))
        else begin
          chunks.(i) <- payload;
          read (i + 1)
        end
  in
  let read_n, unreadable = read 0 in
  let sums = Wire.fnv64_many (Array.sub chunks 0 read_n) in
  let rec first_mismatch i =
    if i = read_n then None
    else if Int64.equal sums.(i) hashes.(i) then first_mismatch (i + 1)
    else Some i
  in
  match (first_mismatch 0, unreadable) with
  | Some i, _ -> Error (Chunk_checksum_mismatch i)
  | None, Some reject -> Error reject
  | None, None -> Ok chunks

let load_raw t ~basename =
  let path = Filename.concat t.dir basename in
  if not (Sys.file_exists path) then Error (Structural "no such checkpoint file")
  else
    match decode_manifest t (read_file path) with
    | Error _ as e -> e
    | Ok (_, _, _, gen)
      when match gen_of_name basename with Some g -> g <> gen | None -> false ->
      (* Canonical checkpoint id: the generation is both the filename
         and a checksummed header field; a file renamed over another
         generation is rejected, not trusted. *)
      Error (Structural (Printf.sprintf "generation %d does not match filename" gen))
    | Ok (tag, hashes, lengths, gen) -> (
      match resolve_chunks t hashes lengths with
      | Error _ as e -> e
      | Ok chunks -> Ok (tag, hashes, lengths, chunks, gen))

let load t ~basename =
  match load_raw t ~basename with
  | Error reject ->
    note_reject t reject;
    Error reject
  | Ok (tag, _, _, chunks, gen) -> Ok (tag, chunks, gen)

type recovered = { r_generation : int; r_tag : string; r_chunks : string array }

let recover t =
  let rec scan rejected = function
    | [] -> (None, List.rev rejected)
    | (_, name) :: older -> (
      match load_raw t ~basename:name with
      | Error reject ->
        note_reject t reject;
        scan ((name, reject) :: rejected) older
      | Ok (tag, hashes, lengths, chunks, gen) ->
        (* Prime the handle so save_delta continues this lineage. *)
        t.last <- Some { m_tag = tag; m_hashes = hashes; m_lengths = lengths };
        count t (fun c -> Telemetry.Counter.incr c.c_recovered);
        (Some { r_generation = gen; r_tag = tag; r_chunks = chunks }, List.rev rejected))
  in
  scan [] (list_manifests t)
