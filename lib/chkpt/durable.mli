(** The durable, versioned checkpoint store: {!Incr}'s O(dirty)
    snapshots taken to disk (DESIGN.md §14).

    A store is a directory of {e generation-numbered manifest files}
    ([ckpt-%08d.bsck]) over a shared {e content-addressed chunk pool}
    ([chunks/<fnv64>.chunk]). A manifest is the deterministic binary
    record of one checkpoint: magic + schemaVersion + graphVersion
    header, the payload tag, one length-prefixed record per chunk slot
    (slot index, payload length, content hash), and a whole-file
    checksum trailer. Chunk payloads live in the pool, written once per
    unique content hash — so a delta checkpoint writes only the chunks
    that changed since the parent generation, and every clean chunk is
    {e the same bytes on disk}, shared by name exactly as the
    in-memory shadow shares clean subtrees. The manifest itself always
    lists every slot, which is what makes recovery single-file: the
    newest valid manifest plus the pool is a complete checkpoint, no
    delta chain to replay.

    Decoding is strict and total: every field is validated (magic,
    schema/graph version, record shape, slot ordering, per-chunk
    checksum against the pool, whole-file checksum), and every failure
    maps to one deterministic {!reject} — same file, same error, same
    telemetry, on any host and any shard count. A corrupt, truncated or
    stale-version checkpoint is rejected {e before} any state is
    rebuilt (the Hive plan's "corrupt checkpoint fails before step 0"),
    and {!recover} then falls back to the next-newest file.

    With a [telemetry] registry, stores record [chkpt.durable.*]:
    saves/delta_saves, chunks_written/chunks_reused/bytes_written,
    recovered, rejected, and one [chkpt.durable.reject.<kind>] counter
    per rejection class. *)

type reject =
  | Bad_magic
  | Bad_schema of { found : int; expected : int }
  | Bad_graph of { found : int; expected : int }
  | Truncated of string  (** Section label, e.g. ["header"], ["record 3"]. *)
  | File_checksum_mismatch
  | Chunk_checksum_mismatch of int  (** Slot index. *)
  | Missing_chunk of string  (** Pool hash, 16 hex digits. *)
  | Structural of string

val reject_to_string : reject -> string
(** Stable, deterministic rendering (golden-diffed by E19). *)

type t

val open_store :
  ?telemetry:Telemetry.Registry.t ->
  graph:int ->
  dir:string ->
  unit ->
  t
(** Create/open the store directory (and its [chunks/] pool). [graph]
    is the caller's structure-layout version: manifests written by this
    handle carry it, and manifests carrying any other value are
    rejected with [Bad_graph] — bump it when the encoded layout of the
    checkpointed structure changes meaning. Generation numbering
    resumes past the newest file already present. *)

val save : t -> tag:string -> chunks:string array -> int
(** Write a full checkpoint: every chunk into the pool (skipping, and
    counting as reused, payloads already present) plus a fresh
    manifest. Returns the generation written. *)

val save_delta : t -> tag:string -> dirty:(int * string) list -> int
(** Write an incremental checkpoint: only the [dirty] slots' payloads
    can enter the pool; every other slot's record is copied from this
    handle's previous manifest (so the file is complete but the disk
    I/O is O(dirty)). Raises [Invalid_argument] if the handle has no
    previous manifest (nothing saved or recovered yet), the tag
    differs, or a slot index is out of range; every index is checked
    before anything is written, so a raise leaves the pool and the
    counters unchanged. *)

type recovered = {
  r_generation : int;
  r_tag : string;
  r_chunks : string array;
}

val recover : t -> recovered option * (string * reject) list
(** Cold-start scan: try every [ckpt-*.bsck] newest-generation-first,
    return the first that validates plus the rejections of every
    {e newer} file, newest first ([None] with all rejections when no
    file validates). A successful recovery primes the handle like a
    {!save} would, so {!save_delta} can continue the lineage. *)

(** {1 For tests}

    oracle: the single-manifest decoder, which [test/test_durable.ml] fuzzes
    and whose reject precedence it pins; {!recover} is the caller. *)

val load : t -> basename:string -> (string * string array * int, reject) result
(** Decode and fully validate one manifest file of the store directory
    (including resolving every chunk against the pool):
    [Ok (tag, chunks, generation)] or the deterministic rejection.
    When several chunks are bad, the reject is the first bad slot's
    in slot order: [Missing_chunk], a [Structural] length mismatch or
    [Chunk_checksum_mismatch i]. *)
