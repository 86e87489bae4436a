(** Incremental checkpointing: the linearity argument taken one step
    further than §5.

    A full {!Checkpointable.checkpoint} avoids the visited set because
    aliasing is explicit — but it still walks the whole heap. Unique
    ownership buys more: a uniquely-owned subgraph can only be mutated
    {e through its one owner}, so a write barrier at the owner is
    sufficient to know the entire subtree is clean. Structures that
    stamp a generation on the mutated root path can therefore sync a
    delta snapshot in O(dirty) and structurally share every clean
    subtree with the previous snapshot (DESIGN.md §11).

    A ['a tracker] is the handle to such a structure: {!Trie.tracker}
    builds one for the firewall trie, {!iarr_tracker} for a flat array
    with chunked dirty bits (the storm flowtab). *)

type 'a tracker = {
  value : 'a;  (** The live structure; mutate it only through its own API. *)
  sync : unit -> Checkpointable.stats;
      (** Bring the shadow snapshot up to date. O(dirty); stats report
          [dirty_nodes] rebuilt vs [reused_nodes] shared. *)
  restore : unit -> Checkpointable.stats;
      (** Roll the live structure back to the last sync, touching only
          regions mutated since. Raises [Invalid_argument] while there
          is no snapshot: before the first sync, unless
          ({!iarr_of_chunks}) the structure was decoded from one. *)
}

val value : 'a tracker -> 'a
val sync : 'a tracker -> Checkpointable.stats
val restore : 'a tracker -> Checkpointable.stats

(** {2 Tracked flat int array}

    Per-chunk generation stamps: a write dirties its chunk. The shadow
    is the per-chunk wire payload (see the codec below) as of the last
    sync: sync encodes only the dirty chunks into it, restore decodes
    only those back. The one snapshot serves both rollback and the
    durable store ({!iarr_persist}). This is the storm
    experiment's flow table. *)

type iarr

val iarr : ?chunk:int -> int array -> iarr
(** Wrap [data] (owned by the tracker from now on). Default chunk: 16
    slots. *)

val iarr_get : iarr -> int -> int
val iarr_set : iarr -> int -> int -> unit
val iarr_length : iarr -> int
val iarr_tracker : iarr -> iarr tracker

(** {2 Durable chunk codec}

    The wire image of an [iarr] is one meta chunk (array length + chunk
    size) followed by one payload chunk per tracked chunk — so the
    durable chunk slots line up one-for-one with the in-memory
    dirty-tracking chunks, and a disk delta of the dirty chunks is
    exactly as complete as the in-memory shadow sync is (DESIGN.md
    §14).

    A payload for a chunk of [len] slots is a presence bitmap of
    [ceil (len / 8)] bytes (bit [i land 7] of byte [i / 8] is set iff
    slot [i] is nonzero) followed by the nonzero slots in slot order,
    8 bytes big-endian each: [ceil (len / 8) + 8 * nnz] bytes for [nnz]
    nonzero slots. A sparse chunk costs about 8 bytes per nonzero slot;
    a fully dense one of a multiple of 8 slots costs 1/64 more than 8
    bytes per slot. There is one encoding per chunk, so equal payloads
    mean equal chunks. *)

val iarr_dirty_list : iarr -> int list
(** Chunk ids dirty since the last sync, ascending. Capture {e before}
    calling [sync] (which clears them); the matching durable slots are
    these ids [+ 1] (slot 0 is the meta chunk). *)

val iarr_chunk_bytes : iarr -> int -> string
(** The wire payload of data chunk [c], encoded from the live array. *)

val iarr_to_chunks : iarr -> string array
(** Full wire image of the live array: [[| meta; chunk 0; ... |]]. *)

val iarr_persist :
  iarr tracker -> Durable.t -> tag:string -> delta:bool -> Checkpointable.stats * int
(** Sync the tracker, then persist the snapshot under [tag]: a full
    {!Durable.save} of {!iarr_synced_chunks}, or with [delta] a
    {!Durable.save_delta} of the slots [c + 1] of the chunks written
    since the last sync (their ids captured before it). [delta] needs
    a checkpoint already saved or recovered through [durable]. Returns
    the sync's stats and the generation written. *)

val iarr_digest : iarr -> string
(** Hex digest of {!iarr_to_chunks}: the equality oracle between a
    recovered table and the state it was persisted from. *)

val iarr_of_chunks : string array -> (iarr, string) result
(** Strict structural decode of a full wire image. It validates the
    meta chunk and the chunk count; then every payload's exact byte
    length ([ceil (len / 8)] bitmap bytes plus 8 per set bit) and that
    no bit past the chunk's last slot is set; then that every marked
    value is nonzero and fits OCaml's 63-bit [int] (an error names the
    chunk and the slot within it). Whatever it accepts re-encodes to
    the same bytes. The lengths and bitmaps are checked before the
    table is allocated, so a slot count the bytes do not back (a short
    bitmap, or set bits with no values behind them) allocates nothing;
    an accepted image allocates the table and writes only its nonzero
    slots. An image in the former fixed-width layout (8 bytes per slot,
    no bitmap) has its first bytes read as a bitmap, and unless they
    happen to count out its length it is rejected there.

    The verified payloads become the shadow as they are: the result
    has a snapshot (restore returns to the decoded image) and no dirty
    chunk, and its first sync encodes only chunks written since yet
    reports every chunk as captured, as a fresh [iarr]'s first sync
    does. *)

(** {1 For tests}

    oracle: what [test/test_durable.ml] and [test/test_chkpt_incr.ml] check a
    decoded or recovered table against. *)

val iarr_chunks : iarr -> int

val iarr_synced_chunks : iarr -> string array
(** Full wire image of the snapshot: [[| meta; chunk 0; ... |]] with
    every payload the shadow's own string, so {!iarr_persist} encodes
    nothing twice. Equals {!iarr_to_chunks} right after a sync. Raises
    [Invalid_argument] when there is no snapshot yet. *)
