(** Set-associative LRU cache simulator.

    A three-level inclusive hierarchy (L1D → L2 → L3) over a synthetic
    64-bit address space. Components of the simulation (packet buffers,
    reference-table slots, Maglev lookup tables, ...) carry synthetic
    addresses; touching them charges the virtual clock with the latency
    of the level that hits.

    Each level is set-associative with exact LRU per set. An access
    probes L1, L2 and L3 in turn; the first level holding the line
    refreshes its LRU stamp, and every level above it fills the line
    into the first invalid way of its set, else over the least
    recently used way. Evictions do not propagate down or up. The
    textbook simulator in [test/cache_oracle.ml] is the reference the
    shortcuts here are tested against (DESIGN.md §10).

    This is what makes Figure 2's batch-size effect emerge from the
    model: larger batches touch more distinct packet-buffer lines
    between two visits to the same reference-table slot, so the SFI
    metadata gets evicted further down the hierarchy and remote calls
    get slightly more expensive (90 → ~122 cycles in the paper). *)

type level = L1 | L2 | L3 | Dram

type config = {
  line_bytes : int;        (** Cache-line size, shared by all levels. *)
  l1_sets : int;
  l1_ways : int;
  l2_sets : int;
  l2_ways : int;
  l3_sets : int;
  l3_ways : int;
}

val default_config : config
(** 32 KiB 8-way L1, 256 KiB 8-way L2, 8 MiB 16-way L3, 64-byte lines. *)

type t

val create : config -> t
(** Raises [Invalid_argument] if a level has no sets, no ways or more
    than 16 ways. *)

val line_of : t -> int -> int
(** The line number containing [addr] (i.e. [addr / line_bytes],
    strength-reduced to a shift for power-of-two line sizes). *)

val access : t -> int -> level
(** [access t addr] simulates one load/store of the line containing
    [addr]: returns the level that hit and installs the line in all
    levels above (inclusive fill, LRU update). *)

val latency : Cost_model.t -> level -> int
(** The model's load latency for a hit at [level]. *)

val access_lines : t -> Cost_model.t -> int -> n:int -> int
(** [access_lines t m line ~n] accesses the [n] consecutive lines
    [line .. line + n - 1] in order and returns the sum of their
    {!latency} under [m] — the same state change and total as [n]
    calls to {!access_line}, in one call. [n <= 0] accesses nothing
    and returns 0. This is the clock's hot path. *)

val repeat_hit : t -> int -> unit
(** [repeat_hit t n] replays [n] immediate re-accesses of the line the
    previous {!access} touched — guaranteed L1 hits on the same way.
    Counter, tick and LRU-stamp effects are identical to [n] calls to
    {!access} on that line. Raises [Invalid_argument] if no access
    preceded it since {!create} or the last {!flush}. *)

type counters = { l1_hits : int; l2_hits : int; l3_hits : int; dram_accesses : int }

val counters : t -> counters

(** {1 For tests}

    oracle: what [test/test_cycles.ml] drives the simulator with, access by
    access against the textbook oracle in [test/cache_oracle.ml], and
    the state it compares set by set. *)

val line_bytes : t -> int
(** The configured cache-line size. *)

val access_line : t -> int -> level
(** Like {!access} but takes a line number ({!line_of}) directly. *)

val flush : t -> unit
(** Invalidate every line at every level. *)

val resident : t -> level -> int -> (int * int * int) list
(** [resident t level s] lists the lines that set [s] of [level]
    ([L1], [L2] or [L3]) holds, as [(way, line, stamp)] from least to
    most recently used; [stamp] counts the accesses up to the line's
    last use. For the differential test against a reference
    simulator. Raises [Invalid_argument] for [Dram]. *)

val reset_counters : t -> unit
