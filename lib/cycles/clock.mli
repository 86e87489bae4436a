(** The virtual cycle clock.

    A clock combines a {!Cost_model.t} with a {!Cache.t} hierarchy and a
    monotone cycle counter. Simulated components charge it for the
    operations they perform; experiments read back elapsed cycles
    exactly like the paper reads the TSC.

    A clock also owns a synthetic address space (native-int addressed): simulated
    objects (packet buffers, reference-table slots, lookup tables, ...)
    obtain stable addresses from {!alloc_addr} so that their memory
    traffic interacts in the shared cache hierarchy. *)

type t

(** Abstract operations a simulated component can perform. [Copy n]
    models copying [n] bytes (fixed per-byte cost; the cache traffic of
    the source and destination must be charged separately via
    {!touch}). [Fixed n] charges exactly [n] cycles and is reserved for
    calibration tests. *)
type op =
  | Alu of int          (** [Alu n]: [n] simple ALU ops. *)
  | Branch_hit
  | Branch_miss
  | Call
  | Indirect_call
  | Atomic_rmw
  | Tls_lookup
  | Alloc
  | Unwind
  | Copy of int
  | Fixed of int

val create : ?model:Cost_model.t -> unit -> t

val now : t -> int64
(** Elapsed virtual cycles since creation. *)

val charge : t -> op -> unit

val charge_many : t -> op -> int -> unit
(** [charge_many t op n] charges [op] [n] times in one addition. *)

val touch : t -> int -> bytes:int -> unit
(** [touch t addr ~bytes] simulates a memory access to
    [\[addr, addr+bytes)]: each overlapped cache line is probed and the
    latency of the level that hits is charged. *)

val touch_lines : t -> int -> n:int -> unit
(** [touch_lines t addr ~n] accesses the [n] consecutive lines from
    the one holding [addr] — the same charge and cache state as [n]
    single-line {!touch} calls one line apart, in one call. [n <= 0]
    touches nothing. *)

val touch_same_line : t -> int -> times:int -> unit
(** [touch_same_line t addr ~times] simulates [times] consecutive
    accesses to the single line at [addr]: the first probes the
    hierarchy, the rest are the L1 hits they are guaranteed to be.
    Equivalent to [times] calls to [touch t addr ~bytes:1], charged in
    bulk. *)

val alloc_addr : t -> bytes:int -> int
(** Reserve [bytes] of synthetic address space (64-byte aligned) and
    return its base address. Never recycles addresses. *)

val cache_counters : t -> Cache.counters

val measure : t -> (unit -> 'a) -> 'a * int64
(** [measure t f] runs [f] and returns its result with the cycles it
    charged. *)

(** {1 For tests}

    oracle: the model and per-access level that [test/test_cycles.ml] checks
    the clock's charges against. *)

val model : t -> Cost_model.t

val touch_level : t -> int -> Cache.level
(** Single-line access, charged like {!touch}, that also reports
    where it hit. Only tests use it. *)
