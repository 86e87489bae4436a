(** Micro-architectural cost parameters for the virtual cycle clock.

    The paper evaluates on an 8-core Intel Xeon E5530 2.40 GHz; we have
    no such testbed, so experiments run against a deterministic cost
    model instead (see DESIGN.md §2). Latencies follow the measurements
    of Molka et al. (ICPP'15) for Intel server parts, which is also the
    source the paper cites for its 96–146 ns memory-latency budget
    argument.

    All costs are in CPU cycles. The defaults are deliberately plain
    integers — the point of the model is to reproduce the *shape* of the
    paper's curves from first principles (which operations a mechanism
    performs and where its memory traffic lands in the hierarchy), not
    to match absolute hardware numbers. *)

type t = {
  l1_latency : int;        (** L1D hit, cycles. *)
  l2_latency : int;        (** L2 hit. *)
  l3_latency : int;        (** L3 hit — the paper calls a remote call "roughly the cost of 2 or 3 L3 cache accesses". *)
  dram_latency : int;      (** Memory access; 96–146 ns ≈ 230–350 cycles at 2.4 GHz. *)
  alu : int;               (** Simple register-to-register op. *)
  branch : int;            (** Correctly predicted branch. *)
  branch_miss : int;       (** Mispredicted branch. *)
  call : int;              (** Direct call + return pair. *)
  indirect_call : int;     (** Indirect (vtable/proxy) call + return; assumes BTB hit. *)
  atomic_rmw : int;        (** Locked read-modify-write (e.g. refcount upgrade). *)
  tls_lookup : int;        (** Thread-local-storage slot read (segment-based). *)
  alloc_fixed : int;       (** Allocator fast path, excluding the cache traffic of touching the object. *)
  unwind : int;            (** Stack unwinding on a panic, to the domain entry point (landing pads, personality routine). Dominates recovery cost; the default is the one free parameter calibrated so E3's total lands near the paper's 4389-cycle report (ablation A3 sweeps it). *)
  per_byte_copy : float;   (** Incremental cost of copying one byte, on top of cache traffic. *)
}

val default : t
(** Haswell-class defaults; every experiment uses these unless it is
    explicitly an ablation over the cost model. *)
