(** The network functions used by the evaluation.

    {!null_chain} is Figure 2's measurement probe ("forward batches of
    packets without doing any work on them"); [maglev] is the realistic
    comparison NF; the rest populate the examples and the wider test
    surface (TTL/hop processing, checksum verification, firewalling,
    DPI-style payload scans, and deterministic fault injection for the
    recovery experiment). *)

val null_chain : int -> Stage.t list
(** [n] do-nothing stages, each a {!Stage.barrier}: Figure 2's
    per-boundary probe, one protection-domain crossing per stage under
    [Isolated]. *)

val ttl_decrement : Stage.t
(** Per packet: read the IPv4 header, decrement TTL (incremental
    checksum fix), drop the packet when TTL hits zero (releasing its
    buffer). A column ([Stage.Cols]) stage: the decrement lands in the
    batch's header plane and the checksum fix is folded into the next
    {!Batch.materialize}. *)

val checksum_verify : Stage.t
(** Per packet: validate the IPv4 header checksum; drops corrupt
    packets. Deliberately a [Stage.Bytes] stage — it folds over the
    words as stored on the wire, so it also acts as a materialization
    barrier in column chains. *)

val maglev : Maglev.t -> Stage.t
(** Per packet: extract the 5-tuple, steer through the Maglev tables,
    rewrite the destination IP to the chosen backend
    (10.1.0.[backend]). Declares [Maglev.on_change] as its
    invalidation hook. A column stage like {!ttl_decrement}. *)

val maglev_gre : Maglev.t -> vip:int -> Stage.t
(** The full NSDI'16 forwarding path: steer, then encapsulate the
    packet in a GRE tunnel from the load balancer ([vip]) to the
    chosen backend. Packets that cannot take the 24-byte overhead are
    dropped (and their buffers released). *)

val firewall : name:string -> (Flow.t -> bool) -> Stage.t
(** Per packet: extract the 5-tuple and apply the verdict function
    ([true] = pass); dropped packets are released. *)

val fault_injector : panic_after:int -> Stage.t
(** Forwards batches normally until batch number [panic_after]
    (1-based), then panics on that batch {e and every one after it} — a
    crash-looping filter. The E3 recovery benchmark alternates
    panic/recover against it. *)

val triggered_fault : trigger:bool ref -> Stage.t
(** Panics exactly when [!trigger] is true (clearing the trigger first,
    so the next batch after recovery passes) — a one-shot injectable
    fault for the transparent-recovery demonstrations. *)

(** {1 For tests}

    model: the DPI scan DESIGN.md lists among the filters; the fusion
    tests put it in chains as the stage that reads payload bytes. *)

val payload_scan : Stage.t
(** Per packet: touch and sum every payload byte (DPI-style work,
    proportional to packet size). *)
