type t = {
  clock : Cycles.Clock.t;
  capacity : int;
  buf_bytes : int;
  base_addr : int;
  buffers : Slab.buf array;
  free_slots : int array;      (* LIFO stack of free slot indices *)
  mutable free_top : int;      (* number of free slots *)
  slot_free : bool array;      (* double-free detection *)
  slot_serial : int array;     (* allocation serial of each live slot *)
  mutable next_serial : int;
  freelist_addr : int;
}

(* 2048 B of data room + 128 B headroom + 64 B of mbuf metadata, as in
   DPDK. The deliberately non-power-of-two stride (35 cache lines)
   spreads consecutive buffers across all cache sets — a power-of-two
   stride would alias them into two sets and hide the cache pressure
   large batches exert on everything else. *)
let mbuf_bytes = 2240

let create ~clock ~capacity () =
  let buf_bytes = mbuf_bytes in
  if capacity <= 0 then invalid_arg "Mempool.create: capacity must be positive";
  let base_addr = Cycles.Clock.alloc_addr clock ~bytes:(capacity * buf_bytes) in
  {
    clock;
    capacity;
    buf_bytes;
    base_addr;
    buffers = Slab.make_slots ~slots:capacity ~bytes:buf_bytes;
    free_slots = Array.init capacity (fun i -> capacity - 1 - i);
    free_top = capacity;
    slot_free = Array.make capacity true;
    slot_serial = Array.make capacity 0;
    next_serial = 0;
    freelist_addr = Cycles.Clock.alloc_addr clock ~bytes:64;
  }

let capacity t = t.capacity
let buf_bytes t = t.buf_bytes
let available t = t.free_top
let in_use t = t.capacity - t.free_top

let addr_of_slot t slot = t.base_addr + (slot * t.buf_bytes)

let alloc t =
  Cycles.Clock.touch t.clock t.freelist_addr ~bytes:8;
  Cycles.Clock.charge t.clock Alloc;
  if t.free_top = 0 then None
  else begin
    t.free_top <- t.free_top - 1;
    let slot = t.free_slots.(t.free_top) in
    t.slot_free.(slot) <- false;
    t.slot_serial.(slot) <- t.next_serial;
    t.next_serial <- t.next_serial + 1;
    Some { Packet.buf = t.buffers.(slot); len = 0; addr = addr_of_slot t slot; slot }
  end

(* Allocate straight into a batch: charge-identical to [alloc] (one
   free-list touch, one Alloc) but with no [Some] box per packet — the
   per-packet allocation the rx hot path used to pay. *)
let alloc_into t batch =
  Cycles.Clock.touch t.clock t.freelist_addr ~bytes:8;
  Cycles.Clock.charge t.clock Alloc;
  if t.free_top = 0 then false
  else begin
    t.free_top <- t.free_top - 1;
    let slot = t.free_slots.(t.free_top) in
    t.slot_free.(slot) <- false;
    t.slot_serial.(slot) <- t.next_serial;
    t.next_serial <- t.next_serial + 1;
    Batch.push batch { Packet.buf = t.buffers.(slot); len = 0; addr = addr_of_slot t slot; slot };
    true
  end

let is_allocated t (p : Packet.t) =
  p.slot >= 0
  && p.slot < t.capacity
  && p.addr = addr_of_slot t p.slot
  && not t.slot_free.(p.slot)

let free_slot t slot =
  Cycles.Clock.touch t.clock t.freelist_addr ~bytes:8;
  Cycles.Clock.charge t.clock (Alu 2);
  t.slot_free.(slot) <- true;
  t.free_slots.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

let free t (p : Packet.t) =
  if p.slot < 0 || p.slot >= t.capacity || p.addr <> addr_of_slot t p.slot
  then invalid_arg "Mempool.free: foreign packet";
  if t.slot_free.(p.slot) then invalid_arg "Mempool.free: double free";
  free_slot t p.slot

(* Release every buffer of a batch in slot-index order (the same order
   a [take_all]-then-iterate drop path used, so the free list — and
   with it every later allocation's address — is unchanged), then empty
   the batch without building the intermediate list. *)
let free_batch t batch =
  for i = 0 to Batch.length batch - 1 do
    free t (Batch.get batch i)
  done;
  Batch.clear batch

let mark t = t.next_serial

(* Slots are scanned in slot order, not allocation order; the freelist
   ends up in a deterministic order either way, which is all the
   deterministic engine needs. *)
let reclaim_since t mark =
  let reclaimed = ref 0 in
  for slot = 0 to t.capacity - 1 do
    if (not t.slot_free.(slot)) && t.slot_serial.(slot) >= mark then begin
      free_slot t slot;
      incr reclaimed
    end
  done;
  !reclaimed

let assert_no_leaks t =
  let live = in_use t in
  if live <> 0 then
    failwith
      (Printf.sprintf
         "Mempool.assert_no_leaks: %d buffer(s) of %d still allocated" live t.capacity)
