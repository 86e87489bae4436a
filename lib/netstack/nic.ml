type tele = {
  tl_rx : Telemetry.Counter.t;
  tl_tx : Telemetry.Counter.t;
}

type t = {
  engine : Engine.t;
  traffic : Traffic.t;
  ring_addr : int;
  driver_state_addr : int;
  driver_rng : Cycles.Rng.t;
  tele : tele option;
  mutable rx_packets : int;
  mutable tx_packets : int;
  (* Frame-template cache: a crafted frame is a pure function of
     (flow, payload_bytes, ttl=64), and [payload_bytes] is fixed per
     generator, so per flow the frame is crafted once and replayed as
     a word-wide copy. Direct-mapped; the guard is *physical* equality
     on the generator's interned flow records — [Flow.Key] is a lossy
     hash and must not be trusted as an identity. The frames live in
     one [Bytes.t] allocated here, [tmpl_stride] (the generator's frame
     length) bytes per slot, so a miss writes into the slab instead of
     allocating a string. Purely a host-side speedup: the bytes are the
     ones craft itself produced, and the virtual charges below are
     identical on both paths. *)
  tmpl_mask : int;
  tmpl_stride : int;
  tmpl_flows : Flow.t array;
  tmpl_frames : Bytes.t;
  tmpl_csum : int array;
  tmpl_keys : Flow.Key.t array;
}

(* The population rounded up to a power of two, capped at 8192: the
   experiments keep several NICs alive, so a fixed 8192-slot slab each
   would inflate the live heap for generators of a few flows. *)
let tmpl_slots population =
  let rec up n = if n >= population || n >= 8192 then n else up (2 * n) in
  up 1

(* Per-packet driver bookkeeping (flow stats, mempool per-lcore cache,
   prefetch of the next descriptor) lands somewhere in a few hundred
   KiB of driver/kernel state; modelling it as one line touched in a
   256 KiB region per received packet is what gives cache pressure its
   gradual onset across batch sizes. *)
let driver_state_bytes = 256 * 1024

let create ?(driver_seed = 0xD91DL) ~engine ~traffic () =
  let tele =
    match Engine.telemetry engine with
    | None -> None
    | Some reg ->
      let scope = Telemetry.Scope.v reg "netstack.nic" in
      Some
        {
          tl_rx = Telemetry.Scope.counter scope "rx_packets";
          tl_tx = Telemetry.Scope.counter scope "tx_packets";
        }
  in
  let dummy_flow =
    Flow.make ~src_ip:0l ~dst_ip:0l ~src_port:0 ~dst_port:0 ~protocol:Flow.Udp
  in
  let slots = tmpl_slots (Traffic.population traffic) in
  (* A generator's flows share one protocol, so its frames one length. *)
  let stride =
    Packet.frame_bytes (Traffic.flow_of_index traffic 0).Flow.protocol
      ~payload_bytes:(Traffic.payload_bytes traffic)
  in
  {
    engine;
    traffic;
    ring_addr = Cycles.Clock.alloc_addr (Engine.clock engine) ~bytes:4096;
    driver_state_addr = Cycles.Clock.alloc_addr (Engine.clock engine) ~bytes:driver_state_bytes;
    driver_rng = Cycles.Rng.create driver_seed;
    tele;
    rx_packets = 0;
    tx_packets = 0;
    tmpl_mask = slots - 1;
    tmpl_stride = stride;
    tmpl_flows = Array.make slots dummy_flow;
    tmpl_frames = Bytes.make (slots * stride) '\000';
    tmpl_csum = Array.make slots 0;
    tmpl_keys = Array.make slots 0;
  }

(* Craft the frame for [flow] into [slot] of [batch] and seed the
   batch's header plane and flow memo, so no stage ever re-parses the
   headers. The template cache stores the packed flow key and stored
   checksum next to the frame, so the hot path neither hashes the
   5-tuple nor reads header bytes back. *)
let rx_seed_packet t batch slot (flow : Flow.t) =
  let p = Batch.get batch slot in
  let h =
    (Int32.to_int flow.Flow.src_ip lxor (flow.Flow.src_port lsl 16)) land t.tmpl_mask
  in
  let stride = t.tmpl_stride in
  (if Array.unsafe_get t.tmpl_flows h == flow then begin
     Slab.blit_bytes t.tmpl_frames (h * stride) p.Packet.buf 0 stride;
     p.Packet.len <- stride
   end
   else begin
     Packet.craft p ~flow ~payload_bytes:(Traffic.payload_bytes t.traffic) ~ttl:64;
     Slab.blit_to_bytes p.Packet.buf 0 t.tmpl_frames (h * stride) stride;
     Array.unsafe_set t.tmpl_flows h flow;
     Array.unsafe_set t.tmpl_csum h (Packet.stored_checksum p);
     Array.unsafe_set t.tmpl_keys h (Flow.Key.of_flow flow)
   end);
  (* The NIC DMA'd the frame: its lines are now in cache (charged as a
     header+payload write by the driver model), and the driver
     initialised the mbuf metadata that lives in the buffer's tail
     (rte_mbuf is two cache lines). *)
  Engine.touch_packet t.engine p ~off:0 ~bytes:p.len;
  let pool = Engine.pool t.engine in
  Engine.touch_packet t.engine p ~off:(Mempool.buf_bytes pool - 128) ~bytes:128;
  let line = Cycles.Rng.int t.driver_rng (driver_state_bytes / 64) in
  Cycles.Clock.touch (Engine.clock t.engine)
    (t.driver_state_addr + (line * 64))
    ~bytes:8;
  Cycles.Clock.charge (Engine.clock t.engine) (Alu 8);
  Batch.seed_hdr batch slot ~flow ~key:(Array.unsafe_get t.tmpl_keys h) ~ttl:64
    ~ip_len:(p.Packet.len - Packet.eth_header_bytes)
    ~csum:(Array.unsafe_get t.tmpl_csum h)

(* Refill [batch] (cleared first) with up to [n] fresh arrivals:
   {!rx_batch} without the per-call [Batch.create], for drivers that
   recycle one batch across the serve loop. *)
let rx_batch_into t batch n =
  if n <= 0 then invalid_arg "Nic.rx_batch_into: batch size must be positive";
  if n > Batch.capacity batch then invalid_arg "Nic.rx_batch_into: batch too small";
  let clock = Engine.clock t.engine in
  let pool = Engine.pool t.engine in
  Batch.clear batch;
  (try
     for i = 0 to n - 1 do
       (* Read the rx descriptor ring entry. *)
       Cycles.Clock.touch clock
         (t.ring_addr + (i * 16 mod 4096))
         ~bytes:16;
       if not (Mempool.alloc_into pool batch) then raise Exit;
       let slot = Batch.length batch - 1 in
       let flow = Traffic.next_flow t.traffic in
       rx_seed_packet t batch slot flow;
       t.rx_packets <- t.rx_packets + 1
     done
   with Exit -> ());
  (match t.tele with
  | Some tl -> Telemetry.Counter.add tl.tl_rx (Batch.length batch)
  | None -> ())

let rx_batch t n =
  let batch = Batch.create ~capacity:n in
  rx_batch_into t batch n;
  batch

let rx_batch_filtered t n ~keep =
  if n <= 0 then invalid_arg "Nic.rx_batch_filtered: batch size must be positive";
  let clock = Engine.clock t.engine in
  let pool = Engine.pool t.engine in
  let batch = Batch.create ~capacity:n in
  (try
     for i = 0 to n - 1 do
       (* Every queue replays the same generator stream; the RSS hash
          decides which arrivals land in this queue's ring. Foreign
          arrivals cost nothing here: the NIC steered them to another
          queue, whose replica crafts and charges them instead. *)
       let flow = Traffic.next_flow t.traffic in
       if keep flow then begin
         (* Read the rx descriptor ring entry. *)
         Cycles.Clock.touch clock
           (t.ring_addr + (i * 16 mod 4096))
           ~bytes:16;
         if not (Mempool.alloc_into pool batch) then raise Exit;
         let slot = Batch.length batch - 1 in
         rx_seed_packet t batch slot flow;
         t.rx_packets <- t.rx_packets + 1
       end
     done
   with Exit -> ());
  (match t.tele with
  | Some tl -> Telemetry.Counter.add tl.tl_rx (Batch.length batch)
  | None -> ());
  batch

let drop_batch t batch = Mempool.free_batch (Engine.pool t.engine) batch

let tx_batch t batch =
  (* The wire is a byte reader: flush any deferred column writes so the
     frames that leave are canonical. *)
  Batch.materialize batch;
  let clock = Engine.clock t.engine in
  let pool = Engine.pool t.engine in
  let mbuf_off = Mempool.buf_bytes pool - 128 in
  let n = Batch.length batch in
  for i = 0 to n - 1 do
    let p = Batch.get batch i in
    (* Write the tx descriptor. *)
    Cycles.Clock.touch clock
      (t.ring_addr + (2048 + (i * 16 mod 2048)))
      ~bytes:16;
    (* Reading the mbuf metadata to build the descriptor. *)
    Engine.touch_packet t.engine p ~off:mbuf_off ~bytes:64;
    Cycles.Clock.charge clock (Alu 2);
    Mempool.free pool p
  done;
  Batch.clear batch;
  t.tx_packets <- t.tx_packets + n;
  (match t.tele with
  | Some tl -> Telemetry.Counter.add tl.tl_tx n
  | None -> ());
  n

let rx_packets t = t.rx_packets
let tx_packets t = t.tx_packets
