let null = Stage.rewrite ~name:"null" ~access:Stage.Cols (fun _engine _batch _i _p -> ())
let null_chain n = List.init n (fun _ -> Stage.barrier null)

(* The column ([Stage.Cols]) stages below charge and touch exactly what
   a write-through byte store would: the virtual clock models what the
   hardware does to the header either way, while the host defers the
   actual byte stores to one {!Batch.materialize} pass. Their
   write-through byte versions live on as the test oracle
   (test/hdr_oracle.ml), which test_soa diffs them against. *)

let ttl_decrement =
  Stage.filter ~name:"ttl-dec" ~access:Stage.Cols (fun engine batch i p ->
      Engine.touch_packet engine p ~off:Packet.eth_header_bytes
        ~bytes:Packet.ipv4_header_bytes;
      Cycles.Clock.charge (Engine.clock engine) (Alu 4);
      let ttl = Batch.col_ttl batch i in
      if ttl <= 1 then false
      else begin
        Batch.set_col_ttl batch i (ttl - 1);
        (* Covers the TTL and checksum words. *)
        Engine.touch_packet engine p ~off:(Packet.eth_header_bytes + 8) ~bytes:4;
        true
      end)

(* Deliberately [Bytes]: the stage's whole point is to fold RFC 1071
   over the words as they sit on the wire, so it doubles as a natural
   materialization barrier (and negative control) in column chains. *)
let checksum_verify =
  Stage.filter ~name:"csum" (fun engine _batch _i p ->
      Engine.touch_packet engine p ~off:Packet.eth_header_bytes
        ~bytes:Packet.ipv4_header_bytes;
      (* RFC 1071 over ten 16-bit words. *)
      Cycles.Clock.charge (Engine.clock engine) (Alu 12);
      Packet.ipv4_checksum_ok p)

let backend_ip_int backend = 0x0A010000 lor (backend land 0xffff)

let maglev mg =
  Stage.rewrite ~name:"maglev" ~access:Stage.Cols
    ~hooks:[ Maglev.on_change mg ]
    (fun engine batch i p ->
      (* The 5-tuple comes from the batch's flow memo (seeded at NIC
         rx); the touch still models the header read the hardware
         performs. *)
      Engine.touch_packet engine p ~off:Packet.eth_header_bytes
        ~bytes:(Packet.ipv4_header_bytes + 4);
      let flow = Batch.flow batch i in
      let backend = Maglev.lookup_keyed mg flow ~key:(Batch.flow_key batch i) in
      (* Rewrite the destination to the chosen backend. *)
      Batch.set_col_dst_ip batch i (backend_ip_int backend);
      Engine.touch_packet engine p ~off:(Packet.eth_header_bytes + 16) ~bytes:4)

let maglev_gre mg ~vip =
  Stage.filter ~name:"maglev-gre"
    ~hooks:[ Maglev.on_change mg ]
    (fun engine batch i p ->
      Engine.touch_packet engine p ~off:Packet.eth_header_bytes
        ~bytes:(Packet.ipv4_header_bytes + 4);
      let flow = Batch.flow batch i in
      let backend = Maglev.lookup_keyed mg flow ~key:(Batch.flow_key batch i) in
      match Packet.encap_gre p ~outer_src:vip ~outer_dst:(backend_ip_int backend) with
      | () ->
        (* The outer header is now the packet's 5-tuple source. *)
        Batch.invalidate_hdr batch i;
        (* The shift + new outer header touch the whole frame. *)
        Engine.touch_packet engine p ~off:0 ~bytes:p.Packet.len;
        Cycles.Clock.charge (Engine.clock engine) (Copy Packet.gre_overhead_bytes);
        true
      | exception Invalid_argument _ -> false)

let firewall ~name verdict =
  Stage.filter ~name ~access:Stage.Cols (fun engine batch i p ->
      Engine.touch_packet engine p ~off:Packet.eth_header_bytes
        ~bytes:(Packet.ipv4_header_bytes + 4);
      Cycles.Clock.charge (Engine.clock engine) (Alu 6);
      verdict (Batch.flow batch i))

let payload_scan =
  Stage.rewrite ~name:"payload-scan" (fun engine _batch _i p ->
      let off = Packet.payload_offset p in
      let len = Packet.payload_length p in
      Engine.touch_packet engine p ~off ~bytes:len;
      let sum = ref 0 in
      for i = 0 to len - 1 do
        sum := !sum + Packet.read_payload_byte p i
      done;
      Cycles.Clock.charge (Engine.clock engine) (Alu len);
      ignore !sum)

let fault_injector ~panic_after =
  if panic_after <= 0 then invalid_arg "Filters.fault_injector: panic_after must be positive";
  let seen = ref 0 in
  Stage.opaque ~name:"fault-injector" (fun _engine batch ->
      incr seen;
      if !seen >= panic_after then
        Sfi.Panic.panicf "fault-injector: simulated crash on batch %d" !seen;
      batch)

let triggered_fault ~trigger =
  Stage.opaque ~name:"triggered-fault" (fun _engine batch ->
      if !trigger then begin
        trigger := false;
        Sfi.Panic.panic "triggered-fault: injected crash"
      end;
      batch)
