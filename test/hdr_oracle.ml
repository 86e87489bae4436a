(* The write-through byte stages that the column ([Stage.Cols]) header
   plane replaced, kept as the oracle for the equivalence suite in
   test_soa.ml and the plane audits in test_flowcache.ml. Each stage
   has the same name, hooks and touch/charge sequence as its column
   counterpart in Netstack, but stores straight into the wire bytes
   and drops the slot's plane with [Batch.invalidate_hdr]. Built from
   public API only, so the oracle cannot share a bug with the column
   kernels it checks. *)

open Netstack

let ttl_decrement_bytes =
  Stage.filter ~name:"ttl-dec" (fun engine batch i p ->
      Engine.touch_packet engine p ~off:Packet.eth_header_bytes
        ~bytes:Packet.ipv4_header_bytes;
      Cycles.Clock.charge (Engine.clock engine) (Alu 4);
      let ttl = Packet.ttl p in
      if ttl <= 1 then false
      else begin
        Packet.set_ttl p (ttl - 1);
        Batch.invalidate_hdr batch i;
        Engine.touch_packet engine p ~off:(Packet.eth_header_bytes + 8) ~bytes:4;
        true
      end)

(* Backend [b] lives at 10.1.0.[b]. *)
let backend_ip_int backend = 0x0A010000 lor (backend land 0xffff)

let maglev_bytes mg =
  Stage.rewrite ~name:"maglev"
    ~hooks:[ Maglev.on_change mg ]
    (fun engine batch i p ->
      Engine.touch_packet engine p ~off:Packet.eth_header_bytes
        ~bytes:(Packet.ipv4_header_bytes + 4);
      let flow = Batch.flow batch i in
      let backend = Maglev.lookup_keyed mg flow ~key:(Batch.flow_key batch i) in
      Packet.set_dst_ip_int p (backend_ip_int backend);
      Batch.invalidate_hdr batch i;
      Engine.touch_packet engine p ~off:(Packet.eth_header_bytes + 16) ~bytes:4)
