(* Equivalence suite for the allocation-free packet hot path.

   Every fast-path rewrite (word-at-a-time accessors, the unrolled
   RFC 1071 checksum, native-int FNV-1a, the packed flow key, the
   batch flow-key sidecar) is checked against a deliberately naive
   reference implementation: byte-at-a-time reads off the raw buffer,
   a loop checksum, and the historical Int64 hash chain. *)

open Netstack

let fresh_packet ?(bytes = 2048) () = Packet.of_bytes ~addr:0x100000 (Bytes.create bytes)

let craft p (flow : Flow.t) ~payload_bytes ~ttl =
  match flow.Flow.protocol with
  | Flow.Udp -> Packet.craft_udp p ~flow ~payload_bytes ~ttl
  | Flow.Tcp -> Packet.craft_tcp p ~flow ~payload_bytes ~ttl

let gen_flow =
  QCheck.Gen.(
    map
      (fun (((src_ip, dst_ip), (src_port, dst_port)), tcp) ->
        Flow.make ~src_ip ~dst_ip ~src_port ~dst_port
          ~protocol:(if tcp then Flow.Tcp else Flow.Udp))
      (pair (pair (pair ui32 ui32) (pair (int_range 0 65535) (int_range 0 65535))) bool))

let arb_flow = QCheck.make ~print:(Format.asprintf "%a" Flow.pp) gen_flow

let arb_crafted =
  QCheck.make
    ~print:(fun (f, (payload, ttl)) ->
      Format.asprintf "%a payload=%d ttl=%d" Flow.pp f payload ttl)
    QCheck.Gen.(pair gen_flow (pair (int_range 0 500) (int_range 1 255)))

(* ------------------------------------------------------------------ *)
(* Reference implementations                                           *)
(* ------------------------------------------------------------------ *)

(* The historical FNV-1a: full-width Int64 chain, masked to 62 bits
   only at the very end. Flow.hash must be bit-identical. *)
let fnv64_ref basis (f : Flow.t) =
  let feed acc b =
    Int64.mul (Int64.logxor acc (Int64.of_int (b land 0xff))) 0x100000001B3L
  in
  let feed_u32 acc (v : int32) =
    let v = Int32.to_int v land 0xFFFFFFFF in
    feed (feed (feed (feed acc v) (v lsr 8)) (v lsr 16)) (v lsr 24)
  in
  let acc = feed_u32 basis f.Flow.src_ip in
  let acc = feed_u32 acc f.Flow.dst_ip in
  let acc = feed (feed acc f.Flow.src_port) (f.Flow.src_port lsr 8) in
  let acc = feed (feed acc f.Flow.dst_port) (f.Flow.dst_port lsr 8) in
  let acc = feed acc (Flow.protocol_number f.Flow.protocol) in
  Int64.to_int (Int64.logand acc 0x3FFFFFFFFFFFFFFFL)

(* Byte-at-a-time big-endian reads straight off the buffer. *)
let byte p off = Char.code (Slab.get p.Packet.buf off)
let u16_ref p off = (byte p off lsl 8) lor byte p (off + 1)

let u32_ref p off =
  (byte p off lsl 24) lor (byte p (off + 1) lsl 16) lor (byte p (off + 2) lsl 8)
  lor byte p (off + 3)

(* RFC 1071 as a plain loop over the ten header words, checksum field
   (word 5) read as zero. *)
let checksum_ref p =
  let off = Packet.eth_header_bytes in
  let sum = ref 0 in
  for w = 0 to 9 do
    if w <> 5 then sum := !sum + u16_ref p (off + (w * 2))
  done;
  while !sum > 0xFFFF do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_fnv_matches_int64 =
  QCheck.Test.make ~name:"native-int FNV == historical Int64 FNV" ~count:500 arb_flow
    (fun f ->
      Flow.hash f = fnv64_ref 0xCBF29CE484222325L f
      && Flow.hash2 f = fnv64_ref 0x84222325CBF29CE4L f)

let prop_key_pack_matches_hash =
  QCheck.Test.make ~name:"Key.pack == Key.of_flow == hash, and is non-negative" ~count:500
    arb_flow (fun f ->
      let packed =
        Flow.Key.pack
          ~src_ip:(Int32.to_int f.Flow.src_ip land 0xFFFFFFFF)
          ~dst_ip:(Int32.to_int f.Flow.dst_ip land 0xFFFFFFFF)
          ~src_port:f.Flow.src_port ~dst_port:f.Flow.dst_port
          ~proto:(Flow.protocol_number f.Flow.protocol)
      in
      packed = Flow.hash f && Flow.Key.of_flow f = packed && packed >= 0
      && not (Flow.Key.is_none packed))

let prop_word_accessors =
  QCheck.Test.make ~name:"word accessors == byte-at-a-time reads" ~count:300 arb_crafted
    (fun (f, (payload_bytes, ttl)) ->
      let p = fresh_packet () in
      craft p f ~payload_bytes ~ttl;
      let ip_off = Packet.eth_header_bytes in
      Packet.src_ip_int p = u32_ref p (ip_off + 12)
      && Packet.dst_ip_int p = u32_ref p (ip_off + 16)
      && Packet.src_port p = u16_ref p (ip_off + 20)
      && Packet.dst_port p = u16_ref p (ip_off + 22)
      && Packet.ip_total_length p = u16_ref p (ip_off + 2)
      && Packet.ethertype p = u16_ref p 12)

(* --- Slab against a Bytes oracle ------------------------------------ *)

(* Every {!Slab} accessor replayed against the stdlib's [Bytes] on a
   mirror of the same contents. The buffer under test is the middle
   slot of a three-slot slab, so a write that escapes its view shows up
   in a neighbour; the second buffer is a free-standing {!Slab.of_bytes}
   copy, so cross-buffer blits run between distinct views. *)
type slab_op =
  | Get of int
  | Set of int * char
  | Get_u16 of int
  | Set_u16 of int * int
  | Sum of int * int  (* off, words *)
  | Blit_self of int * int * int  (* soff, doff, n *)
  | Blit_in of int * int * int  (* other -> buf *)
  | Blit_out of int * int * int  (* buf -> other *)
  | Blit_string of string * int * int * int
  | Sub of int * int

let show_op = function
  | Get i -> Printf.sprintf "get %d" i
  | Set (i, c) -> Printf.sprintf "set %d %C" i c
  | Get_u16 i -> Printf.sprintf "get_u16_be %d" i
  | Set_u16 (i, v) -> Printf.sprintf "set_u16_be %d %#x" i v
  | Sum (off, words) -> Printf.sprintf "sum_be_words %d ~words:%d" off words
  | Blit_self (s, d, n) -> Printf.sprintf "blit buf %d buf %d %d" s d n
  | Blit_in (s, d, n) -> Printf.sprintf "blit other %d buf %d %d" s d n
  | Blit_out (s, d, n) -> Printf.sprintf "blit buf %d other %d %d" s d n
  | Blit_string (str, s, d, n) ->
    Printf.sprintf "blit_string <%d bytes> %d buf %d %d" (String.length str) s d n
  | Sub (off, n) -> Printf.sprintf "sub_string %d %d" off n

let gen_slab_case =
  let open QCheck.Gen in
  (* Sizes on both sides of the 256-byte [Array1.blit] threshold. *)
  let size = frequency [ (1, int_range 0 16); (3, int_range 256 700) ] in
  size >>= fun n ->
  size >>= fun m ->
  let idx len = int_range (-2) (len + 2) in
  let count len = frequency [ (2, int_range (-1) 16); (2, int_range 240 320); (1, int_range 0 (len + 1)) ] in
  let op =
    frequency
      [
        (2, map (fun i -> Get i) (idx n));
        (2, map2 (fun i c -> Set (i, c)) (idx n) char);
        (2, map (fun i -> Get_u16 i) (idx n));
        (2, map2 (fun i v -> Set_u16 (i, v)) (idx n) (int_range 0 0x1ffff));
        (2, map2 (fun off w -> Sum (off, w)) (idx n) (int_range (-1) ((n / 2) + 1)));
        (* Same-buffer moves a few bytes apart: overlapping windows,
           destination above and below the source. *)
        ( 4,
          triple (idx n) (int_range (-40) 40) (count n) >|= fun (s, delta, k) ->
          Blit_self (s, s + delta, k) );
        (2, triple (idx m) (idx n) (count n) >|= fun (s, d, k) -> Blit_in (s, d, k));
        (2, triple (idx n) (idx m) (count n) >|= fun (s, d, k) -> Blit_out (s, d, k));
        ( 2,
          string_size (int_range 0 320) >>= fun str ->
          triple (idx (String.length str)) (idx n) (count n) >|= fun (s, d, k) ->
          Blit_string (str, s, d, k) );
        (2, pair (idx n) (count n) >|= fun (off, k) -> Sub (off, k));
      ]
  in
  triple (string_size (return n)) (string_size (return m)) (list_size (int_range 1 40) op)

let arb_slab_case =
  QCheck.make gen_slab_case ~print:(fun (a, b, ops) ->
      Printf.sprintf "buf=%d bytes other=%d bytes\n%s" (String.length a) (String.length b)
        (String.concat "\n" (List.map show_op ops)))

let prop_slab_bytes_oracle =
  QCheck.Test.make ~name:"slab ops == Bytes stdlib oracle" ~count:300 arb_slab_case
    (fun (a, b, ops) ->
      let n = String.length a in
      let slots = Slab.make_slots ~slots:3 ~bytes:n in
      let buf = slots.(1) in
      Slab.blit_string a 0 buf 0 n;
      let src = Bytes.of_string b in
      let other = Slab.of_bytes src in
      (* [of_bytes] copies: the source is free to change afterwards. *)
      Bytes.fill src 0 (Bytes.length src) 'x';
      let mbuf = Bytes.of_string a and mother = Bytes.of_string b in
      (* [Some result], or [None] for Invalid_argument; any other
         exception escapes and fails the property. *)
      let run f = match f () with r -> Some r | exception Invalid_argument _ -> None in
      let sum_ref off words =
        let w = Bytes.sub mbuf off (words * 2) in
        let s = ref 0 in
        for k = 0 to words - 1 do
          s := !s + Bytes.get_uint16_be w (k * 2)
        done;
        !s
      in
      let step = function
        | Get i -> run (fun () -> Slab.get buf i) = run (fun () -> Bytes.get mbuf i)
        | Set (i, c) -> run (fun () -> Slab.set buf i c) = run (fun () -> Bytes.set mbuf i c)
        | Get_u16 i ->
          run (fun () -> Slab.get_u16_be buf i) = run (fun () -> Bytes.get_uint16_be mbuf i)
        | Set_u16 (i, v) ->
          run (fun () -> Slab.set_u16_be buf i v)
          = run (fun () -> Bytes.set_uint16_be mbuf i (v land 0xffff))
        | Sum (off, words) ->
          run (fun () -> Slab.sum_be_words buf off ~words) = run (fun () -> sum_ref off words)
        | Blit_self (s, d, k) ->
          run (fun () -> Slab.blit buf s buf d k) = run (fun () -> Bytes.blit mbuf s mbuf d k)
        | Blit_in (s, d, k) ->
          run (fun () -> Slab.blit other s buf d k) = run (fun () -> Bytes.blit mother s mbuf d k)
        | Blit_out (s, d, k) ->
          run (fun () -> Slab.blit buf s other d k) = run (fun () -> Bytes.blit mbuf s mother d k)
        | Blit_string (str, s, d, k) ->
          run (fun () -> Slab.blit_string str s buf d k)
          = run (fun () -> Bytes.blit_string str s mbuf d k)
        | Sub (off, k) ->
          run (fun () -> Slab.sub_string buf off k) = run (fun () -> Bytes.sub_string mbuf off k)
      in
      let image x = Slab.sub_string x 0 (Slab.length x) in
      List.for_all
        (fun op ->
          step op
          && image buf = Bytes.to_string mbuf
          && image other = Bytes.to_string mother)
        ops
      && Slab.length buf = n
      && image slots.(0) = String.make n '\000'
      && image slots.(2) = String.make n '\000')

let prop_checksum_unrolled =
  QCheck.Test.make ~name:"unrolled RFC1071 == loop reference, through rewrites" ~count:300
    QCheck.(pair arb_crafted (pair int32 (int_range 0 65535)))
    (fun ((f, (payload_bytes, ttl)), (new_dst, new_port)) ->
      let p = fresh_packet () in
      craft p f ~payload_bytes ~ttl;
      let stored () = u16_ref p (Packet.eth_header_bytes + 10) in
      let ok0 = stored () = checksum_ref p && Packet.ipv4_checksum_ok p in
      (* Every rewrite re-installs via the incremental path; the loop
         reference must still agree. *)
      Packet.set_dst_ip_int p (Int32.to_int new_dst land 0xFFFFFFFF);
      let ok1 = stored () = checksum_ref p in
      Packet.set_src_port p new_port;
      if ttl > 1 then Packet.set_ttl p (ttl - 1);
      ok0 && ok1 && stored () = checksum_ref p && Packet.ipv4_checksum_ok p)

let prop_flow_key_off_the_wire =
  QCheck.Test.make ~name:"Packet.flow_key == hash of Packet.flow_of" ~count:300 arb_crafted
    (fun (f, (payload_bytes, ttl)) ->
      let p = fresh_packet () in
      craft p f ~payload_bytes ~ttl;
      Packet.flow_key p = Flow.hash (Packet.flow_of p)
      && Flow.equal (Packet.flow_of p) f)

let prop_payload_pattern =
  QCheck.Test.make ~name:"payload fill == i mod 256 pattern" ~count:200 arb_crafted
    (fun (f, (payload_bytes, ttl)) ->
      let p = fresh_packet () in
      craft p f ~payload_bytes ~ttl;
      let ok = ref (Packet.payload_length p = payload_bytes) in
      for i = 0 to payload_bytes - 1 do
        if Packet.read_payload_byte p i <> i mod 256 then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Flow-key sidecar                                                    *)
(* ------------------------------------------------------------------ *)

(* A batch slot's cache must always agree with a fresh header parse —
   seeded, invalidated, or compacted. *)
let sidecar_consistent b =
  let ok = ref true in
  for i = 0 to Batch.length b - 1 do
    let p = Batch.get b i in
    if not (Flow.equal (Batch.flow b i) (Packet.flow_of p)) then ok := false;
    if Batch.flow_key b i <> Flow.hash (Packet.flow_of p) then ok := false
  done;
  !ok

let prop_sidecar_rewrites =
  QCheck.Test.make ~name:"sidecar stays consistent through NAT/maglev/GRE rewrites"
    ~count:200
    QCheck.(pair arb_crafted (pair int32 (int_range 0 65535)))
    (fun ((f, (payload_bytes, ttl)), (new_ip, new_port)) ->
      let p = fresh_packet () in
      craft p f ~payload_bytes ~ttl;
      let b = Batch.create ~capacity:4 in
      Batch.push_flow b p f;
      let seeded = Batch.flow_cached b 0 && sidecar_consistent b in
      (* Maglev-style dst rewrite. *)
      Packet.set_dst_ip_int p (Int32.to_int new_ip land 0xFFFFFFFF);
      Batch.invalidate_flow b 0;
      let after_dst = (not (Batch.flow_cached b 0)) && sidecar_consistent b in
      (* NAT-style src rewrite. *)
      Packet.set_src_ip_int p (Int32.to_int new_ip land 0xFFFFFFFF);
      Packet.set_src_port p new_port;
      Batch.invalidate_flow b 0;
      let after_nat = sidecar_consistent b in
      (* GRE encap makes the 5-tuple unparsable (protocol 47), so the
         stage must leave the slot invalid; decap restores the inner
         tuple and the cache must re-parse to exactly it. *)
      let inner = Packet.flow_of p in
      Packet.encap_gre p ~outer_src:0xC0A80001 ~outer_dst:0x0A010005;
      Batch.invalidate_flow b 0;
      let after_encap = (not (Batch.flow_cached b 0)) && Packet.is_gre p in
      Packet.decap_gre p;
      Batch.invalidate_flow b 0;
      seeded && after_dst && after_nat && after_encap && sidecar_consistent b
      && Flow.equal (Batch.flow b 0) inner)

let prop_sidecar_compaction =
  QCheck.Test.make ~name:"filteri_in_place compacts the sidecar with the packets"
    ~count:200
    QCheck.(pair (make Gen.(list_size (int_range 1 24) gen_flow)) (int_range 0 0xFFFF))
    (fun (flows, salt) ->
      let b = Batch.create ~capacity:32 in
      List.iter
        (fun f ->
          let p = fresh_packet () in
          craft p f ~payload_bytes:16 ~ttl:8;
          Batch.push_flow b p f)
        flows;
      (* Drop a pseudo-random subset, mutating some survivors so both
         valid and invalidated slots get compacted. *)
      let dropped =
        Batch.filteri_in_place b (fun i p ->
            if (i + salt) mod 3 = 0 then false
            else begin
              if (i + salt) mod 2 = 0 then begin
                Packet.set_src_port p ((salt + i) land 0xFFFF);
                Batch.invalidate_flow b i
              end;
              true
            end)
      in
      List.length dropped + Batch.length b = List.length flows && sidecar_consistent b)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fnv_matches_int64;
      prop_key_pack_matches_hash;
      prop_word_accessors;
      prop_slab_bytes_oracle;
      prop_checksum_unrolled;
      prop_flow_key_off_the_wire;
      prop_payload_pattern;
      prop_sidecar_rewrites;
      prop_sidecar_compaction;
    ]

let () = Alcotest.run "packet_fast" [ ("equivalence", suite) ]
