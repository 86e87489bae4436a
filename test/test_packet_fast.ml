(* Equivalence suite for the allocation-free packet hot path.

   Every fast-path rewrite (word-at-a-time accessors, the unrolled
   RFC 1071 checksum, native-int FNV-1a, the packed flow key, the
   batch's flow memo) is checked against a deliberately naive
   reference implementation: byte-at-a-time reads off the raw buffer,
   a loop checksum, and the historical Int64 hash chain. *)

open Netstack

let fresh_packet ?(bytes = 2048) () = Packet.of_bytes ~addr:0x100000 (Bytes.create bytes)

let craft p flow ~payload_bytes ~ttl = Packet.craft p ~flow ~payload_bytes ~ttl

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
      packed = Flow.hash f && Flow.Key.of_flow f = packed && packed >= 0)

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
  | To_bytes of int * int * int  (* buf -> a fresh [Bytes.t] the size of other *)
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
  | To_bytes (s, d, n) -> Printf.sprintf "blit_to_bytes buf %d bytes %d %d" s d n
  | Sub (off, n) -> Printf.sprintf "sub_string %d %d" off n

let gen_slab_case =
  let open QCheck.Gen in
  (* Sizes on both sides of the 256-byte [Array1.blit] threshold. *)
  let size = frequency [ (1, int_range 0 16); (2, int_range 17 80); (3, int_range 256 700) ] in
  size >>= fun n ->
  size >>= fun m ->
  let idx len = int_range (-2) (len + 2) in
  (* Lengths 0..64 put every residue mod 8 through the word copies. *)
  let count len =
    frequency [ (3, int_range (-1) 64); (2, int_range 240 320); (1, int_range 0 (len + 1)) ]
  in
  (* Same-buffer moves: overlaps closer than one word, and further. *)
  let delta = frequency [ (2, int_range (-9) 9); (1, int_range (-40) 40) ] in
  (* Windows that end exactly at the end of [buf]. *)
  let at_end =
    int_range 0 (min n 64) >>= fun k ->
    let off = n - k in
    oneof
      [
        return (Sub (off, k));
        delta >|= (fun d -> Blit_self (off - d, off, k));
        delta >|= (fun d -> Blit_self (off, off - d, k));
        idx m >|= (fun s -> Blit_in (s, off, k));
        idx m >|= (fun d -> Blit_out (off, d, k));
        idx m >|= (fun d -> To_bytes (off, d, k));
        ( string_size (int_range k (k + 16)) >|= fun str ->
          Blit_string (str, String.length str - k, off, k) );
      ]
  in
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
          triple (idx n) delta (count n) >|= fun (s, d, k) -> Blit_self (s, s + d, k) );
        (2, triple (idx m) (idx n) (count n) >|= fun (s, d, k) -> Blit_in (s, d, k));
        (2, triple (idx n) (idx m) (count n) >|= fun (s, d, k) -> Blit_out (s, d, k));
        ( 2,
          string_size (int_range 0 320) >>= fun str ->
          triple (idx (String.length str)) (idx n) (count n) >|= fun (s, d, k) ->
          Blit_string (str, s, d, k) );
        (1, triple (idx n) (idx m) (count n) >|= fun (s, d, k) -> To_bytes (s, d, k));
        (2, pair (idx n) (count n) >|= fun (off, k) -> Sub (off, k));
        (3, at_end);
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
        | To_bytes (s, d, k) ->
          let got = Bytes.make (String.length b) 'z' and want = Bytes.make (String.length b) 'z' in
          run (fun () -> Slab.blit_to_bytes buf s got d k) = run (fun () -> Bytes.blit mbuf s want d k)
          && Bytes.equal got want
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
    QCheck.(pair arb_crafted int32)
    (fun ((f, (payload_bytes, ttl)), new_dst) ->
      let p = fresh_packet () in
      craft p f ~payload_bytes ~ttl;
      let stored () = u16_ref p (Packet.eth_header_bytes + 10) in
      let ok0 = stored () = checksum_ref p && Packet.ipv4_checksum_ok p in
      (* Every rewrite re-installs via the incremental path; the loop
         reference must still agree. *)
      Packet.set_dst_ip_int p (Int32.to_int new_dst land 0xFFFFFFFF);
      let ok1 = stored () = checksum_ref p in
      if ttl > 1 then Packet.set_ttl p (ttl - 1);
      ok0 && ok1 && stored () = checksum_ref p && Packet.ipv4_checksum_ok p)

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
(* Flow memo                                                           *)
(* ------------------------------------------------------------------ *)

(* Differential property for the batch's flow memo: whatever sequence
   of column writes, byte rewrites, materializations, compactions and
   slot copies a batch goes through, [Batch.flow] must equal a fresh
   parse of the slot's materialized frame (or both must raise), and
   [Batch.flow_key] must be its hash. *)

type memo_op =
  | Set_ttl of int * int
  | Set_dst_ip of int * int
  | Bytes_dst of int * int
  | Encap of int
  | Decap of int
  | Materialize
  | Compact of int
  | Blit of int * int

let pp_memo_op = function
  | Set_ttl (i, v) -> Printf.sprintf "set_ttl %d %d" i v
  | Set_dst_ip (i, v) -> Printf.sprintf "set_dst_ip %d %x" i v
  | Bytes_dst (i, v) -> Printf.sprintf "bytes_dst %d %x" i v
  | Encap i -> Printf.sprintf "encap %d" i
  | Decap i -> Printf.sprintf "decap %d" i
  | Materialize -> "materialize"
  | Compact salt -> Printf.sprintf "compact %d" salt
  | Blit (i, j) -> Printf.sprintf "blit %d %d" i j

let gen_memo_op =
  QCheck.Gen.(
    let slot = int_range 0 7 and ip = map (fun v -> Int32.to_int v land 0xFFFFFFFF) ui32 in
    frequency
      [
        (2, map2 (fun i v -> Set_ttl (i, v)) slot (int_range 0 255));
        (2, map2 (fun i v -> Set_dst_ip (i, v)) slot ip);
        (1, map2 (fun i v -> Bytes_dst (i, v)) slot ip);
        (1, map (fun i -> Encap i) slot);
        (1, map (fun i -> Decap i) slot);
        (1, return Materialize);
        (1, map (fun s -> Compact s) (int_range 0 0xFFFF));
        (2, map2 (fun i j -> Blit (i, j)) slot slot);
      ])

let arb_memo_trace =
  QCheck.make
    ~print:(fun (flows, ops) ->
      Printf.sprintf "%d flows; %s" (List.length flows)
        (String.concat "; " (List.map pp_memo_op ops)))
    QCheck.Gen.(
      pair (list_size (int_range 1 8) (pair gen_flow bool)) (list_size (int_range 1 30) gen_memo_op))

(* Push a packet crafted for [f]; when [seeded] install its plane and
   memo the way the NIC rx path does, else leave the slot plane-less. *)
let push_crafted b (f, seeded) =
  let p = fresh_packet () in
  craft p f ~payload_bytes:16 ~ttl:64;
  Batch.push b p;
  if seeded then
    Batch.seed_hdr b (Batch.length b - 1) ~flow:f ~key:(Flow.Key.of_flow f) ~ttl:64
      ~ip_len:(p.Packet.len - Packet.eth_header_bytes)
      ~csum:(Packet.stored_checksum p)

(* The memo is read first (deriving it if unset), then compared with
   the frame the slot materializes to. *)
let memo_agrees b i =
  let memo = match Batch.flow b i with f -> Some f | exception Invalid_argument _ -> None in
  let key =
    match Batch.flow_key b i with k -> Some k | exception Invalid_argument _ -> None
  in
  Batch.materialize_slot b i;
  match (memo, Packet.flow_of (Batch.get b i)) with
  | Some f, wire -> Flow.equal f wire && key = Some (Flow.hash f)
  | None, _ -> false
  | exception Invalid_argument _ -> memo = None && key = None

let batch_agrees b =
  let ok = ref true in
  for i = 0 to Batch.length b - 1 do
    ok := !ok && memo_agrees b i
  done;
  !ok

let apply_memo_op b other op =
  let n = Batch.length b in
  let on i f = if n > 0 then f (i mod n) in
  (* A byte rewrite runs behind a materialization barrier and drops the
     plane, as the write-through stages of Hdr_oracle do. *)
  let bytes i f =
    on i (fun i ->
        Batch.materialize_slot b i;
        f (Batch.get b i);
        Batch.invalidate_hdr b i)
  in
  match op with
  | Set_ttl (i, v) -> on i (fun i -> Batch.set_col_ttl b i v)
  | Set_dst_ip (i, v) -> on i (fun i -> Batch.set_col_dst_ip b i v)
  | Bytes_dst (i, v) -> bytes i (fun p -> Packet.set_dst_ip_int p v)
  | Encap i ->
    bytes i (fun p ->
        if not (Packet.is_gre p) then Packet.encap_gre p ~outer_src:0xC0A80001 ~outer_dst:0x0A010005)
  | Decap i -> bytes i (fun p -> if Packet.is_gre p then Packet.decap_gre p)
  | Materialize -> Batch.materialize b
  | Compact salt -> ignore (Batch.filteri_in_place b (fun i _ -> (i + salt) mod 3 <> 0))
  | Blit (i, j) ->
    (* Copy the frame byte for byte first, as [Pipeline]'s copying mode
       does: the slot state is only valid over identical bytes. *)
    let m = Batch.length other in
    if n > 0 && m > 0 then begin
      let i = i mod n and j = j mod m in
      let src = Batch.get b i and dst = Batch.get other j in
      Slab.blit src.Packet.buf 0 dst.Packet.buf 0 src.Packet.len;
      dst.Packet.len <- src.Packet.len;
      Batch.blit_slot b i other j
    end

let prop_flow_memo_differential =
  QCheck.Test.make ~name:"flow memo == parse of the materialized frame, any op sequence"
    ~count:300 arb_memo_trace (fun (flows, ops) ->
      let b = Batch.create ~capacity:8 and other = Batch.create ~capacity:8 in
      List.iter (push_crafted b) flows;
      List.iter (fun (f, seeded) -> push_crafted other (f, not seeded)) flows;
      List.for_all
        (fun op ->
          apply_memo_op b other op;
          batch_agrees b && batch_agrees other)
        ops)

(* The memo replaces the old flow-key sidecar; these two fixed
   scenarios keep the sidecar's original guarantees: a seeded memo
   survives no 5-tuple rewrite, column or byte, outlives a TTL rewrite
   only while it still matches the bytes, and compaction carries it
   with its packet. *)
let prop_sidecar_rewrites =
  QCheck.Test.make ~name:"sidecar stays consistent through TTL/maglev/GRE rewrites"
    ~count:200
    QCheck.(pair arb_crafted int32)
    (fun ((f, (payload_bytes, ttl)), new_ip) ->
      let new_ip = Int32.to_int new_ip land 0xFFFFFFFF in
      let p = fresh_packet () in
      craft p f ~payload_bytes ~ttl;
      let b = Batch.create ~capacity:4 in
      Batch.push b p;
      Batch.seed_hdr b 0 ~flow:f ~key:(Flow.Key.of_flow f) ~ttl
        ~ip_len:(Packet.ip_total_length p) ~csum:(Packet.stored_checksum p);
      let seeded = Batch.hdr_valid b 0 && batch_agrees b in
      (* Maglev-style dst rewrite, column then byte twin. *)
      Batch.set_col_dst_ip b 0 new_ip;
      let col_dst =
        Int32.to_int (Batch.flow b 0).Flow.dst_ip land 0xFFFFFFFF = new_ip && batch_agrees b
      in
      Packet.set_dst_ip_int p (new_ip lxor 1);
      Batch.invalidate_hdr b 0;
      let after_dst = (not (Batch.hdr_valid b 0)) && batch_agrees b in
      (* TTL rewrite, column then byte twin: the memo survives the
         column write (TTL is not in the 5-tuple) and still agrees. *)
      ignore (Batch.flow b 0);
      Batch.set_col_ttl b 0 (ttl - 1);
      let col_ttl = batch_agrees b && Packet.ttl p = ttl - 1 && Packet.ipv4_checksum_ok p in
      Packet.set_ttl p (ttl / 2);
      Batch.invalidate_hdr b 0;
      let after_ttl = batch_agrees b && Batch.col_ttl b 0 = ttl / 2 in
      (* GRE encap makes the 5-tuple unparsable (protocol 47), so the
         stage must leave the slot plane-less; decap restores the inner
         tuple and the memo must re-derive exactly it. *)
      let inner = Packet.flow_of p in
      Packet.encap_gre p ~outer_src:0xC0A80001 ~outer_dst:0x0A010005;
      Batch.invalidate_hdr b 0;
      let after_encap = (not (Batch.hdr_valid b 0)) && Packet.is_gre p in
      Packet.decap_gre p;
      Batch.invalidate_hdr b 0;
      seeded && col_dst && after_dst && col_ttl && after_ttl && after_encap && batch_agrees b
      && Flow.equal (Batch.flow b 0) inner)

let prop_sidecar_compaction =
  QCheck.Test.make ~name:"filteri_in_place compacts the sidecar with the packets"
    ~count:200
    QCheck.(pair (make Gen.(list_size (int_range 1 24) gen_flow)) (int_range 0 0xFFFF))
    (fun (flows, salt) ->
      let b = Batch.create ~capacity:32 in
      List.iter (fun f -> push_crafted b (f, true)) flows;
      (* Drop a pseudo-random subset, rewriting some survivors through a
         column and others through their bytes, so seeded, dirty and
         plane-less slots all get compacted. *)
      let dropped =
        Batch.filteri_in_place b (fun i p ->
            if (i + salt) mod 3 = 0 then false
            else begin
              (match (i + salt) mod 4 with
               | 1 -> Batch.set_col_dst_ip b i ((salt + i) lsl 8)
               | 2 ->
                 Batch.materialize_slot b i;
                 Packet.set_dst_ip_int p ((salt lxor i) lsl 12);
                 Batch.invalidate_hdr b i
               | _ -> ());
              true
            end)
      in
      List.length dropped + Batch.length b = List.length flows && batch_agrees b)

(* --- Rx against a twin generator -------------------------------------- *)

(* Every frame {!Nic.rx_batch} hands out must be the bytes
   {!Packet.craft} produces for the flow a twin generator (same
   seed) draws, whether the NIC crafted it or replayed its template
   slot, and the header plane it seeded must agree with those bytes.
   Populations: one flow, fewer flows than template slots, and more
   (8192 slots), so distinct flows share a slot. *)
type rx_pop = One of Flow.t | Uniform of int | Zipf of int

let show_rx_pop = function
  | One f -> Format.asprintf "single %a" Flow.pp f
  | Uniform n -> Printf.sprintf "uniform %d" n
  | Zipf n -> Printf.sprintf "zipf %d" n

let arb_rx_case =
  let open QCheck.Gen in
  let pop =
    oneof
      [
        map (fun f -> One f) gen_flow;
        map (fun n -> Uniform n) (int_range 2 8192);
        map (fun n -> Uniform n) (int_range 8193 40_000);
        map (fun n -> Zipf n) (int_range 8193 40_000);
      ]
  in
  let payload = frequency [ (3, int_range 0 64); (1, int_range 0 1500) ] in
  QCheck.make
    ~print:(fun (pop, tcp, payload, seed) ->
      Printf.sprintf "%s tcp=%b payload=%d seed=%d" (show_rx_pop pop) tcp payload seed)
    (quad pop bool payload (int_range 0 1_000_000))

let prop_rx_matches_craft =
  QCheck.Test.make ~name:"rx frames == craft of the twin generator's flows" ~count:60
    arb_rx_case (fun (pop, tcp, payload_bytes, seed) ->
      let protocol = if tcp then Flow.Tcp else Flow.Udp in
      let pattern =
        match pop with
        | One f -> Traffic.Single_flow f
        | Uniform flows -> Traffic.Uniform { flows }
        | Zipf flows -> Traffic.Zipf { flows; exponent = 1.1 }
      in
      let traffic () =
        Traffic.of_plan
          ~rng:(Cycles.Rng.create (Int64.of_int seed))
          (Traffic.plan ~payload_bytes ~protocol pattern)
      in
      let clock = Cycles.Clock.create () in
      let pool = Mempool.create ~clock ~capacity:64 () in
      let engine = Engine.create ~clock ~pool () in
      let nic = Nic.create ~engine ~traffic:(traffic ()) () in
      let twin = traffic () in
      let want = fresh_packet () in
      let ok = ref true in
      for _ = 1 to 12 do
        let b = Nic.rx_batch nic 32 in
        for i = 0 to Batch.length b - 1 do
          craft want (Traffic.next_flow twin) ~payload_bytes ~ttl:64;
          ok :=
            !ok
            && Packet.to_string (Batch.get b i) = Packet.to_string want
            && Batch.hdr_consistent b i
        done;
        Nic.drop_batch nic b
      done;
      !ok)

let suite =
  List.map Seed.to_alcotest
    [
      prop_fnv_matches_int64;
      prop_key_pack_matches_hash;
      prop_word_accessors;
      prop_slab_bytes_oracle;
      prop_checksum_unrolled;
      prop_flow_memo_differential;
      prop_payload_pattern;
      prop_sidecar_rewrites;
      prop_sidecar_compaction;
    ]
  @ [ Seed.to_alcotest prop_rx_matches_craft ]

let () = Alcotest.run "packet_fast" [ ("equivalence", suite) ]
