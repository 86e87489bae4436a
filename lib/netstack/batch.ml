(* Placeholder for slots whose flow memo is unset; never observable
   through the API (guarded by the [hp_memo] bit). *)
let no_flow =
  Flow.make ~src_ip:0l ~dst_ip:0l ~src_port:0 ~dst_port:0 ~protocol:Flow.Udp

type t = {
  mutable pkts : Packet.t array;
  mutable len : int;
  (* Header plane: structure-of-arrays columns holding the one parse of
     each packet's L3/L4 header. [hp_state.(i)] is 0 when slot [i] has
     no plane (never seeded, or invalidated by a byte-level rewrite);
     otherwise it carries [hp_valid], the per-column dirty bits of
     {!Packet} ([dirty_ttl], [dirty_dst_ip]) and [hp_memo]. Column
     stages read and write these unboxed ints; wire bytes are only
     touched again at {!materialize}. *)
  hp_state : int array;
  hp_src_ip : int array;
  hp_dst_ip : int array;
  hp_src_port : int array;  (* -1 when the protocol carries no ports *)
  hp_dst_port : int array;
  hp_proto : int array;
  hp_ttl : int array;
  hp_ip_len : int array;
  hp_csum : int array;
  (* Flow memo: the packed key and the {!Flow.t} record of the slot's
     tuple columns, meaningful only while [hp_memo] is set. Derived
     from the columns, never a second source of truth: the one tuple
     column writer ({!set_col_dst_ip}) clears the bit, and dropping the
     plane drops it. *)
  keys : int array;
  flows : Flow.t array;
  (* Conservative count of slots whose plane carries dirty bits: bumped
     on every clean->dirty transition, reset only by a full
     {!materialize} or {!clear}. Never undercounts (compaction and
     re-seeding may leave it high), so zero proves the batch clean and
     lets every barrier of a read-only pipeline skip the scan. *)
  mutable hp_dirty_n : int;
}

let hp_valid = 4
let hp_dirty_mask = hp_valid - 1
let hp_memo = 8

let create ~capacity =
  if capacity <= 0 then invalid_arg "Batch.create: capacity must be positive";
  {
    pkts = Array.make capacity Packet.null;
    len = 0;
    hp_state = Array.make capacity 0;
    hp_src_ip = Array.make capacity 0;
    hp_dst_ip = Array.make capacity 0;
    hp_src_port = Array.make capacity (-1);
    hp_dst_port = Array.make capacity (-1);
    hp_proto = Array.make capacity 0;
    hp_ttl = Array.make capacity 0;
    hp_ip_len = Array.make capacity 0;
    hp_csum = Array.make capacity 0;
    keys = Array.make capacity 0;
    flows = Array.make capacity no_flow;
    hp_dirty_n = 0;
  }

let length t = t.len
let capacity t = Array.length t.pkts
let is_empty t = t.len = 0

let push t p =
  if t.len = Array.length t.pkts then invalid_arg "Batch.push: batch full";
  t.pkts.(t.len) <- p;
  t.hp_state.(t.len) <- 0;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Batch.get: out of bounds";
  t.pkts.(i)

let check_slot op t i =
  if i < 0 || i >= t.len then invalid_arg ("Batch." ^ op ^ ": out of bounds")

(* --- Header plane (SoA columns) -------------------------------------- *)

(* Copy slot [i]'s whole header state — plane, dirty bits and flow
   memo — to [dst]'s slot [j]: the one slot copy behind compaction and
   {!blit_slot}. *)
let[@inline] copy_slot src i dst j =
  dst.hp_state.(j) <- src.hp_state.(i);
  dst.hp_src_ip.(j) <- src.hp_src_ip.(i);
  dst.hp_dst_ip.(j) <- src.hp_dst_ip.(i);
  dst.hp_src_port.(j) <- src.hp_src_port.(i);
  dst.hp_dst_port.(j) <- src.hp_dst_port.(i);
  dst.hp_proto.(j) <- src.hp_proto.(i);
  dst.hp_ttl.(j) <- src.hp_ttl.(i);
  dst.hp_ip_len.(j) <- src.hp_ip_len.(i);
  dst.hp_csum.(j) <- src.hp_csum.(i);
  dst.keys.(j) <- src.keys.(i);
  dst.flows.(j) <- src.flows.(i)

let blit_slot src i dst j =
  check_slot "blit_slot" src i;
  check_slot "blit_slot" dst j;
  if src.hp_state.(i) land hp_dirty_mask <> 0 then
    (* The copied plane carries deferred writes: keep the destination's
       dirty count an upper bound so its barriers still scan. *)
    dst.hp_dirty_n <- dst.hp_dirty_n + 1;
  copy_slot src i dst j

let seed_hdr t i ~flow ~key ~ttl ~ip_len ~csum =
  check_slot "seed_hdr" t i;
  t.hp_src_ip.(i) <- Int32.to_int flow.Flow.src_ip land 0xFFFFFFFF;
  t.hp_dst_ip.(i) <- Int32.to_int flow.Flow.dst_ip land 0xFFFFFFFF;
  t.hp_src_port.(i) <- flow.Flow.src_port;
  t.hp_dst_port.(i) <- flow.Flow.dst_port;
  t.hp_proto.(i) <- Flow.protocol_number flow.Flow.protocol;
  t.hp_ttl.(i) <- ttl;
  t.hp_ip_len.(i) <- ip_len;
  t.hp_csum.(i) <- csum;
  t.keys.(i) <- key;
  t.flows.(i) <- flow;
  t.hp_state.(i) <- hp_valid lor hp_memo

let invalidate_hdr t i =
  check_slot "invalidate_hdr" t i;
  t.hp_state.(i) <- 0

let hdr_valid t i =
  check_slot "hdr_valid" t i;
  t.hp_state.(i) <> 0

(* Lazy load for a plane-less slot: the one parse from wire bytes.
   Raises like the {!Packet} accessors on non-IPv4 slots; ports are
   recorded as [-1] for protocols that carry none (GRE outer headers),
   making the port columns raise exactly where {!Packet.src_port}
   would. *)
let load_hdr t i =
  let p = get t i in
  let proto = Packet.protocol_number p in
  t.hp_src_ip.(i) <- Packet.src_ip_int p;
  t.hp_dst_ip.(i) <- Packet.dst_ip_int p;
  t.hp_proto.(i) <- proto;
  t.hp_ttl.(i) <- Packet.ttl p;
  t.hp_ip_len.(i) <- Packet.ip_total_length p;
  t.hp_csum.(i) <- Packet.stored_checksum p;
  if (proto = 6 || proto = 17) && p.Packet.len >= Packet.eth_header_bytes + Packet.ipv4_header_bytes + 4
  then begin
    t.hp_src_port.(i) <- Packet.src_port p;
    t.hp_dst_port.(i) <- Packet.dst_port p
  end
  else begin
    t.hp_src_port.(i) <- -1;
    t.hp_dst_port.(i) <- -1
  end;
  t.hp_state.(i) <- hp_valid

let[@inline] ensure_hdr op t i =
  check_slot op t i;
  if t.hp_state.(i) = 0 then load_hdr t i

(* Set dirty bit [bit] on slot [i] and clear the state bits in [drop],
   counting the clean->dirty transition for {!materialize}'s skip
   test. *)
let[@inline] mark_dirty t i ~drop bit =
  let st = t.hp_state.(i) in
  if st land hp_dirty_mask = 0 then t.hp_dirty_n <- t.hp_dirty_n + 1;
  t.hp_state.(i) <- (st lor bit) land lnot drop

let port_col op v =
  if v < 0 then invalid_arg ("Batch." ^ op ^ ": protocol carries no ports") else v

(* --- Flow memo ------------------------------------------------------- *)

(* Derive slot [i]'s flow memo from its tuple columns unless it is
   already set. A port-less slot has no 5-tuple and raises. *)
let memo op t i =
  ensure_hdr op t i;
  let st = t.hp_state.(i) in
  if st land hp_memo = 0 then begin
    let src_ip = t.hp_src_ip.(i) and dst_ip = t.hp_dst_ip.(i) in
    let src_port = port_col op t.hp_src_port.(i) and dst_port = t.hp_dst_port.(i) in
    let proto = t.hp_proto.(i) in
    t.keys.(i) <- Flow.Key.pack ~src_ip ~dst_ip ~src_port ~dst_port ~proto;
    t.flows.(i) <-
      Flow.make ~src_ip:(Int32.of_int src_ip) ~dst_ip:(Int32.of_int dst_ip) ~src_port
        ~dst_port
        ~protocol:(if proto = 6 then Flow.Tcp else Flow.Udp);
    t.hp_state.(i) <- st lor hp_memo
  end

let flow t i =
  memo "flow" t i;
  t.flows.(i)

let flow_key t i =
  memo "flow_key" t i;
  t.keys.(i)

(* --- Column accessors ------------------------------------------------ *)

let col_ttl t i =
  ensure_hdr "col_ttl" t i;
  t.hp_ttl.(i)

let set_col_ttl t i v =
  ensure_hdr "set_col_ttl" t i;
  if v < 0 || v > 255 then invalid_arg "Batch.set_col_ttl";
  t.hp_ttl.(i) <- v;
  (* TTL is not part of the 5-tuple: the flow memo stays. *)
  mark_dirty t i ~drop:0 Packet.dirty_ttl

let col_src_ip t i =
  ensure_hdr "col_src_ip" t i;
  t.hp_src_ip.(i)

let col_dst_ip t i =
  ensure_hdr "col_dst_ip" t i;
  t.hp_dst_ip.(i)

let set_col_dst_ip t i v =
  ensure_hdr "set_col_dst_ip" t i;
  t.hp_dst_ip.(i) <- v land 0xFFFFFFFF;
  mark_dirty t i ~drop:hp_memo Packet.dirty_dst_ip

let col_src_port t i =
  ensure_hdr "col_src_port" t i;
  port_col "col_src_port" t.hp_src_port.(i)

let col_dst_port t i =
  ensure_hdr "col_dst_port" t i;
  port_col "col_dst_port" t.hp_dst_port.(i)

let col_proto t i =
  ensure_hdr "col_proto" t i;
  t.hp_proto.(i)

let materialize_slot t i =
  check_slot "materialize_slot" t i;
  let st = t.hp_state.(i) in
  if st land hp_dirty_mask <> 0 then begin
    let p = get t i in
    t.hp_csum.(i) <-
      Packet.apply_hdr p ~dirty:(st land hp_dirty_mask) ~ttl:t.hp_ttl.(i)
        ~dst_ip:t.hp_dst_ip.(i);
    (* The bytes now match the columns the memo (if set) derives from. *)
    t.hp_state.(i) <- st land lnot hp_dirty_mask
  end

let materialize t =
  (* [hp_dirty_n] is a conservative upper bound (compaction may drop
     dirty slots without decrementing), so zero means provably clean —
     the common case at every barrier of a read-only pipeline. *)
  if t.hp_dirty_n <> 0 then begin
    for i = 0 to t.len - 1 do
      if Array.unsafe_get t.hp_state i land hp_dirty_mask <> 0 then materialize_slot t i
    done;
    t.hp_dirty_n <- 0
  end

let hdr_consistent t i =
  check_slot "hdr_consistent" t i;
  let st = t.hp_state.(i) in
  if st = 0 || st land hp_dirty_mask <> 0 then
    (* No plane, or writes still deferred: nothing claims the bytes are
       current, so there is nothing to audit. *)
    true
  else begin
    let p = get t i in
    Packet.protocol_number p = t.hp_proto.(i)
    && Packet.ttl p = t.hp_ttl.(i)
    && Packet.src_ip_int p = t.hp_src_ip.(i)
    && Packet.dst_ip_int p = t.hp_dst_ip.(i)
    && Packet.ip_total_length p = t.hp_ip_len.(i)
    && Packet.stored_checksum p = t.hp_csum.(i)
    && (t.hp_src_port.(i) < 0
        || (Packet.src_port p = t.hp_src_port.(i) && Packet.dst_port p = t.hp_dst_port.(i)))
    && (st land hp_memo = 0
        ||
        let f = Packet.flow_of p in
        Flow.equal t.flows.(i) f && t.keys.(i) = Flow.hash f)
  end

(* Forgetful-rewriter harness hook: write a column WITHOUT its dirty
   bit, simulating a buggy column stage. Only for regression tests of
   the {!hdr_consistent} audit. *)
let poke_col_for_test t i col =
  ensure_hdr "poke_col_for_test" t i;
  match col with
  | `Ttl v -> t.hp_ttl.(i) <- v
  | `Src_ip v -> t.hp_src_ip.(i) <- v land 0xFFFFFFFF
  | `Dst_ip v -> t.hp_dst_ip.(i) <- v land 0xFFFFFFFF
  | `Src_port v -> t.hp_src_port.(i) <- v
  | `Dst_port v -> t.hp_dst_port.(i) <- v

(* --- Traversal ------------------------------------------------------- *)

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (get t i)
  done

let fold f init t =
  let acc = ref init in
  iter (fun p -> acc := f !acc p) t;
  !acc

(* Empty slots [from, len) and shrink the batch to [from]: the one
   tail reset behind compaction, [clear] and [take_all]. *)
let truncate t from =
  for i = from to t.len - 1 do
    t.pkts.(i) <- Packet.null;
    t.hp_state.(i) <- 0
  done;
  t.len <- from

(* The one compaction loop. The keep callback sees the packet at its
   *original* index — the write cursor [w] only ever trails the read
   cursor, so slot [i] is still intact when [keep env t i p] runs and
   header-plane operations against index [i] (e.g. [invalidate_hdr]
   after a byte rewrite) land on the right slot before it is compacted
   down to [w]. Dropped packets land in the caller's scratch array, in
   encounter order, so the pipeline's filter passes allocate nothing;
   taking the filter-kernel calling convention directly spares them a
   wrapper-closure trampoline per packet. *)
let sieve_kernel t keep env ~dropped =
  let w = ref 0 in
  let d = ref 0 in
  for i = 0 to t.len - 1 do
    let p = get t i in
    if keep env t i p then begin
      (* Until the first drop [w = i] and the slot is already in place:
         the pass stores (and allocates) nothing — the common case for
         a filter that keeps the whole batch. *)
      if !w <> i then begin
        t.pkts.(!w) <- t.pkts.(i);
        copy_slot t i t !w
      end;
      incr w
    end
    else begin
      dropped.(!d) <- p;
      incr d
    end
  done;
  truncate t !w;
  !d

let filteri_in_place t keep =
  let dropped = Array.make t.len Packet.null in
  let d = sieve_kernel t (fun keep _ i p -> keep i p) keep ~dropped in
  List.init d (Array.get dropped)

let clear t =
  truncate t 0;
  t.hp_dirty_n <- 0

let packets t =
  let ps = ref [] in
  for i = t.len - 1 downto 0 do
    ps := get t i :: !ps
  done;
  !ps

let take_all t =
  (* Ownership of the packets leaves the batch — flush any deferred
     column writes so the bytes handed out are canonical. *)
  materialize t;
  let ps = packets t in
  truncate t 0;
  ps
