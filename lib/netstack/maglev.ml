(* The connection table sits on the per-packet fast path, and the
   steady-state lookup already holds the flow's 62-bit FNV (the batch's
   flow memo precomputes it), so a stock [Hashtbl] — which would re-hash
   the boxed-int32 record on every probe and chase bucket-list cells —
   costs two dependent cache misses more than it needs to. This is a
   linear-probing open-addressing map keyed by the precomputed hash:
   a probe compares immediate ints and only consults the flow record
   (via [Flow.equal]) when the hashes collide. Lookup/insert/reset
   semantics match [Hashtbl] exactly; there is no delete. *)
module Conn = struct
  type t = {
    mutable keys : int array;  (* [Flow.hash] of the occupant; -1 = empty *)
    mutable flows : Flow.t array;
    mutable vals : int array;
    mutable mask : int;  (* capacity - 1, capacity a power of two *)
    mutable count : int;
  }

  let dummy_flow =
    Flow.make ~src_ip:0l ~dst_ip:0l ~src_port:0 ~dst_port:0 ~protocol:Flow.Udp

  let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

  let alloc cap =
    (Array.make cap (-1), Array.make cap dummy_flow, Array.make cap 0)

  let create cap =
    let cap = pow2_at_least (max 16 cap) 16 in
    let keys, flows, vals = alloc cap in
    { keys; flows; vals; mask = cap - 1; count = 0 }

  (* Index of [flow]'s slot, or of the empty slot where it belongs. *)
  let rec slot_from t ~key flow i =
    let k = Array.unsafe_get t.keys i in
    if k = -1 then i
    else if k = key && Flow.equal (Array.unsafe_get t.flows i) flow then i
    else slot_from t ~key flow ((i + 1) land t.mask)

  let[@inline] slot t ~key flow = slot_from t ~key flow (key land t.mask)

  (* -1 when absent (backends are nonnegative indices). *)
  let find t ~key flow =
    let i = slot t ~key flow in
    if Array.unsafe_get t.keys i = -1 then -1 else Array.unsafe_get t.vals i

  let grow t =
    let cap = (t.mask + 1) * 2 in
    let keys, flows, vals = alloc cap in
    let old_keys = t.keys and old_flows = t.flows and old_vals = t.vals in
    t.keys <- keys;
    t.flows <- flows;
    t.vals <- vals;
    t.mask <- cap - 1;
    Array.iteri
      (fun i k ->
        if k >= 0 then begin
          let j = slot t ~key:k old_flows.(i) (* fresh table: lands on empty *) in
          t.keys.(j) <- k;
          t.flows.(j) <- old_flows.(i);
          t.vals.(j) <- old_vals.(i)
        end)
      old_keys

  let replace t ~key flow v =
    let i = slot t ~key flow in
    if Array.unsafe_get t.keys i = -1 then begin
      t.keys.(i) <- key;
      t.flows.(i) <- flow;
      t.vals.(i) <- v;
      t.count <- t.count + 1;
      (* Keep load factor under 3/4 so probe chains stay short. *)
      if t.count * 4 > (t.mask + 1) * 3 then grow t
    end
    else t.vals.(i) <- v

  let length t = t.count

  let reset t =
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    Array.fill t.flows 0 (Array.length t.flows) dummy_flow;
    t.count <- 0
end

let bk_slots = 4096
let bk_mask = bk_slots - 1

type t = {
  clock : Cycles.Clock.t;
  table_size : int;
  mutable backends : string array;
  mutable table : int array;
  table_addr : int;
  conn : Conn.t;
  (* Host-side memo of [hash2 flow mod conn_buckets], direct-mapped and
     guarded by physical equality on the generator's interned flow
     records: the bucket an arrival touches is a pure function of the
     flow, so recomputing the second FNV hash plus an integer division
     per packet buys nothing. Purely a host speedup — the touched
     address, and every virtual charge, is identical on both paths. *)
  bk_flows : Flow.t array;
  bk_vals : int array;
  conn_addr : int;
  conn_buckets : int;
  mutable subscribers : (unit -> unit) list;  (* registration order *)
}

(* FNV-1a over a string, two different offset bases. *)
let fnv_string basis s =
  let acc = ref basis in
  String.iter
    (fun c -> acc := Int64.mul (Int64.logxor !acc (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  Int64.to_int (Int64.logand !acc 0x3FFFFFFFFFFFFFFFL)

let h1 = fnv_string 0xCBF29CE484222325L
let h2 = fnv_string 0x84222325CBF29CE4L

(* The population algorithm from §3.4 of the Maglev paper. *)
let build_table ~table_size backends =
  let n = Array.length backends in
  let offsets = Array.map (fun b -> h1 b mod table_size) backends in
  let skips = Array.map (fun b -> (h2 b mod (table_size - 1)) + 1) backends in
  let next = Array.make n 0 in
  let table = Array.make table_size (-1) in
  let filled = ref 0 in
  let permutation b j = (offsets.(b) + (j * skips.(b))) mod table_size in
  (try
     while true do
       for b = 0 to n - 1 do
         if !filled < table_size then begin
           (* Advance to this backend's next free candidate slot. *)
           let c = ref (permutation b next.(b)) in
           while table.(!c) >= 0 do
             next.(b) <- next.(b) + 1;
             c := permutation b next.(b)
           done;
           table.(!c) <- b;
           next.(b) <- next.(b) + 1;
           incr filled
         end
         else raise Exit
       done
     done
   with Exit -> ());
  table

let create ~clock ~backends ?(table_size = 65537) () =
  if Array.length backends = 0 then invalid_arg "Maglev.create: no backends";
  if table_size <= 1 then invalid_arg "Maglev.create: table too small";
  if Array.length backends > table_size then
    invalid_arg "Maglev.create: more backends than table entries";
  let conn_buckets = 16384 in
  {
    clock;
    table_size;
    backends = Array.copy backends;
    table = build_table ~table_size backends;
    table_addr = Cycles.Clock.alloc_addr clock ~bytes:(table_size * 4);
    conn = Conn.create conn_buckets;
    bk_flows = Array.make bk_slots Conn.dummy_flow;
    bk_vals = Array.make bk_slots 0;
    conn_addr = Cycles.Clock.alloc_addr clock ~bytes:(conn_buckets * 16);
    conn_buckets;
    subscribers = [];
  }

let on_change t f = t.subscribers <- t.subscribers @ [ f ]
let fire t = List.iter (fun f -> f ()) t.subscribers

let table_size t = t.table_size
let backend_count t = Array.length t.backends

let table_entry t i =
  if i < 0 || i >= t.table_size then invalid_arg "Maglev.table_entry";
  t.table.(i)

let connection_count t = Conn.length t.conn

let charge_hash t = Cycles.Clock.charge t.clock (Alu 12)

let touch_table_entry t idx =
  Cycles.Clock.touch t.clock (t.table_addr + (idx * 4)) ~bytes:4

let touch_conn_bucket t flow =
  let h =
    (Int32.to_int flow.Flow.src_ip lxor (flow.Flow.src_port lsl 16)) land bk_mask
  in
  let bucket =
    if Array.unsafe_get t.bk_flows h == flow then Array.unsafe_get t.bk_vals h
    else begin
      let bucket = Flow.hash2 flow mod t.conn_buckets in
      Array.unsafe_set t.bk_flows h flow;
      Array.unsafe_set t.bk_vals h bucket;
      bucket
    end
  in
  Cycles.Clock.touch t.clock (t.conn_addr + (bucket * 16)) ~bytes:16

let lookup_no_track t flow =
  charge_hash t;
  let idx = Flow.hash flow mod t.table_size in
  touch_table_entry t idx;
  t.table.(idx)

(* [key] must be [Flow.Key.of_flow flow] (i.e. [Flow.hash flow]) — the
   batch's flow memo hands it in precomputed, so the steady-state lookup
   re-hashes nothing. The virtual-cycle charges model the hash work the
   hardware still does and are identical to [lookup]'s, keyed or not. *)
let lookup_keyed t flow ~key =
  charge_hash t;
  touch_conn_bucket t flow;
  Cycles.Clock.charge t.clock Branch_hit;
  let cached = Conn.find t.conn ~key flow in
  if cached >= 0 then cached
  else begin
    let idx = key mod t.table_size in
    touch_table_entry t idx;
    let backend = t.table.(idx) in
    (* Record affinity. *)
    Cycles.Clock.charge t.clock (Alu 4);
    touch_conn_bucket t flow;
    Conn.replace t.conn ~key flow backend;
    backend
  end

let lookup t flow = lookup_keyed t flow ~key:(Flow.hash flow)

let set_backends t backends =
  if Array.length backends = 0 then invalid_arg "Maglev.set_backends: no backends";
  if Array.length backends > t.table_size then
    invalid_arg "Maglev.set_backends: more backends than table entries";
  let fresh = build_table ~table_size:t.table_size backends in
  let changed = ref 0 in
  for i = 0 to t.table_size - 1 do
    (* Compare by backend *name*, since indices may be reshuffled. *)
    let old_name = t.backends.(t.table.(i)) in
    let new_name = backends.(fresh.(i)) in
    if not (String.equal old_name new_name) then incr changed
  done;
  t.backends <- Array.copy backends;
  t.table <- fresh;
  fire t;
  !changed

let flush_connections t =
  let n = Conn.length t.conn in
  Conn.reset t.conn;
  fire t;
  n

let imbalance t =
  let n = Array.length t.backends in
  let shares = Array.make n 0 in
  Array.iter (fun b -> shares.(b) <- shares.(b) + 1) t.table;
  let mx = Array.fold_left max 0 shares and mn = Array.fold_left min max_int shares in
  let mean = float_of_int t.table_size /. float_of_int n in
  float_of_int (mx - mn) /. mean
