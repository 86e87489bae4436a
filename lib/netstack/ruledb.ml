type action = Accept | Drop

type rule = {
  r_src : (int32 * int) option;
  r_dst : (int32 * int) option;
  r_src_port : (int * int) option;
  r_dst_port : (int * int) option;
  r_proto : Flow.protocol option;
  r_action : action;
}

let rule ?src ?dst ?src_port ?dst_port ?proto action =
  {
    r_src = src;
    r_dst = dst;
    r_src_port = src_port;
    r_dst_port = dst_port;
    r_proto = proto;
    r_action = action;
  }

(* Rules are modelled as 16-byte TCAM-ish entries packed 4 per cache
   line; the scan touches a line every four rules examined. *)
let rule_bytes = 16
let rules_per_line = 4
let table_capacity = 4096

(* The compiled table: row [k] of every column is rule [k], packed to
   immediate ints. A wildcard prefix is mask 0 (so is [/0]), a wildcard
   port range [0..max_int], a wildcard protocol [-1]. Addresses are
   unsigned 32-bit values, as in the batch's header-plane columns. *)
type cols = {
  src_mask : int array;
  src_value : int array;
  dst_mask : int array;
  dst_value : int array;
  src_lo : int array;
  src_hi : int array;
  dst_lo : int array;
  dst_hi : int array;
  proto : int array;
  act : action array;
}

let cols_make n =
  let z () = Array.make n 0 in
  {
    src_mask = z ();
    src_value = z ();
    dst_mask = z ();
    dst_value = z ();
    src_lo = z ();
    src_hi = z ();
    dst_lo = z ();
    dst_hi = z ();
    proto = z ();
    act = Array.make n Accept;
  }

let cols_blit a i b j n =
  Array.blit a.src_mask i b.src_mask j n;
  Array.blit a.src_value i b.src_value j n;
  Array.blit a.dst_mask i b.dst_mask j n;
  Array.blit a.dst_value i b.dst_value j n;
  Array.blit a.src_lo i b.src_lo j n;
  Array.blit a.src_hi i b.src_hi j n;
  Array.blit a.dst_lo i b.dst_lo j n;
  Array.blit a.dst_hi i b.dst_hi j n;
  Array.blit a.proto i b.proto j n;
  Array.blit a.act i b.act j n

type t = {
  clock : Cycles.Clock.t;
  table_addr : int;
  mutable cols : cols;
  mutable count : int;
  mutable default : action;
  mutable subscribers : (unit -> unit) list;  (* registration order *)
}

let create ~clock ?(default = Accept) () =
  {
    clock;
    table_addr = Cycles.Clock.alloc_addr clock ~bytes:(table_capacity * rule_bytes);
    cols = cols_make 16;
    count = 0;
    default;
    subscribers = [];
  }

let rule_count t = t.count
let default_action t = t.default
let on_mutate t f = t.subscribers <- t.subscribers @ [ f ]
let fire t = List.iter (fun f -> f ()) t.subscribers

let validate r =
  let prefix = function
    | None -> ()
    | Some (_, bits) ->
      if bits < 0 || bits > 32 then invalid_arg "Ruledb: prefix bits out of range"
  in
  let range = function
    | None -> ()
    | Some (lo, hi) ->
      if lo < 0 || hi > 0xffff || lo > hi then invalid_arg "Ruledb: bad port range"
  in
  prefix r.r_src;
  prefix r.r_dst;
  range r.r_src_port;
  range r.r_dst_port

(* Write rule [r] into row [k]. *)
let pack c k r =
  let prefix mask value = function
    | None ->
      mask.(k) <- 0;
      value.(k) <- 0
    | Some (ip, bits) ->
      (* [bits = 0] shifts every set bit out of the low 32. *)
      let m = (0xFFFFFFFF lsl (32 - bits)) land 0xFFFFFFFF in
      mask.(k) <- m;
      value.(k) <- Int32.to_int ip land m
  in
  let range lo hi = function
    | None ->
      lo.(k) <- 0;
      hi.(k) <- max_int
    | Some (l, h) ->
      lo.(k) <- l;
      hi.(k) <- h
  in
  prefix c.src_mask c.src_value r.r_src;
  prefix c.dst_mask c.dst_value r.r_dst;
  range c.src_lo c.src_hi r.r_src_port;
  range c.dst_lo c.dst_hi r.r_dst_port;
  c.proto.(k) <- (match r.r_proto with None -> -1 | Some p -> Flow.protocol_number p);
  c.act.(k) <- r.r_action

let add t r =
  validate r;
  if t.count >= table_capacity then invalid_arg "Ruledb.add: table full";
  let cap = Array.length t.cols.act in
  if t.count = cap then begin
    let bigger = cols_make (2 * cap) in
    cols_blit t.cols 0 bigger 0 t.count;
    t.cols <- bigger
  end;
  pack t.cols t.count r;
  t.count <- t.count + 1;
  fire t

let remove t i =
  if i < 0 || i >= t.count then invalid_arg "Ruledb.remove: out of range";
  cols_blit t.cols (i + 1) t.cols i (t.count - i - 1);
  t.count <- t.count - 1;
  fire t

let set_default t a =
  t.default <- a;
  fire t

(* Index of the first row matching the tuple, or [n]. *)
let first_match c n ~src_ip ~dst_ip ~src_port ~dst_port ~proto =
  let k = ref 0 in
  while
    !k < n
    &&
    let j = !k in
    not
      (src_ip land c.src_mask.(j) = c.src_value.(j)
      && dst_ip land c.dst_mask.(j) = c.dst_value.(j)
      && src_port >= c.src_lo.(j)
      && src_port <= c.src_hi.(j)
      && dst_port >= c.dst_lo.(j)
      && dst_port <= c.dst_hi.(j)
      &&
      let p = c.proto.(j) in
      p < 0 || p = proto)
  do
    incr k
  done;
  !k

(* The modelled scan examines rules [0..k] (all of them on no match),
   touching a table line every [rules_per_line] rules and charging
   [Alu 3] per rule, plus a branch miss on the matching rule. The
   cycle counter is a sum and the cache state depends only on the
   order of the touches, so charging after the search, with one bulk
   touch of the consecutive table lines (a 64-byte rule line is one
   line of the default cache geometry), is equal to charging per
   rule. *)
let classify_tuple t ~src_ip ~dst_ip ~src_port ~dst_port ~proto =
  let n = t.count in
  let k = first_match t.cols n ~src_ip ~dst_ip ~src_port ~dst_port ~proto in
  let examined = if k < n then k + 1 else n in
  Cycles.Clock.touch_lines t.clock t.table_addr
    ~n:((examined + rules_per_line - 1) / rules_per_line);
  Cycles.Clock.charge_many t.clock (Alu 3) examined;
  if k < n then begin
    Cycles.Clock.charge t.clock Branch_miss;
    t.cols.act.(k)
  end
  else t.default

let classify t (f : Flow.t) =
  classify_tuple t
    ~src_ip:(Int32.to_int f.src_ip land 0xFFFFFFFF)
    ~dst_ip:(Int32.to_int f.dst_ip land 0xFFFFFFFF)
    ~src_port:f.src_port ~dst_port:f.dst_port
    ~proto:(Flow.protocol_number f.protocol)

let stage t =
  Stage.filter ~name:"ruledb" ~access:Stage.Cols
    ~hooks:[ on_mutate t ]
    (fun engine batch i p ->
      Engine.touch_packet engine p ~off:Packet.eth_header_bytes
        ~bytes:(Packet.ipv4_header_bytes + 4);
      match
        classify_tuple t ~src_ip:(Batch.col_src_ip batch i) ~dst_ip:(Batch.col_dst_ip batch i)
          ~src_port:(Batch.col_src_port batch i) ~dst_port:(Batch.col_dst_port batch i)
          ~proto:(Batch.col_proto batch i)
      with
      | Accept -> true
      | Drop -> false)
