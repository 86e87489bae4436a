type op =
  | Alu of int
  | Branch_hit
  | Branch_miss
  | Call
  | Indirect_call
  | Atomic_rmw
  | Tls_lookup
  | Alloc
  | Unwind
  | Copy of int
  | Fixed of int

type t = {
  model : Cost_model.t;
  cache : Cache.t;
  (* Immediate [int], not [int64]: the counter is bumped on every
     simulated load/store, and a boxed representation would allocate
     on each bump — GC pressure that dominates the real hot path. 62
     bits of headroom dwarf any experiment's cycle count; the [int64]
     API is preserved at the boundary. *)
  mutable cycles : int;
  mutable brk : int;  (* bump pointer of the synthetic address space *)
}

let create ?(model = Cost_model.default) () =
  let cache = Cache.create Cache.default_config in
  (* Start the heap away from address 0 so that "null-ish" addresses in
     tests stand out. *)
  { model; cache; cycles = 0; brk = 0x1000 }

let model t = t.model
let now t = Int64.of_int t.cycles
let add t n = t.cycles <- t.cycles + n

let cost_of t op =
  let m = t.model in
  match op with
  | Alu n -> n * m.alu
  | Branch_hit -> m.branch
  | Branch_miss -> m.branch_miss
  | Call -> m.call
  | Indirect_call -> m.indirect_call
  | Atomic_rmw -> m.atomic_rmw
  | Tls_lookup -> m.tls_lookup
  | Alloc -> m.alloc_fixed
  | Unwind -> m.unwind
  | Copy n -> int_of_float (ceil (float_of_int n *. m.per_byte_copy))
  | Fixed n -> n

let charge t op = add t (cost_of t op)

let charge_many t op n = if n > 0 then add t (n * cost_of t op)

(* The hot path of the whole simulator: every simulated load/store
   funnels through here, and hands the whole run of overlapped lines
   to the cache in one call that prices them too — no intermediate
   list, no closures, no boxed addresses. *)
let touch t addr ~bytes =
  if bytes > 0 then begin
    let first = Cache.line_of t.cache addr in
    let last = Cache.line_of t.cache (addr + bytes - 1) in
    add t (Cache.access_lines t.cache t.model first ~n:(last - first + 1))
  end

let touch_lines t addr ~n =
  add t (Cache.access_lines t.cache t.model (Cache.line_of t.cache addr) ~n)

(* [times] accesses to the same (single-line) address: one real probe
   plus [times - 1] guaranteed L1 hits replayed in bulk. Cycle and
   cache-state effects equal [times] calls to [touch]. *)
let touch_same_line t addr ~times =
  if times > 0 then begin
    touch t addr ~bytes:1;
    if times > 1 then begin
      Cache.repeat_hit t.cache (times - 1);
      add t ((times - 1) * t.model.l1_latency)
    end
  end

let touch_level t addr =
  let level = Cache.access t.cache addr in
  add t (Cache.latency t.model level);
  level

let alloc_addr t ~bytes =
  let base = t.brk in
  let aligned = (bytes + 63) / 64 * 64 in
  t.brk <- t.brk + max 64 aligned;
  base

let cache_counters t = Cache.counters t.cache

let measure t f =
  let start = t.cycles in
  let result = f () in
  (result, Int64.of_int (t.cycles - start))
