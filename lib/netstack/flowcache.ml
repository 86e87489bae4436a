let default_guard_bytes =
  Packet.eth_header_bytes + Packet.ipv4_header_bytes + Packet.tcp_header_bytes

(* One megaflow entry. The verdict is flattened into [e_drop]/[e_out]/
   [e_delta] so a re-install mutates in place without allocating a
   constructor. Entries are intrusive nodes of a doubly-linked LRU
   list threaded through a per-cache sentinel. *)
type entry = {
  e_key : int;
  mutable e_epoch : int;
  mutable e_guard : string;
  mutable e_out : string;  (* output prefix; meaningless when [e_drop] *)
  mutable e_delta : int;
  mutable e_drop : bool;
  mutable e_installed : int64;
  mutable e_prev : entry;
  mutable e_next : entry;
}

(* Pre-resolved [netstack.flowcache.*] handles. *)
type tele = {
  ft_lookups : Telemetry.Counter.t;
  ft_hits : Telemetry.Counter.t;
  ft_misses : Telemetry.Counter.t;
  ft_installs : Telemetry.Counter.t;
  ft_evictions_lru : Telemetry.Counter.t;
  ft_evictions_ttl : Telemetry.Counter.t;
  ft_evictions_stale : Telemetry.Counter.t;
  ft_invalidations : Telemetry.Counter.t;
  ft_served_fast : Telemetry.Counter.t;
  ft_dropped_fast : Telemetry.Counter.t;
}

type t = {
  clock : Cycles.Clock.t;
  capacity : int;
  ttl : int64;
  guard_bytes : int;
  table : (int, entry) Hashtbl.t;
  table_addr : int;  (* synthetic address of the bucket array *)
  lru : entry;         (* sentinel: [lru.e_next] is most recent *)
  tele : tele option;
  mutable epoch : int;
  mutable lookups : int;
  mutable hits : int;
  mutable misses : int;
  mutable installs : int;
  mutable evictions_lru : int;
  mutable evictions_ttl : int;
  mutable evictions_stale : int;
  mutable invalidations : int;
  mutable served_fast : int;
  mutable dropped_fast : int;
}

let make_sentinel () =
  let rec s =
    {
      e_key = min_int;
      e_epoch = 0;
      e_guard = "";
      e_out = "";
      e_delta = 0;
      e_drop = false;
      e_installed = 0L;
      e_prev = s;
      e_next = s;
    }
  in
  s

let make_tele reg =
  let scope = Telemetry.Scope.v reg "netstack.flowcache" in
  let c = Telemetry.Scope.counter scope in
  {
    ft_lookups = c "lookups";
    ft_hits = c "hits";
    ft_misses = c "misses";
    ft_installs = c "installs";
    ft_evictions_lru = c "evictions_lru";
    ft_evictions_ttl = c "evictions_ttl";
    ft_evictions_stale = c "evictions_stale";
    ft_invalidations = c "invalidations";
    ft_served_fast = c "served_fast";
    ft_dropped_fast = c "dropped_fast";
  }

let create ~clock ?telemetry ?(guard_bytes = default_guard_bytes) ~capacity ~ttl_cycles () =
  if capacity <= 0 then invalid_arg "Flowcache.create: capacity must be positive";
  if Int64.compare ttl_cycles 0L <= 0 then
    invalid_arg "Flowcache.create: ttl_cycles must be positive";
  if guard_bytes <= 0 then invalid_arg "Flowcache.create: guard_bytes must be positive";
  {
    clock;
    capacity;
    ttl = ttl_cycles;
    guard_bytes;
    table = Hashtbl.create (min capacity 65536);
    (* Model the entry table as 16 B of metadata per bucket so probes
       generate cache traffic proportional to the configured size. *)
    table_addr = Cycles.Clock.alloc_addr clock ~bytes:(capacity * 16);
    lru = make_sentinel ();
    tele = Option.map make_tele telemetry;
    epoch = 0;
    lookups = 0;
    hits = 0;
    misses = 0;
    installs = 0;
    evictions_lru = 0;
    evictions_ttl = 0;
    evictions_stale = 0;
    invalidations = 0;
    served_fast = 0;
    dropped_fast = 0;
  }

let capacity t = t.capacity
let epoch t = t.epoch
let length t = Hashtbl.length t.table

(* --- LRU list --------------------------------------------------------- *)

let unlink e =
  e.e_prev.e_next <- e.e_next;
  e.e_next.e_prev <- e.e_prev

let push_front t e =
  let s = t.lru in
  e.e_next <- s.e_next;
  e.e_prev <- s;
  s.e_next.e_prev <- e;
  s.e_next <- e

let move_front t e =
  unlink e;
  push_front t e

let lru_keys t =
  let rec go acc e = if e == t.lru then List.rev acc else go (e.e_key :: acc) e.e_next in
  go [] t.lru.e_next

let remove_entry t e =
  unlink e;
  Hashtbl.remove t.table e.e_key

(* --- Counters --------------------------------------------------------- *)

let tele_incr t f = match t.tele with Some tl -> Telemetry.Counter.incr (f tl) | None -> ()

let count_evict_ttl t =
  t.evictions_ttl <- t.evictions_ttl + 1;
  tele_incr t (fun tl -> tl.ft_evictions_ttl)

let count_evict_stale t =
  t.evictions_stale <- t.evictions_stale + 1;
  tele_incr t (fun tl -> tl.ft_evictions_stale)

let count_evict_lru t =
  t.evictions_lru <- t.evictions_lru + 1;
  tele_incr t (fun tl -> tl.ft_evictions_lru)

(* --- Fast path -------------------------------------------------------- *)

let touch_bucket t key =
  let bucket = key land max_int mod t.capacity in
  Cycles.Clock.touch t.clock (t.table_addr + (bucket * 16)) ~bytes:16

(* memcmp of the guard against the packet's prefix, allocation-free. *)
let guard_matches e (p : Packet.t) =
  let g = String.length e.e_guard in
  g <= p.len
  &&
  let rec eq i =
    i = g || (Char.equal (Slab.unsafe_get p.buf i) (String.unsafe_get e.e_guard i) && eq (i + 1))
  in
  eq 0

let expired t e = Int64.compare (Int64.sub (Cycles.Clock.now t.clock) e.e_installed) t.ttl >= 0

type outcome = Hit_serve | Hit_drop | Miss

let miss t =
  t.misses <- t.misses + 1;
  tele_incr t (fun tl -> tl.ft_misses);
  Miss

let access t ~engine ~key (p : Packet.t) =
  t.lookups <- t.lookups + 1;
  tele_incr t (fun tl -> tl.ft_lookups);
  (* Probe cost: hash-to-bucket arithmetic, one bucket line, a branch. *)
  Cycles.Clock.charge t.clock (Alu 4);
  Cycles.Clock.charge t.clock Branch_hit;
  touch_bucket t key;
  match Hashtbl.find_opt t.table key with
  | None -> miss t
  | Some e ->
    if e.e_epoch <> t.epoch then begin
      (* Invalidated by an owner-side mutation hook: retire lazily. *)
      remove_entry t e;
      count_evict_stale t;
      miss t
    end
    else if expired t e then begin
      remove_entry t e;
      count_evict_ttl t;
      miss t
    end
    else begin
      let g = String.length e.e_guard in
      Engine.touch_packet engine p ~off:0 ~bytes:(min g p.len);
      Cycles.Clock.charge t.clock (Alu ((g / 8) + 1));
      if not (guard_matches e p) then
        (* Key collision or a header variant the key doesn't see —
           degrade to the slow path, never serve a wrong verdict. The
           resident entry stays: its own flow is still live. *)
        miss t
      else if e.e_drop then begin
        t.hits <- t.hits + 1;
        t.dropped_fast <- t.dropped_fast + 1;
        tele_incr t (fun tl -> tl.ft_hits);
        tele_incr t (fun tl -> tl.ft_dropped_fast);
        move_front t e;
        Hit_drop
      end
      else begin
        let out_plen = String.length e.e_out in
        let new_len = p.len + e.e_delta in
        if new_len > Slab.length p.buf then
          (* No room for the memoised expansion in this buffer; let the
             slow path raise/drop exactly as it would uncached. *)
          miss t
        else begin
          (* Prefix-patch replay: shift the tail by the memoised delta,
             then overwrite the front with the memoised output prefix.
             [Bytes.blit] is overlap-safe in both directions. *)
          if e.e_delta <> 0 then begin
            Slab.blit p.buf g p.buf (g + e.e_delta) (p.len - g);
            Cycles.Clock.charge t.clock (Copy (p.len - g))
          end;
          Slab.blit_string e.e_out 0 p.buf 0 out_plen;
          p.len <- new_len;
          Engine.touch_packet engine p ~off:0 ~bytes:out_plen;
          t.hits <- t.hits + 1;
          t.served_fast <- t.served_fast + 1;
          tele_incr t (fun tl -> tl.ft_hits);
          tele_incr t (fun tl -> tl.ft_served_fast);
          move_front t e;
          Hit_serve
        end
      end
    end

(* --- Slow-path install ------------------------------------------------ *)

let guard_of t (p : Packet.t) = Slab.sub_string p.buf 0 (min t.guard_bytes p.len)

let install t ~key ~guard ~out ~delta ~drop =
  Cycles.Clock.charge t.clock (Alu 6);
  touch_bucket t key;
  (match Hashtbl.find_opt t.table key with
  | Some e ->
    e.e_epoch <- t.epoch;
    e.e_guard <- guard;
    e.e_out <- out;
    e.e_delta <- delta;
    e.e_drop <- drop;
    e.e_installed <- Cycles.Clock.now t.clock;
    move_front t e
  | None ->
    if Hashtbl.length t.table >= t.capacity then begin
      let victim = t.lru.e_prev in
      (* Non-empty whenever length >= capacity > 0. *)
      remove_entry t victim;
      if victim.e_epoch <> t.epoch then count_evict_stale t else count_evict_lru t
    end;
    let e =
      {
        e_key = key;
        e_epoch = t.epoch;
        e_guard = guard;
        e_out = out;
        e_delta = delta;
        e_drop = drop;
        e_installed = Cycles.Clock.now t.clock;
        e_prev = t.lru;
        e_next = t.lru;
      }
    in
    push_front t e;
    Hashtbl.replace t.table key e);
  t.installs <- t.installs + 1;
  tele_incr t (fun tl -> tl.ft_installs)

let install_serve t ~key ~guard ~out_prefix ~delta =
  if String.length out_prefix <> String.length guard + delta then
    invalid_arg "Flowcache.install_serve: out_prefix length disagrees with guard + delta";
  install t ~key ~guard ~out:out_prefix ~delta ~drop:false

let install_drop t ~key ~guard = install t ~key ~guard ~out:"" ~delta:0 ~drop:true

let invalidate t =
  t.epoch <- t.epoch + 1;
  t.invalidations <- t.invalidations + 1;
  tele_incr t (fun tl -> tl.ft_invalidations)

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  installs : int;
  evictions_lru : int;
  evictions_ttl : int;
  evictions_stale : int;
  invalidations : int;
  served_fast : int;
  dropped_fast : int;
}

let stats (t : t) =
  {
    lookups = t.lookups;
    hits = t.hits;
    misses = t.misses;
    installs = t.installs;
    evictions_lru = t.evictions_lru;
    evictions_ttl = t.evictions_ttl;
    evictions_stale = t.evictions_stale;
    invalidations = t.invalidations;
    served_fast = t.served_fast;
    dropped_fast = t.dropped_fast;
  }
