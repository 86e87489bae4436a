type mode = Untagged | Tagged

type t = {
  clock : Cycles.Clock.t;
  pool : Mempool.t;
  telemetry : Telemetry.Registry.t option;
  mode : mode;
  tag_base : int;
  tag_span : int;
  tag_checks : int ref;
}

let tag_table_bytes = 1 lsl 20 (* 1 MiB of ownership tags *)

let create ~clock ~pool ?telemetry () =
  {
    clock;
    pool;
    telemetry;
    mode = Untagged;
    tag_base = Cycles.Clock.alloc_addr clock ~bytes:tag_table_bytes;
    tag_span = tag_table_bytes;
    tag_checks = ref 0;
  }

let clock t = t.clock
let pool t = t.pool
let telemetry t = t.telemetry
let mode t = t.mode

(* A view, not a copy: clock, pool, tag table and the tag-check counter
   are shared with the parent, only the access mode differs. Mode is
   immutable per engine value, so concurrent shards can never race on
   it — a Tagged pipeline builds its own view instead of flipping a
   shared engine. *)
let with_mode t mode = { t with mode }

(* One tag word per 64-byte granule of the shared heap, direct-mapped
   into the metadata table: hash the address into the table, load the
   tag word, resolve the owning principal and compare permission bits
   (LXFI does all of this per dereference) — Alu 6 + an 8-byte load +
   a predicted branch per checked word.

   Words inside one granule share a tag word, so their checks are
   batched — the ALU and
   branch charges in one addition each, the repeated tag-line loads
   through the guaranteed-L1 bulk path. Cycle-for-cycle equal to
   calling [tag_check] per word. *)
let tag_check_range t addr ~bytes =
  let words = ((max 1 bytes - 1) / 4) + 1 in
  let span_slots = t.tag_span / 8 in
  let w = ref 0 in
  while !w < words do
    let a = addr + (!w * 4) in
    let granule = a / 64 in
    (* Number of checked words still inside this granule. *)
    let upto = min words ((((granule + 1) * 64) - addr + 3) / 4) in
    let k = upto - !w in
    let slot = granule mod span_slots in
    let tag_addr = t.tag_base + (slot * 8) in
    Cycles.Clock.charge_many t.clock (Alu 6) k;
    Cycles.Clock.touch_same_line t.clock tag_addr ~times:k;
    Cycles.Clock.charge_many t.clock Branch_hit k;
    t.tag_checks := !(t.tag_checks) + k;
    w := upto
  done

let touch_packet t (p : Packet.t) ~off ~bytes =
  let addr = p.addr + off in
  (match t.mode with
  | Untagged -> ()
  | Tagged ->
    (* Mao et al. validate on {e each} pointer dereference: one check
       per 32-bit word loaded/stored. *)
    tag_check_range t addr ~bytes);
  Cycles.Clock.touch t.clock addr ~bytes

let tag_checks t = !(t.tag_checks)
