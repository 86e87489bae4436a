type allocation = {
  addr : int;
  bytes : int;
  mutable owner : Domain_id.t;
  mutable freed : bool;
}

type t = {
  clock : Cycles.Clock.t;
  (* Live allocations, keyed by base address. *)
  live : (int, allocation) Hashtbl.t;
}

let create ~clock = { clock; live = Hashtbl.create 256 }

let alloc t ~owner ~bytes =
  Cycles.Clock.charge t.clock Alloc;
  let addr = Cycles.Clock.alloc_addr t.clock ~bytes in
  (* First touch: the new object's lines enter the cache. *)
  Cycles.Clock.touch t.clock addr ~bytes;
  let a = { addr; bytes; owner; freed = false } in
  Hashtbl.replace t.live addr a;
  a

let free t a =
  if a.freed then invalid_arg "Heap.free: double free";
  a.freed <- true;
  Cycles.Clock.charge t.clock Alloc;
  Hashtbl.remove t.live a.addr

let transfer t a ~to_ =
  if a.freed then invalid_arg "Heap.transfer: freed allocation";
  (* Owner word update: one ALU op and one line touch. *)
  Cycles.Clock.charge t.clock (Alu 1);
  Cycles.Clock.touch t.clock a.addr ~bytes:8;
  a.owner <- to_

let fold_owned t id f init =
  Hashtbl.fold (fun _ a acc -> if Domain_id.equal a.owner id then f a acc else acc) t.live init

let live_bytes t id = fold_owned t id (fun a acc -> acc + a.bytes) 0
let live_allocations t id = fold_owned t id (fun _ acc -> acc + 1) 0

let free_all_owned_by t id =
  let owned = fold_owned t id (fun a acc -> a :: acc) [] in
  List.iter (fun a -> free t a) owned;
  List.length owned

let total_live_bytes t = Hashtbl.fold (fun _ a acc -> acc + a.bytes) t.live 0
