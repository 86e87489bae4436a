type entry = Entry : 'a Linear.Rc.t -> entry

type slot_id = int

type t = {
  clock : Cycles.Clock.t;
  owner : Domain_id.t;
  slots : (slot_id, entry * int) Hashtbl.t;
  mutable next_slot : slot_id;
  mutable generation : int;
}

let create ~clock ~owner =
  {
    clock;
    owner;
    slots = Hashtbl.create 16;
    next_slot = 0;
    generation = 0;
  }


let register t ?label value =
  let rc = Linear.Rc.create ?label value in
  let weak = Linear.Rc.downgrade rc in
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  let addr = Cycles.Clock.alloc_addr t.clock ~bytes:64 in
  (* Install the proxy: one table write. *)
  Cycles.Clock.charge t.clock (Alu 2);
  Cycles.Clock.touch t.clock addr ~bytes:16;
  Hashtbl.replace t.slots slot (Entry rc, addr);
  (slot, weak, addr)

let revoke t slot =
  match Hashtbl.find_opt t.slots slot with
  | None -> false
  | Some (Entry rc, addr) ->
    Cycles.Clock.touch t.clock addr ~bytes:16;
    Cycles.Clock.charge t.clock Atomic_rmw;
    Linear.Rc.drop rc;
    Hashtbl.remove t.slots slot;
    true

let clear t =
  let ids = Hashtbl.fold (fun slot _ acc -> slot :: acc) t.slots [] in
  let n = List.fold_left (fun acc slot -> if revoke t slot then acc + 1 else acc) 0 ids in
  t.generation <- t.generation + 1;
  n

let size t = Hashtbl.length t.slots
let generation t = t.generation
