type action = Allow | Deny

type rule = {
  rule_id : int;
  action : action;
  description : string;
  mutable hits : int;
}

type shared_rule = rule Linear.Rc.t

let make_rule ~id ?(description = "") action =
  Linear.Rc.create ~label:(Printf.sprintf "rule-%d" id) { rule_id = id; action; description; hits = 0 }

type node = {
  mutable zero : node option;
  mutable one : node option;
  mutable rule : shared_rule option;
  mutable gen : int;  (* last mutation epoch; 0 = before any tracking *)
}

type t = {
  root : node;
  mutable gen : int;        (* stamp given to mutations since the last sync *)
  mutable synced_gen : int; (* nodes stamped <= this are clean w.r.t. the shadow *)
  mutable tracked : bool;   (* write barriers are no-ops until a tracker attaches *)
  mutable stamped : int;    (* distinct nodes stamped since the last sync *)
  dirty_rules : (int, shared_rule) Hashtbl.t;
      (* cell id -> keep-alive clone, for cells whose *content* (hits)
         changed since the last sync — content mutation dirties the
         cell, not the trie structure around it *)
}

let fresh_node () = { zero = None; one = None; rule = None; gen = 0 }

let create () =
  {
    root = fresh_node ();
    gen = 1;
    synced_gen = 0;
    tracked = false;
    stamped = 0;
    dirty_rules = Hashtbl.create 16;
  }

(* The §5 argument, one step further: this trie is uniquely owned, so
   every structural mutation necessarily passes through here — stamping
   the walked root path is a *complete* dirty record, no heap scan
   needed. [t.gen] is always [synced_gen + 1], so [node.gen < t.gen]
   means "not yet stamped this epoch". *)
let stamp (t : t) (node : node) =
  if node.gen < t.gen then begin
    node.gen <- t.gen;
    t.stamped <- t.stamped + 1
  end

let note_cell_dirty t handle =
  let id = Linear.Rc.id handle in
  if not (Hashtbl.mem t.dirty_rules id) then
    Hashtbl.add t.dirty_rules id (Linear.Rc.clone handle)

let bit ip i = Int32.to_int (Int32.shift_right_logical ip (31 - i)) land 1

let insert t ~prefix ~len ~rule =
  if len < 0 || len > 32 then invalid_arg "Trie.insert: prefix length out of range";
  let tracked = t.tracked in
  let rec go node i =
    if tracked then stamp t node;
    if i = len then begin
      (match node.rule with Some old -> Linear.Rc.drop old | None -> ());
      node.rule <- Some (Linear.Rc.clone rule)
    end
    else
      let next =
        if bit prefix i = 0 then begin
          (match node.zero with
          | Some n -> n
          | None ->
            let n = fresh_node () in
            node.zero <- Some n;
            n)
        end
        else
          match node.one with
          | Some n -> n
          | None ->
            let n = fresh_node () in
            node.one <- Some n;
            n
      in
      go next (i + 1)
  in
  go t.root 0

let lookup_gen ~bump t ip =
  let rec go node i best =
    let best = match node.rule with Some _ -> node.rule | None -> best in
    let next = if i < 32 then (if bit ip i = 0 then node.zero else node.one) else None in
    match next with
    | Some n -> go n (i + 1) best
    | None -> best
  in
  match go t.root 0 None with
  | None -> None
  | Some handle ->
    let r = Linear.Rc.get handle in
    if bump then begin
      r.hits <- r.hits + 1;
      (* A hit bump mutates the cell, not the trie: the structure stays
         clean (the shadow keeps reusing those subtrees) and only the
         cell's shadow copy needs a content refresh at sync. *)
      if t.tracked then note_cell_dirty t handle
    end;
    Some r

let lookup t ip = lookup_gen ~bump:true t ip
let lookup_quiet t ip = lookup_gen ~bump:false t ip

let fold_nodes f init t =
  let rec go acc node =
    let acc = f acc node in
    let acc = match node.zero with Some n -> go acc n | None -> acc in
    match node.one with Some n -> go acc n | None -> acc
  in
  go init t.root

let node_count t = fold_nodes (fun acc _ -> acc + 1) 0 t

let leaf_count t =
  fold_nodes (fun acc n -> match n.rule with Some _ -> acc + 1 | None -> acc) 0 t

let distinct_cells t =
  fold_nodes
    (fun acc n ->
      match n.rule with Some h -> Linear.Rc.id h :: acc | None -> acc)
    [] t
  |> List.sort_uniq compare

let distinct_rules t = List.length (distinct_cells t)

let total_hits t =
  let seen = Hashtbl.create 16 in
  fold_nodes
    (fun acc n ->
      match n.rule with
      | None -> acc
      | Some h ->
        let id = Linear.Rc.id h in
        if Hashtbl.mem seen id then acc
        else begin
          Hashtbl.add seen id ();
          acc + (Linear.Rc.get h).hits
        end)
    0 t

let sharing_preserved t =
  (* Group leaf handles by rule_id; within each group all handles must
     alias one cell. *)
  let groups = Hashtbl.create 16 in
  fold_nodes
    (fun () n ->
      match n.rule with
      | None -> ()
      | Some h ->
        let rid = (Linear.Rc.get h).rule_id in
        let cells = Option.value ~default:[] (Hashtbl.find_opt groups rid) in
        Hashtbl.replace groups rid (Linear.Rc.id h :: cells))
    () t;
  Hashtbl.fold
    (fun _rid cells acc -> acc && List.length (List.sort_uniq compare cells) = 1)
    groups true

let stamped_since_sync t = t.stamped

let render t =
  (* Deterministic structural dump: cells numbered in first-visit order
     so the text captures content *and* aliasing, while staying
     independent of allocation-order cell ids and of any tracking
     metadata. Two tries render equal iff they are indistinguishable to
     every observer above this interface. *)
  let buf = Buffer.create 256 in
  let seen = Hashtbl.create 16 in
  let rec go path node =
    let label =
      match node.rule with
      | None -> "-"
      | Some h ->
        let r = Linear.Rc.get h in
        let cid = Linear.Rc.id h in
        let n =
          match Hashtbl.find_opt seen cid with
          | Some n -> n
          | None ->
            let n = Hashtbl.length seen in
            Hashtbl.add seen cid n;
            n
        in
        Printf.sprintf "cell#%d rule=%d %s hits=%d %s" n r.rule_id
          (match r.action with Allow -> "allow" | Deny -> "deny")
          r.hits r.description
    in
    Buffer.add_string buf ((if path = "" then "." else path) ^ " " ^ label ^ "\n");
    (match node.zero with Some z -> go (path ^ "0") z | None -> ());
    match node.one with Some o -> go (path ^ "1") o | None -> ()
  in
  go "" t.root;
  Buffer.contents buf

(* --- Incremental shadow snapshot ------------------------------------ *)

(* The shadow is a parallel tree holding the last-synced state. Clean
   live subtrees (node.gen <= synced_gen) are structurally shared: sync
   re-adopts the shadow subtree wholesale and restore skips the live
   subtree wholesale — O(dirty), the whole point. Shared cells get one
   shadow copy each ([cell_entry]); leaf aliasing is preserved in both
   directions through the [cells]/[rev] maps, and content-only dirt
   (hit bumps) is reconciled by an in-place pass over [dirty_rules] so
   that *reused* subtrees still see correct cell content. *)

type snode = {
  mutable s_zero : snode option;
  mutable s_one : snode option;
  mutable s_rule : shared_rule option;
  mutable s_size : int;  (* subtree node count: O(1) reuse accounting *)
}

type cell_entry = {
  ce_live : shared_rule;   (* keep-alive handle on the live cell *)
  ce_shadow : shared_rule; (* the snapshot copy *)
}

type shadow = {
  mutable sh_root : snode option;
  cells : (int, cell_entry) Hashtbl.t; (* live cell id -> entry *)
  rev : (int, cell_entry) Hashtbl.t;   (* shadow cell id -> entry *)
}

type acc = {
  mutable a_dirty : int;
  mutable a_reused : int;
  mutable a_enc : int;
  mutable a_copies : int;
  mutable a_dedup : int;
  mutable a_lookups : int;
}

let fresh_acc () =
  { a_dirty = 0; a_reused = 0; a_enc = 0; a_copies = 0; a_dedup = 0; a_lookups = 0 }

let acc_stats acc : Checkpointable.stats =
  {
    nodes = acc.a_dirty + acc.a_reused;
    rc_encounters = acc.a_enc;
    rc_copies = acc.a_copies;
    rc_dedup_hits = acc.a_dedup;
    hash_lookups = acc.a_lookups;
    dirty_nodes = acc.a_dirty;
    reused_nodes = acc.a_reused;
  }

let fresh_snode () = { s_zero = None; s_one = None; s_rule = None; s_size = 0 }

let copy_cell h =
  let r = Linear.Rc.get h in
  Linear.Rc.create
    ~label:(Printf.sprintf "shadow-rule-%d" r.rule_id)
    { rule_id = r.rule_id; action = r.action; description = r.description; hits = r.hits }

let resolve_shadow sh acc h =
  acc.a_lookups <- acc.a_lookups + 1;
  let id = Linear.Rc.id h in
  match Hashtbl.find_opt sh.cells id with
  | Some e ->
    acc.a_dedup <- acc.a_dedup + 1;
    e.ce_shadow
  | None ->
    acc.a_copies <- acc.a_copies + 1;
    let shadow = copy_cell h in
    let e = { ce_live = Linear.Rc.clone h; ce_shadow = shadow } in
    Hashtbl.add sh.cells id e;
    Hashtbl.add sh.rev (Linear.Rc.id shadow) e;
    shadow

(* Point [sn.s_rule] at the shadow counterpart of [rule]. *)
let set_srule sh acc sn (rule : shared_rule option) =
  match rule with
  | None -> (
    match sn.s_rule with
    | Some old ->
      Linear.Rc.drop old;
      sn.s_rule <- None
    | None -> ())
  | Some h ->
    acc.a_enc <- acc.a_enc + 1;
    let desired = resolve_shadow sh acc h in
    let keep =
      match sn.s_rule with
      | Some cur -> Linear.Rc.id cur = Linear.Rc.id desired
      | None -> false
    in
    if not keep then begin
      (match sn.s_rule with Some old -> Linear.Rc.drop old | None -> ());
      sn.s_rule <- Some (Linear.Rc.clone desired)
    end

let rec drop_snode sn =
  (match sn.s_rule with Some h -> Linear.Rc.drop h | None -> ());
  sn.s_rule <- None;
  (match sn.s_zero with Some z -> drop_snode z | None -> ());
  sn.s_zero <- None;
  (match sn.s_one with Some o -> drop_snode o | None -> ());
  sn.s_one <- None

let child_size = function Some sn -> sn.s_size | None -> 0

let rec sync_node (t : t) sh acc (live : node) prev =
  match prev with
  | Some sn when live.gen <= t.synced_gen ->
    (* Unique ownership: a clean node means a clean subtree. Adopt the
       shadow subtree as-is. *)
    acc.a_reused <- acc.a_reused + sn.s_size;
    sn
  | _ ->
    let sn = match prev with Some sn -> sn | None -> fresh_snode () in
    acc.a_dirty <- acc.a_dirty + 1;
    set_srule sh acc sn live.rule;
    (match live.zero with
    | Some lz -> sn.s_zero <- Some (sync_node t sh acc lz sn.s_zero)
    | None -> (
      match sn.s_zero with
      | Some old ->
        drop_snode old;
        sn.s_zero <- None
      | None -> ()));
    (match live.one with
    | Some lo -> sn.s_one <- Some (sync_node t sh acc lo sn.s_one)
    | None -> (
      match sn.s_one with
      | Some old ->
        drop_snode old;
        sn.s_one <- None
      | None -> ()));
    sn.s_size <- 1 + child_size sn.s_zero + child_size sn.s_one;
    sn

(* Content reconciliation: cells whose hits changed since the last sync
   get their shadow copy updated *in place*, so reused subtrees that
   alias them stay correct without being walked. *)
let content_sync t sh acc =
  Hashtbl.iter
    (fun id _keepalive ->
      acc.a_lookups <- acc.a_lookups + 1;
      match Hashtbl.find_opt sh.cells id with
      | Some e -> (Linear.Rc.get e.ce_shadow).hits <- (Linear.Rc.get e.ce_live).hits
      | None -> ())
    t.dirty_rules

(* Entries whose shadow cell is referenced by no snode anymore (all its
   leaves were replaced/removed this epoch) are retired. Only dirty
   cells are candidates — a bounded, O(dirty) sweep. *)
let gc_dirty_entries t sh =
  let stale =
    Hashtbl.fold
      (fun id _ stale ->
        match Hashtbl.find_opt sh.cells id with
        | Some e when Linear.Rc.strong_count e.ce_shadow = 1 -> (id, e) :: stale
        | _ -> stale)
      t.dirty_rules []
  in
  List.iter
    (fun (id, e) ->
      Hashtbl.remove sh.rev (Linear.Rc.id e.ce_shadow);
      Hashtbl.remove sh.cells id;
      Linear.Rc.drop e.ce_shadow;
      Linear.Rc.drop e.ce_live)
    stale

let clear_dirty_cells t =
  Hashtbl.iter (fun _ h -> Linear.Rc.drop h) t.dirty_rules;
  Hashtbl.reset t.dirty_rules

let sync_incr t sh =
  let acc = fresh_acc () in
  sh.sh_root <- Some (sync_node t sh acc t.root sh.sh_root);
  content_sync t sh acc;
  gc_dirty_entries t sh;
  clear_dirty_cells t;
  t.synced_gen <- t.gen;
  t.gen <- t.gen + 1;
  t.stamped <- 0;
  acc_stats acc

(* --- Restore --------------------------------------------------------- *)

let rec drop_live_subtree (live : node) =
  (match live.rule with Some h -> Linear.Rc.drop h | None -> ());
  live.rule <- None;
  (match live.zero with Some z -> drop_live_subtree z | None -> ());
  live.zero <- None;
  (match live.one with Some o -> drop_live_subtree o | None -> ());
  live.one <- None

let live_handle_for sh acc shh =
  acc.a_enc <- acc.a_enc + 1;
  acc.a_lookups <- acc.a_lookups + 1;
  match Hashtbl.find_opt sh.rev (Linear.Rc.id shh) with
  | Some e -> e.ce_live
  | None -> assert false (* every snode-referenced shadow cell has an entry *)

let rec rebuild_live (t : t) sh acc sn : node =
  acc.a_dirty <- acc.a_dirty + 1;
  let rule =
    match sn.s_rule with
    | None -> None
    | Some shh ->
      acc.a_dedup <- acc.a_dedup + 1;
      Some (Linear.Rc.clone (live_handle_for sh acc shh))
  in
  let zero = match sn.s_zero with Some z -> Some (rebuild_live t sh acc z) | None -> None in
  let one = match sn.s_one with Some o -> Some (rebuild_live t sh acc o) | None -> None in
  { zero; one; rule; gen = t.synced_gen }

let rec restore_node (t : t) sh acc (live : node) prev =
  if live.gen <= t.synced_gen then
    (* Clean subtree == shadow subtree: nothing to undo. *)
    acc.a_reused <- acc.a_reused + prev.s_size
  else begin
    acc.a_dirty <- acc.a_dirty + 1;
    (match prev.s_rule with
    | None -> (
      match live.rule with
      | Some h ->
        Linear.Rc.drop h;
        live.rule <- None
      | None -> ())
    | Some shh ->
      let target = live_handle_for sh acc shh in
      let keep =
        match live.rule with
        | Some h -> Linear.Rc.id h = Linear.Rc.id target
        | None -> false
      in
      acc.a_dedup <- acc.a_dedup + 1;
      if not keep then begin
        (match live.rule with Some h -> Linear.Rc.drop h | None -> ());
        live.rule <- Some (Linear.Rc.clone target)
      end);
    (match live.zero, prev.s_zero with
    | Some lz, Some pz -> restore_node t sh acc lz pz
    | Some lz, None ->
      drop_live_subtree lz;
      live.zero <- None
    | None, Some pz -> live.zero <- Some (rebuild_live t sh acc pz)
    | None, None -> ());
    (match live.one, prev.s_one with
    | Some lo, Some po -> restore_node t sh acc lo po
    | Some lo, None ->
      drop_live_subtree lo;
      live.one <- None
    | None, Some po -> live.one <- Some (rebuild_live t sh acc po)
    | None, None -> ());
    live.gen <- t.synced_gen
  end

let restore_incr t sh =
  match sh.sh_root with
  | None -> invalid_arg "Trie: restore before first incremental sync"
  | Some sroot ->
    let acc = fresh_acc () in
    restore_node t sh acc t.root sroot;
    (* Undo content-only dirt: shadow hits back into the live cells
       (which reused live regions still alias). *)
    Hashtbl.iter
      (fun id _keepalive ->
        acc.a_lookups <- acc.a_lookups + 1;
        match Hashtbl.find_opt sh.cells id with
        | Some e -> (Linear.Rc.get e.ce_live).hits <- (Linear.Rc.get e.ce_shadow).hits
        | None -> ())
      t.dirty_rules;
    clear_dirty_cells t;
    t.stamped <- 0;
    acc_stats acc

let tracker t =
  if t.tracked then invalid_arg "Trie.tracker: trie is already tracked";
  t.tracked <- true;
  let sh = { sh_root = None; cells = Hashtbl.create 64; rev = Hashtbl.create 64 } in
  {
    Incr.value = t;
    sync = (fun () -> sync_incr t sh);
    restore = (fun () -> restore_incr t sh);
  }

(* --- Descriptor ----------------------------------------------------- *)

let rule_desc : rule Checkpointable.t =
  Checkpointable.iso
    ~inject:(fun r -> ((r.rule_id, (match r.action with Allow -> true | Deny -> false)), (r.description, r.hits)))
    ~project:(fun ((rule_id, allow), (description, hits)) ->
      { rule_id; action = (if allow then Allow else Deny); description; hits })
    Checkpointable.(pair (pair int bool) (pair string int))

let rec node_desc_thunk () : node Checkpointable.t =
  Checkpointable.iso
    ~inject:(fun n -> (n.zero, (n.one, n.rule)))
    ~project:(fun (zero, (one, rule)) -> { zero; one; rule; gen = 0 })
    Checkpointable.(
      pair
        (option (delay node_desc_thunk))
        (pair (option (delay node_desc_thunk)) (option (rc rule_desc))))

let desc : t Checkpointable.t =
  Checkpointable.iso
    ~inject:(fun t -> t.root)
    ~project:(fun root ->
      {
        root;
        gen = 1;
        synced_gen = 0;
        tracked = false;
        stamped = 0;
        dirty_rules = Hashtbl.create 16;
      })
    (Checkpointable.delay node_desc_thunk)
