type strategy = Naive | Addr_set | Rc_flag

type stats = {
  nodes : int;
  rc_encounters : int;
  rc_copies : int;
  rc_dedup_hits : int;
  hash_lookups : int;
  dirty_nodes : int;
  reused_nodes : int;
}

(* The memos store copied Rc/Arc handles of heterogeneous element
   types; [Obj.t] is confined to these slots and the [rc]/[arc]
   combinators, which always store and fetch at the same (cell-indexed)
   key, so each value is read back at exactly the type it was stored
   at. *)
type ctx = {
  strategy : strategy;
  epoch : int;
  mutable nodes : int;
  mutable rc_encounters : int;
  mutable rc_copies : int;
  mutable rc_dedup_hits : int;
  mutable hash_lookups : int;
  mutable memo_vec : Obj.t array;
  mutable memo_len : int;
  memo_tbl : (int, Obj.t) Hashtbl.t;
}

type 'a t = { copy : ctx -> 'a -> 'a }

let visit ctx = ctx.nodes <- ctx.nodes + 1

let scalar = { copy = (fun ctx v -> visit ctx; v) }
let int = scalar
let bool = scalar
let string = { copy = (fun ctx (s : string) -> visit ctx; String.init (String.length s) (String.get s)) }

(* Traversal order is part of the contract (weak edges resolve against
   cells copied earlier), so every container copies its elements
   explicitly left-to-right / front-to-back — OCaml's unspecified (in
   practice right-to-left) evaluation order must not leak in. *)
let list elem =
  {
    copy =
      (fun ctx l ->
        visit ctx;
        List.rev (List.fold_left (fun acc v -> elem.copy ctx v :: acc) [] l));
  }

let array elem =
  {
    copy =
      (fun ctx a ->
        visit ctx;
        let n = Array.length a in
        if n = 0 then [||]
        else begin
          let out = Array.make n (elem.copy ctx a.(0)) in
          for i = 1 to n - 1 do
            out.(i) <- elem.copy ctx a.(i)
          done;
          out
        end);
  }

let option elem =
  { copy = (fun ctx o -> visit ctx; match o with None -> None | Some v -> Some (elem.copy ctx v)) }

let pair a b =
  {
    copy =
      (fun ctx (x, y) ->
        visit ctx;
        let x' = a.copy ctx x in
        let y' = b.copy ctx y in
        (x', y'));
  }

let mref elem = { copy = (fun ctx r -> visit ctx; ref (elem.copy ctx !r)) }

let immutable = { copy = (fun ctx v -> visit ctx; v) }

let iso ~inject ~project b = { copy = (fun ctx v -> project (b.copy ctx (inject v))) }

let mutex elem =
  {
    copy =
      (fun ctx cell ->
        visit ctx;
        (* Copy under the lock: the snapshot of the content is
           consistent even against concurrent writers. *)
        let snapshot =
          Linear.Mutex_cell.with_lock cell (fun content -> (content, elem.copy ctx content))
        in
        Linear.Mutex_cell.create ~label:(Linear.Mutex_cell.label cell ^ "'") snapshot);
  }

let delay f =
  let forced = lazy (f ()) in
  { copy = (fun ctx v -> (Lazy.force forced).copy ctx v) }

(* Scratch-word layout for Rc_flag: [epoch lsl 20 lor (seq + 1)].
   Epoch 0 is never allocated, so a virgin scratch of 0 can never match
   a live checkpoint. *)
let seq_bits = 20
let seq_mask = (1 lsl seq_bits) - 1
let max_shared_nodes = seq_mask - 1

let epoch_counter = Atomic.make 1

let memo_push ctx (o : Obj.t) =
  if ctx.memo_len = Array.length ctx.memo_vec then begin
    let bigger = Array.make (max 16 (2 * ctx.memo_len)) (Obj.repr 0) in
    Array.blit ctx.memo_vec 0 bigger 0 ctx.memo_len;
    ctx.memo_vec <- bigger
  end;
  ctx.memo_vec.(ctx.memo_len) <- o;
  let seq = ctx.memo_len in
  ctx.memo_len <- ctx.memo_len + 1;
  seq

let rc elem =
  {
    copy =
      (fun ctx r ->
        visit ctx;
        ctx.rc_encounters <- ctx.rc_encounters + 1;
        match ctx.strategy with
        | Naive ->
          (* Figure 3b: every alias produces its own copy. *)
          ctx.rc_copies <- ctx.rc_copies + 1;
          Linear.Rc.create (elem.copy ctx (Linear.Rc.get r))
        | Addr_set -> (
          ctx.hash_lookups <- ctx.hash_lookups + 1;
          let id = Linear.Rc.id r in
          match Hashtbl.find_opt ctx.memo_tbl id with
          | Some o ->
            ctx.rc_dedup_hits <- ctx.rc_dedup_hits + 1;
            Linear.Rc.clone (Obj.obj o : _ Linear.Rc.t)
          | None ->
            ctx.rc_copies <- ctx.rc_copies + 1;
            let fresh = Linear.Rc.create (elem.copy ctx (Linear.Rc.get r)) in
            Hashtbl.add ctx.memo_tbl id (Obj.repr fresh);
            fresh)
        | Rc_flag ->
          let s = Linear.Rc.scratch r in
          if s lsr seq_bits = ctx.epoch then begin
            (* Revisit through another alias: O(1), no hashing. *)
            ctx.rc_dedup_hits <- ctx.rc_dedup_hits + 1;
            Linear.Rc.clone (Obj.obj ctx.memo_vec.((s land seq_mask) - 1) : _ Linear.Rc.t)
          end
          else begin
            ctx.rc_copies <- ctx.rc_copies + 1;
            let fresh = Linear.Rc.create (elem.copy ctx (Linear.Rc.get r)) in
            let seq = memo_push ctx (Obj.repr fresh) in
            if seq > max_shared_nodes then
              invalid_arg "Checkpointable: too many shared nodes in one checkpoint";
            Linear.Rc.set_scratch r ((ctx.epoch lsl seq_bits) lor (seq + 1));
            fresh
          end);
  }

(* Look up the already-made copy of a cell in this traversal, across
   strategies. *)
let find_copied_cell ctx (r : _ Linear.Rc.t) : Obj.t option =
  match ctx.strategy with
  | Naive -> None
  | Addr_set -> Hashtbl.find_opt ctx.memo_tbl (Linear.Rc.id r)
  | Rc_flag ->
    let s = Linear.Rc.scratch r in
    if s lsr seq_bits = ctx.epoch then Some ctx.memo_vec.((s land seq_mask) - 1) else None

let weak (_elem : 'a t) : 'a Linear.Rc.weak t =
  {
    copy =
      (fun ctx w ->
        visit ctx;
        match Linear.Rc.upgrade w with
        | None -> Linear.Rc.dangling ~label:"weak-to-dead'" ()
        | Some strong ->
          Fun.protect
            ~finally:(fun () -> Linear.Rc.drop strong)
            (fun () ->
              match find_copied_cell ctx strong with
              | Some o ->
                (* Target already snapshotted: point at its copy. *)
                let copied = Linear.Rc.clone (Obj.obj o : 'a Linear.Rc.t) in
                let w' = Linear.Rc.downgrade copied in
                Linear.Rc.drop copied;
                w'
              | None ->
                (* Outside the snapshot (or a back-edge): dangle. *)
                Linear.Rc.dangling ~label:"weak-external'" ()));
  }

(* Arc edges reuse the Rc machinery keyed by cell id: Arc has no
   scratch word to pack. *)
let arc elem =
  {
    copy =
      (fun ctx r ->
        visit ctx;
        ctx.rc_encounters <- ctx.rc_encounters + 1;
        let id = Linear.Arc.id r in
        match ctx.strategy with
        | Naive ->
          ctx.rc_copies <- ctx.rc_copies + 1;
          Linear.Arc.create (elem.copy ctx (Linear.Arc.get r))
        | Addr_set | Rc_flag -> (
          (* Both dedup strategies share the id-keyed table; only
             Addr_set counts the lookups (Rc_flag's accounting models
             what the Rust Arc field reference achieves). *)
          if ctx.strategy = Addr_set then ctx.hash_lookups <- ctx.hash_lookups + 1;
          match Hashtbl.find_opt ctx.memo_tbl id with
          | Some o ->
            ctx.rc_dedup_hits <- ctx.rc_dedup_hits + 1;
            Linear.Arc.clone (Obj.obj o : _ Linear.Arc.t)
          | None ->
            ctx.rc_copies <- ctx.rc_copies + 1;
            let fresh = Linear.Arc.create (elem.copy ctx (Linear.Arc.get r)) in
            Hashtbl.add ctx.memo_tbl id (Obj.repr fresh);
            fresh));
  }

let checkpoint ?(strategy = Rc_flag) desc v =
  let ctx =
    {
      strategy;
      epoch = Atomic.fetch_and_add epoch_counter 1;
      nodes = 0;
      rc_encounters = 0;
      rc_copies = 0;
      rc_dedup_hits = 0;
      hash_lookups = 0;
      memo_vec = [||];
      memo_len = 0;
      memo_tbl = Hashtbl.create 64;
    }
  in
  let copy = desc.copy ctx v in
  ( copy,
    {
      nodes = ctx.nodes;
      rc_encounters = ctx.rc_encounters;
      rc_copies = ctx.rc_copies;
      rc_dedup_hits = ctx.rc_dedup_hits;
      hash_lookups = ctx.hash_lookups;
      (* A full traversal copies everything: all nodes are "dirty" in
         the incremental engine's vocabulary, none are reused. *)
      dirty_nodes = ctx.nodes;
      reused_nodes = 0;
    } )

let copies_expected (stats : stats) ~aliases ~distinct =
  stats.rc_encounters = aliases
  && stats.rc_copies = distinct
  && stats.rc_dedup_hits = aliases - distinct
