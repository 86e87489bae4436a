type 'a cell = {
  value : 'a;
  cell_id : int;
  label : string;
  mutable strong : int;
  mutable weak : int;
  mutable alive : bool;
  mutable scratch : int;
}

type 'a t = { cell : 'a cell; mutable valid : bool }
type 'a weak = { wcell : 'a cell; mutable wvalid : bool }

let next_id = ref 0

let create ?label value =
  incr next_id;
  let label = match label with Some l -> l | None -> Printf.sprintf "rc#%d" !next_id in
  let cell =
    { value; cell_id = !next_id; label; strong = 1; weak = 0; alive = true; scratch = 0 }
  in
  { cell; valid = true }

let check t =
  if not t.valid then Lin_error.raise_violation (Use_after_drop t.cell.label)

let clone t =
  check t;
  t.cell.strong <- t.cell.strong + 1;
  { cell = t.cell; valid = true }

let get t =
  check t;
  if not t.cell.alive then Lin_error.raise_violation (Use_after_drop t.cell.label);
  t.cell.value

let drop t =
  check t;
  t.valid <- false;
  t.cell.strong <- t.cell.strong - 1;
  if t.cell.strong = 0 then t.cell.alive <- false

let strong_count t =
  check t;
  t.cell.strong

let weak_count t =
  check t;
  t.cell.weak

let downgrade t =
  check t;
  t.cell.weak <- t.cell.weak + 1;
  { wcell = t.cell; wvalid = true }

let upgrade w =
  if not w.wvalid then Lin_error.raise_violation (Use_after_drop w.wcell.label);
  if w.wcell.alive && w.wcell.strong > 0 then begin
    w.wcell.strong <- w.wcell.strong + 1;
    Some { cell = w.wcell; valid = true }
  end
  else None

let dangling ?label () =
  incr next_id;
  let label = match label with Some l -> l | None -> Printf.sprintf "dangling#%d" !next_id in
  (* The value slot of a dead cell is never read ([upgrade] gates every
     access and always fails here), so the placeholder never escapes. *)
  let cell =
    { value = Obj.magic (); cell_id = !next_id; label; strong = 0; weak = 1; alive = false;
      scratch = 0 }
  in
  { wcell = cell; wvalid = true }

let upgrade_exn w =
  match upgrade w with
  | Some t -> t
  | None -> Lin_error.raise_violation (Upgrade_failed w.wcell.label)

let ptr_eq a b =
  check a;
  check b;
  a.cell == b.cell

let id t =
  check t;
  t.cell.cell_id

let scratch t =
  check t;
  t.cell.scratch

let set_scratch t v =
  check t;
  t.cell.scratch <- v

