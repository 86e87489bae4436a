type 'a cell = {
  value : 'a;
  cell_id : int;
  label : string;
  strong : int Atomic.t;
}

type 'a t = { cell : 'a cell; valid : bool Atomic.t }
type 'a weak = { wcell : 'a cell }

let next_id = Atomic.make 0

let create ?label value =
  let cell_id = Atomic.fetch_and_add next_id 1 + 1 in
  let label = match label with Some l -> l | None -> Printf.sprintf "arc#%d" cell_id in
  let cell = { value; cell_id; label; strong = Atomic.make 1 } in
  { cell; valid = Atomic.make true }

let check t =
  if not (Atomic.get t.valid) then Lin_error.raise_violation (Use_after_drop t.cell.label)

let clone t =
  check t;
  ignore (Atomic.fetch_and_add t.cell.strong 1);
  { cell = t.cell; valid = Atomic.make true }

let get t =
  check t;
  if Atomic.get t.cell.strong <= 0 then Lin_error.raise_violation (Use_after_drop t.cell.label);
  t.cell.value

let drop t =
  if not (Atomic.compare_and_set t.valid true false) then
    Lin_error.raise_violation (Use_after_drop t.cell.label);
  ignore (Atomic.fetch_and_add t.cell.strong (-1))

let strong_count t =
  check t;
  Atomic.get t.cell.strong

let downgrade t =
  check t;
  { wcell = t.cell }

(* Increment strong only if it is still positive; classic Arc upgrade. *)
let upgrade w =
  let rec loop () =
    let n = Atomic.get w.wcell.strong in
    if n <= 0 then None
    else if Atomic.compare_and_set w.wcell.strong n (n + 1) then
      Some { cell = w.wcell; valid = Atomic.make true }
    else loop ()
  in
  loop ()

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
