type entry = { mutable count : int; mutable error : int }

type t = {
  capacity : int;
  entries : (Flow.t, entry) Hashtbl.t;
  mutable observed : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Heavy_hitters.create: capacity must be positive";
  { capacity; entries = Hashtbl.create capacity; observed = 0 }

(* Minimum counter, ties broken by flow order: eviction must be a pure
   function of the table's contents (not of hashtable iteration order)
   so that input replay reconstructs identical state. *)
let find_min t =
  Hashtbl.fold
    (fun flow e best ->
      match best with
      | Some (bf, be)
        when be.count < e.count || (be.count = e.count && Flow.compare bf flow <= 0) ->
        best
      | _ -> Some (flow, e))
    t.entries None

let observe t flow =
  t.observed <- t.observed + 1;
  match Hashtbl.find_opt t.entries flow with
  | Some e -> e.count <- e.count + 1
  | None ->
    if Hashtbl.length t.entries < t.capacity then
      Hashtbl.replace t.entries flow { count = 1; error = 0 }
    else begin
      (* Space-Saving eviction: the newcomer inherits the minimum. *)
      match find_min t with
      | None -> assert false
      | Some (victim, e) ->
        Hashtbl.remove t.entries victim;
        Hashtbl.replace t.entries flow { count = e.count + 1; error = e.count }
    end

let desc : t Chkpt.Checkpointable.t =
  let open Chkpt.Checkpointable in
  iso
    ~inject:(fun t ->
      let bindings = Hashtbl.fold (fun f e acc -> (f, (e.count, e.error)) :: acc) t.entries [] in
      (t.capacity, (t.observed, bindings)))
    ~project:(fun (capacity, (observed, bindings)) ->
      let entries = Hashtbl.create (max 1 capacity) in
      List.iter (fun (f, (count, error)) -> Hashtbl.replace entries f { count; error }) bindings;
      { capacity; entries; observed })
    (pair int (pair int (list (pair immutable (pair int int)))))

let equal a b =
  a.capacity = b.capacity
  && a.observed = b.observed
  && Hashtbl.length a.entries = Hashtbl.length b.entries
  && Hashtbl.fold
       (fun f e acc ->
         acc
         &&
         match Hashtbl.find_opt b.entries f with
         | Some e' -> e.count = e'.count && e.error = e'.error
         | None -> false)
       a.entries true
