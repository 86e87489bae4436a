module Int_set = Set.Make (Int)
module Env = Map.Make (String)

type result = {
  pts : Int_set.t Env.t;
  locations : int;
  iterations : int;
}

let namespaced ~fname var = fname ^ "::" ^ var

(* Inclusion constraints: [dst ⊇ src-var] or [dst ∋ loc]. *)
type constr =
  | Subset of { dst : string; src : string }
  | Elem of { dst : string; loc : int }

(* A location is its allocation site's absolute line: [off] is the line
   the statements' lines are relative to (the function's header, or 0
   in main). *)
let rec collect_stmts ~ns ~off program acc stmts =
  List.fold_left
    (fun acc (s : Ast.stmt) ->
      let v x = ns x in
      match s.op with
      | Alloc { var; _ } -> Elem { dst = v var; loc = off + s.line } :: acc
      | Copy { dst; _ } -> Elem { dst = v dst; loc = off + s.line } :: acc
      | Move { dst; src } | Alias { dst; src } ->
        Subset { dst = v dst; src = v src } :: acc
      | Const_write _ | Append _ | Declassify _ | Output _ | Assert_leq _ -> acc
      | If { then_; else_; _ } ->
        let acc = collect_stmts ~ns ~off program acc then_ in
        collect_stmts ~ns ~off program acc else_
      | While { body; _ } -> collect_stmts ~ns ~off program acc body
      | Call { func; args } -> (
        match Ast.find_func program func with
        | None -> acc
        | Some f ->
          List.fold_left2
            (fun acc param (arg, _mode) ->
              Subset { dst = namespaced ~fname:func param; src = v arg } :: acc)
            acc f.params args))
    acc stmts

let analyze (program : Ast.program) =
  let constraints = collect_stmts ~ns:Fun.id ~off:0 program [] program.main in
  let constraints =
    List.fold_left
      (fun acc (f : Ast.func) ->
        collect_stmts ~ns:(fun x -> namespaced ~fname:f.fname x) ~off:f.line program acc f.body)
      constraints program.funcs
  in
  let locations =
    List.fold_left
      (fun acc c -> match c with Elem _ -> acc + 1 | Subset _ -> acc)
      0 constraints
  in
  (* Chaotic iteration to a fixpoint. *)
  let pts = ref Env.empty in
  let get v = Option.value ~default:Int_set.empty (Env.find_opt v !pts) in
  let iterations = ref 0 in
  let changed = ref true in
  while !changed do
    incr iterations;
    changed := false;
    List.iter
      (fun c ->
        let dst, extra =
          match c with
          | Elem { dst; loc } -> (dst, Int_set.singleton loc)
          | Subset { dst; src } -> (dst, get src)
        in
        let old = get dst in
        let updated = Int_set.union old extra in
        if not (Int_set.equal old updated) then begin
          pts := Env.add dst updated !pts;
          changed := true
        end)
      constraints
  done;
  { pts = !pts; locations; iterations = !iterations }

let points_to r v = Option.value ~default:Int_set.empty (Env.find_opt v r.pts)

let may_alias r a b = not (Int_set.is_empty (Int_set.inter (points_to r a) (points_to r b)))

let location_count r = r.locations
let constraint_iterations r = r.iterations
