type kind =
  | Use_after_move of { moved_at : int }
  | Unbound
  | Move_of_moved of { moved_at : int }

type violation = { line : int; var : string; kind : kind }

module Env = Map.Make (String)

(* Variable states. [Live] | [Moved line]. Unbound = absent. *)
type state = Live | Moved of int

let violation_to_string v =
  match v.kind with
  | Use_after_move { moved_at } ->
    Printf.sprintf "line %d: use of moved value `%s' (moved at line %d)" v.line v.var moved_at
  | Unbound -> Printf.sprintf "line %d: use of unbound variable `%s'" v.line v.var
  | Move_of_moved { moved_at } ->
    Printf.sprintf "line %d: `%s' moved again (first moved at line %d)" v.line v.var moved_at


type ctx = { mutable violations : violation list }

let report ctx line var kind = ctx.violations <- { line; var; kind } :: ctx.violations

let use ctx env line var =
  match Env.find_opt var env with
  | Some Live -> ()
  | Some (Moved moved_at) -> report ctx line var (Use_after_move { moved_at })
  | None -> report ctx line var Unbound

let consume ctx env line var =
  match Env.find_opt var env with
  | Some Live -> Env.add var (Moved line) env
  | Some (Moved moved_at) ->
    report ctx line var (Move_of_moved { moved_at });
    env
  | None ->
    report ctx line var Unbound;
    env

let bind env var = Env.add var Live env

(* Pointwise merge after a branch: live only if live on both paths. *)
let merge line a b =
  Env.merge
    (fun _var sa sb ->
      match (sa, sb) with
      | Some Live, Some Live -> Some Live
      | Some (Moved l), _ | _, Some (Moved l) -> Some (Moved l)
      | Some Live, None | None, Some Live ->
        (* Bound on one path only: unusable afterwards; treat as moved
           at the join point. *)
        Some (Moved line)
      | None, None -> None)
    a b

let env_equal = Env.equal (fun a b -> a = b)

let rec step ctx env (s : Ast.stmt) =
  match s.op with
  | Alloc { var; _ } -> bind env var
  | Const_write { dst; _ } ->
    use ctx env s.line dst;
    env
  | Append { dst; src } ->
    use ctx env s.line dst;
    use ctx env s.line src;
    env
  | Move { dst; src } ->
    let env = consume ctx env s.line src in
    bind env dst
  | Alias { dst; src } ->
    use ctx env s.line src;
    bind env dst
  | Copy { dst; src } ->
    use ctx env s.line src;
    bind env dst
  | Declassify { var; _ } ->
    use ctx env s.line var;
    env
  | If { cond; then_; else_ } ->
    use ctx env s.line cond;
    let a = block ctx env then_ in
    let b = block ctx env else_ in
    merge s.line a b
  | While { cond; body } ->
    use ctx env s.line cond;
    (* Fixpoint: states only descend (Live -> Moved), so this
       terminates in at most |vars| iterations. *)
    let rec fix env =
      let once = block ctx env body in
      let joined = merge s.line env once in
      if env_equal joined env then env else fix joined
    in
    fix env
  | Output { src; _ } ->
    use ctx env s.line src;
    env
  | Call { args; _ } ->
    List.fold_left
      (fun env (v, mode) ->
        match (mode : Ast.arg_mode) with
        | By_borrow ->
          use ctx env s.line v;
          env
        | By_move -> consume ctx env s.line v)
      env args
  | Assert_leq { var; _ } ->
    use ctx env s.line var;
    env

and block ctx env stmts = List.fold_left (step ctx) env stmts

let dedup_sort vs =
  let tbl = Hashtbl.create 16 in
  let keep =
    List.filter
      (fun v ->
        let key = (v.line, v.var, v.kind) in
        if Hashtbl.mem tbl key then false
        else begin
          Hashtbl.add tbl key ();
          true
        end)
      vs
  in
  List.sort (fun a b -> compare (a.line, a.var) (b.line, b.var)) keep

(* The checker is per-body independent: [main] starts from an empty
   environment, each function from just its (live) parameters, and no
   state flows between bodies. These two entry points expose the
   per-body pieces (in discovery order) so Summary_cache can cache a
   function's violations keyed on its body fingerprint. *)
let main_violations stmts =
  let ctx = { violations = [] } in
  ignore (block ctx Env.empty stmts);
  List.rev ctx.violations

let func_violations (f : Ast.func) =
  let ctx = { violations = [] } in
  let env = List.fold_left bind Env.empty f.params in
  ignore (block ctx env f.body);
  List.rev ctx.violations

let finalize vs = match dedup_sort vs with [] -> Ok () | vs -> Error vs

let shift d v =
  let kind =
    match v.kind with
    | Use_after_move { moved_at } -> Use_after_move { moved_at = moved_at + d }
    | Move_of_moved { moved_at } -> Move_of_moved { moved_at = moved_at + d }
    | Unbound -> Unbound
  in
  { v with line = v.line + d; kind }

let check (program : Ast.program) =
  let disc =
    main_violations program.main
    @ List.concat_map
        (fun (f : Ast.func) -> List.map (shift f.line) (func_violations f))
        program.funcs
  in
  (* [List.rev]: the one-ctx implementation this replaces accumulated
     by prepending, and [finalize]'s dedup/stable-sort sees the same
     list order — byte-identical output. *)
  finalize (List.rev disc)
