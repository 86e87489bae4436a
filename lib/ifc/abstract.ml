type strategy =
  | Exact_ownership
  | No_alias_info
  | Points_to of Alias.result

type what = Leaky_output of string | Failed_assert

type finding = {
  line : int;
  subject : string;
  label : Label.t;
  bound : Label.t;
  what : what;
}

type report = { findings : finding list; transfers : int }

let finding_to_string f =
  match f.what with
  | Leaky_output channel ->
    Printf.sprintf "line %d: output of `%s' (label %s) exceeds bound %s of channel `%s'"
      f.line f.subject (Label.to_string f.label) (Label.to_string f.bound) channel
  | Failed_assert ->
    Printf.sprintf "line %d: label of `%s' is %s, asserted <= %s" f.line f.subject
      (Label.to_string f.label) (Label.to_string f.bound)


module Env = Map.Make (String)

type ctx = {
  program : Ast.program;
  mutable findings : finding list;
  mutable transfers : int;
  mutable inline_counter : int;
}

let record ctx f = ctx.findings <- f :: ctx.findings

let check_flow ctx ~line ~subject ~label ~bound ~what =
  if not (Label.leq label bound) then record ctx { line; subject; label; bound; what }

(* Alpha-rename a function body for inlining: parameters become the
   caller's argument variables; every other variable gets a fresh
   prefix so it cannot capture caller state. Lines become absolute, so
   findings in the inlined body point into the file. *)
let rename_body ctx (f : Ast.func) args =
  ctx.inline_counter <- ctx.inline_counter + 1;
  let prefix = Printf.sprintf "%s#%d::" f.fname ctx.inline_counter in
  let table = Hashtbl.create 8 in
  List.iter2 (fun p (a, _mode) -> Hashtbl.replace table p a) f.params args;
  let rn v =
    match Hashtbl.find_opt table v with Some v' -> v' | None -> prefix ^ v
  in
  let rec rn_stmt (s : Ast.stmt) =
    let op : Ast.op =
      match s.op with
      | Alloc { var; label } -> Alloc { var = rn var; label }
      | Const_write { dst; value; label } -> Const_write { dst = rn dst; value; label }
      | Append { dst; src } -> Append { dst = rn dst; src = rn src }
      | Move { dst; src } -> Move { dst = rn dst; src = rn src }
      | Alias { dst; src } -> Alias { dst = rn dst; src = rn src }
      | Copy { dst; src } -> Copy { dst = rn dst; src = rn src }
      | Declassify { var; label } -> Declassify { var = rn var; label }
      | If { cond; then_; else_ } ->
        If { cond = rn cond; then_ = List.map rn_stmt then_; else_ = List.map rn_stmt else_ }
      | While { cond; body } -> While { cond = rn cond; body = List.map rn_stmt body }
      | Output { channel; src } -> Output { channel; src = rn src }
      | Call { func; args } -> Call { func; args = List.map (fun (v, m) -> (rn v, m)) args }
      | Assert_leq { var; label } -> Assert_leq { var = rn var; label }
    in
    { Ast.line = f.line + s.line; op }
  in
  List.map rn_stmt f.body

(* ------------------------------------------------------------------ *)
(* Engine A: variable -> label, strong updates.                        *)
(* Used for Exact_ownership (sound for the Safe dialect) and           *)
(* No_alias_info (the unsound conventional baseline, where Alias is    *)
(* treated as a label copy).                                           *)
(* ------------------------------------------------------------------ *)

let env_get env v = Option.value ~default:Label.public (Env.find_opt v env)

let env_join a b =
  Env.union (fun _ la lb -> Some (Label.join la lb)) a b

let rec strong_step ctx pc env (s : Ast.stmt) =
  ctx.transfers <- ctx.transfers + 1;
  match s.op with
  | Alloc { var; label } -> Env.add var (Label.join label pc) env
  | Const_write { dst; label; _ } ->
    Env.add dst (Label.join (env_get env dst) (Label.join label pc)) env
  | Append { dst; src } ->
    Env.add dst (Label.join (env_get env dst) (Label.join (env_get env src) pc)) env
  | Move { dst; src } -> Env.add dst (Label.join (env_get env src) pc) (Env.remove src env)
  | Alias { dst; src } | Copy { dst; src } ->
    (* In No_alias_info, Alias deliberately degenerates to a copy. *)
    Env.add dst (Label.join (env_get env src) pc) env
  | Declassify { var; label } -> Env.add var label env
  | If { cond; then_; else_ } ->
    let pc' = Label.join pc (env_get env cond) in
    let a = strong_block ctx pc' env then_ in
    let b = strong_block ctx pc' env else_ in
    env_join a b
  | While { cond; body } ->
    let rec fix env =
      let pc' = Label.join pc (env_get env cond) in
      let once = strong_block ctx pc' env body in
      let joined = env_join env once in
      if Env.equal Label.equal joined env then env else fix joined
    in
    fix env
  | Output { channel; src } ->
    let label = Label.join (env_get env src) pc in
    let bound =
      match Ast.find_channel ctx.program channel with
      | Some c -> c.bound
      | None -> Label.public
    in
    check_flow ctx ~line:s.line ~subject:src ~label ~bound ~what:(Leaky_output channel);
    env
  | Assert_leq { var; label = bound } ->
    let label = Label.join (env_get env var) pc in
    check_flow ctx ~line:s.line ~subject:var ~label ~bound ~what:Failed_assert;
    env
  | Call { func; args } -> (
    match Ast.find_func ctx.program func with
    | None -> env
    | Some f ->
      let body = rename_body ctx f args in
      let env = strong_block ctx pc env body in
      (* Moved-in arguments are consumed in the caller. *)
      List.fold_left
        (fun env (v, mode) ->
          match (mode : Ast.arg_mode) with By_borrow -> env | By_move -> Env.remove v env)
        env args)

and strong_block ctx pc env stmts = List.fold_left (strong_step ctx pc) env stmts

(* ------------------------------------------------------------------ *)
(* Engine B: Andersen may-alias locations with weak updates.           *)
(* ------------------------------------------------------------------ *)

type pts_ctx = {
  base : ctx;
  pts : Alias.result;
  (* location -> label; grows monotonically (weak updates only). *)
  loc_labels : (int, Label.t) Hashtbl.t;
  mutable loc_changed : bool;
}

let loc_get p loc = Option.value ~default:Label.public (Hashtbl.find_opt p.loc_labels loc)

let loc_join p loc label =
  let old = loc_get p loc in
  let updated = Label.join old label in
  if not (Label.equal old updated) then begin
    Hashtbl.replace p.loc_labels loc updated;
    p.loc_changed <- true
  end

let pts_read p ns var =
  Alias.Int_set.fold
    (fun loc acc -> Label.join acc (loc_get p loc))
    (Alias.points_to p.pts (ns var))
    Label.public

let pts_write p ns var label =
  Alias.Int_set.iter (fun loc -> loc_join p loc label) (Alias.points_to p.pts (ns var))

(* [off] is the line the body's statement lines are relative to, as in
   [Alias.analyze]: allocation sites are absolute lines. *)
let rec pts_step p ns off pc (s : Ast.stmt) =
  p.base.transfers <- p.base.transfers + 1;
  let line = off + s.line in
  match s.op with
  | Alloc { label; _ } -> loc_join p line (Label.join label pc)
  | Copy { src; _ } -> loc_join p line (Label.join (pts_read p ns src) pc)
  | Const_write { dst; label; _ } -> pts_write p ns dst (Label.join label pc)
  | Append { dst; src } -> pts_write p ns dst (Label.join (pts_read p ns src) pc)
  | Move _ | Alias _ ->
    (* Pure pointer flow; the points-to sets already account for it. *)
    ()
  | Declassify { var; label } ->
    (* A weak update cannot lower labels soundly under may-aliasing:
       declassification degenerates to a join — a precision loss that
       is intrinsic to the conventional approach. *)
    pts_write p ns var label
  | If { cond; then_; else_ } ->
    let pc' = Label.join pc (pts_read p ns cond) in
    pts_block p ns off pc' then_;
    pts_block p ns off pc' else_
  | While { cond; body } ->
    let rec fix () =
      p.loc_changed <- false;
      let pc' = Label.join pc (pts_read p ns cond) in
      pts_block p ns off pc' body;
      if p.loc_changed then fix ()
    in
    fix ()
  | Output { channel; src } ->
    let label = Label.join (pts_read p ns src) pc in
    let bound =
      match Ast.find_channel p.base.program channel with
      | Some c -> c.bound
      | None -> Label.public
    in
    check_flow p.base ~line ~subject:src ~label ~bound ~what:(Leaky_output channel)
  | Assert_leq { var; label = bound } ->
    let label = Label.join (pts_read p ns var) pc in
    check_flow p.base ~line ~subject:var ~label ~bound ~what:Failed_assert
  | Call { func; args = _ } -> (
    match Ast.find_func p.base.program func with
    | None -> ()
    | Some f ->
      (* Parameters are namespaced the same way the Andersen pass
         namespaced them: the points-to sets already link each
         parameter to every argument's locations, so reads and writes
         through the parameter reach the right cells — binding itself
         is pointer flow, not a data write. *)
      pts_block p (fun v -> Alias.namespaced ~fname:func v) f.line pc f.body)

and pts_block p ns off pc stmts = List.iter (pts_step p ns off pc) stmts

(* ------------------------------------------------------------------ *)

let dedup findings =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let key = (f.line, f.subject, f.what) in
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.replace tbl key f
      | Some prev ->
        Hashtbl.replace tbl key { prev with label = Label.join prev.label f.label })
    findings;
  Hashtbl.fold (fun _ f acc -> f :: acc) tbl []
  |> List.sort (fun a b -> compare (a.line, a.subject) (b.line, b.subject))

let analyze strategy (program : Ast.program) =
  let ctx = { program; findings = []; transfers = 0; inline_counter = 0 } in
  (match strategy with
  | Exact_ownership | No_alias_info -> ignore (strong_block ctx Label.public Env.empty program.main)
  | Points_to pts ->
    let p = { base = ctx; pts; loc_labels = Hashtbl.create 64; loc_changed = false } in
    (* Outer fixpoint: weak updates from later statements can raise
       labels read by earlier ones under flow-insensitive aliasing;
       re-run until the location labels stabilise and only then trust
       the recorded findings of the final pass. *)
    let rec outer () =
      let before = Hashtbl.copy p.loc_labels in
      ctx.findings <- [];
      pts_block p Fun.id 0 Label.public program.main;
      let stable =
        Hashtbl.length before = Hashtbl.length p.loc_labels
        && Hashtbl.fold
             (fun loc l acc -> acc && Option.fold ~none:false ~some:(Label.equal l) (Hashtbl.find_opt before loc))
             p.loc_labels true
      in
      if not stable then outer ()
    in
    outer ());
  { findings = dedup ctx.findings; transfers = ctx.transfers }
