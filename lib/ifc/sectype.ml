type violation = { line : int; reason : string }

module Env = Map.Make (String)

type ctx = { program : Ast.program; mutable violations : violation list }

let report ctx line fmt =
  Printf.ksprintf (fun reason -> ctx.violations <- { line; reason } :: ctx.violations) fmt

let declared env line ctx v =
  match Env.find_opt v env with
  | Some l -> l
  | None ->
    report ctx line "use of undeclared variable `%s'" v;
    Label.public

(* [off] as in [Interp]: violations report absolute lines. *)
let rec step ctx off env (s : Ast.stmt) =
  let line = off + s.line in
  match s.op with
  | Ast.Alloc { var; label } -> Env.add var label env
  | Const_write { dst; label; _ } ->
    let d = declared env line ctx dst in
    if not (Label.leq label d) then
      report ctx line "write of %s data into `%s' declared %s" (Label.to_string label) dst
        (Label.to_string d);
    env
  | Append { dst; src } ->
    let d = declared env line ctx dst and sl = declared env line ctx src in
    if not (Label.leq sl d) then
      report ctx line "append of `%s' (%s) into `%s' declared %s" src (Label.to_string sl)
        dst (Label.to_string d);
    env
  | Move { dst; src } | Alias { dst; src } -> (
    let sl = declared env line ctx src in
    match Env.find_opt dst env with
    | None ->
      (* Fresh binding: inherits the source's declared type. *)
      Env.add dst sl env
    | Some d ->
      if not (Label.equal sl d) then
        report ctx line
          "`%s' (declared %s) cannot take ownership of / alias `%s' (declared %s): labels \
           are fixed"
          dst (Label.to_string d) src (Label.to_string sl);
      env)
  | Copy { dst; src } -> (
    let sl = declared env line ctx src in
    match Env.find_opt dst env with
    | None -> Env.add dst sl env
    | Some d ->
      if not (Label.leq sl d) then
        report ctx line "copy of `%s' (%s) into `%s' declared %s flows downward" src
          (Label.to_string sl) dst (Label.to_string d);
      env)
  | Declassify { var; _ } ->
    report ctx line "declassification of `%s': labels cannot change in a security type system"
      var;
    env
  | If { then_; else_; _ } ->
    (* No pc tracking: the classic Volpano-Smith systems do carry a pc;
       we deliberately keep the baseline minimal since the experiments
       only exercise explicit flows through it. *)
    let a = block ctx off env then_ in
    let b = block ctx off env else_ in
    Env.union (fun _ x _ -> Some x) a b
  | While { body; _ } -> block ctx off env body
  | Output { channel; src } ->
    let sl = declared env line ctx src in
    let bound =
      match Ast.find_channel ctx.program channel with
      | Some c -> c.Ast.bound
      | None -> Label.public
    in
    if not (Label.leq sl bound) then
      report ctx line "output of `%s' (declared %s) on channel bounded %s" src
        (Label.to_string sl) (Label.to_string bound);
    env
  | Call { func; args } -> (
    match Ast.find_func ctx.program func with
    | None -> env
    | Some f ->
      (* Monomorphic per-call-site check: parameters adopt the declared
         labels of the arguments. *)
      let fenv =
        List.fold_left2
          (fun acc p (a, _) -> Env.add p (declared env line ctx a) acc)
          Env.empty f.params args
      in
      ignore (block ctx f.Ast.line fenv f.body);
      env)
  | Assert_leq { var; label } ->
    let sl = declared env line ctx var in
    if not (Label.leq sl label) then
      report ctx line "`%s' declared %s, asserted <= %s" var (Label.to_string sl)
        (Label.to_string label);
    env

and block ctx off env stmts = List.fold_left (step ctx off) env stmts

let check program =
  let ctx = { program; violations = [] } in
  ignore (block ctx 0 Env.empty program.Ast.main);
  match List.rev ctx.violations with
  | [] -> Ok ()
  | vs -> Error (List.sort (fun a b -> compare a.line b.line) vs)

(* ------------------------------------------------------------------ *)

let repair (program : Ast.program) =
  let count = ref 0 in
  (* Track declared labels while rewriting, so we only rewrite genuine
     upward mismatches. *)
  let rec rw env stmts =
    List.fold_left_map
      (fun env (s : Ast.stmt) ->
        match s.op with
        | Ast.Alloc { var; label } -> (Env.add var label env, s)
        | Move { dst; src } | Alias { dst; src } -> (
          let sl = Option.value ~default:Label.public (Env.find_opt src env) in
          match Env.find_opt dst env with
          | Some d when (not (Label.equal sl d)) && Label.leq sl d ->
            incr count;
            (env, { s with op = Ast.Copy { dst; src } })
          | Some _ -> (env, s)
          | None -> (Env.add dst sl env, s))
        | Copy { dst; src } ->
          let sl = Option.value ~default:Label.public (Env.find_opt src env) in
          ((if Env.mem dst env then env else Env.add dst sl env), s)
        | If { cond; then_; else_ } ->
          let env1, then_ = rw env then_ in
          let env2, else_ = rw env else_ in
          let env = Env.union (fun _ a _ -> Some a) env1 env2 in
          (env, { s with op = Ast.If { cond; then_; else_ } })
        | While { cond; body } ->
          let env, body = rw env body in
          (env, { s with op = Ast.While { cond; body } })
        | Const_write _ | Append _ | Declassify _ | Output _ | Call _ | Assert_leq _ ->
          (env, s))
      env stmts
  in
  let _, main = rw Env.empty program.main in
  ({ program with main }, !count)
