module Int_set = Set.Make (Int)
module Env = Map.Make (String)

type sym = { const : Label.t; deps : Int_set.t }

type site = { fn : string; rel : int }

type t = {
  fname : string;
  param_out : sym array;
  param_moved : bool array;
  outputs : (site * string * sym) list;
  asserts : (site * string * sym * Label.t) list;
}

let bot = { const = Label.public; deps = Int_set.empty }
let of_label l = { const = l; deps = Int_set.empty }
let of_param i = { const = Label.public; deps = Int_set.singleton i }

let sym_join a b = { const = Label.join a.const b.const; deps = Int_set.union a.deps b.deps }

let sym_equal a b = Label.equal a.const b.const && Int_set.equal a.deps b.deps

let eval s args =
  Int_set.fold
    (fun i acc -> Label.join acc (if i < Array.length args then args.(i) else Label.public))
    s.deps s.const

(* Substitute argument symbols into a callee symbol (summary-of-summary
   composition, used when one function calls another). *)
let subst s (arg_syms : sym array) =
  Int_set.fold
    (fun i acc -> sym_join acc (if i < Array.length arg_syms then arg_syms.(i) else bot))
    s.deps (of_label s.const)

(* A failing check of main's, before its site is rebased to an
   absolute line. *)
type failure = {
  site : site;
  subject : string;
  label : Label.t;
  bound : Label.t;
  what : Abstract.what;
}

(* What one call in main adds to the report: the failing checks among
   the flows it re-emits, outputs and asserts each in emission order,
   and what they were ground from, bar the channel bounds, on which the
   whole memo is keyed. *)
type call = {
  callee : t;
  args : sym array;
  pc : sym;
  out_fails : failure array;
  assert_fails : failure array;
}

type main_memo = {
  mutable ground_against : Ast.channel list;
  mutable calls : (string, call list) Hashtbl.t;  (* by callee name *)
}

let main_memo () = { ground_against = []; calls = Hashtbl.create 1 }

(* The main pass grounds each flow as it is emitted, against [bounds]
   (each channel's bound and the [what] its failures share), and
   collects the failures in chunks, newest first: a call's arrays, or
   one failure of main's own. A call takes its failures from [prev],
   the memo of the last pass under the same bounds, and records them in
   [next], which replaces it. *)
type main_pass = {
  bounds : (string, Label.t * Abstract.what) Hashtbl.t;
  prev : (string, call list) Hashtbl.t;
  next : (string, call list) Hashtbl.t;
  mutable out_chunks : failure array list;
  mutable assert_chunks : failure array list;
}

type ctx = {
  program : Ast.program;
  summaries : (string, t) Hashtbl.t;
  mutable transfers : int;
  (* Accumulated while summarising one function ([fn = ""] for main): *)
  mutable fn : string;
  mutable outputs : (site * string * sym) list;
  mutable asserts : (site * string * sym * Label.t) list;
  mutable moved : (string, unit) Hashtbl.t;
  main : main_pass option;  (* [Some] in main, where flows are ground *)
}

let env_get env v = Option.value ~default:bot (Env.find_opt v env)
let env_join = Env.union (fun _ a b -> Some (sym_join a b))

(* In main every sym is ground: no parameter is in scope. *)
let output_failure m site channel s =
  let bound, what =
    match Hashtbl.find_opt m.bounds channel with
    | Some bw -> bw
    | None -> (Label.public, Abstract.Leaky_output channel)
  in
  let label = eval s [||] in
  if Label.leq label bound then None else Some { site; subject = channel; label; bound; what }

let assert_failure site var s bound =
  let label = eval s [||] in
  if Label.leq label bound then None else Some { site; subject = var; label; bound; what = Failed_assert }

let emit_output ctx site channel s =
  match ctx.main with
  | None -> ctx.outputs <- (site, channel, s) :: ctx.outputs
  | Some m ->
    Option.iter (fun f -> m.out_chunks <- [| f |] :: m.out_chunks) (output_failure m site channel s)

let emit_assert ctx site var s bound =
  match ctx.main with
  | None -> ctx.asserts <- (site, var, s, bound) :: ctx.asserts
  | Some m ->
    Option.iter (fun f -> m.assert_chunks <- [| f |] :: m.assert_chunks) (assert_failure site var s bound)

let rec find_call sm args pc = function
  | [] -> None
  | c :: rest ->
    if
      c.callee == sm
      && sym_equal c.pc pc
      && Array.length c.args = Array.length args
      && Array.for_all2 sym_equal c.args args
    then Some c
    else find_call sm args pc rest

let calls_of table func = Option.value ~default:[] (Hashtbl.find_opt table func)

(* A call's failing checks: the callee's flows, composed with the
   argument syms and the pc, ground. *)
let ground_call m sm args pc =
  let flow s' = sym_join (subst s' args) pc in
  let fails f flows = Array.of_list (List.filter_map f flows) in
  {
    callee = sm;
    args;
    pc;
    out_fails = fails (fun (site, ch, s') -> output_failure m site ch (flow s')) sm.outputs;
    assert_fails = fails (fun (site, v, s', bound) -> assert_failure site v (flow s') bound) sm.asserts;
  }

(* A call in main, ground unless the same callee summary (physically),
   arguments and pc were ground before, in this pass or in the last one
   under the same bounds. *)
let main_call m func sm args pc =
  let c =
    match find_call sm args pc (calls_of m.next func) with
    | Some c -> c
    | None ->
      let c =
        match find_call sm args pc (calls_of m.prev func) with
        | Some c -> c
        | None -> ground_call m sm args pc
      in
      Hashtbl.replace m.next func (c :: calls_of m.next func);
      c
  in
  if c.out_fails <> [||] then m.out_chunks <- c.out_fails :: m.out_chunks;
  if c.assert_fails <> [||] then m.assert_chunks <- c.assert_fails :: m.assert_chunks

let rec step ctx pc env (s : Ast.stmt) =
  ctx.transfers <- ctx.transfers + 1;
  match s.op with
  | Ast.Alloc { var; label } -> Env.add var (sym_join (of_label label) pc) env
  | Const_write { dst; label; _ } ->
    Env.add dst (sym_join (env_get env dst) (sym_join (of_label label) pc)) env
  | Append { dst; src } ->
    Env.add dst (sym_join (env_get env dst) (sym_join (env_get env src) pc)) env
  | Move { dst; src } ->
    Hashtbl.replace ctx.moved src ();
    Env.add dst (sym_join (env_get env src) pc) (Env.remove src env)
  | Alias { dst; src } | Copy { dst; src } ->
    Env.add dst (sym_join (env_get env src) pc) env
  | Declassify { var; label } -> Env.add var (of_label label) env
  | If { cond; then_; else_ } ->
    let pc' = sym_join pc (env_get env cond) in
    env_join (block ctx pc' env then_) (block ctx pc' env else_)
  | While { cond; body } ->
    let rec fix env =
      let pc' = sym_join pc (env_get env cond) in
      let joined = env_join env (block ctx pc' env body) in
      if Env.equal sym_equal joined env then env else fix joined
    in
    fix env
  | Output { channel; src } ->
    emit_output ctx { fn = ctx.fn; rel = s.line } channel (sym_join (env_get env src) pc);
    env
  | Assert_leq { var; label } ->
    emit_assert ctx { fn = ctx.fn; rel = s.line } var (sym_join (env_get env var) pc) label;
    env
  | Call { func; args } -> (
    match Hashtbl.find_opt ctx.summaries func with
    | None ->
      (* Dependency order guarantees this only happens for unknown
         functions, which validate already rejects. *)
      env
    | Some sm ->
      let arg_syms = Array.of_list (List.map (fun (v, _) -> env_get env v) args) in
      (* Re-emit the callee's flows, composed with the argument syms
         and the current pc; each keeps the callee's own site. *)
      (match ctx.main with
      | Some m -> main_call m func sm arg_syms pc
      | None ->
        List.iter
          (fun (site, ch, s') ->
            ctx.outputs <- (site, ch, sym_join (subst s' arg_syms) pc) :: ctx.outputs)
          sm.outputs;
        List.iter
          (fun (site, v, s', bound) ->
            ctx.asserts <- (site, v, sym_join (subst s' arg_syms) pc, bound) :: ctx.asserts)
          sm.asserts);
      (* Write back post-call labels; consume moved arguments. *)
      List.fold_left
        (fun env (i, (v, mode)) ->
          let post = sym_join (subst sm.param_out.(i) arg_syms) pc in
          match (mode : Ast.arg_mode) with
          | By_move ->
            Hashtbl.replace ctx.moved v ();
            Env.remove v env
          | By_borrow -> if sm.param_moved.(i) then Env.remove v env else Env.add v post env)
        env
        (List.mapi (fun i a -> (i, a)) args))

and block ctx pc env stmts = List.fold_left (step ctx pc) env stmts

(* The first declaration under each name, as {!Ast.validate} resolves
   calls. *)
let func_table (program : Ast.program) =
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (f : Ast.func) ->
      if not (Hashtbl.mem by_name f.fname) then Hashtbl.add by_name f.fname f)
    program.funcs;
  by_name

(* Topological order of the (acyclic) call graph: callees first. *)
let dependency_order (program : Ast.program) =
  let rec callees acc stmts =
    List.fold_left
      (fun acc (s : Ast.stmt) ->
        match s.op with
        | Call { func; _ } -> func :: acc
        | If { then_; else_; _ } -> callees (callees acc then_) else_
        | While { body; _ } -> callees acc body
        | Alloc _ | Const_write _ | Append _ | Move _ | Alias _ | Copy _ | Declassify _
        | Output _ | Assert_leq _ ->
          acc)
      acc stmts
  in
  let by_name = func_table program in
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit fname =
    if not (Hashtbl.mem visited fname) then begin
      Hashtbl.replace visited fname ();
      (match Hashtbl.find_opt by_name fname with
      | None -> ()
      | Some f ->
        List.iter visit (callees [] f.body);
        order := f :: !order)
    end
  in
  List.iter (fun (f : Ast.func) -> visit f.fname) program.funcs;
  List.rev !order

let summarize_func ctx (f : Ast.func) =
  ctx.fn <- f.fname;
  ctx.outputs <- [];
  ctx.asserts <- [];
  ctx.moved <- Hashtbl.create 4;
  let env =
    List.fold_left
      (fun (i, env) p -> (i + 1, Env.add p (of_param i) env))
      (0, Env.empty) f.params
    |> snd
  in
  let final = block ctx bot env f.body in
  let params = Array.of_list f.params in
  let sm =
    {
      fname = f.fname;
      param_out =
        Array.mapi
          (fun i p ->
            if Hashtbl.mem ctx.moved p then of_param i else env_get final p)
          params;
      param_moved = Array.map (fun p -> Hashtbl.mem ctx.moved p) params;
      outputs = List.rev ctx.outputs;
      asserts = List.rev ctx.asserts;
    }
  in
  Hashtbl.replace ctx.summaries f.fname sm;
  sm

let summarize_into ctx =
  List.iter (fun f -> ignore (summarize_func ctx f)) (dependency_order ctx.program)

let make_ctx ?(summaries = Hashtbl.create 8) ?main program =
  {
    program;
    summaries;
    transfers = 0;
    fn = "";
    outputs = [];
    asserts = [];
    moved = Hashtbl.create 4;
    main;
  }

let summarize_one ~program ~summaries (f : Ast.func) =
  let ctx = make_ctx ~summaries program in
  let sm = summarize_func ctx f in
  (sm, ctx.transfers)

(* One summary pass over the whole program: the context carries the
   summaries and the transfers their construction cost. *)
let build (program : Ast.program) =
  let ctx = make_ctx program in
  summarize_into ctx;
  ctx

let summarize (program : Ast.program) =
  match program.dialect with
  | Aliased -> Error "summaries require the safe dialect (aliasing breaks confinement)"
  | Safe ->
    let built = build program in
    Ok (List.filter_map (fun (f : Ast.func) -> Hashtbl.find_opt built.summaries f.fname)
          (dependency_order program))

(* ------------------------------------------------------------------ *)
(* Verification of main using summaries at call sites.                 *)
(* ------------------------------------------------------------------ *)

let check_main ~memo ~(program : Ast.program) ~find_func ~summaries =
  (* The first declaration of a name wins, as in {!Ast.find_channel}. *)
  let bounds = Hashtbl.create 64 in
  List.iter
    (fun (c : Ast.channel) ->
      if not (Hashtbl.mem bounds c.cname) then
        Hashtbl.add bounds c.cname (c.bound, Abstract.Leaky_output c.cname))
    program.channels;
  let same_bounds =
    List.equal
      (fun (c : Ast.channel) (d : Ast.channel) -> String.equal c.cname d.cname && Label.equal c.bound d.bound)
      memo.ground_against program.channels
  in
  let m =
    {
      bounds;
      prev = (if same_bounds then memo.calls else Hashtbl.create 1);
      next = Hashtbl.create 16;
      out_chunks = [];
      assert_chunks = [];
    }
  in
  (* Run main in the same symbolic engine: with no parameters in
     scope every sym is ground (deps = ∅), so checks are decidable. *)
  let ctx = make_ctx ~summaries ~main:m program in
  ignore (block ctx bot Env.empty program.main);
  memo.ground_against <- program.channels;
  memo.calls <- m.next;
  (* Sites are function-relative; a failing check is reported at its
     absolute line, rebased through the current program's headers. *)
  let finding { site = { fn; rel }; subject; label; bound; what } =
    let line =
      if fn = "" then rel
      else rel + match find_func fn with Some (f : Ast.func) -> f.line | None -> 0
    in
    { Abstract.line; subject; label; bound; what }
  in
  (* Assertion failures, then output failures, each in emission order. *)
  let prepend acc chunks =
    List.fold_left (fun acc c -> Array.fold_right (fun f acc -> finding f :: acc) c acc) acc chunks
  in
  let findings = prepend (prepend [] m.out_chunks) m.assert_chunks in
  let by_line_subject (a : Abstract.finding) (b : Abstract.finding) =
    match Int.compare a.line b.line with 0 -> String.compare a.subject b.subject | c -> c
  in
  { Abstract.findings = List.sort by_line_subject findings; transfers = ctx.transfers }

let analyze_compositional (program : Ast.program) =
  match program.dialect with
  | Aliased -> Error "compositional analysis requires the safe dialect"
  | Safe ->
    let built = build program in
    let r =
      check_main ~memo:(main_memo ()) ~program
        ~find_func:(Hashtbl.find_opt (func_table program))
        ~summaries:built.summaries
    in
    (* [transfers] counts construction + the main pass. *)
    Ok { r with Abstract.transfers = built.transfers + r.Abstract.transfers }
