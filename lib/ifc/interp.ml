type element = { value : int; taint : Label.t }

type event = {
  eline : int;
  channel : string;
  bound : Label.t;
  data : element list;
}

type leak = event

type outcome = {
  events : event list;
  leaks : leak list;
  assertion_failures : (int * string * Label.t * Label.t) list;
  copies : int;
  bytes_copied : int;
  steps : int;
}

exception Runtime_error of { line : int; message : string }

let error line fmt = Printf.ksprintf (fun message -> raise (Runtime_error { line; message })) fmt

(* A heap cell: a growable vector of tainted elements. Mutable so that
   aliases (and borrows across calls) observe each other's writes. *)
type cell = { mutable elems : element list (* newest last *) }

type binding = Bound of cell | Consumed of int (* line of the move *)

type ctx = {
  program : Ast.program;
  mutable events : event list;
  mutable assertion_failures : (int * string * Label.t * Label.t) list;
  mutable copies : int;
  mutable bytes_copied : int;
  mutable steps : int;
  fuel : int;
}

module Env = Map.Make (String)

let lookup_cell env line var =
  match Env.find_opt var env with
  | Some (Bound c) -> c
  | Some (Consumed at) -> error line "use of moved value `%s' (moved at line %d)" var at
  | None -> error line "unbound variable `%s'" var

let cell_taint c = List.fold_left (fun acc e -> Label.join acc e.taint) Label.public c.elems

let truthy c = match c.elems with [] -> false | e :: _ -> e.value <> 0

let tick ctx line =
  ctx.steps <- ctx.steps + 1;
  if ctx.steps > ctx.fuel then error line "fuel exhausted (non-terminating loop?)"

(* [off] is the line [s.line] is relative to: the enclosing function's
   header, or 0 in main. Events and errors report absolute lines. *)
let rec exec ctx off env (s : Ast.stmt) =
  let line = off + s.line in
  tick ctx line;
  match s.op with
  | Alloc { var; _ } -> Env.add var (Bound { elems = [] }) env
  | Const_write { dst; value; label } ->
    let c = lookup_cell env line dst in
    c.elems <- c.elems @ [ { value; taint = label } ];
    env
  | Append { dst; src } ->
    let d = lookup_cell env line dst in
    let s' = lookup_cell env line src in
    d.elems <- d.elems @ s'.elems;
    env
  | Move { dst; src } ->
    let c = lookup_cell env line src in
    Env.add dst (Bound c) (Env.add src (Consumed line) env)
  | Alias { dst; src } ->
    let c = lookup_cell env line src in
    Env.add dst (Bound c) env
  | Copy { dst; src } ->
    let c = lookup_cell env line src in
    ctx.copies <- ctx.copies + 1;
    ctx.bytes_copied <- ctx.bytes_copied + List.length c.elems;
    Env.add dst (Bound { elems = c.elems }) env
  | Declassify { var; label } ->
    let c = lookup_cell env line var in
    c.elems <- List.map (fun e -> { e with taint = label }) c.elems;
    env
  | If { cond; then_; else_ } ->
    let c = lookup_cell env line cond in
    let branch = if truthy c then then_ else else_ in
    (* Branch-local bindings do not escape; cell mutations do. *)
    ignore (block ctx off env branch);
    env
  | While { cond; body } ->
    let c = lookup_cell env line cond in
    if truthy c then begin
      ignore (block ctx off env body);
      exec ctx off env s
    end
    else env
  | Output { channel; src } ->
    let c = lookup_cell env line src in
    let bound =
      match Ast.find_channel ctx.program channel with
      | Some ch -> ch.bound
      | None -> error line "undeclared channel `%s'" channel
    in
    ctx.events <- { eline = line; channel; bound; data = c.elems } :: ctx.events;
    env
  | Call { func; args } ->
    let f =
      match Ast.find_func ctx.program func with
      | Some f -> f
      | None -> error line "unknown function `%s'" func
    in
    let cells = List.map (fun (v, _mode) -> lookup_cell env line v) args in
    let fenv =
      List.fold_left2
        (fun acc param c -> Env.add param (Bound c) acc)
        Env.empty f.params cells
    in
    ignore (block ctx f.line fenv f.body);
    (* Moved-in arguments are consumed in the caller. *)
    List.fold_left
      (fun env (v, mode) ->
        match (mode : Ast.arg_mode) with
        | By_borrow -> env
        | By_move -> Env.add v (Consumed line) env)
      env args
  | Assert_leq { var; label } ->
    let c = lookup_cell env line var in
    let actual = cell_taint c in
    if not (Label.leq actual label) then
      ctx.assertion_failures <- (line, var, actual, label) :: ctx.assertion_failures;
    env

and block ctx off env stmts = List.fold_left (exec ctx off) env stmts

let event_taint e = List.fold_left (fun acc el -> Label.join acc el.taint) Label.public e.data

let run ?(fuel = 100_000) program =
  let ctx =
    { program; events = []; assertion_failures = []; copies = 0; bytes_copied = 0;
      steps = 0; fuel }
  in
  ignore (block ctx 0 Env.empty program.Ast.main);
  let events = List.rev ctx.events in
  let leaks = List.filter (fun e -> not (Label.leq (event_taint e) e.bound)) events in
  {
    events;
    leaks;
    assertion_failures = List.rev ctx.assertion_failures;
    copies = ctx.copies;
    bytes_copied = ctx.bytes_copied;
    steps = ctx.steps;
  }
