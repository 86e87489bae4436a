module Rng = Cycles.Rng

type spec = {
  funcs : int;
  depth : int;
  body_len : int;
  channels : int;
  seed : int64;
}

let default = { funcs = 500; depth = 10; body_len = 30; channels = 8; seed = 17L }

let func_name i = Printf.sprintf "f%04d" i
let chan_name k = Printf.sprintf "chan%d" k
let cat k = Label.singleton (Printf.sprintf "c%d" k)

(* Group layout: function [i] belongs to chain [i / depth]; calls only
   go forward within the chain (to [i+1], plus optional extra forward
   calls), so the call graph is trivially acyclic and the transitive
   callers of any function are exactly its chain predecessors. That
   bounds every dirty cone by [depth] — the property E21 leans on. *)
let group spec i = i / spec.depth
let chan_of spec i = (group spec i) mod spec.channels

let stmt = Ast.stmt

(* Lines: function i owns the [1000*(i+1), 1000*(i+2)) range, main the
   range above every function — stable under regeneration, unique
   enough that findings pinpoint the emitting statement. *)
let base i = 1000 * (i + 1)

let filler spec rng i ~line_off =
  let k = chan_of spec i in
  let line = base i + line_off in
  match Rng.int rng 5 with
  | 0 -> [ stmt line (Ast.Const_write { dst = "t"; value = Rng.int rng 100; label = Label.public }) ]
  | 1 -> [ stmt line (Ast.Const_write { dst = "d"; value = Rng.int rng 100; label = cat k }) ]
  | 2 ->
    [
      stmt line
        (Ast.If
           {
             cond = "t";
             then_ = [ stmt (line + 1) (Ast.Const_write { dst = "d"; value = Rng.int rng 100; label = cat k }) ];
             else_ = [ stmt (line + 2) (Ast.Const_write { dst = "t"; value = Rng.int rng 100; label = Label.public }) ];
           });
    ]
  | 3 ->
    [
      stmt line
        (Ast.While
           {
             cond = "t";
             body = [ stmt (line + 1) (Ast.Const_write { dst = "t"; value = Rng.int rng 100; label = Label.public }) ];
           });
    ]
  | _ ->
    (* A label join, not an assert: per-statement work for the
       analyser without growing the function's summary — outputs and
       asserts are re-emitted into every transitive caller, so filler
       asserts would make the always-rerun main pass scale with
       body_len too and mask the construction cost E21 is racing. The
       per-function epilogue assert keeps assertions exercised. *)
    [ stmt line (Ast.Append { dst = "t"; src = "b" }) ]

let gen_func spec rng i =
  let k = chan_of spec i in
  let b off = base i + off in
  let prelude =
    [
      stmt (b 0) (Ast.Alloc { var = "d"; label = cat k });
      stmt (b 1) (Ast.Alloc { var = "m"; label = Label.public });
      stmt (b 2) (Ast.Const_write { dst = "m"; value = Rng.int rng 100; label = Label.public });
      stmt (b 3) (Ast.Move { dst = "t"; src = "m" });
      stmt (b 4) (Ast.Const_write { dst = "d"; value = Rng.int rng 100; label = cat k });
      stmt (b 5) (Ast.Append { dst = "d"; src = "a" });
      stmt (b 6) (Ast.Append { dst = "t"; src = "b" });
    ]
  in
  let fill =
    List.concat (List.init spec.body_len (fun j -> filler spec rng i ~line_off:(10 + (3 * j))))
  in
  let borrow v = (v, Ast.By_borrow) in
  let in_group j = j < spec.funcs && group spec j = group spec i in
  let extra_call =
    (* An optional wider forward edge inside the chain: fan-out without
       growing any dirty cone beyond the chain prefix. *)
    let lo = i + 2 in
    let hi = ((group spec i) + 1) * spec.depth in
    let cands = min hi spec.funcs - lo in
    if cands > 0 && Rng.int rng 4 = 0 then
      let j = lo + Rng.int rng cands in
      [ stmt (b 900) (Ast.Call { func = func_name j; args = [ borrow "d"; borrow "t" ] }) ]
    else []
  in
  let chain_call =
    if in_group (i + 1) then
      [ stmt (b 901) (Ast.Call { func = func_name (i + 1); args = [ borrow "d"; borrow "t" ] }) ]
    else []
  in
  let epilogue =
    [
      stmt (b 902) (Ast.Output { channel = chan_name k; src = "d" });
      stmt (b 903) (Ast.Assert_leq { var = "d"; label = cat k });
    ]
  in
  {
    Ast.fname = func_name i;
    params = [ "a"; "b" ];
    line = 0;
    body = prelude @ fill @ extra_call @ chain_call @ epilogue;
  }

let generate spec =
  if spec.funcs < 1 || spec.depth < 1 || spec.channels < 1 || spec.body_len < 0 then
    invalid_arg "Gen.generate: funcs/depth/channels must be >= 1, body_len >= 0";
  let rng = Rng.create spec.seed in
  let channels =
    List.init spec.channels (fun k -> { Ast.cname = chan_name k; bound = cat k })
  in
  let funcs = List.init spec.funcs (fun i -> gen_func spec rng i) in
  let groups = (spec.funcs + spec.depth - 1) / spec.depth in
  let mbase = base spec.funcs in
  let main =
    List.concat
      (List.init groups (fun g ->
           let k = g mod spec.channels in
           let root = g * spec.depth in
           let l off = mbase + (10 * g) + off in
           let s v = Printf.sprintf "%s%d" v g in
           [
             stmt (l 0) (Ast.Alloc { var = s "s"; label = cat k });
             stmt (l 1) (Ast.Const_write { dst = s "s"; value = g; label = cat k });
             stmt (l 2) (Ast.Alloc { var = s "p"; label = Label.public });
             stmt (l 3)
               (Ast.Call
                  { func = func_name root; args = [ (s "s", Ast.By_borrow); (s "p", Ast.By_borrow) ] });
             stmt (l 4) (Ast.Output { channel = chan_name k; src = s "s" });
           ]))
  in
  Ast.program ~dialect:Ast.Safe ~channels ~funcs main

(* ------------------------------------------------------------------ *)
(* Deterministic edit scripts.                                         *)
(* ------------------------------------------------------------------ *)

let map_first_const_write f body =
  let hit = ref false in
  List.map
    (fun (s : Ast.stmt) ->
      match s.op with
      | Ast.Const_write { dst; value; label } when not !hit ->
        hit := true;
        { s with Ast.op = f ~dst ~value ~label }
      | _ -> s)
    body

let mutate spec rng i (fn : Ast.func) =
  let k = chan_of spec i in
  match Rng.int rng 4 with
  | 0 | 1 ->
    (* Value bump: changes the fingerprint but not the summary —
       the recompute produces an identical summary, so the caller
       above it fingerprints clean again. The cheapest real edit. *)
    let body =
      map_first_const_write
        (fun ~dst ~value ~label -> Ast.Const_write { dst; value = value + 1; label })
        fn.Ast.body
    in
    { fn with Ast.body }
  | 2 ->
    (* Grow the body: new statement, new summary, same labels. *)
    let s =
      stmt (base i + 990)
        (Ast.Const_write { dst = "t"; value = Rng.int rng 100; label = Label.public })
    in
    { fn with Ast.body = fn.Ast.body @ [ s ] }
  | _ ->
    (* Label edit: retag the function's data writes with another
       chain's category — this one actually changes flows, and if the
       category disagrees with the group channel it surfaces findings
       everywhere the dirty cone outputs. *)
    let k' =
      if spec.channels = 1 then k else (k + 1 + Rng.int rng (spec.channels - 1)) mod spec.channels
    in
    let body =
      List.map
        (fun (s : Ast.stmt) ->
          match s.op with
          | Ast.Const_write { dst; value; label } when not (Label.is_public label) ->
            { s with Ast.op = Ast.Const_write { dst; value; label = cat k' } }
          | _ -> s)
        fn.Ast.body
    in
    { fn with Ast.body }

let edit ~seed ~edits spec (program : Ast.program) =
  if edits < 0 then invalid_arg "Gen.edit: edits must be >= 0";
  let n = List.length program.funcs in
  let rng = Rng.create seed in
  let idx = Array.init n (fun i -> i) in
  Rng.shuffle rng idx;
  let chosen = Array.sub idx 0 (min edits n) in
  Array.sort compare chosen;
  let chosen_set = Hashtbl.create 8 in
  Array.iter (fun i -> Hashtbl.replace chosen_set i ()) chosen;
  let funcs =
    List.mapi
      (fun i fn -> if Hashtbl.mem chosen_set i then mutate spec rng i fn else fn)
      program.funcs
  in
  ( { program with funcs },
    List.map (fun fn -> fn.Ast.fname) (List.filteri (fun i _ -> Hashtbl.mem chosen_set i) funcs) )

(* ------------------------------------------------------------------ *)
(* Dirty-cone oracle.                                                  *)
(* ------------------------------------------------------------------ *)

let transitive_callers (program : Ast.program) seeds =
  let callers = Hashtbl.create 64 in
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_stmts
        (fun s ->
          match s.op with
          | Ast.Call { func; _ } -> Hashtbl.add callers func f.fname
          | _ -> ())
        f.body)
    program.funcs;
  let seen = Hashtbl.create 64 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      List.iter visit (Hashtbl.find_all callers name)
    end
  in
  List.iter visit seeds;
  List.sort compare (Hashtbl.fold (fun name () acc -> name :: acc) seen [])
