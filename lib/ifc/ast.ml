type arg_mode = By_move | By_borrow

type op =
  | Alloc of { var : string; label : Label.t }
  | Const_write of { dst : string; value : int; label : Label.t }
  | Append of { dst : string; src : string }
  | Move of { dst : string; src : string }
  | Alias of { dst : string; src : string }
  | Copy of { dst : string; src : string }
  | Declassify of { var : string; label : Label.t }
  | If of { cond : string; then_ : stmt list; else_ : stmt list }
  | While of { cond : string; body : stmt list }
  | Output of { channel : string; src : string }
  | Call of { func : string; args : (string * arg_mode) list }
  | Assert_leq of { var : string; label : Label.t }

and stmt = { line : int; op : op }

type func = { fname : string; params : string list; line : int; body : stmt list }
type channel = { cname : string; bound : Label.t }
type dialect = Safe | Aliased

type program = {
  dialect : dialect;
  channels : channel list;
  funcs : func list;
  main : stmt list;
}

let stmt line op = { line; op }

let program ?(dialect = Safe) ?(channels = []) ?(funcs = []) main =
  { dialect; channels; funcs; main }

let find_func p name = List.find_opt (fun f -> String.equal f.fname name) p.funcs
let find_channel p name = List.find_opt (fun c -> String.equal c.cname name) p.channels

type validation_error = { vline : int; reason : string }

let rec iter_stmts f stmts =
  List.iter
    (fun s ->
      f s;
      match s.op with
      | If { then_; else_; _ } ->
        iter_stmts f then_;
        iter_stmts f else_
      | While { body; _ } -> iter_stmts f body
      | Alloc _ | Const_write _ | Append _ | Move _ | Alias _ | Copy _ | Declassify _
      | Output _ | Call _ | Assert_leq _ ->
        ())
    stmts

let duplicates names =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then true
      else begin
        Hashtbl.add seen n ();
        false
      end)
    names

(* Index the declarations once so per-statement checks are O(1)
   hashtable lookups rather than list scans — on generated corpora
   (Gen) validation used to be the single largest cost of a verify.
   [find_func] is the first declaration under a name. *)
type index = {
  find_func : string -> func option;
  chan_tbl : (string, unit) Hashtbl.t;
}

let chan_table p =
  let chan_tbl = Hashtbl.create 16 in
  List.iter
    (fun c -> if not (Hashtbl.mem chan_tbl c.cname) then Hashtbl.add chan_tbl c.cname ())
    p.channels;
  chan_tbl

let index_of p =
  let funcs_tbl = Hashtbl.create 64 in
  List.iter
    (fun f -> if not (Hashtbl.mem funcs_tbl f.fname) then Hashtbl.add funcs_tbl f.fname f)
    p.funcs;
  { find_func = Hashtbl.find_opt funcs_tbl; chan_tbl = chan_table p }

(* Detect recursion: tri-colour DFS over the static call graph,
   memoized so the whole check is O(V + E). A grey node reached again
   is on the current stack, i.e. on a cycle; black nodes are finished
   and provably cycle-free, so each function is expanded once. *)
let check_recursion idx roots err =
  let color = Hashtbl.create 64 in
  let rec visit fname =
    match Hashtbl.find_opt color fname with
    | Some `Grey ->
      err 0 (Printf.sprintf "recursive call cycle through `%s'" fname)
    | Some `Black -> ()
    | None -> (
      match idx.find_func fname with
      | None -> ()
      | Some f ->
        Hashtbl.replace color fname `Grey;
        iter_stmts
          (fun s -> match s.op with Call { func; _ } -> visit func | _ -> ())
          f.body;
        Hashtbl.replace color fname `Black)
  in
  List.iter (fun f -> visit f.fname) roots

let check_params err f =
  match duplicates f.params with
  | [] -> ()
  | ds ->
    List.iter
      (fun d -> err 0 (Printf.sprintf "duplicate parameter `%s' of `%s'" d f.fname))
      ds

(* [base] is the line a statement's [line] is relative to: its
   function's header, or 0 in [main]. *)
let check_stmt p idx err base (s : stmt) =
  let line = base + s.line in
  match s.op with
  | Alias _ when p.dialect = Safe ->
    err line "aliasing (`&') is not part of the safe dialect"
  | Output { channel; _ } when not (Hashtbl.mem idx.chan_tbl channel) ->
    err line (Printf.sprintf "output on undeclared channel `%s'" channel)
  | Call { func; args } -> (
    match idx.find_func func with
    | None -> err line (Printf.sprintf "call to unknown function `%s'" func)
    | Some f ->
      if List.length args <> List.length f.params then
        err line
          (Printf.sprintf "`%s' expects %d arguments, got %d" func (List.length f.params)
             (List.length args)))
  | Alloc _ | Const_write _ | Append _ | Move _ | Alias _ | Copy _ | Declassify _
  | If _ | While _ | Output _ | Assert_leq _ ->
    ()

let validate p =
  let errs = ref [] in
  let err line reason = errs := { vline = line; reason } :: !errs in
  (match duplicates (List.map (fun f -> f.fname) p.funcs) with
  | [] -> ()
  | ds -> List.iter (fun d -> err 0 (Printf.sprintf "duplicate function `%s'" d)) ds);
  (match duplicates (List.map (fun c -> c.cname) p.channels) with
  | [] -> ()
  | ds -> List.iter (fun d -> err 0 (Printf.sprintf "duplicate channel `%s'" d)) ds);
  List.iter (check_params err) p.funcs;
  let idx = index_of p in
  iter_stmts (check_stmt p idx err 0) p.main;
  List.iter (fun f -> iter_stmts (check_stmt p idx err f.line) f.body) p.funcs;
  check_recursion idx p.funcs err;
  match List.rev !errs with [] -> Ok () | es -> Error es

let validate_incremental p ~find_func ~dirty =
  let errs = ref [] in
  let err line reason = errs := { vline = line; reason } :: !errs in
  List.iter (check_params err) dirty;
  let idx = { find_func; chan_tbl = chan_table p } in
  iter_stmts (check_stmt p idx err 0) p.main;
  List.iter (fun f -> iter_stmts (check_stmt p idx err f.line) f.body) dirty;
  check_recursion idx dirty err;
  match List.rev !errs with [] -> Ok () | es -> Error es

let stmt_count p =
  let n = ref 0 in
  iter_stmts (fun _ -> incr n) p.main;
  List.iter (fun f -> iter_stmts (fun _ -> incr n) f.body) p.funcs;
  !n

let mode_str = function By_move -> "move " | By_borrow -> "&"

(* [base] as in [check_stmt]: printed lines are absolute. *)
let rec pp_stmt_at base ppf (s : stmt) =
  let f fmt = Format.fprintf ppf fmt in
  let line = base + s.line in
  match s.op with
  | Alloc { var; label } -> f "@[%3d: let %s = vec![] : %a@]" line var Label.pp label
  | Const_write { dst; value; label } ->
    f "@[%3d: %s.push(%d : %a)@]" line dst value Label.pp label
  | Append { dst; src } -> f "@[%3d: %s.append(copy %s)@]" line dst src
  | Move { dst; src } -> f "@[%3d: let %s = move %s@]" line dst src
  | Alias { dst; src } -> f "@[%3d: let %s = &%s@]" line dst src
  | Copy { dst; src } -> f "@[%3d: let %s = %s.clone()@]" line dst src
  | Declassify { var; label } -> f "@[%3d: declassify %s to %a@]" line var Label.pp label
  | If { cond; then_; else_ } ->
    f "@[<v>%3d: if %s {@;<1 2>%a@,} else {@;<1 2>%a@,}@]" line cond (pp_block base) then_
      (pp_block base) else_
  | While { cond; body } ->
    f "@[<v>%3d: while %s {@;<1 2>%a@,}@]" line cond (pp_block base) body
  | Output { channel; src } -> f "@[%3d: output %s -> %s@]" line src channel
  | Call { func; args } ->
    f "@[%3d: %s(%s)@]" line func
      (String.concat ", " (List.map (fun (v, m) -> mode_str m ^ v) args))
  | Assert_leq { var; label } ->
    f "@[%3d: assert label(%s) <= %a@]" line var Label.pp label

and pp_block base ppf stmts =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut (pp_stmt_at base) ppf stmts


let pp_program ppf p =
  let dialect = match p.dialect with Safe -> "safe" | Aliased -> "aliased" in
  Format.fprintf ppf "@[<v>// dialect: %s@," dialect;
  List.iter
    (fun c -> Format.fprintf ppf "// channel %s : bound %a@," c.cname Label.pp c.bound)
    p.channels;
  List.iter
    (fun fn ->
      Format.fprintf ppf "@[<v>fn %s(%s) {@;<1 2>%a@,}@]@," fn.fname
        (String.concat ", " fn.params) (pp_block fn.line) fn.body)
    p.funcs;
  Format.fprintf ppf "%a@]" (pp_block 0) p.main
