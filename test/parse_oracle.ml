(* The line-list Mir parser that Ifc.Parse.program replaced, kept
   as the oracle for the differential fuzz in test_parse.ml: every line
   is split, copied and trimmed up front, and statements are matched
   with substring copies. Slow, but simple enough to read as the
   specification of the grammar and of every error message. A parsed
   function keeps its header line, and its statement lines are made
   relative to it after the fact ([relative]). *)

open Ifc

type error = Parse.error = { eline : int; message : string }

exception Parse_error of error

let fail line fmt = Printf.ksprintf (fun message -> raise (Parse_error { eline = line; message })) fmt

(* --- tiny string utilities ------------------------------------------ *)

let strip s =
  let n = String.length s in
  let is_ws c = c = ' ' || c = '\t' || c = '\r' in
  let a = ref 0 and b = ref (n - 1) in
  while !a < n && is_ws s.[!a] do incr a done;
  while !b >= !a && is_ws s.[!b] do decr b done;
  String.sub s !a (!b - !a + 1)

let strip_comment s =
  match String.index_opt s '#' with None -> s | Some i -> String.sub s 0 i

let drop_prefix ~prefix s =
  if String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix
  then Some (strip (String.sub s (String.length prefix) (String.length s - String.length prefix)))
  else None

let drop_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  if ls >= lx && String.sub s (ls - lx) lx = suffix then Some (strip (String.sub s 0 (ls - lx)))
  else None

let split_once sep s =
  let ls = String.length sep in
  let rec scan i =
    if i + ls > String.length s then None
    else if String.sub s i ls = sep then
      Some (strip (String.sub s 0 i), strip (String.sub s (i + ls) (String.length s - i - ls)))
    else scan (i + 1)
  in
  scan 0

let is_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false)
       s

let ident line what s = if is_ident s then s else fail line "expected %s, got `%s'" what s

(* --- labels ---------------------------------------------------------- *)

let label_of_string s =
  let s = strip s in
  if s = "public" then Ok Label.public
  else if String.length s >= 2 && s.[0] = '{' && s.[String.length s - 1] = '}' then begin
    let inner = String.sub s 1 (String.length s - 2) in
    let parts =
      String.split_on_char ',' inner |> List.map strip |> List.filter (fun x -> x <> "")
    in
    if List.for_all is_ident parts then Ok (Label.of_list parts)
    else Error (Printf.sprintf "bad label categories in `%s'" s)
  end
  else Error (Printf.sprintf "expected a label (public or {a,b}), got `%s'" s)

let parse_label line s =
  match label_of_string s with Ok l -> l | Error m -> fail line "%s" m

(* --- statements ------------------------------------------------------ *)

(* Call arguments: `move x` or `&x`. *)
let parse_arg line s =
  match drop_prefix ~prefix:"move " s with
  | Some v -> (ident line "argument" v, Ast.By_move)
  | None -> (
    match drop_prefix ~prefix:"&" s with
    | Some v -> (ident line "argument" v, Ast.By_borrow)
    | None -> fail line "call arguments must be `move x' or `&x', got `%s'" s)

let parse_args line s =
  if strip s = "" then []
  else String.split_on_char ',' s |> List.map strip |> List.map (parse_arg line)

(* A simple (non-block) statement. *)
let parse_simple line s : Ast.op =
  let s = strip s in
  (* let X = ... *)
  match drop_prefix ~prefix:"let " s with
  | Some rest -> (
    match split_once "=" rest with
    | None -> fail line "expected `let x = ...'"
    | Some (x, rhs) -> (
      let x = ident line "variable" x in
      match drop_prefix ~prefix:"vec![]" rhs with
      | Some colon -> (
        match drop_prefix ~prefix:":" colon with
        | Some l -> Alloc { var = x; label = parse_label line l }
        | None -> fail line "expected `vec![] : LABEL'")
      | None -> (
        match drop_prefix ~prefix:"move " rhs with
        | Some y -> Move { dst = x; src = ident line "variable" y }
        | None -> (
          match drop_prefix ~prefix:"&" rhs with
          | Some y -> Alias { dst = x; src = ident line "variable" y }
          | None -> (
            match drop_suffix ~suffix:".clone()" rhs with
            | Some y -> Copy { dst = x; src = ident line "variable" y }
            | None -> fail line "unrecognised right-hand side `%s'" rhs)))))
  | None -> (
    (* declassify X to LABEL *)
    match drop_prefix ~prefix:"declassify " s with
    | Some rest -> (
      match split_once " to " rest with
      | Some (x, l) -> Declassify { var = ident line "variable" x; label = parse_label line l }
      | None -> fail line "expected `declassify x to LABEL'")
    | None -> (
      (* output X -> CHAN *)
      match drop_prefix ~prefix:"output " s with
      | Some rest -> (
        match split_once "->" rest with
        | Some (x, ch) ->
          Output { channel = ident line "channel" ch; src = ident line "variable" x }
        | None -> fail line "expected `output x -> channel'")
      | None -> (
        (* assert label(X) <= LABEL *)
        match drop_prefix ~prefix:"assert label(" s with
        | Some rest -> (
          match split_once ")" rest with
          | Some (x, rest) -> (
            match drop_prefix ~prefix:"<=" rest with
            | Some l ->
              Assert_leq { var = ident line "variable" x; label = parse_label line l }
            | None -> fail line "expected `assert label(x) <= LABEL'")
          | None -> fail line "expected `assert label(x) <= LABEL'")
        | None -> (
          (* X.push(...) / X.append(copy Y) / F(args) *)
          match split_once "(" s with
          | Some (head, rest) -> (
            let body =
              match drop_suffix ~suffix:")" rest with
              | Some b -> b
              | None -> fail line "missing `)'"
            in
            match split_once ".push" head with
            | Some (x, "") -> (
              match split_once ":" body with
              | Some (v, l) -> (
                match int_of_string_opt (strip v) with
                | Some value ->
                  Const_write { dst = ident line "variable" x; value; label = parse_label line l }
                | None -> fail line "push expects an integer, got `%s'" v)
              | None -> fail line "expected `x.push(INT : LABEL)'")
            | Some _ | None -> (
              match split_once ".append" head with
              | Some (x, "") -> (
                match drop_prefix ~prefix:"copy " body with
                | Some y ->
                  Append { dst = ident line "variable" x; src = ident line "variable" y }
                | None -> fail line "expected `x.append(copy y)'")
              | Some _ | None ->
                Call { func = ident line "function" head; args = parse_args line body }))
          | None -> fail line "unrecognised statement `%s'" s))))

(* --- block structure -------------------------------------------------- *)

type raw_line = { num : int; text : string }

(* Parse statements until a terminator ('}' or '} else {') at this
   nesting level; returns the block, the terminator, and the remaining
   lines. *)
let rec parse_block lines =
  match lines with
  | [] -> ([], `Eof, [])
  | { num; text } :: rest -> (
    match text with
    | "}" -> ([], `Close, rest)
    | "} else {" -> ([], `Else, rest)
    | _ ->
      let stmt, rest = parse_stmt num text rest in
      let stmts, terminator, rest = parse_block rest in
      (stmt :: stmts, terminator, rest))

and parse_stmt num text rest =
  match drop_prefix ~prefix:"if " text with
  | Some head -> (
    let cond =
      match drop_suffix ~suffix:"{" head with
      | Some c -> ident num "condition" c
      | None -> fail num "expected `if x {'"
    in
    let then_, terminator, rest = parse_block rest in
    match terminator with
    | `Close -> (Ast.stmt num (Ast.If { cond; then_; else_ = [] }), rest)
    | `Else -> (
      let else_, terminator, rest = parse_block rest in
      match terminator with
      | `Close -> (Ast.stmt num (Ast.If { cond; then_; else_ }), rest)
      | `Else | `Eof -> fail num "unterminated else block")
    | `Eof -> fail num "unterminated if block")
  | None -> (
    match drop_prefix ~prefix:"while " text with
    | Some head -> (
      let cond =
        match drop_suffix ~suffix:"{" head with
        | Some c -> ident num "condition" c
        | None -> fail num "expected `while x {'"
      in
      let body, terminator, rest = parse_block rest in
      match terminator with
      | `Close -> (Ast.stmt num (Ast.While { cond; body }), rest)
      | `Else | `Eof -> fail num "unterminated while block")
    | None -> (Ast.stmt num (parse_simple num text), rest))

(* --- top level -------------------------------------------------------- *)

let parse_fn_header line text =
  match drop_prefix ~prefix:"fn " text with
  | None -> None
  | Some rest -> (
    match split_once "(" rest with
    | None -> fail line "expected `fn name(params) {'"
    | Some (name, rest) -> (
      match split_once ")" rest with
      | Some (params, "{") ->
        let params =
          if strip params = "" then []
          else
            String.split_on_char ',' params |> List.map strip
            |> List.map (ident line "parameter")
        in
        Some (ident line "function name" name, params)
      | Some _ | None -> fail line "expected `fn name(params) {'"))

(* A function body's statements with lines counted from its header. *)
let rec relative base stmts =
  List.map
    (fun (s : Ast.stmt) ->
      let op : Ast.op =
        match s.op with
        | If { cond; then_; else_ } ->
          If { cond; then_ = relative base then_; else_ = relative base else_ }
        | While { cond; body } -> While { cond; body = relative base body }
        | op -> op
      in
      Ast.stmt (s.line - base) op)
    stmts

let program source =
  let raw =
    String.split_on_char '\n' source
    |> List.mapi (fun i text -> { num = i + 1; text = strip (strip_comment text) })
    |> List.filter (fun l -> l.text <> "")
  in
  try
    let dialect, raw =
      match raw with
      | { text = "dialect safe"; _ } :: rest -> (Ast.Safe, rest)
      | { text = "dialect aliased"; _ } :: rest -> (Ast.Aliased, rest)
      | _ -> (Ast.Safe, raw)
    in
    let rec top raw channels funcs main =
      match raw with
      | [] -> (List.rev channels, List.rev funcs, List.rev main)
      | { num; text } :: rest -> (
        match drop_prefix ~prefix:"channel " text with
        | Some decl -> (
          match split_once " bound " decl with
          | Some (name, l) ->
            let c = { Ast.cname = ident num "channel name" name; bound = parse_label num l } in
            top rest (c :: channels) funcs main
          | None -> fail num "expected `channel name bound LABEL'")
        | None -> (
          match parse_fn_header num text with
          | Some (fname, params) -> (
            let body, terminator, rest = parse_block rest in
            match terminator with
            | `Close ->
              let f = { Ast.fname; params; line = num; body = relative num body } in
              top rest channels (f :: funcs) main
            | `Else | `Eof -> fail num "unterminated function body")
          | None ->
            let stmt, rest = parse_stmt num text rest in
            top rest channels funcs (stmt :: main)))
    in
    let channels, funcs, main = top raw [] [] [] in
    Ok { Ast.dialect; channels; funcs; main }
  with Parse_error e -> Error e
