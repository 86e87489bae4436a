type error = { eline : int; message : string }

let error_to_string e = Printf.sprintf "parse error, line %d: %s" e.eline e.message

exception Parse_error of error

let fail line fmt = Printf.ksprintf (fun message -> raise (Parse_error { eline = line; message })) fmt

(* --- slices ------------------------------------------------------------ *)

(* The parser never copies a line. It works on slices [a, b) of the
   source string, kept trimmed of ' ', '\t' and '\r' at both ends, and
   every helper below is a top-level function of (s, a, b), so scanning
   allocates nothing. Only identifiers, integer literals and error text
   are copied out with [sub]. *)

let is_ws c = c = ' ' || c = '\t' || c = '\r'

(* The first non-blank index of [i, b), or [b]. *)
let rec ltrim s i b = if i < b && is_ws s.[i] then ltrim s (i + 1) b else i

(* The end of [a, b) with trailing blanks cut, or [a]. *)
let rec rtrim s a b = if b > a && is_ws s.[b - 1] then rtrim s a (b - 1) else b

(* [pat.[j..]] occurs at [i + j]; the caller checks that it fits. *)
let rec matches_at s i pat j =
  j = String.length pat || (s.[i + j] = pat.[j] && matches_at s i pat (j + 1))

let has_prefix s a b pat = b - a >= String.length pat && matches_at s a pat 0
let has_suffix s a b pat = b - a >= String.length pat && matches_at s (b - String.length pat) pat 0
let is s a b pat = b - a = String.length pat && matches_at s a pat 0

(* The start of the first [pat] in [i, b), or -1. *)
let rec find s i b pat =
  if i + String.length pat > b then -1 else if matches_at s i pat 0 then i else find s (i + 1) b pat

(* The first index of [c] in [i, b), or [b]. *)
let rec find_char s i b c = if i < b && s.[i] <> c then find_char s (i + 1) b c else i

let sub s a b = String.sub s a (b - a)

let rec ident_tail s i b =
  i = b
  || (match s.[i] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false)
     && ident_tail s (i + 1) b

let is_ident s a b =
  a < b
  && (match s.[a] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && ident_tail s (a + 1) b

let ident line what s a b =
  if is_ident s a b then sub s a b else fail line "expected %s, got `%s'" what (sub s a b)

(* --- labels ---------------------------------------------------------- *)

exception Bad_category

(* The non-blank comma-separated categories of [i, b), in source order. *)
let rec categories s i b =
  let j = find_char s i b ',' in
  let cb = rtrim s i j in
  let ca = ltrim s i cb in
  if ca < cb && not (is_ident s ca cb) then raise Bad_category;
  let rest = if j < b then categories s (j + 1) b else [] in
  if ca = cb then rest else sub s ca cb :: rest

let parse_label line s a b =
  if is s a b "public" then Label.public
  else if b - a >= 2 && s.[a] = '{' && s.[b - 1] = '}' then
    match categories s (a + 1) (b - 1) with
    | cats -> Label.of_list cats
    | exception Bad_category -> fail line "bad label categories in `%s'" (sub s a b)
  else fail line "expected a label (public or {a,b}), got `%s'" (sub s a b)

let label s =
  let b = rtrim s 0 (String.length s) in
  match parse_label 0 s (ltrim s 0 b) b with
  | l -> Ok l
  | exception Parse_error e -> Error e.message

(* --- statements ------------------------------------------------------ *)

(* Where a statement has two operands to check, the right-hand one is
   checked first: a line with two errors reports the right-hand one. *)

(* Call arguments: `move x` or `&x`. *)
let parse_arg line s a b =
  if has_prefix s a b "move " then (ident line "argument" s (ltrim s (a + 5) b) b, Ast.By_move)
  else if has_prefix s a b "&" then (ident line "argument" s (ltrim s (a + 1) b) b, Ast.By_borrow)
  else fail line "call arguments must be `move x' or `&x', got `%s'" (sub s a b)

(* The comma-separated items of [i, b), each trimmed and parsed by [item]
   left to right. *)
let rec parse_list item line s i b =
  let j = find_char s i b ',' in
  let xb = rtrim s i j in
  let x = item line s (ltrim s i xb) xb in
  x :: (if j < b then parse_list item line s (j + 1) b else [])

let parse_param line s a b = ident line "parameter" s a b

(* A simple (non-block) statement on the trimmed slice [a, b). *)
let parse_simple line s a b : Ast.op =
  if has_prefix s a b "let " then begin
    (* let X = ... *)
    let a = ltrim s (a + 4) b in
    let eq = find s a b "=" in
    if eq < 0 then fail line "expected `let x = ...'";
    let x = ident line "variable" s a (rtrim s a eq) in
    let r = ltrim s (eq + 1) b in
    if has_prefix s r b "vec![]" then begin
      let r = ltrim s (r + 6) b in
      if not (has_prefix s r b ":") then fail line "expected `vec![] : LABEL'";
      Alloc { var = x; label = parse_label line s (ltrim s (r + 1) b) b }
    end
    else if has_prefix s r b "move " then
      Move { dst = x; src = ident line "variable" s (ltrim s (r + 5) b) b }
    else if has_prefix s r b "&" then
      Alias { dst = x; src = ident line "variable" s (ltrim s (r + 1) b) b }
    else if has_suffix s r b ".clone()" then
      Copy { dst = x; src = ident line "variable" s r (rtrim s r (b - 8)) }
    else fail line "unrecognised right-hand side `%s'" (sub s r b)
  end
  else if has_prefix s a b "declassify " then begin
    (* declassify X to LABEL *)
    let a = ltrim s (a + 11) b in
    let i = find s a b " to " in
    if i < 0 then fail line "expected `declassify x to LABEL'";
    let label = parse_label line s (ltrim s (i + 4) b) b in
    Declassify { var = ident line "variable" s a (rtrim s a i); label }
  end
  else if has_prefix s a b "output " then begin
    (* output X -> CHAN *)
    let a = ltrim s (a + 7) b in
    let i = find s a b "->" in
    if i < 0 then fail line "expected `output x -> channel'";
    let src = ident line "variable" s a (rtrim s a i) in
    Output { channel = ident line "channel" s (ltrim s (i + 2) b) b; src }
  end
  else if has_prefix s a b "assert label(" then begin
    (* assert label(X) <= LABEL *)
    let a = ltrim s (a + 13) b in
    let i = find s a b ")" in
    let r = if i < 0 then b else ltrim s (i + 1) b in
    if not (has_prefix s r b "<=") then fail line "expected `assert label(x) <= LABEL'";
    let label = parse_label line s (ltrim s (r + 2) b) b in
    Assert_leq { var = ident line "variable" s a (rtrim s a i); label }
  end
  else begin
    (* X.push(...) / X.append(copy Y) / F(args) *)
    let i = find s a b "(" in
    if i < 0 then fail line "unrecognised statement `%s'" (sub s a b);
    let hb = rtrim s a i in
    let r = ltrim s (i + 1) b in
    if not (has_suffix s r b ")") then fail line "missing `)'";
    let rb = rtrim s r (b - 1) in
    let push = find s a hb ".push" in
    if push >= 0 && push + 5 = hb then begin
      let colon = find s r rb ":" in
      if colon < 0 then fail line "expected `x.push(INT : LABEL)'";
      let vb = rtrim s r colon in
      let value =
        match int_of_string_opt (sub s r vb) with
        | Some v -> v
        | None -> fail line "push expects an integer, got `%s'" (sub s r vb)
      in
      let label = parse_label line s (ltrim s (colon + 1) rb) rb in
      Const_write { dst = ident line "variable" s a (rtrim s a push); value; label }
    end
    else
      let append = find s a hb ".append" in
      if append >= 0 && append + 7 = hb then begin
        if not (has_prefix s r rb "copy ") then fail line "expected `x.append(copy y)'";
        let src = ident line "variable" s (ltrim s (r + 5) rb) rb in
        Append { dst = ident line "variable" s a (rtrim s a append); src }
      end
      else
        let args = if r = rb then [] else parse_list parse_arg line s r rb in
        Call { func = ident line "function" s a hb; args }
  end

(* --- block structure -------------------------------------------------- *)

(* A cursor over the source: [a, b) is the current line, comment cut and
   trimmed. Blank lines are skipped, so the current line is empty only
   once the source is exhausted. *)
type cursor = {
  src : string;
  mutable next : int;  (** Start of the first unread line. *)
  mutable num : int;  (** The current line's number, from 1. *)
  mutable a : int;
  mutable b : int;
  mutable base : int;
      (** The line statement lines are relative to: the header of the
          function being parsed, or 0 in main. *)
}

(* The first '\n' or '#' in [i, n), or [n]. *)
let rec text_end s i n = if i < n && s.[i] <> '\n' && s.[i] <> '#' then text_end s (i + 1) n else i

let rec advance c =
  let s = c.src in
  let n = String.length s in
  if c.next > n then begin
    c.a <- 0;
    c.b <- 0
  end
  else begin
    let e = text_end s c.next n in
    let b = rtrim s c.next e in
    let a = ltrim s c.next b in
    c.next <- (if e < n && s.[e] = '#' then find_char s e n '\n' else e) + 1;
    c.num <- c.num + 1;
    c.a <- a;
    c.b <- b;
    if a = b then advance c
  end

let at_end c = c.a = c.b
let line_is c pat = is c.src c.a c.b pat

(* The condition of `if X {` / `while X {`, after the keyword. *)
let parse_cond line kw s a b =
  if has_suffix s a b "{" then ident line "condition" s a (rtrim s a (b - 1))
  else fail line "expected `%s x {'" kw

(* Steps past a block's closing `}`, failing with [msg] at [line] if the
   block ended any other way. *)
let close c line msg =
  if not (line_is c "}") then fail line "%s" msg;
  advance c

(* Statements up to, not including, a terminator (`}` or `} else {`) at
   this nesting level or the end of the source. *)
let rec parse_block c =
  if at_end c || line_is c "}" || line_is c "} else {" then []
  else
    let stmt = parse_stmt c in
    stmt :: parse_block c

and parse_stmt c =
  let s = c.src and a = c.a and b = c.b and line = c.num in
  if has_prefix s a b "if " then begin
    let cond = parse_cond line "if" s (ltrim s (a + 3) b) b in
    advance c;
    let then_ = parse_block c in
    if at_end c then fail line "unterminated if block";
    let else_ =
      if line_is c "}" then []
      else begin
        advance c;
        parse_block c
      end
    in
    close c line "unterminated else block";
    Ast.stmt (line - c.base) (If { cond; then_; else_ })
  end
  else if has_prefix s a b "while " then begin
    let cond = parse_cond line "while" s (ltrim s (a + 6) b) b in
    advance c;
    let body = parse_block c in
    close c line "unterminated while block";
    Ast.stmt (line - c.base) (While { cond; body })
  end
  else begin
    let op = parse_simple line s a b in
    advance c;
    Ast.stmt (line - c.base) op
  end

(* --- the body memo ---------------------------------------------------- *)

(* A function body as the memo keeps it: its statements, with lines
   relative to the header, its closing line's distance from the header,
   and its bytes as a length and two hash lanes: from the line after the
   header through the closing line, with that line's '\n' if it has
   one. *)
type body = { stmts : Ast.stmt list; lines : int; len : int; lo : int; hi : int }

(* The bodies of the last unit that parsed successfully, keyed by their
   function's name. A table is filled by one parse and published whole
   when that parse succeeds; a published table is never written again,
   so concurrent parses only ever read one. *)
let memo : (string, body) Hashtbl.t Atomic.t = Atomic.make (Hashtbl.create 1)

let forget () = Atomic.set memo (Hashtbl.create 1)

(* --- the body hash ---------------------------------------------------- *)

(* Two native-int lanes over the bytes [i, e), read as 8-byte
   little-endian words: [lo] takes each word's low 63 bits and [hi] its
   high 63 bits, so every bit enters a lane; the last 0-7 bytes enter
   both as one int. A step (xor the input in, multiply by an odd
   constant, xor-shift) is a bijection of the lane, so ranges of one
   length that differ within a single word or the tail always hash
   apart; other differences collide only if both lanes do. The loop
   allocates nothing; only its result pair is boxed. *)
let mix h x k =
  let h = (h lxor x) * k in
  h lxor (h lsr 29)

(* The bytes [i, e), fewer than 8, as one int. *)
let rec tail s i e t = if i < e then tail s (i + 1) e ((t lsl 8) lor Char.code s.[i]) else t

let rec lanes s i e lo hi =
  if e - i >= 8 then
    let w = String.get_int64_le s i in
    lanes s (i + 8) e
      (mix lo (Int64.to_int w) 0x100000001b3)
      (mix hi (Int64.to_int (Int64.shift_right_logical w 1)) 0x2545f4914f6cdd1d)
  else
    let t = tail s i e 1 in
    (mix lo t 0x100000001b3, mix hi t 0x2545f4914f6cdd1d)

(* --- top level -------------------------------------------------------- *)

(* Whether [body] is the text at [start]: its bytes fit there, they end
   where its closing line ended (at a '\n', or at the end of both texts,
   so a last `}` with no newline never matches a longer line), and they
   hash to the stored lanes. *)
let hit s start (body : body) =
  let e = start + body.len in
  let n = String.length s in
  e <= n
  && (e = n || s.[e - 1] = '\n')
  &&
  let lo, hi = lanes s start e 0 0 in
  lo = body.lo && hi = body.hi

(* A function: its header, then its body, which is either the body the
   memo [prev] holds under the same name, if its bytes are the ones at
   the same place after this header, or parsed here. A hit is exactly
   what parsing would give: the bytes equal those of a body that parsed
   successfully, a body's parse reads no byte past its closing line,
   and its lines are relative to the header, so neither what precedes
   nor what follows it can change the result. The body goes into
   [next] under the name. *)
let parse_func c prev next =
  let s = c.src and b = c.b and line = c.num in
  let a = ltrim s (c.a + 3) b in
  let i = find s a b "(" in
  let j = if i < 0 then -1 else find s (i + 1) b ")" in
  if j < 0 || not (is s (ltrim s (j + 1) b) b "{") then fail line "expected `fn name(params) {'";
  let pb = rtrim s (i + 1) j in
  let pa = ltrim s (i + 1) pb in
  let params = if pa = pb then [] else parse_list parse_param line s pa pb in
  let fname = ident line "function name" s a (rtrim s a i) in
  let start = c.next in
  let body =
    match Hashtbl.find_opt prev fname with
    | Some body when hit s start body ->
      c.num <- line + body.lines;
      c.next <- start + body.len;
      body
    | Some _ | None ->
      advance c;
      c.base <- line;
      let stmts = parse_block c in
      c.base <- 0;
      if not (line_is c "}") then fail line "unterminated function body";
      let len = min c.next (String.length s) - start in
      let lo, hi = lanes s start (start + len) 0 0 in
      { stmts; lines = c.num - line; len; lo; hi }
  in
  Hashtbl.replace next fname body;
  advance c;
  { Ast.fname; params; line; body = body.stmts }

let rec parse_top c prev next dialect channels funcs main =
  if at_end c then
    { Ast.dialect; channels = List.rev channels; funcs = List.rev funcs; main = List.rev main }
  else
    let s = c.src and a = c.a and b = c.b and line = c.num in
    if has_prefix s a b "channel " then begin
      let a = ltrim s (a + 8) b in
      let i = find s a b " bound " in
      if i < 0 then fail line "expected `channel name bound LABEL'";
      let bound = parse_label line s (ltrim s (i + 7) b) b in
      let ch = { Ast.cname = ident line "channel name" s a (rtrim s a i); bound } in
      advance c;
      parse_top c prev next dialect (ch :: channels) funcs main
    end
    else if has_prefix s a b "fn " then
      let f = parse_func c prev next in
      parse_top c prev next dialect channels (f :: funcs) main
    else
      let stmt = parse_stmt c in
      parse_top c prev next dialect channels funcs (stmt :: main)

let program source =
  let c = { src = source; next = 0; num = 0; a = 0; b = 0; base = 0 } in
  advance c;
  let dialect : Ast.dialect = if line_is c "dialect aliased" then Aliased else Safe in
  if line_is c "dialect safe" || line_is c "dialect aliased" then advance c;
  let prev = Atomic.get memo in
  let next = Hashtbl.create (max 16 (Hashtbl.length prev)) in
  match parse_top c prev next dialect [] [] [] with
  | p ->
    Atomic.set memo next;
    Ok p
  | exception Parse_error e -> Error e

(* --- printing in the concrete syntax ---------------------------------- *)

(* One line of output: [indent] spaces, then [parts]. *)
let add_line buf indent parts =
  for _ = 1 to indent do
    Buffer.add_char buf ' '
  done;
  List.iter (Buffer.add_string buf) parts;
  Buffer.add_char buf '\n'

let arg_src (v, mode) =
  match (mode : Ast.arg_mode) with By_move -> "move " ^ v | By_borrow -> "&" ^ v

let rec add_stmt buf indent (st : Ast.stmt) =
  let line = add_line buf indent and label = Label.to_string in
  match st.op with
  | Alloc { var; label = l } -> line [ "let "; var; " = vec![] : "; label l ]
  | Const_write { dst; value; label = l } ->
    line [ dst; ".push("; string_of_int value; " : "; label l; ")" ]
  | Append { dst; src } -> line [ dst; ".append(copy "; src; ")" ]
  | Move { dst; src } -> line [ "let "; dst; " = move "; src ]
  | Alias { dst; src } -> line [ "let "; dst; " = &"; src ]
  | Copy { dst; src } -> line [ "let "; dst; " = "; src; ".clone()" ]
  | Declassify { var; label = l } -> line [ "declassify "; var; " to "; label l ]
  | If { cond; then_; else_ } ->
    line [ "if "; cond; " {" ];
    List.iter (add_stmt buf (indent + 2)) then_;
    if else_ <> [] then begin
      line [ "} else {" ];
      List.iter (add_stmt buf (indent + 2)) else_
    end;
    line [ "}" ]
  | While { cond; body } ->
    line [ "while "; cond; " {" ];
    List.iter (add_stmt buf (indent + 2)) body;
    line [ "}" ]
  | Output { channel; src } -> line [ "output "; src; " -> "; channel ]
  | Call { func; args } -> line [ func; "("; String.concat ", " (List.map arg_src args); ")" ]
  | Assert_leq { var; label = l } -> line [ "assert label("; var; ") <= "; label l ]

let to_source (p : Ast.program) =
  let buf = Buffer.create 4096 in
  add_line buf 0 [ (match p.dialect with Ast.Safe -> "dialect safe" | Ast.Aliased -> "dialect aliased") ];
  List.iter
    (fun (c : Ast.channel) -> add_line buf 0 [ "channel "; c.cname; " bound "; Label.to_string c.bound ])
    p.channels;
  List.iter
    (fun (f : Ast.func) ->
      add_line buf 0 [ "fn "; f.fname; "("; String.concat ", " f.params; ") {" ];
      List.iter (add_stmt buf 2) f.body;
      add_line buf 0 [ "}" ])
    p.funcs;
  List.iter (add_stmt buf 0) p.main;
  Buffer.contents buf
