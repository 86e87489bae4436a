(* Tests for the Mir concrete-syntax parser. *)

open Ifc

let parse_ok src =
  match Parse.program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "unexpected parse error: %s" (Parse.error_to_string e)

(* Equality modulo statement line numbers, comparing labels as sets:
   [Label.t] is a balanced tree, so equal labels built in a different
   order need not be equal under [=]. *)
let rec op_equal (x : Ast.op) (y : Ast.op) =
  match (x, y) with
  | Alloc a, Alloc b -> a.var = b.var && Label.equal a.label b.label
  | Const_write a, Const_write b -> a.dst = b.dst && a.value = b.value && Label.equal a.label b.label
  | Declassify a, Declassify b -> a.var = b.var && Label.equal a.label b.label
  | Assert_leq a, Assert_leq b -> a.var = b.var && Label.equal a.label b.label
  | If a, If b -> a.cond = b.cond && stmts_equal a.then_ b.then_ && stmts_equal a.else_ b.else_
  | While a, While b -> a.cond = b.cond && stmts_equal a.body b.body
  | (Append _ | Move _ | Alias _ | Copy _ | Output _ | Call _), _ -> x = y
  | (Alloc _ | Const_write _ | Declassify _ | Assert_leq _ | If _ | While _), _ -> false

and stmts_equal a b = List.equal (fun (s : Ast.stmt) (t : Ast.stmt) -> op_equal s.op t.op) a b

let program_equal (p : Ast.program) (q : Ast.program) =
  p.dialect = q.dialect
  && List.equal
       (fun (c : Ast.channel) (d : Ast.channel) -> c.cname = d.cname && Label.equal c.bound d.bound)
       p.channels q.channels
  && List.equal
       (fun (f : Ast.func) (g : Ast.func) ->
         f.fname = g.fname && f.params = g.params && stmts_equal f.body g.body)
       p.funcs q.funcs
  && stmts_equal p.main q.main

(* The paper's buffer exploit, as source text. *)
let buffer_src =
  {|# The HotOS'17 Buffer listing
channel terminal bound public

let buf = vec![] : public
let nonsec = vec![] : public
nonsec.push(1 : public)
nonsec.push(2 : public)
nonsec.push(3 : public)
let sec = vec![] : {secret}
sec.push(4 : {secret})
sec.push(5 : {secret})
sec.push(6 : {secret})
let buf = move nonsec
buf.append(copy sec)
output buf -> terminal
output nonsec -> terminal
|}

let test_parse_buffer_program () =
  let p = parse_ok buffer_src in
  Alcotest.(check int) "channels" 1 (List.length p.Ast.channels);
  Alcotest.(check int) "statements" 13 (List.length p.Ast.main);
  (match Ast.validate p with Ok () -> () | Error _ -> Alcotest.fail "must validate");
  (* The parsed program behaves like the hand-built one: IFC error on
     the buffer output, ownership error on the stale binding. *)
  match Verifier.verify ~strategy:Verifier.Exact p with
  | Ok r ->
    Alcotest.(check bool) "rejected" true (r.Verifier.verdict = Verifier.Rejected);
    Alcotest.(check bool) "flow finding on the buf output" true
      (List.exists
         (fun f -> match f.Abstract.what with Abstract.Leaky_output "terminal" -> true | _ -> false)
         r.Verifier.findings);
    Alcotest.(check bool) "ownership error on nonsec" true
      (List.exists (fun v -> v.Ownership.var = "nonsec") r.Verifier.ownership_errors)
  | Error e -> Alcotest.failf "verify: %s" e

let test_parse_line_numbers_are_source_lines () =
  let p = parse_ok buffer_src in
  (* `output nonsec -> terminal` sits on source line 16 of buffer_src
     (line 1 is the comment, line 3 is blank). *)
  match Ownership.check p with
  | Error [ v ] -> Alcotest.(check int) "diagnostic on the real source line" 16 v.Ownership.line
  | _ -> Alcotest.fail "expected exactly the nonsec violation"

let test_parse_functions_and_blocks () =
  let src =
    {|dialect safe
channel log bound {audit}

fn serve(auth, data) {
  if auth {
    output data -> log
  } else {
    data.push(0 : public)
  }
}

let auth = vec![] : public
auth.push(1 : public)
let data = vec![] : {audit}
while auth {
  serve(&auth, &data)
  declassify auth to public
}
|}
  in
  let p = parse_ok src in
  (match Ast.validate p with
  | Ok () -> ()
  | Error es ->
    Alcotest.failf "validate: %s"
      (String.concat ";" (List.map (fun (e : Ast.validation_error) -> e.reason) es)));
  Alcotest.(check int) "one function" 1 (List.length p.Ast.funcs);
  let f = List.hd p.Ast.funcs in
  Alcotest.(check (list string)) "params" [ "auth"; "data" ] f.Ast.params;
  match f.Ast.body with
  | [ { op = Ast.If { else_ = [ _ ]; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "if/else body shape"

let test_parse_aliased_dialect () =
  let src = {|dialect aliased
let x = vec![] : public
let y = &x
|} in
  let p = parse_ok src in
  Alcotest.(check bool) "dialect" true (p.Ast.dialect = Ast.Aliased);
  match Ast.validate p with Ok () -> () | Error _ -> Alcotest.fail "alias legal here"

let test_parse_errors () =
  let cases =
    [
      ("let x = ", "parse error, line 1: unrecognised right-hand side `'");
      ("x.push(notanint : public)", "parse error, line 1: push expects an integer, got `notanint'");
      ( "let x = vec![] : {bad label",
        "parse error, line 1: expected a label (public or {a,b}), got `{bad label'" );
      ("if x {", "parse error, line 1: unterminated if block");
      ("frobnicate x y", "parse error, line 1: unrecognised statement `frobnicate x y'");
      ("output x", "parse error, line 1: expected `output x -> channel'");
      ("serve(plain_arg)", "parse error, line 1: call arguments must be `move x' or `&x', got `plain_arg'");
      ("declassify 1x to {a b}", "parse error, line 1: bad label categories in `{a b}'");
      ("fn f(a,, b) {\n}", "parse error, line 1: expected parameter, got `'");
      ("while c {\n  } else {\n}", "parse error, line 1: unterminated while block");
      (* Comment-only and blank lines still count: the error is on line 6. *)
      ( "# a header comment\nlet x = vec![] : public\n\n   # indented comment\nx.push(1 : {s}) # trailing\n  output x terminal\r\n",
        "parse error, line 6: expected `output x -> channel'" );
    ]
  in
  List.iter
    (fun (src, expected) ->
      match Parse.program src with
      | Error e -> Alcotest.(check string) src expected (Parse.error_to_string e)
      | Ok _ -> Alcotest.failf "%S should not parse" src)
    cases

let test_parse_label_values () =
  (match Parse.label "public" with
  | Ok l -> Alcotest.(check bool) "public" true (Label.is_public l)
  | Error m -> Alcotest.fail m);
  (match Parse.label "{a, b}" with
  | Ok l -> Alcotest.(check bool) "categories" true (Label.equal l (Label.of_list [ "a"; "b" ]))
  | Error m -> Alcotest.fail m);
  match Parse.label "nonsense{" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk label must be rejected"

let test_roundtrip_examples () =
  List.iter
    (fun (name, p) ->
      let src = Parse.to_source p in
      match Parse.program src with
      | Ok p' ->
        if not (program_equal p p') then
          Alcotest.failf "%s did not round-trip:\n%s" name src
      | Error e -> Alcotest.failf "%s: reparse failed: %s\n%s" name (Parse.error_to_string e) src)
    [
      ("leak_safe", Examples.buffer_leak_safe);
      ("exploit_safe", Examples.buffer_exploit_safe);
      ("exploit_aliased", Examples.buffer_exploit_aliased);
      ("benign_sectype", Examples.buffer_benign_sectype);
      ("store", Examples.secure_store ~clients:4 ());
      ("store_bug", Examples.secure_store ~bug:true ~clients:3 ());
    ]

let prop_roundtrip_random =
  (* Random straight-line + nested programs round-trip through the
     concrete syntax. *)
  let gen =
    QCheck.Gen.(
      let var = map (Printf.sprintf "v%d") (int_range 0 4) in
      let lbl = oneof [ return Ifc.Label.public; return Ifc.Label.secret; return (Ifc.Label.of_list [ "a"; "b" ]) ] in
      let simple line =
        frequency
          [
            (2, map2 (fun v l -> Ast.stmt line (Ast.Alloc { var = v; label = l })) var lbl);
            (2, map3 (fun d v l -> Ast.stmt line (Ast.Const_write { dst = d; value = v; label = l })) var (int_range (-5) 99) lbl);
            (2, map2 (fun d s -> Ast.stmt line (Ast.Append { dst = d; src = s })) var var);
            (1, map2 (fun d s -> Ast.stmt line (Ast.Move { dst = d; src = s })) var var);
            (1, map2 (fun d s -> Ast.stmt line (Ast.Copy { dst = d; src = s })) var var);
            (1, map2 (fun v l -> Ast.stmt line (Ast.Declassify { var = v; label = l })) var lbl);
            (1, map2 (fun v l -> Ast.stmt line (Ast.Assert_leq { var = v; label = l })) var lbl);
          ]
      in
      let* n = int_range 1 12 in
      let* stmts = flatten_l (List.init n (fun i -> simple (i + 1))) in
      let* wrap = oneof [ return `None; map (fun c -> `If c) var; map (fun c -> `While c) var ] in
      let main =
        match wrap with
        | `None -> stmts
        | `If cond -> [ Ast.stmt 90 (Ast.If { cond; then_ = stmts; else_ = stmts }) ]
        | `While cond -> [ Ast.stmt 90 (Ast.While { cond; body = stmts }) ]
      in
      return (Ast.program main))
  in
  QCheck.Test.make ~name:"random programs round-trip through concrete syntax" ~count:300
    (QCheck.make gen) (fun p ->
      match Parse.program (Parse.to_source p) with
      | Ok p' -> program_equal p p'
      | Error _ -> false)

(* The shipped sample programs must keep their documented verdicts. *)
let test_sample_programs () =
  let dir = Data.path "../examples/programs" in
  let read name = In_channel.with_open_text (Filename.concat dir name) In_channel.input_all in
  let verdict name =
    match Parse.program (read name) with
    | Error e -> Alcotest.failf "%s: %s" name (Parse.error_to_string e)
    | Ok p -> (
      match Verifier.verify p with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok r -> r.Verifier.verdict)
  in
  Alcotest.(check bool) "buffer_leak rejected" true (verdict "buffer_leak.mir" = Verifier.Rejected);
  Alcotest.(check bool) "aliased exploit rejected" true
    (verdict "buffer_exploit_aliased.mir" = Verifier.Rejected);
  Alcotest.(check bool) "medical records verified" true
    (verdict "medical_records.mir" = Verifier.Verified);
  Alcotest.(check bool) "buggy medical records rejected" true
    (verdict "medical_records_buggy.mir" = Verifier.Rejected);
  (* The implicit-flow sample: statically rejected, dynamically clean —
     the static/dynamic gap the paper's "must be performed statically"
     argument is about. *)
  Alcotest.(check bool) "implicit flow rejected statically" true
    (verdict "implicit_flow.mir" = Verifier.Rejected);
  (match Parse.program (read "implicit_flow.mir") with
  | Ok p ->
    let o = Interp.run p in
    Alcotest.(check int) "but invisible dynamically" 0 (List.length o.Interp.leaks)
  | Error _ -> Alcotest.fail "parse")

(* --- the parser against its line-list oracle --------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A Mir source with the offset of each line and the numbers of the
   lines that open a top-level item (neither indented, blank nor `}`). *)
let mir_source path =
  let text = read_file path in
  let starts = ref [ 0 ] in
  String.iteri (fun i c -> if c = '\n' then starts := (i + 1) :: !starts) text;
  let starts = Array.of_list (List.rev !starts) in
  let opens_item l = starts.(l) < String.length text && not (String.contains " }\n" text.[starts.(l)]) in
  (text, starts, Array.of_list (List.filter opens_item (List.init (Array.length starts) Fun.id)))

(* Every committed Mir source. *)
let mir_sources =
  lazy
    (List.concat_map
       (fun dir ->
         Sys.readdir dir |> Array.to_list |> List.sort compare
         |> List.filter (fun f -> Filename.check_suffix f ".mir")
         |> List.map (fun f -> mir_source (Filename.concat dir f)))
       [ Data.path "corpus-ifc"; Data.path "../examples/programs" ]
    |> Array.of_list)

let same_result src =
  match (Parse.program src, Parse_oracle.program src) with
  | Ok p, Ok q -> p = q
  | Error e, Error e' -> e = e'
  | Ok _, Error _ | Error _, Ok _ -> false

let test_corpus_matches_oracle () =
  let edge_cases =
    [ ""; "\n"; "#"; "dialect aliased"; "dialect safe\r\n\r\n"; "}"; "} else {"; "fn f() {";
      "fn f() {\n}\n}"; "if c {\n} else {\n"; "x.push(0x1F : {b,a,,c})"; "let x = vec![]:{ a , b }";
      "\t let y = x .clone() # c" ]
  in
  List.iter
    (fun text -> Alcotest.(check bool) (Printf.sprintf "%S" text) true (same_result text))
    (edge_cases @ List.map (fun (text, _, _) -> text) (Array.to_list (Lazy.force mir_sources)))

(* Mir-flavoured bytes and keywords the mutations splice in. *)
let mir_tokens =
  [| "{"; "}"; "("; ")"; ","; ":"; "="; "&"; "<"; ">"; "-"; "."; "#"; " "; "\r"; "\t"; "\n"; "0";
     "7"; "-3"; "0x1f"; "let "; "fn "; "if "; "while "; "} else {"; "move "; "copy "; "vec![]";
     "public"; "declassify "; " to "; "output "; "->"; "assert label("; "<="; "channel ";
     " bound "; ".push"; ".append"; ".clone()"; "dialect safe"; "dialect aliased"; "_x'" |]

(* One splice of [text]: a token inserted at a random byte, up to three
   bytes deleted there, or both. *)
let mutate text =
  let open QCheck.Gen in
  let n = String.length text in
  let* pos = int_bound n in
  let* k = int_range 1 3 in
  let k = min k (n - pos) in
  let* tok = oneofa mir_tokens in
  let before = String.sub text 0 pos in
  frequency
    [
      (2, return (before ^ tok ^ String.sub text pos (n - pos)));
      (1, return (before ^ String.sub text (pos + k) (n - pos - k)));
      (2, return (before ^ tok ^ String.sub text (pos + k) (n - pos - k)));
    ]

(* A window of at most 150 lines from the start of a top-level item of
   a committed source keeps every case small and most of it well
   formed. *)
let gen_window =
  let open QCheck.Gen in
  let* text, starts, items = oneofa (Lazy.force mir_sources) in
  let* first = oneofa items in
  let* len = int_range 1 150 in
  let stop = if first + len >= Array.length starts then String.length text else starts.(first + len) in
  return (String.sub text starts.(first) (stop - starts.(first)))

let gen_mutant =
  let open QCheck.Gen in
  let rec edits k text = if k = 0 then return text else mutate text >>= edits (k - 1) in
  let* window = gen_window in
  let* k = int_range 1 3 in
  edits k window

let prop_matches_oracle =
  QCheck.Test.make ~name:"mutated sources parse exactly as the oracle does" ~count:10_000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutant)
    same_result

(* --- the incremental parser against a cold parse and the oracle ------- *)

let show_result = function
  | Ok p -> Format.asprintf "%a" Ast.pp_program p
  | Error e -> Parse.error_to_string e

(* Parses [texts] in order, each through the memo the earlier ones left,
   and checks every result against a cold parse (memo emptied first)
   and the oracle, for an AST and an error alike. The cold parses run
   after the whole sequence, so they never disturb the memo it runs on.
   Returns the sequence's results. *)
let parse_chain texts =
  Parse.forget ();
  let warm = List.rev (List.fold_left (fun acc text -> Parse.program text :: acc) [] texts) in
  List.iter2
    (fun text warm ->
      Parse.forget ();
      let cold = Parse.program text in
      if warm <> cold then
        QCheck.Test.fail_reportf "warm parse differs from cold:\n%s\n--- vs ---\n%s" (show_result warm)
          (show_result cold);
      let oracle = Parse_oracle.program text in
      if warm <> oracle then
        QCheck.Test.fail_reportf "parse differs from the oracle:\n%s\n--- vs ---\n%s" (show_result warm)
          (show_result oracle))
    texts warm;
  warm

(* Every body of [p] that [reuse] selects is physically one of [prev]'s:
   the memo handed it back instead of parsing it again. *)
let check_shared ~what reuse (p : Ast.program) (prev : Ast.program) =
  List.iter
    (fun (f : Ast.func) ->
      if reuse f && not (List.exists (fun (g : Ast.func) -> g.body == f.body) prev.funcs) then
        QCheck.Test.fail_reportf "%s: the body of `%s' was parsed again" what f.fname)
    p.funcs

(* Rendered edit rounds: a small generated program, then rounds of
   [Gen.edit] (value bumps, body growth that moves every later function,
   label retags) rendered to text, sometimes under a few leading
   comment lines that move every function. Each round must parse as a
   cold parse and the oracle do, and every function the round did not
   edit must keep its previous body physically. *)
let gen_rounds =
  let open QCheck.Gen in
  let* funcs = int_range 2 24 and* depth = int_range 1 5 and* body_len = int_range 0 5 in
  let* channels = int_range 1 3 and* seed = int_range 1 10_000 in
  let* rounds = list_size (int_range 1 6) (triple (int_range 1 3) (int_range 1 10_000) (int_range 0 2)) in
  return ({ Gen.funcs; depth; body_len; channels; seed = Int64.of_int seed }, rounds)

let print_rounds ((spec : Gen.spec), rounds) =
  Printf.sprintf "{funcs=%d; depth=%d; body_len=%d; channels=%d; seed=%Ld} rounds=%s" spec.funcs
    spec.depth spec.body_len spec.channels spec.seed
    (String.concat "," (List.map (fun (e, s, pad) -> Printf.sprintf "(%d@%d+%d)" e s pad) rounds))

let prop_edit_rounds =
  QCheck.Test.make ~name:"rendered edit rounds reparse as a cold parse and the oracle do" ~count:150
    (QCheck.make ~print:print_rounds gen_rounds) (fun (spec, rounds) ->
      let render pad p = String.concat "" (List.init pad (fun _ -> "# moved\n")) ^ Parse.to_source p in
      let ast = Gen.generate spec in
      let _, steps =
        List.fold_left_map
          (fun ast (edits, seed, pad) ->
            let ast, edited = Gen.edit ~seed:(Int64.of_int seed) ~edits spec ast in
            (ast, (render pad ast, edited)))
          ast rounds
      in
      let results = parse_chain (render 0 ast :: List.map fst steps) in
      let ok = function Ok p -> p | Error e -> QCheck.Test.fail_report (Parse.error_to_string e) in
      ignore
        (List.fold_left2
           (fun prev (_, edited) p ->
             let p = ok p in
             check_shared ~what:"edit round" (fun f -> not (List.mem f.Ast.fname edited)) p prev;
             p)
           (ok (List.hd results)) steps (List.tl results));
      true)

(* One whole line of [text] changed: deleted, a token line put before
   it, or a token appended to it. Half the time the line is one that
   starts with `}`, where a body's closing line, and so a stored body
   length, ends. *)
let mutate_line text =
  let open QCheck.Gen in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let closers =
    List.filter
      (fun i -> String.starts_with ~prefix:"}" (String.trim lines.(i)))
      (List.init (Array.length lines) Fun.id)
  in
  let any = int_bound (Array.length lines - 1) in
  let* i = if closers = [] then any else oneof [ any; oneofl closers ] in
  let* tok = oneofa mir_tokens in
  let* kind = int_bound 2 in
  let line = lines.(i) in
  lines.(i) <- (match kind with 0 -> "" | 1 -> tok ^ "\n" ^ line | _ -> line ^ tok);
  return
    (String.concat "\n"
       (List.filteri (fun j _ -> j <> i || kind <> 0) (Array.to_list lines)))

(* Chained mutant windows: a window of whole top-level items from a
   committed source, then steps that mutate the previous text (so
   damage accumulates), mutate the last text that parsed, or go back to
   it. Malformed neighbours, stray `}`, `fn ` inside bodies and `#`
   comments all sit next to stored body ranges, and a return to the last good
   text must find every body in the memo, so a failed parse must not
   have replaced it. Which text parsed is the oracle's verdict. *)
let gen_chain =
  let open QCheck.Gen in
  let* text, starts, items = oneofa (Lazy.force mir_sources) in
  let* i = int_bound (Array.length items - 1) in
  let* span = int_range 1 12 in
  let last = Array.length starts - 1 in
  let stop_line = if i + span < Array.length items then items.(i + span) else last in
  let stop_line = min stop_line (items.(i) + 150) in
  let stop = if stop_line >= last then String.length text else starts.(stop_line) in
  let window = String.sub text starts.(items.(i)) (stop - starts.(items.(i))) in
  let parses text = Result.is_ok (Parse_oracle.program text) in
  let rec mutate_some k text =
    if k = 0 then return text
    else frequency [ (1, mutate text); (1, mutate_line text) ] >>= mutate_some (k - 1)
  in
  let rec steps n text good acc =
    if n = 0 then return (List.rev acc)
    else
      let* kind = int_bound 3 and* k = int_range 1 2 in
      let* next =
        match (kind, good) with
        | 0, Some good -> return good
        | 1, Some good -> mutate_some k good
        | _ -> mutate_some k text
      in
      steps (n - 1) next (if parses next then Some next else good) (next :: acc)
  in
  let* n = int_range 2 6 in
  steps n window (if parses window then Some window else None) [ window ]

let prop_mutant_chains =
  QCheck.Test.make ~name:"chained mutant windows reparse as a cold parse and the oracle do" ~count:1000
    (QCheck.make ~print:QCheck.Print.(list string) gen_chain)
    (fun texts ->
      ignore
        (List.fold_left2
           (fun last_ok text r ->
             match (r, last_ok) with
             | Ok p, Some (good, prev) when String.equal good text ->
               check_shared ~what:"back to the last good text" (fun _ -> true) p prev;
               Some (text, p)
             | Ok p, _ -> Some (text, p)
             | Error _, _ -> last_ok)
           None texts (parse_chain texts));
      true)

(* --- deterministic memo cases -------------------------------------------- *)

(* Three functions with different bodies: a plain one, one with a block,
   one with a comment line. *)
let unit_fgh =
  [ ("f", "fn f(a) {\n  a.push(1 : public)\n}\n");
    ("g", "fn g(a, b) {\n  if a {\n    b.append(copy a)\n  }\n}\n");
    ("h", "fn h(c) {\n  let d = vec![] : {s}\n  # note\n  c.append(copy d)\n}\n") ]

let main_src = "let x = vec![] : public\nf(&x)\n"

let func_named (p : Ast.program) name = List.find (fun (f : Ast.func) -> f.fname = name) p.funcs

let two = function [ a; b ] -> (a, b) | _ -> Alcotest.fail "two results expected"

let oks = function
  | Ok p, Ok q -> (p, q)
  | _ -> Alcotest.fail "both texts must parse"

(* The key is the name, not the position: every body of a permuted unit
   is the one parsed before, physically. *)
let test_memo_permuted () =
  let text order = String.concat "" (List.map (fun k -> List.assoc k unit_fgh) order) ^ main_src in
  let p, q = oks (two (parse_chain [ text [ "f"; "g"; "h" ]; text [ "h"; "f"; "g" ] ])) in
  List.iter
    (fun k ->
      if (func_named q k).body != (func_named p k).body then
        Alcotest.failf "the body of `%s' was parsed again" k)
    [ "f"; "g"; "h" ]

(* A body under a new name is parsed again, to what a cold parse gives. *)
let test_memo_renamed () =
  let f = List.assoc "f" unit_fgh in
  let renamed = "fn k" ^ String.sub f 4 (String.length f - 4) in
  let p, q = oks (two (parse_chain [ f ^ main_src; renamed ^ main_src ])) in
  Alcotest.(check bool) "a miss" false ((func_named q "k").body == (func_named p "f").body)

(* Two functions under one name (validation rejects the unit, the parser
   does not): the memo keeps one body per name, and every reparse, with
   either body edited, is what a cold parse gives. *)
let test_memo_duplicate_name () =
  let a = "fn f(a) {\n  a.push(1 : public)\n}\n" and b = "fn f(a) {\n  a.push(22 : {s})\n}\n" in
  let edited = "fn f(a) {\n  a.push(3 : public)\n}\n" in
  ignore (parse_chain [ a ^ b; a ^ b; b ^ a; edited ^ b; a ^ edited; a ^ b ])

(* A unit whose last `}` has no newline: bytes appended to that line
   make it another line, so its body must not hit, whether the result
   still parses (a comment) or not. *)
let test_memo_last_line () =
  let f = "fn f(a) {\n  a.push(1 : public)\n}" in
  List.iter
    (fun tail ->
      let p, q = two (parse_chain [ main_src ^ f; main_src ^ f ^ tail ]) in
      match (p, q) with
      | Ok p, Ok q ->
        Alcotest.(check bool) (Printf.sprintf "%S: a miss" tail) false
          ((func_named q "f").body == (func_named p "f").body)
      | Ok _, Error _ -> ()
      | Error e, _ -> Alcotest.fail (Parse.error_to_string e))
    [ " # done"; "\n"; "x"; " else {\n}"; "\n}" ]

(* Stored lengths that run past the end of the new text: a body cut
   short, and a shorter body in place of a longer one. *)
let test_memo_past_end () =
  let f = "fn f(a) {\n  a.push(1 : public)\n  a.push(2 : public)\n}\n" in
  List.iter
    (fun cut -> ignore (parse_chain [ f; String.sub f 0 cut ]))
    (List.init (String.length f) Fun.id);
  ignore (parse_chain [ f; "fn f(a) {\n}\n" ])

(* An edit that keeps the body's length: the digest tells it apart. *)
let test_memo_same_length () =
  let f v = Printf.sprintf "fn f(a) {\n  a.push(%d : public)\n}\n%s" v main_src in
  let p, q = oks (two (parse_chain [ f 1; f 2 ])) in
  Alcotest.(check bool) "a miss" false ((func_named q "f").body == (func_named p "f").body);
  Alcotest.(check bool) "the new value" true
    (match (func_named q "f").body with
    | [ { op = Ast.Const_write { value = 2; _ }; _ } ] -> true
    | _ -> false)

(* The body hash, case by case. [f]'s body is a comment line of [c]
   bytes then a statement; with the header it starts at a fixed offset,
   so its bytes sit at known places in its 8-byte words. Each variant
   is parsed through the memo of the original and must equal a cold
   parse and the oracle (parse_chain), and, when it parses, must not
   get the stored body back. *)
let hashed_body c =
  "# " ^ String.init c (fun i -> Char.chr (Char.code 'a' + (i mod 26))) ^ "\n  a.push(1 : public)\n}\n"
let hashed_unit body = "fn f(a) {\n" ^ body ^ main_src

let check_miss ~what original variant =
  match two (parse_chain [ hashed_unit original; hashed_unit variant ]) with
  | Ok p, Ok q ->
    if (func_named q "f").body == (func_named p "f").body then Alcotest.failf "%s: a hit" what
  | Ok _, Error _ -> ()
  | Error e, _ -> Alcotest.fail (Parse.error_to_string e)

(* Every bit of every byte of the body, at every offset mod 8 (bit 7 of
   a word's eighth byte is the one a 63-bit lane drops), for bodies of
   16 consecutive lengths: every tail of 0-7 bytes after the last whole
   word, under two word counts. *)
let test_memo_bit_flips () =
  for c = 0 to 15 do
    let body = hashed_body (16 + c) in
    String.iteri
      (fun j ch ->
        for bit = 0 to 7 do
          let flipped = Bytes.of_string body in
          Bytes.set flipped j (Char.chr (Char.code ch lxor (1 lsl bit)));
          check_miss ~what:(Printf.sprintf "length %d, byte %d, bit %d" (String.length body) j bit) body
            (Bytes.to_string flipped)
        done)
      body
  done

(* Two different 8-byte words of the body swapped, aligned to the hash's
   words and not: the same bytes in another order. *)
let test_memo_swapped_words () =
  let body = "# 345678AAAAAAAABBBBBBBBCCCCCCCC\n  a.push(1 : public)\n}\n" in
  let swap a b =
    let s = Bytes.of_string body in
    Bytes.blit_string body a s b 8;
    Bytes.blit_string body b s a 8;
    Bytes.to_string s
  in
  List.iter
    (fun (a, b) -> check_miss ~what:(Printf.sprintf "words at %d and %d swapped" a b) body (swap a b))
    [ (8, 16); (16, 24); (8, 24); (9, 17); (12, 20) ]

(* A deterministic stand-in for parse time: the minor words one cold
   parse of the 500-function corpus allocates, per source line. The AST
   itself accounts for most of them. *)
let test_parse_allocation () =
  let text = read_file (Data.path "corpus-ifc/gen_500x10.mir") in
  let lines = List.length (String.split_on_char '\n' text) - 1 in
  ignore (Parse.program text);
  Parse.forget ();
  let w0 = Gc.minor_words () in
  let r = Parse.program text in
  let words = Gc.minor_words () -. w0 in
  (match r with Ok _ -> () | Error e -> Alcotest.fail (Parse.error_to_string e));
  let per_line = words /. float_of_int lines in
  if per_line > 30. then Alcotest.failf "%.1f minor words per line (at most 30)" per_line

(* The warm path: after the corpus has parsed once, a reparse with one
   body edited parses that body and the headers and main, and reuses
   the other 499 bodies. A cold parse allocates ~13 words per line; this
   one ~0.6. *)
let test_reparse_allocation () =
  let text = read_file (Data.path "corpus-ifc/gen_500x10.mir") in
  let lines = List.length (String.split_on_char '\n' text) - 1 in
  let at pat from =
    let rec go i = if String.sub text i (String.length pat) = pat then i else go (i + 1) in
    go from
  in
  let j = at ".push(" (at "fn f0250(" 0) + String.length ".push(" in
  let edited = String.sub text 0 j ^ "1" ^ String.sub text j (String.length text - j) in
  Parse.forget ();
  ignore (Parse.program text);
  let w0 = Gc.minor_words () in
  let r = Parse.program edited in
  let words = Gc.minor_words () -. w0 in
  (match r with Ok _ -> () | Error e -> Alcotest.fail (Parse.error_to_string e));
  let per_line = words /. float_of_int lines in
  if per_line > 1. then Alcotest.failf "%.2f minor words per line (at most 1)" per_line

(* --- arbitrary bytes: an error or a source that round-trips ----------- *)

(* Some bytes spliced into [text] at a random offset, over up to three
   of its own. *)
let splice_bytes text =
  let open QCheck.Gen in
  let n = String.length text in
  let* pos = int_bound n and* k = int_bound 3 and* bytes = string_size ~gen:char (int_range 1 8) in
  let k = min k (n - pos) in
  return (String.sub text 0 pos ^ bytes ^ String.sub text (pos + k) (n - pos - k))

(* A base window and the input: arbitrary bytes, or the window with
   token, line and byte splices. The base is what the warm run parses
   first. *)
let gen_fuzz =
  let open QCheck.Gen in
  let* base = gen_window in
  let rec splices k text =
    if k = 0 then return text
    else
      frequency [ (2, mutate text); (1, mutate_line text); (1, splice_bytes text) ]
      >>= splices (k - 1)
  in
  let* input =
    frequency
      [
        (1, string_size ~gen:char (int_range 0 400));
        (3, int_range 1 3 >>= fun k -> splices k base);
      ]
  in
  return (base, input)

(* [text] parses to an error or to an AST whose source reparses to an
   AST with the same source; it must not raise. *)
let error_or_round_trip text =
  match Parse.program text with
  | Error _ as r -> r
  | Ok p as r ->
    let src = Parse.to_source p in
    (match Parse.program src with
    | Ok q when String.equal (Parse.to_source q) src -> ()
    | Ok q -> QCheck.Test.fail_reportf "%S\nreparses to another source:\n%S" src (Parse.to_source q)
    | Error e -> QCheck.Test.fail_reportf "%S\ndoes not reparse: %s" src (Parse.error_to_string e));
    r

(* Each input parses with the memo empty, then with the memo warm from
   its base window; both must hold, agree, and end within the deadline. *)
let prop_fuzz =
  QCheck.Test.make ~name:"arbitrary and spliced bytes: an error or a round-trip" ~count:5000
    (QCheck.make
       ~print:(fun (base, input) -> Printf.sprintf "base %S\ninput %S" base input)
       gen_fuzz)
    (fun (base, input) ->
      Deadline.within 10 (fun () ->
          Parse.forget ();
          let cold = error_or_round_trip input in
          Parse.forget ();
          ignore (Parse.program base);
          let warm = error_or_round_trip input in
          if warm <> cold then
            QCheck.Test.fail_reportf "warm parse differs from cold:\n%s\n--- vs ---\n%s"
              (show_result warm) (show_result cold);
          true))

let () =
  let qt = Seed.to_alcotest in
  Alcotest.run "parse"
    [
      ( "parser",
        [
          Alcotest.test_case "buffer program" `Quick test_parse_buffer_program;
          Alcotest.test_case "real source lines" `Quick test_parse_line_numbers_are_source_lines;
          Alcotest.test_case "functions and blocks" `Quick test_parse_functions_and_blocks;
          Alcotest.test_case "aliased dialect" `Quick test_parse_aliased_dialect;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "label values" `Quick test_parse_label_values;
          Alcotest.test_case "examples round-trip" `Quick test_roundtrip_examples;
          Alcotest.test_case "sample .mir programs" `Quick test_sample_programs;
          qt prop_roundtrip_random;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "committed sources and edge cases" `Quick test_corpus_matches_oracle;
          qt ~rand:(Random.State.make [| 7919 |]) prop_matches_oracle;
          Alcotest.test_case "allocation per line" `Quick test_parse_allocation;
        ] );
      ( "memo",
        [
          qt prop_edit_rounds;
          qt prop_mutant_chains;
          Alcotest.test_case "functions permuted" `Quick test_memo_permuted;
          Alcotest.test_case "a body renamed" `Quick test_memo_renamed;
          Alcotest.test_case "two functions with one name" `Quick test_memo_duplicate_name;
          Alcotest.test_case "last line without a newline, then extended" `Quick test_memo_last_line;
          Alcotest.test_case "stored length past the end" `Quick test_memo_past_end;
          Alcotest.test_case "same length, other bytes" `Quick test_memo_same_length;
          Alcotest.test_case "every bit of a body flipped" `Quick test_memo_bit_flips;
          Alcotest.test_case "two words of a body swapped" `Quick test_memo_swapped_words;
          Alcotest.test_case "allocation per line, one body edited" `Quick test_reparse_allocation;
        ] );
      ("fuzz", [ qt prop_fuzz ]);
    ]
