let terminal = { Ast.cname = "terminal"; bound = Label.public }
let trusted = { Ast.cname = "trusted"; bound = Label.secret }

let s = Ast.stmt

(* Shared prologue: the paper's lines 9-13.
   [buf_label] is the declaration the security-type variant needs. *)
let prologue ~buf_label =
  [
    s 9 (Ast.Alloc { var = "buf"; label = buf_label });
    s 11 (Ast.Alloc { var = "nonsec"; label = Label.public });
    s 11 (Ast.Const_write { dst = "nonsec"; value = 1; label = Label.public });
    s 11 (Ast.Const_write { dst = "nonsec"; value = 2; label = Label.public });
    s 11 (Ast.Const_write { dst = "nonsec"; value = 3; label = Label.public });
    s 13 (Ast.Alloc { var = "sec"; label = Label.secret });
    s 13 (Ast.Const_write { dst = "sec"; value = 4; label = Label.secret });
    s 13 (Ast.Const_write { dst = "sec"; value = 5; label = Label.secret });
    s 13 (Ast.Const_write { dst = "sec"; value = 6; label = Label.secret });
  ]

(* Line 14, buf.append(nonsec) on the empty buffer: the buffer adopts
   the argument's vector (paper line 6) — an ownership transfer in the
   safe dialect, an alias in the conventional one. Line 15,
   buf.append(sec): the content is appended and the argument consumed. *)
let append_lines ~binder =
  [
    s 14 (binder ~dst:"buf" ~src:"nonsec");
    s 15 (Ast.Append { dst = "buf"; src = "sec" });
    s 15 (Ast.Move { dst = "_sec_consumed"; src = "sec" });
  ]

let move ~dst ~src = Ast.Move { dst; src }
let alias ~dst ~src = Ast.Alias { dst; src }

let buffer_leak_safe =
  Ast.program ~channels:[ terminal ]
    (prologue ~buf_label:Label.public
    @ append_lines ~binder:move
    @ [ s 16 (Ast.Output { channel = "terminal"; src = "buf" }) ])

let buffer_exploit_safe =
  Ast.program ~channels:[ terminal ]
    (prologue ~buf_label:Label.public
    @ append_lines ~binder:move
    @ [
        s 16 (Ast.Output { channel = "terminal"; src = "buf" });
        s 17 (Ast.Output { channel = "terminal"; src = "nonsec" });
      ])

let buffer_exploit_aliased =
  Ast.program ~dialect:Aliased ~channels:[ terminal ]
    (prologue ~buf_label:Label.public
    @ append_lines ~binder:alias
    @ [ s 17 (Ast.Output { channel = "terminal"; src = "nonsec" }) ])

let buffer_benign_safe =
  Ast.program ~channels:[ terminal; trusted ]
    (prologue ~buf_label:Label.public
    @ append_lines ~binder:move
    @ [ s 16 (Ast.Output { channel = "trusted"; src = "buf" }) ])

let buffer_benign_sectype =
  Ast.program ~channels:[ terminal; trusted ]
    (prologue ~buf_label:Label.secret
    @ append_lines ~binder:move
    @ [ s 16 (Ast.Output { channel = "trusted"; src = "buf" }) ])

(* ------------------------------------------------------------------ *)
(* The secure multi-client data store                                  *)
(* ------------------------------------------------------------------ *)

let client_category i = Printf.sprintf "c%d" i
let client_channel j = Printf.sprintf "chan%d" j

(* Client j may see the categories of clients k >= j (lower index =
   more privileged). *)
let channel_bound ~clients j =
  Label.of_list (List.init (clients - j) (fun k -> client_category (j + k)))

let serve_name j = Printf.sprintf "serve%d" j

(* serve_j(auth, buf): output buf on client j's channel iff authorised,
   then do the bookkeeping a real request handler would (audit record,
   double-buffering) — enough body that inlining it at every call site
   costs noticeably more than applying its summary (E7). Lines are
   10j+1 .. 10j+9 so findings are attributable per function; the
   output sits at 10j+2 (= [bug_line] for the last client). *)
let serve_func j =
  let l k = (10 * j) + k in
  {
    Ast.fname = serve_name j;
    params = [ "auth"; "buf" ];
    line = 0;
    body =
      [
        s (l 1)
          (Ast.If
             {
               cond = "auth";
               then_ = [ s (l 2) (Ast.Output { channel = client_channel j; src = "buf" }) ];
               else_ = [];
             });
        s (l 3) (Ast.Alloc { var = "audit"; label = Label.public });
        s (l 4) (Ast.Const_write { dst = "audit"; value = j; label = Label.public });
        s (l 5) (Ast.Append { dst = "audit"; src = "buf" });
        s (l 6) (Ast.Copy { dst = "audit2"; src = "audit" });
        s (l 7) (Ast.Append { dst = "audit2"; src = "audit" });
        s (l 8)
          (Ast.If
             {
               cond = "auth";
               then_ = [ s (l 9) (Ast.Const_write { dst = "audit2"; value = 0; label = Label.public }) ];
               else_ = [];
             });
      ];
  }

let bug_line ~clients = (10 * (clients - 1)) + 2

let secure_store ?(bug = false) ?(requests_per_client = 2) ~clients () =
  if clients < 2 then invalid_arg "secure_store: need at least 2 clients";
  let line = ref 1000 in
  let next () =
    incr line;
    !line
  in
  let stmts = ref [] in
  let emit op = stmts := s (next ()) op :: !stmts in
  (* A public "authorised" token (first element 1 = true). *)
  emit (Ast.Alloc { var = "auth"; label = Label.public });
  emit (Ast.Const_write { dst = "auth"; value = 1; label = Label.public });
  (* Per-client stores, each tainted with its owner's category. *)
  for i = 0 to clients - 1 do
    let store = Printf.sprintf "store%d" i in
    let cat = Label.singleton (client_category i) in
    emit (Ast.Alloc { var = store; label = cat });
    emit (Ast.Const_write { dst = store; value = 100 + i; label = cat });
    (* The paper: "security-label bounds were specified ... through the
       use of assertions". *)
    emit (Ast.Assert_leq { var = store; label = cat })
  done;
  (* Legal request mix: client j reads data of some k >= j. *)
  for q = 0 to requests_per_client - 1 do
    for j = 0 to clients - 1 do
      let k = j + ((q + j) mod (clients - j)) in
      emit
        (Ast.Call
           {
             func = serve_name j;
             args = [ ("auth", Ast.By_borrow); (Printf.sprintf "store%d" k, Ast.By_borrow) ];
           })
    done
  done;
  (* The seeded fault: an inverted privilege check lets the least
     privileged client read the most privileged store. *)
  if bug then
    emit
      (Ast.Call
         {
           func = serve_name (clients - 1);
           args = [ ("auth", Ast.By_borrow); ("store0", Ast.By_borrow) ];
         });
  let channels =
    List.init clients (fun j -> { Ast.cname = client_channel j; bound = channel_bound ~clients j })
  in
  Ast.program ~channels ~funcs:(List.init clients serve_func) (List.rev !stmts)
