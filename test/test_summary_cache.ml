(* The incremental summary cache test harness.

   Three concerns, in order:

   - lifecycle: cold runs miss every function, replays hit every
     function, [clear] forgets everything, deleted functions are
     pruned, invalid programs leave the cache untouched, and the
     telemetry counters agree with the per-call stats;
   - equivalence: over random generated programs and random edit
     scripts, a warm [Verifier.reverify] must produce byte-identical
     verdict/ownership/findings to a from-scratch Compositional
     verify of the same program version, while recomputing no more
     summaries than the dirty cone (edited functions + transitive
     callers) allows — also when a step renders and reparses the
     program, so that every function below a grown body moves;
   - relocation: a function that only moved in the file stays a hit,
     and the findings and ownership violations it carries are
     reported at the lines a cold run reports;
   - the negative control: severing the callee-summary term from the
     fingerprint ([sever_callee_fps:true]) must make a caller go
     stale when only its callee's behaviour changed — demonstrating
     the term is load-bearing, not decorative. *)

let qt = Seed.to_alcotest

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error: %s" what e

(* The transfer count legitimately differs between a cached and a cold
   run and is normalized away; strategy, verdict, ownership errors and
   findings must match byte-for-byte. *)
let report_body (r : Ifc.Verifier.report) =
  Format.asprintf "%a" Ifc.Verifier.pp_report { r with Ifc.Verifier.transfers = 0 }

let cold_report p =
  match Ifc.Verifier.verify ~strategy:Ifc.Verifier.Compositional p with
  | Ok r -> Ok r
  | Error e -> Error e

(* Render and parse: every statement gets the line it has in the text. *)
let reparse p =
  match Ifc.Parse.program (Ifc.Parse.to_source p) with
  | Ok p -> p
  | Error e -> failwith ("reparse: " ^ Ifc.Parse.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let small_spec = { Ifc.Gen.default with Ifc.Gen.funcs = 60; depth = 6; body_len = 4 }

let test_cold_then_hit () =
  let p = Ifc.Gen.generate small_spec in
  Alcotest.(check bool) "generated program validates" true (Ifc.Ast.validate p = Ok ());
  let reg = Telemetry.Registry.create () in
  let cache = Ifc.Summary_cache.create ~telemetry:reg () in
  let _, _, cold = ok "cold" (Ifc.Summary_cache.reverify cache p) in
  Alcotest.(check int) "cold misses every function" 60 cold.Ifc.Summary_cache.misses;
  Alcotest.(check int) "cold hits nothing" 0 cold.Ifc.Summary_cache.hits;
  Alcotest.(check int) "cold recomputes every function" 60 cold.Ifc.Summary_cache.recomputed;
  Alcotest.(check int) "cache holds one entry per function" 60 (Ifc.Summary_cache.size cache);
  let _, _, hit = ok "hit" (Ifc.Summary_cache.reverify cache p) in
  Alcotest.(check int) "replay hits every function" 60 hit.Ifc.Summary_cache.hits;
  Alcotest.(check int) "replay misses nothing" 0 hit.Ifc.Summary_cache.misses;
  Alcotest.(check int) "replay recomputes nothing" 0 hit.Ifc.Summary_cache.recomputed;
  let value name = Telemetry.Counter.value (Telemetry.Registry.counter reg name) in
  Alcotest.(check int) "ifc.summary.hits" 60 (value "ifc.summary.hits");
  Alcotest.(check int) "ifc.summary.misses" 60 (value "ifc.summary.misses");
  Alcotest.(check int) "ifc.summary.recomputed" 60 (value "ifc.summary.recomputed")

let test_clear () =
  let p = Ifc.Gen.generate small_spec in
  let cache = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  ignore (ok "cold" (Ifc.Summary_cache.reverify cache p));
  Ifc.Summary_cache.clear cache;
  Alcotest.(check int) "clear empties the cache" 0 (Ifc.Summary_cache.size cache);
  let _, _, again = ok "after clear" (Ifc.Summary_cache.reverify cache p) in
  Alcotest.(check int) "post-clear run is cold again" 60 again.Ifc.Summary_cache.misses

(* A two-deep chain whose deepest function's label is a parameter of
   the builder: main -> f -> g, g allocs [d] and outputs it on [ch]
   (bound {c}). With [g_label] public the program verifies; with a
   foreign category it must be rejected at g's output. *)
let chain_program ~g_label =
  let stmt = Ifc.Ast.stmt in
  let g =
    {
      Ifc.Ast.fname = "g";
      params = [];
      line = 0;
      body =
        [
          stmt 10 (Ifc.Ast.Alloc { var = "d"; label = g_label });
          stmt 11 (Ifc.Ast.Output { channel = "ch"; src = "d" });
        ];
    }
  in
  let f =
    { Ifc.Ast.fname = "f"; params = []; line = 0; body = [ stmt 20 (Ifc.Ast.Call { func = "g"; args = [] }) ] }
  in
  Ifc.Ast.program ~dialect:Ifc.Ast.Safe
    ~channels:[ { Ifc.Ast.cname = "ch"; bound = Ifc.Label.singleton "c" } ]
    ~funcs:[ g; f ]
    [ stmt 30 (Ifc.Ast.Call { func = "f"; args = [] }) ]

let test_deleted_function_pruned () =
  let p = chain_program ~g_label:Ifc.Label.public in
  let cache = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  ignore (ok "cold" (Ifc.Summary_cache.reverify cache p));
  Alcotest.(check int) "both functions cached" 2 (Ifc.Summary_cache.size cache);
  (* Drop f and call g directly: a declaration change, so the commit
     sweeps entries for functions no longer declared. *)
  let stmt = Ifc.Ast.stmt in
  let shrunk =
    {
      p with
      Ifc.Ast.funcs = List.filter (fun (fn : Ifc.Ast.func) -> fn.Ifc.Ast.fname = "g") p.Ifc.Ast.funcs;
      main = [ stmt 30 (Ifc.Ast.Call { func = "g"; args = [] }) ];
    }
  in
  ignore (ok "shrunk" (Ifc.Summary_cache.reverify cache shrunk));
  Alcotest.(check int) "deleted function pruned" 1 (Ifc.Summary_cache.size cache)

let test_invalid_program_leaves_cache_untouched () =
  let p = chain_program ~g_label:Ifc.Label.public in
  let cache = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  ignore (ok "cold" (Ifc.Summary_cache.reverify cache p));
  let stmt = Ifc.Ast.stmt in
  let bad = { p with Ifc.Ast.main = p.Ifc.Ast.main @ [ stmt 40 (Ifc.Ast.Call { func = "h"; args = [] }) ] } in
  let cache_err =
    match Ifc.Summary_cache.reverify cache bad with
    | Error e -> e
    | Ok _ -> Alcotest.fail "invalid program must be rejected"
  in
  let verify_err =
    match Ifc.Verifier.verify bad with
    | Error e -> e
    | Ok _ -> Alcotest.fail "Verifier.verify must also reject it"
  in
  Alcotest.(check string) "same error message as Verifier.verify" verify_err cache_err;
  let _, _, stats = ok "replay" (Ifc.Summary_cache.reverify cache p) in
  Alcotest.(check int) "rejected version did not poison the cache" 2 stats.Ifc.Summary_cache.hits;
  Alcotest.(check int) "nothing recomputed" 0 stats.Ifc.Summary_cache.recomputed

let test_aliased_rejected () =
  let p = Ifc.Ast.program ~dialect:Ifc.Ast.Aliased ~channels:[] ~funcs:[] [] in
  let cache = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  match Ifc.Summary_cache.reverify cache p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "aliased dialect must be rejected"

(* ------------------------------------------------------------------ *)
(* Negative control: the callee-summary fingerprint term              *)
(* ------------------------------------------------------------------ *)

let test_severed_callee_fp_goes_stale () =
  let p0 = chain_program ~g_label:Ifc.Label.public in
  let p1 = chain_program ~g_label:(Ifc.Label.singleton "x") in
  let cold1 = ok "cold p1" (cold_report p1) in
  Alcotest.(check bool) "the edit is flow-visible (cold rejects)" true
    (cold1.Ifc.Verifier.verdict = Ifc.Verifier.Rejected);
  (* Full fingerprint: f is invalidated through g's summary and the
     warm report tracks the cold one. *)
  let cache = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  ignore (ok "warmup" (Ifc.Summary_cache.reverify cache p0));
  let r1, _, _ = ok "warm p1" (Ifc.Summary_cache.reverify cache p1) in
  Alcotest.(check int) "unsevered warm run sees the leak" 1 (List.length r1.Ifc.Abstract.findings);
  (* Severed fingerprint: g recomputes but f's stale summary — with
     g's old public output baked in — survives, and the leak is
     silently missed. That divergence is exactly what the callee
     term prevents. *)
  let severed = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  ignore (ok "severed warmup" (Ifc.Summary_cache.reverify ~sever_callee_fps:true severed p0));
  let r1', _, _ = ok "severed p1" (Ifc.Summary_cache.reverify ~sever_callee_fps:true severed p1) in
  Alcotest.(check int) "severed warm run misses the leak" 0 (List.length r1'.Ifc.Abstract.findings)

(* ------------------------------------------------------------------ *)
(* Relocation: moved functions stay hits, reports follow the text     *)
(* ------------------------------------------------------------------ *)

(* f2 calls f1, which outputs a public value; f3 fails an assertion;
   f4 uses a moved value. Lines come from the rendered text. *)
let shift_program () =
  let stmt = Ifc.Ast.stmt 0 in
  let fn fname body = { Ifc.Ast.fname; params = []; line = 0; body } in
  let call func = stmt (Ifc.Ast.Call { func; args = [] }) in
  let public = Ifc.Label.public in
  reparse
    (Ifc.Ast.program ~dialect:Ifc.Ast.Safe
       ~channels:[ { Ifc.Ast.cname = "ch"; bound = public } ]
       ~funcs:
         [
           fn "f1"
             [ stmt (Ifc.Ast.Alloc { var = "a"; label = public });
               stmt (Ifc.Ast.Output { channel = "ch"; src = "a" }) ];
           fn "f2" [ call "f1" ];
           fn "f3"
             [ stmt (Ifc.Ast.Alloc { var = "s"; label = Ifc.Label.secret });
               stmt (Ifc.Ast.Assert_leq { var = "s"; label = public }) ];
           fn "f4"
             [ stmt (Ifc.Ast.Alloc { var = "v"; label = public });
               stmt (Ifc.Ast.Move { dst = "w"; src = "v" });
               stmt (Ifc.Ast.Copy { dst = "x"; src = "v" }) ];
         ]
       [ call "f2"; call "f3"; call "f4" ])

let test_shifted_functions_stay_hits () =
  let p0 = shift_program () in
  let cache = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  ignore (ok "cold" (Ifc.Verifier.reverify cache p0));
  let r0, _ = ok "warm" (Ifc.Verifier.reverify cache (reparse p0)) in
  (* Prepend one statement to f1: f3 and f4 move down one line. *)
  let grow (f : Ifc.Ast.func) =
    if f.fname <> "f1" then f
    else
      { f with
        body = Ifc.Ast.stmt 0 (Ifc.Ast.Alloc { var = "z"; label = Ifc.Label.public }) :: f.body }
  in
  let p1 = reparse { p0 with Ifc.Ast.funcs = List.map grow p0.Ifc.Ast.funcs } in
  let r1, stats = ok "shifted" (Ifc.Verifier.reverify cache p1) in
  let cone = Ifc.Gen.transitive_callers p1 [ "f1" ] in
  Alcotest.(check (list string)) "f1's caller cone" [ "f1"; "f2" ] cone;
  Alcotest.(check int) "every function outside the cone is a hit" (4 - List.length cone)
    stats.Ifc.Summary_cache.hits;
  Alcotest.(check int) "only the cone is recomputed" (List.length cone)
    stats.Ifc.Summary_cache.recomputed;
  let cold = ok "cold p1" (cold_report p1) in
  let finding_lines (r : Ifc.Verifier.report) =
    List.map (fun (f : Ifc.Abstract.finding) -> f.Ifc.Abstract.line) r.Ifc.Verifier.findings
  in
  let moved (r : Ifc.Verifier.report) =
    List.map
      (fun (v : Ifc.Ownership.violation) ->
        match v.kind with
        | Ifc.Ownership.Use_after_move { moved_at } -> (v.line, moved_at)
        | Unbound | Move_of_moved _ -> Alcotest.fail "expected a use after move")
      r.Ifc.Verifier.ownership_errors
  in
  Alcotest.(check int) "one failing assertion" 1 (List.length cold.Ifc.Verifier.findings);
  Alcotest.(check (list int)) "finding moved down one line"
    (List.map succ (finding_lines r0)) (finding_lines r1);
  Alcotest.(check (list int)) "finding line = cold" (finding_lines cold) (finding_lines r1);
  (* The inlining analysis never sees a summary site: an independent
     witness that the rebased line is the assertion's line. *)
  let exact = ok "exact p1" (Ifc.Verifier.verify ~strategy:Ifc.Verifier.Exact p1) in
  Alcotest.(check (list int)) "finding line = exact" (finding_lines exact) (finding_lines r1);
  Alcotest.(check int) "one ownership violation" 1 (List.length cold.Ifc.Verifier.ownership_errors);
  Alcotest.(check (list (pair int int))) "violation line and moved_at = cold" (moved cold) (moved r1);
  Alcotest.(check (list (pair int int))) "violation moved down one line"
    (List.map (fun (l, m) -> (l + 1, m + 1)) (moved r0)) (moved r1);
  Alcotest.(check string) "whole report = cold" (report_body cold) (report_body r1)

(* After a reparse, only bodies whose text changed are rehashed: the
   parser hands back every other body physically, and that is the
   cache's witness. Without the parser's memo every body would be. *)
let test_reparse_rehashes_changed_bodies () =
  let p0 = Ifc.Gen.generate small_spec in
  let cache = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  ignore (ok "cold" (Ifc.Verifier.reverify cache (reparse p0)));
  (* Edit two bodies, then prepend a statement to the first function, so
     every function below it moves down a line. *)
  let p1, _ = Ifc.Gen.edit ~seed:7L ~edits:2 small_spec p0 in
  let grow (f : Ifc.Ast.func) =
    if f.fname <> Ifc.Gen.func_name 0 then f
    else
      { f with body = Ifc.Ast.stmt 0 (Ifc.Ast.Alloc { var = "z"; label = Ifc.Label.public }) :: f.body }
  in
  let p1 = { p1 with Ifc.Ast.funcs = List.map grow p1.Ifc.Ast.funcs } in
  let text_of (f : Ifc.Ast.func) = Ifc.Parse.to_source (Ifc.Ast.program ~funcs:[ f ] []) in
  let changed =
    List.fold_left2
      (fun n f g -> if text_of f = text_of g then n else n + 1)
      0 p0.Ifc.Ast.funcs p1.Ifc.Ast.funcs
  in
  Alcotest.(check int) "three bodies changed" 3 changed;
  let warm, stats = ok "edited" (Ifc.Verifier.reverify cache (reparse p1)) in
  Alcotest.(check int) "rehashed = bodies whose text changed" changed stats.Ifc.Summary_cache.rehashed;
  let cold = ok "cold p1" (cold_report p1) in
  Alcotest.(check string) "report = cold" (report_body cold) (report_body warm)

(* ------------------------------------------------------------------ *)
(* Equivalence over random programs x random edit scripts             *)
(* ------------------------------------------------------------------ *)

let spec_gen =
  QCheck.Gen.(
    map
      (fun (funcs, depth, body_len, channels, seed) ->
        { Ifc.Gen.funcs; depth; body_len; channels; seed = Int64.of_int seed })
      (tup5 (int_range 8 48) (int_range 2 6) (int_range 0 6) (int_range 1 4) (int_range 1 10_000)))

let spec_print (s : Ifc.Gen.spec) =
  Printf.sprintf "{funcs=%d; depth=%d; body_len=%d; channels=%d; seed=%Ld}" s.Ifc.Gen.funcs
    s.Ifc.Gen.depth s.Ifc.Gen.body_len s.Ifc.Gen.channels s.Ifc.Gen.seed

(* Edits of [main] and of the channel bounds, which no summary sees: a
   call added (to any function, with one group's two variables), a call
   dropped, a variable's label changed (and with it the arguments of
   the calls that borrow it), a call wrapped in [if] on its first
   argument, or a channel's bound changed. The program stays valid. *)
type main_edit = Add_call | Drop_call | Relabel | Wrap_if | Rebound

let main_edit_name = function
  | Add_call -> "add-call"
  | Drop_call -> "drop-call"
  | Relabel -> "relabel"
  | Wrap_if -> "wrap-if"
  | Rebound -> "rebound"

let edit_main (spec : Ifc.Gen.spec) (p : Ifc.Ast.program) (kind, seed) =
  let rng = Random.State.make [| seed |] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let label () =
    let cat () = Printf.sprintf "c%d" (Random.State.int rng spec.Ifc.Gen.channels) in
    match Random.State.int rng 3 with
    | 0 -> Ifc.Label.public
    | 1 -> Ifc.Label.singleton (cat ())
    | _ -> Ifc.Label.of_list [ cat (); cat () ]
  in
  let at kind_of = List.filter_map Fun.id (List.mapi kind_of p.main) in
  let calls =
    at (fun i (st : Ifc.Ast.stmt) ->
        match st.op with Ifc.Ast.Call { args; _ } -> Some (i, args) | _ -> None)
  in
  let allocs = at (fun i (st : Ifc.Ast.stmt) -> match st.op with Ifc.Ast.Alloc _ -> Some i | _ -> None) in
  let replace i f =
    { p with Ifc.Ast.main = List.concat (List.mapi (fun j st -> if j = i then f st else [ st ]) p.main) }
  in
  match kind with
  | Add_call ->
    let g = Random.State.int rng ((spec.funcs + spec.depth - 1) / spec.depth) in
    let line = 1 + List.fold_left (fun m (st : Ifc.Ast.stmt) -> max m st.line) 0 p.main in
    let v x = (Printf.sprintf "%s%d" x g, Ifc.Ast.By_borrow) in
    let func = Ifc.Gen.func_name (Random.State.int rng spec.funcs) in
    { p with main = p.main @ [ Ifc.Ast.stmt line (Ifc.Ast.Call { func; args = [ v "s"; v "p" ] }) ] }
  | Drop_call when calls <> [] -> replace (fst (pick calls)) (fun _ -> [])
  | Wrap_if when calls <> [] ->
    let i, args = pick calls in
    replace i (fun st ->
        [ Ifc.Ast.stmt st.line (Ifc.Ast.If { cond = fst (List.hd args); then_ = [ st ]; else_ = [] }) ])
  | Relabel when allocs <> [] ->
    replace (pick allocs) (fun st ->
        match st.op with
        | Ifc.Ast.Alloc { var; _ } -> [ { st with op = Ifc.Ast.Alloc { var; label = label () } } ]
        | _ -> [ st ])
  | Rebound ->
    let k = Random.State.int rng (List.length p.channels) in
    let rebound j (c : Ifc.Ast.channel) = if j = k then { c with bound = label () } else c in
    { p with channels = List.mapi rebound p.channels }
  | Drop_call | Wrap_if | Relabel -> p

(* A step is (edits, seed, reparse, main edit): the main edit, if any,
   follows the function edits; with [reparse] the edited program is
   rendered and parsed before it is verified, so a grown body moves
   every function below it. *)
let script_gen =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (quad (int_range 1 4) (int_range 1 10_000) bool
         (opt (pair (oneofl [ Add_call; Drop_call; Relabel; Wrap_if; Rebound ]) (int_range 1 10_000)))))

let arb =
  QCheck.make
    ~print:(fun (spec, from_text, script) ->
      Printf.sprintf "%s from_text=%b script=%s" (spec_print spec) from_text
        (String.concat ","
           (List.map
              (fun (edits, seed, re, m) ->
                Printf.sprintf "(%d@%d%s%s)" edits seed
                  (match m with Some (k, s) -> Printf.sprintf "+%s@%d" (main_edit_name k) s | None -> "")
                  (if re then "+reparse" else ""))
              script)))
    QCheck.Gen.(triple spec_gen bool script_gen)

let finding_strings (r : Ifc.Abstract.report) = List.map Ifc.Abstract.finding_to_string r.findings

(* The main pass through a memo that has seen every earlier version
   against one through an empty memo: the same findings and transfers,
   and the findings of [cold]. [stable] keeps, per function, a summary
   that later versions reuse physically while it is unchanged, as the
   cache's entries are, so the memo's calls can hit. *)
let check_main_pass ~memo ~stable p (cold : Ifc.Verifier.report) =
  let summaries = Hashtbl.create 64 in
  (match Ifc.Summary.summarize p with
  | Ok sums ->
    List.iter
      (fun (sm : Ifc.Summary.t) ->
        let sm = match Hashtbl.find_opt stable sm.fname with Some old when old = sm -> old | _ -> sm in
        Hashtbl.replace stable sm.fname sm;
        Hashtbl.replace summaries sm.fname sm)
      sums
  | Error e -> QCheck.Test.fail_reportf "summarize failed: %s" e);
  let find_func = Ifc.Ast.find_func p in
  let warm = Ifc.Summary.check_main ~memo ~program:p ~find_func ~summaries in
  let fresh =
    Ifc.Summary.check_main ~memo:(Ifc.Summary.main_memo ()) ~program:p ~find_func ~summaries
  in
  if warm.transfers <> fresh.transfers then
    QCheck.Test.fail_reportf "main pass: %d transfers through the memo, %d without" warm.transfers
      fresh.transfers;
  if finding_strings warm <> finding_strings fresh then
    QCheck.Test.fail_report "main pass: memo findings differ";
  if finding_strings warm <> List.map Ifc.Abstract.finding_to_string cold.findings then
    QCheck.Test.fail_report "main pass: findings differ from the cold run"

let test_warm_equals_cold =
  QCheck.Test.make ~name:"warm reverify = cold compositional, recompute bounded by dirty cone"
    ~count:60 arb (fun (spec, from_text, script) ->
      let program = Ifc.Gen.generate spec in
      let program = if from_text then reparse program else program in
      let cache = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
      let cold0, _ = ok "cold reverify" (Ifc.Verifier.reverify cache program) in
      (match cold_report program with
      | Ok r ->
        if not (String.equal (report_body cold0) (report_body r)) then
          QCheck.Test.fail_reportf "cold cache run diverged from compositional";
        if cold0.transfers <> r.transfers then
          QCheck.Test.fail_reportf "cold cache run: %d transfers, compositional %d" cold0.transfers r.transfers
      | Error e -> QCheck.Test.fail_reportf "cold compositional failed: %s" e);
      let memo = Ifc.Summary.main_memo () and stable = Hashtbl.create 64 in
      let p = ref program in
      (* Functions whose lines the cache has seen only as the generator
         or an AST edit set them; a reparse renumbers them, which to
         the cache is an edit. *)
      let unsettled =
        ref (if from_text then [] else List.map (fun (f : Ifc.Ast.func) -> f.fname) program.funcs)
      in
      List.iter
        (fun (edits, seed, re, main_edit) ->
          let edited_p, edited = Ifc.Gen.edit ~seed:(Int64.of_int seed) ~edits spec !p in
          let edited_p = Option.fold ~none:edited_p ~some:(edit_main spec edited_p) main_edit in
          unsettled := edited @ !unsettled;
          let edited_p, edited =
            if re then begin
              let seeds = !unsettled in
              unsettled := [];
              (reparse edited_p, seeds)
            end
            else (edited_p, edited)
          in
          p := edited_p;
          let warm, stats = ok "warm reverify" (Ifc.Verifier.reverify cache edited_p) in
          let cone = Ifc.Gen.transitive_callers edited_p edited in
          if stats.Ifc.Summary_cache.recomputed > List.length cone then
            QCheck.Test.fail_reportf "recomputed %d > dirty cone %d"
              stats.Ifc.Summary_cache.recomputed (List.length cone);
          if stats.Ifc.Summary_cache.hits + stats.Ifc.Summary_cache.recomputed <> spec.Ifc.Gen.funcs
          then
            QCheck.Test.fail_reportf "hits %d + recomputed %d <> %d functions"
              stats.Ifc.Summary_cache.hits stats.Ifc.Summary_cache.recomputed spec.Ifc.Gen.funcs;
          match cold_report edited_p with
          | Ok cold ->
            if not (String.equal (report_body warm) (report_body cold)) then
              QCheck.Test.fail_reportf "warm report diverged from cold:\n%s\n--- vs ---\n%s"
                (report_body warm) (report_body cold);
            check_main_pass ~memo ~stable edited_p cold
          | Error e -> QCheck.Test.fail_reportf "cold compositional failed: %s" e)
        script;
      true)

(* The cache gathers cached ownership violations only while some entry
   holds one, so its count of such entries must follow every commit:
   a violation edited in, kept across a reparse, edited out, edited in
   again, deleted with its function, and brought back with it. Each
   version's report must equal a cold run's. *)
let test_violations_come_and_go () =
  let cache = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  let stmt = Ifc.Ast.stmt 0 in
  let call func = stmt (Ifc.Ast.Call { func; args = [] }) in
  let public = Ifc.Label.public in
  (* f4 reads [v] after moving it when [bad], [w] otherwise. *)
  let f4 bad =
    { Ifc.Ast.fname = "f4"; params = []; line = 0;
      body =
        [ stmt (Ifc.Ast.Alloc { var = "v"; label = public });
          stmt (Ifc.Ast.Move { dst = "w"; src = "v" });
          stmt (Ifc.Ast.Copy { dst = "x"; src = (if bad then "v" else "w") }) ] }
  in
  let f1 =
    { Ifc.Ast.fname = "f1"; params = []; line = 0;
      body = [ stmt (Ifc.Ast.Alloc { var = "a"; label = public }) ] }
  in
  let version = function
    | Some bad ->
      reparse (Ifc.Ast.program ~dialect:Ifc.Ast.Safe ~channels:[] ~funcs:[ f1; f4 bad ] [ call "f1"; call "f4" ])
    | None -> reparse (Ifc.Ast.program ~dialect:Ifc.Ast.Safe ~channels:[] ~funcs:[ f1 ] [ call "f1" ])
  in
  List.iteri
    (fun i v ->
      let p = version v in
      let warm, _ = ok "warm" (Ifc.Verifier.reverify cache p) in
      let cold = ok "cold" (cold_report p) in
      Alcotest.(check string) (Printf.sprintf "version %d = cold" i) (report_body cold) (report_body warm);
      Alcotest.(check int)
        (Printf.sprintf "version %d violations" i)
        (if v = Some true then 1 else 0)
        (List.length warm.Ifc.Verifier.ownership_errors))
    [ Some false; Some true; Some true; Some false; Some true; None; Some true ]

(* ------------------------------------------------------------------ *)
(* The main pass's memo                                                *)
(* ------------------------------------------------------------------ *)

let parse_ok text =
  match Ifc.Parse.program text with
  | Ok p -> p
  | Error e -> Alcotest.fail (Ifc.Parse.error_to_string e)

(* Reverifies each version through one cache and checks it against a
   cold run and its expected number of findings. *)
let versions_agree cache versions =
  List.iteri
    (fun i (p, findings) ->
      let warm, _ = ok "warm" (Ifc.Verifier.reverify cache p) in
      let cold = ok "cold" (cold_report p) in
      Alcotest.(check string) (Printf.sprintf "version %d = cold" i) (report_body cold) (report_body warm);
      Alcotest.(check int) (Printf.sprintf "version %d findings" i) findings (List.length warm.findings))
    versions

(* No summary sees a channel bound, so a bound edit leaves every
   summary a hit, physically: only the memo's check of the bounds makes
   the main pass ground again. *)
let test_bound_edit_flips_finding () =
  let cache = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  let c = Ifc.Label.singleton "c" in
  let with_bound bound =
    let p = chain_program ~g_label:c in
    { p with Ifc.Ast.channels = [ { Ifc.Ast.cname = "ch"; bound } ] }
  in
  let public = with_bound Ifc.Label.public in
  versions_agree cache [ (with_bound c, 0); (with_bound c, 0) ];
  let _, stats = ok "public" (Ifc.Verifier.reverify cache public) in
  Alcotest.(check int) "a bound edit recomputes no summary" 0 stats.Ifc.Summary_cache.recomputed;
  versions_agree cache [ (public, 1); (with_bound c, 0); (public, 1) ]

(* One summary, called with arguments of different labels and under
   different pcs: each call is ground with its own, whichever comes
   first and whatever the memo met before. *)
let test_callee_called_twice () =
  let cache = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  let version ~y main =
    parse_ok
      (String.concat "\n"
         ([ "channel ch bound public"; "fn f(a) {"; "  output a -> ch"; "}"; "let x = vec![] : public";
            "let y = vec![] : " ^ y ]
         @ main)
      ^ "\n")
  in
  versions_agree cache
    [
      (version ~y:"{s}" [ "f(&x)"; "f(&y)" ], 1);
      (version ~y:"{s}" [ "f(&x)"; "f(&y)" ], 1);
      (version ~y:"{s}" [ "f(&y)"; "f(&x)" ], 1);
      (version ~y:"{s}" [ "f(&y)"; "f(&y)"; "f(&x)" ], 2);
      (version ~y:"public" [ "f(&y)"; "f(&x)" ], 0);
      (version ~y:"{s}" [ "f(&x)"; "if y {"; "f(&x)"; "}" ], 1);
      (version ~y:"{s}" [ "if x {"; "f(&x)"; "}"; "f(&x)" ], 0);
      (version ~y:"{s}" [ "f(&x)"; "f(&y)" ], 1);
    ]

(* A cleared cache holds no more than a new one: no entry, and no call
   of the last main pass. *)
let test_clear_forgets_main_memo () =
  let fresh = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  let used = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  let p = Ifc.Gen.generate small_spec in
  let p, _ = Ifc.Gen.edit ~seed:3L ~edits:20 small_spec p in
  let r, _ = ok "used" (Ifc.Verifier.reverify used p) in
  Alcotest.(check bool) "the main pass found something to memoise" true (r.findings <> []);
  Ifc.Summary_cache.clear used;
  let words c = Obj.reachable_words (Obj.repr c) in
  Alcotest.(check int) "cleared = new, in reachable words" (words fresh) (words used);
  let again, _ = ok "after clear" (Ifc.Verifier.reverify used p) in
  Alcotest.(check string) "after clear = cold" (report_body (ok "cold" (cold_report p))) (report_body again)

(* The memo keeps the calls of the last main pass only: after a main
   with many calls, a main with fewer leaves the cache holding what a
   cache that only ever saw the smaller one holds. *)
let test_main_memo_bounded () =
  let small = Ifc.Gen.generate small_spec in
  let small, _ = Ifc.Gen.edit ~seed:3L ~edits:20 small_spec small in
  let call (f : Ifc.Ast.func) =
    let args = [ ("s0", Ifc.Ast.By_borrow); ("p0", Ifc.Ast.By_borrow) ] in
    Ifc.Ast.stmt 0 (Ifc.Ast.Call { func = f.fname; args })
  in
  let big = { small with Ifc.Ast.main = small.Ifc.Ast.main @ List.map call small.Ifc.Ast.funcs } in
  let cache () = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  let after versions =
    let c = cache () in
    List.iter (fun p -> ignore (ok "reverify" (Ifc.Verifier.reverify c p))) versions;
    Obj.reachable_words (Obj.repr c)
  in
  Alcotest.(check bool) "the bigger main holds more" true (after [ big ] > after [ small ]);
  Alcotest.(check int) "big then small = small" (after [ small ]) (after [ big; small ])

let () =
  Alcotest.run "summary_cache"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "cold misses, replay hits, telemetry agrees" `Quick test_cold_then_hit;
          Alcotest.test_case "clear forgets everything" `Quick test_clear;
          Alcotest.test_case "deleted functions are pruned on commit" `Quick
            test_deleted_function_pruned;
          Alcotest.test_case "invalid program rejected, cache untouched" `Quick
            test_invalid_program_leaves_cache_untouched;
          Alcotest.test_case "aliased dialect rejected" `Quick test_aliased_rejected;
          Alcotest.test_case "cached ownership violations come and go" `Quick
            test_violations_come_and_go;
          Alcotest.test_case "clear forgets the main pass's memo" `Quick test_clear_forgets_main_memo;
          Alcotest.test_case "the main memo holds main's current calls only" `Quick test_main_memo_bounded;
        ] );
      ( "equivalence",
        [
          qt test_warm_equals_cold;
          Alcotest.test_case "severed callee fingerprint goes stale (negative control)" `Quick
            test_severed_callee_fp_goes_stale;
          Alcotest.test_case "a bound edit flips a finding on, then off" `Quick
            test_bound_edit_flips_finding;
          Alcotest.test_case "one callee called with different labels" `Quick test_callee_called_twice;
        ] );
      ( "relocation",
        [
          Alcotest.test_case "shifted functions stay hits, lines match a cold run" `Quick
            test_shifted_functions_stay_hits;
          Alcotest.test_case "a reparse rehashes only the bodies whose text changed" `Quick
            test_reparse_rehashes_changed_bodies;
        ] );
    ]
