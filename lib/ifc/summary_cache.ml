type entry = {
  src : Ast.func;
      (* The func the fingerprint was computed from. ASTs are
         immutable, so a body physically equal to [src.body], under an
         equal name and parameter list, proves the fingerprint still
         holds without rehashing a single statement: Gen.edit rebuilds
         only edited functions, and Parse.program reuses the body of
         every function whose body text did not change under the same
         name, wherever the function moved (only the header record,
         with its line, is fresh). *)
  body_fp : int;
  full_fp : int;  (* body_fp folded with the callees' summary fps *)
  summary_fp : int;
  callees : string list;  (* call-site order, duplicates kept *)
  summary : Summary.t;
  own : Ownership.violation list;
      (* body's violations, discovery order, lines relative to the header *)
}

type t = {
  entries : (string, entry) Hashtbl.t;
  mutable owning : int;  (* entries whose [own] is not empty *)
  mutable decls_fp : int option;
      (* Fingerprint of the declarations (dialect, channel names,
         function arities) the cached validation verdicts assume. *)
  mutable main_memo : Summary.main_memo;
      (* What the last main pass ground per call; a call is reused while
         its callee's summary is physically the cached entry's. *)
  c_hits : Telemetry.Counter.t;
  c_misses : Telemetry.Counter.t;
  c_recomputed : Telemetry.Counter.t;
}

type stats = { hits : int; misses : int; recomputed : int; rehashed : int; transfers : int }

let create ~telemetry () =
  let c leaf = Telemetry.Registry.counter telemetry ("ifc.summary." ^ leaf) in
  {
    entries = Hashtbl.create 64;
    owning = 0;
    decls_fp = None;
    main_memo = Summary.main_memo ();
    c_hits = c "hits";
    c_misses = c "misses";
    c_recomputed = c "recomputed";
  }

let size t = Hashtbl.length t.entries

let clear t =
  Hashtbl.reset t.entries;
  t.owning <- 0;
  t.decls_fp <- None;
  t.main_memo <- Summary.main_memo ()

(* [entries] changes only through these two, which keep [owning]. *)
let owns e = if e.own = [] then 0 else 1

let remove t name =
  Option.iter (fun e -> t.owning <- t.owning - owns e) (Hashtbl.find_opt t.entries name);
  Hashtbl.remove t.entries name

let commit t name e =
  remove t name;
  t.owning <- t.owning + owns e;
  Hashtbl.replace t.entries name e

(* ------------------------------------------------------------------ *)
(* FNV-64 fingerprints over a canonical AST serialization.             *)
(*                                                                     *)
(* Same constants as Chkpt.Wire's frame checksum, folded into OCaml's  *)
(* native 63-bit int (the offset basis loses its top bit; the prime    *)
(* fits) so hashing is unboxed arithmetic with no per-byte allocation. *)
(* 62-ish bits is ample for collision odds over a few thousand         *)
(* function bodies, and the stakes of a collision are a stale          *)
(* summary, not data loss.                                             *)
(* ------------------------------------------------------------------ *)

let fnv_offset = Int64.to_int 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3

(* The fields are streamed straight into the hash state — tagged and
   length-prefixed so distinct ASTs cannot collide as streams; only
   the hash itself can. Line numbers enter as the AST keeps them,
   relative to the function's header, as they do in the summary itself:
   moving a statement within its function must invalidate, moving the
   whole function in the file must not. Channel bounds are excluded
   deliberately — they are read only by the final main-pass ground
   check (Summary.check_main), which reverify always reruns, so a
   policy edit never needs to invalidate a summary. *)
let h_int h n = (h lxor n) * fnv_prime

let h_str h s =
  let h = ref (h_int h (String.length s)) in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime) s;
  !h

let h_label h l = Label.fold (fun c h -> h_str h c) l (h_int h (Label.cardinal l))

let h_list h f xs = List.fold_left f (h_int h (List.length xs)) xs

let mode_tag = function Ast.By_move -> 1 | Ast.By_borrow -> 2

(* One walk per body: the fingerprint and the call-site-ordered callee
   list (duplicates kept) come out of the same traversal. *)
let body_fingerprint (f : Ast.func) =
  let callees = ref [] in
  let rec h_stmt h (s : Ast.stmt) =
    let h = h_int h s.line in
    match s.op with
    | Ast.Alloc { var; label } -> h_label (h_str (h_int h 1) var) label
    | Ast.Const_write { dst; value; label } ->
      h_label (h_int (h_str (h_int h 2) dst) value) label
    | Ast.Append { dst; src } -> h_str (h_str (h_int h 3) dst) src
    | Ast.Move { dst; src } -> h_str (h_str (h_int h 4) dst) src
    | Ast.Alias { dst; src } -> h_str (h_str (h_int h 5) dst) src
    | Ast.Copy { dst; src } -> h_str (h_str (h_int h 6) dst) src
    | Ast.Declassify { var; label } -> h_label (h_str (h_int h 7) var) label
    | Ast.If { cond; then_; else_ } ->
      h_list (h_list (h_str (h_int h 8) cond) h_stmt then_) h_stmt else_
    | Ast.While { cond; body } -> h_list (h_str (h_int h 9) cond) h_stmt body
    | Ast.Output { channel; src } -> h_str (h_str (h_int h 10) channel) src
    | Ast.Call { func; args } ->
      callees := func :: !callees;
      h_list
        (h_str (h_int h 11) func)
        (fun h (v, m) -> h_str (h_int h (mode_tag m)) v)
        args
    | Ast.Assert_leq { var; label } -> h_label (h_str (h_int h 12) var) label
  in
  let h = h_str fnv_offset f.fname in
  let h = h_list h h_str f.params in
  let h = h_list h h_stmt f.body in
  (h, List.rev !callees)

(* The summary fingerprint a caller folds in instead of the callee's
   content hash: when a recompute lands on a summary identical to the
   cached one (an edit that didn't change the function's label
   behaviour), callers see an unchanged fingerprint and stay hits —
   the build-system "early cutoff". *)
let h_sym h (s : Summary.sym) =
  let h = h_label h s.Summary.const in
  let h = h_int h (Summary.Int_set.cardinal s.Summary.deps) in
  Summary.Int_set.fold (fun i h -> h_int h i) s.Summary.deps h

let summary_fingerprint (sm : Summary.t) =
  let h = h_str fnv_offset sm.Summary.fname in
  let h = h_int h (Array.length sm.Summary.param_out) in
  let h = Array.fold_left h_sym h sm.Summary.param_out in
  let h = Array.fold_left (fun h b -> h_int h (Bool.to_int b)) h sm.Summary.param_moved in
  let h_site h { Summary.fn; rel } = h_int (h_str h fn) rel in
  let h =
    h_list h
      (fun h (site, ch, s) -> h_sym (h_str (h_site h site) ch) s)
      sm.Summary.outputs
  in
  h_list h
    (fun h (site, v, s, bound) -> h_label (h_sym (h_str (h_site h site) v) s) bound)
    sm.Summary.asserts

(* Everything incremental validation assumes about the rest of the
   program: dialect, channel names, function arities. While this is
   stable, a clean function's statements are valid for exactly the
   reasons they were when its entry was committed. [reverify] folds the
   functions in with [h_decl], after [decls_prefix] and their count, in
   the pass that builds its slots. *)
let decls_prefix (p : Ast.program) =
  let h = h_int fnv_offset (match p.dialect with Ast.Safe -> 0 | Ast.Aliased -> 1) in
  h_list h (fun h (c : Ast.channel) -> h_str h c.cname) p.channels

let h_decl h (f : Ast.func) = h_int (h_str h f.fname) (List.length f.params)

(* ------------------------------------------------------------------ *)
(* Reverification.                                                     *)
(* ------------------------------------------------------------------ *)

let format_validation_errors es =
  let msgs =
    List.map
      (fun (e : Ast.validation_error) -> Printf.sprintf "line %d: %s" e.vline e.reason)
      es
  in
  "invalid program: " ^ String.concat "; " msgs

(* One function of the program [reverify] is verifying: the first
   declaration under its name, whether the walk has reached it, and the
   summary fingerprint it settled on (0 until then, as for a name the
   program does not declare). *)
type slot = { f : Ast.func; mutable visited : bool; mutable sfp : int }

let reverify ?(sever_callee_fps = false) t (program : Ast.program) =
  match program.dialect with
  | Ast.Aliased -> Error "summary cache requires the safe dialect"
  | Ast.Safe ->
    let n = List.length program.funcs in
    (* One pass over the declarations builds the slots and folds the
       functions into the declaration fingerprint. *)
    let slots = Hashtbl.create (max 16 n) in
    let decls_fp =
      List.fold_left
        (fun h (f : Ast.func) ->
          if not (Hashtbl.mem slots f.fname) then
            Hashtbl.add slots f.fname { f; visited = false; sfp = 0 };
          h_decl h f)
        (h_int (decls_prefix program) n)
        program.funcs
    in
    let summaries = Hashtbl.create 64 in
    (* [summaries] is filled lazily: summarize_one and check_main only
       look up the callees of what they are recomputing, so on a warm
       pass almost no hit summary needs to be surfaced at all. A
       recomputed callee overwrote its slot before any caller asks
       (callees-first order), so falling back to the prior entry is
       always the hit case. *)
    let ensure_summary fname =
      if not (Hashtbl.mem summaries fname) then
        match Hashtbl.find_opt t.entries fname with
        | Some e -> Hashtbl.replace summaries fname e.summary
        | None -> ()
    in
    (* Changed entries are staged and committed only if validation
       passes, so a rejected program version can never poison the
       cache. Unchanged hits stay where they are. *)
    let staged = Hashtbl.create 16 in
    let body_dirty = ref [] in
    let hits = ref 0 and misses = ref 0 and recomputed = ref 0 and rehashed = ref 0 in
    let transfers = ref 0 in
    (* One DFS does it all — resolve the body fingerprint (the
       physical-identity witness skips both the rehash and the body
       walk, so on a warm cache only edited bodies are touched),
       recurse into callees, then decide hit/recompute at post-order
       time, which is exactly callees-first topological order. *)
    let rec visit slot =
      if not slot.visited then begin
        slot.visited <- true;
        let f = slot.f in
        let prior = Hashtbl.find_opt t.entries f.fname in
        let witnessed =
          (* The name is the entry's key. *)
          match prior with
          | Some e -> e.src.body == f.body && List.equal String.equal e.src.params f.params
          | None -> false
        in
        let body_fp, callees, body_same =
          match prior with
          | Some e when witnessed -> (e.body_fp, e.callees, true)
          | _ ->
            incr rehashed;
            let bfp, cs = body_fingerprint f in
            let same = match prior with Some e -> e.body_fp = bfp | None -> false in
            (bfp, cs, same)
        in
        if not body_same then body_dirty := f :: !body_dirty;
        (* Each callee is settled before its fingerprint is read. *)
        let with_callee_fps =
          List.fold_left
            (fun h c ->
              h_int h
                (match Hashtbl.find_opt slots c with
                | Some s ->
                  visit s;
                  s.sfp
                | None -> 0))
            body_fp callees
        in
        let full_fp =
          (* The load-bearing term: folding in the callees' summary
             fingerprints propagates invalidation up the call graph —
             exactly the cone whose summaries embed the edited body's
             flows — while an edit that leaves a summary unchanged
             stops propagating right there. [~sever_callee_fps:true]
             (tests only) drops the term and demonstrates the
             resulting staleness. *)
          if sever_callee_fps then body_fp else with_callee_fps
        in
        match prior with
        | Some e when body_same && e.full_fp = full_fp ->
          incr hits;
          slot.sfp <- e.summary_fp;
          (* Refresh the witness only when it failed (a rebuilt but
             identical body); the common warm hit touches nothing. *)
          if not witnessed then Hashtbl.replace staged f.fname { e with src = f }
        | _ ->
          (match prior with None -> incr misses | Some _ -> ());
          incr recomputed;
          List.iter ensure_summary callees;
          let sm, tr = Summary.summarize_one ~program ~summaries f in
          transfers := !transfers + tr;
          let summary_fp = summary_fingerprint sm in
          let own =
            (* Ownership is per-body independent, so an unchanged body
               keeps its cached violations even when its summary had
               to be rebuilt because a callee's changed. *)
            match prior with
            | Some e when body_same -> e.own
            | _ -> Ownership.func_violations f
          in
          slot.sfp <- summary_fp;
          Hashtbl.replace staged f.fname
            { src = f; body_fp; full_fp; summary_fp; callees; summary = sm; own }
      end
    in
    List.iter (fun (f : Ast.func) -> visit (Hashtbl.find slots f.fname)) program.funcs;
    let decls_changed =
      match t.decls_fp with Some d -> d <> decls_fp | None -> true
    in
    let find_func name =
      match Hashtbl.find_opt slots name with Some s -> Some s.f | None -> None
    in
    let validation =
      if decls_changed then Ast.validate program
      else Ast.validate_incremental program ~find_func ~dirty:(List.rev !body_dirty)
    in
    (match validation with
    | Error es -> Error (format_validation_errors es)
    | Ok () ->
      (* Commit the changed entries. Deleted functions can only exist
         when the declarations changed (their names are part of the
         fingerprint), so the sweep that keeps [size] tracking the
         program — and prevents a later re-add from hitting a dead
         entry — runs only then. *)
      Hashtbl.iter (commit t) staged;
      if decls_changed then begin
        let dead =
          Hashtbl.fold
            (fun name _ acc -> if Hashtbl.mem slots name then acc else name :: acc)
            t.entries []
        in
        List.iter (remove t) dead
      end;
      t.decls_fp <- Some decls_fp;
      Ast.iter_stmts
        (fun s ->
          match s.Ast.op with Ast.Call { func; _ } -> ensure_summary func | _ -> ())
        program.main;
      let main_r = Summary.check_main ~memo:t.main_memo ~program ~find_func ~summaries in
      let total_transfers = !transfers + main_r.Abstract.transfers in
      let own_disc =
        (* With no entry owning a violation there is nothing to
           gather, and no need to look each function up. *)
        Ownership.main_violations program.main
        @
        if t.owning = 0 then []
        else
          List.concat_map
            (fun (f : Ast.func) ->
              match Hashtbl.find_opt t.entries f.fname with
              | Some e -> List.map (Ownership.shift f.line) e.own
              | None -> [])
            program.funcs
      in
      let ownership_errors =
        match Ownership.finalize (List.rev own_disc) with Ok () -> [] | Error vs -> vs
      in
      Telemetry.Counter.add t.c_hits !hits;
      Telemetry.Counter.add t.c_misses !misses;
      Telemetry.Counter.add t.c_recomputed !recomputed;
      Ok
        ( { main_r with Abstract.transfers = total_transfers },
          ownership_errors,
          {
            hits = !hits;
            misses = !misses;
            recomputed = !recomputed;
            rehashed = !rehashed;
            transfers = total_transfers;
          } ))
