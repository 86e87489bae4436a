type strategy = Exact | Compositional | Incremental | Naive_no_alias | Andersen

type verdict = Verified | Rejected

type report = {
  strategy : strategy;
  verdict : verdict;
  ownership_errors : Ownership.violation list;
  findings : Abstract.finding list;
  transfers : int;
  alias_locations : int;
  alias_iterations : int;
}

let strategy_name = function
  | Exact -> "exact-ownership"
  | Compositional -> "compositional-summaries"
  | Incremental -> "incremental-summaries"
  | Naive_no_alias -> "naive-no-alias"
  | Andersen -> "andersen-points-to"

let default_strategy (p : Ast.program) =
  match p.dialect with Safe -> Exact | Aliased -> Andersen

let verify ?strategy (program : Ast.program) =
  match Ast.validate program with
  | Error es ->
    let msgs = List.map (fun (e : Ast.validation_error) -> Printf.sprintf "line %d: %s" e.vline e.reason) es in
    Error ("invalid program: " ^ String.concat "; " msgs)
  | Ok () -> (
    let strategy = Option.value ~default:(default_strategy program) strategy in
    match (strategy, program.dialect) with
    | (Exact | Compositional | Incremental), Aliased ->
      Error
        (Printf.sprintf "strategy %s requires the safe dialect" (strategy_name strategy))
    | (Exact | Compositional | Incremental | Naive_no_alias | Andersen), _ ->
      let ownership_errors =
        match strategy with
        | Exact | Compositional | Incremental -> (
          match Ownership.check program with Ok () -> [] | Error vs -> vs)
        | Naive_no_alias | Andersen -> []
      in
      let analysis =
        match strategy with
        | Exact -> Ok (Abstract.analyze Abstract.Exact_ownership program, 0, 0)
        | Naive_no_alias -> Ok (Abstract.analyze Abstract.No_alias_info program, 0, 0)
        | Andersen ->
          let pts = Alias.analyze program in
          Ok
            ( Abstract.analyze (Abstract.Points_to pts) program,
              Alias.location_count pts,
              Alias.constraint_iterations pts )
        | Compositional -> (
          match Summary.analyze_compositional program with
          | Ok r -> Ok (r, 0, 0)
          | Error e -> Error e)
        | Incremental -> (
          (* A one-shot cold run: every function misses, and its
             counters go to a registry nobody reads. The win needs a
             persistent handle — see [reverify]. *)
          let cache = Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
          match Summary_cache.reverify cache program with
          | Ok (r, _, _) -> Ok (r, 0, 0)
          | Error e -> Error e)
      in
      (match analysis with
      | Error e -> Error e
      | Ok (r, alias_locations, alias_iterations) ->
        let verdict =
          if ownership_errors = [] && r.Abstract.findings = [] then Verified else Rejected
        in
        Ok
          {
            strategy;
            verdict;
            ownership_errors;
            findings = r.Abstract.findings;
            transfers = r.Abstract.transfers;
            alias_locations;
            alias_iterations;
          }))

let reverify (cache : Summary_cache.t) (program : Ast.program) =
  (* Validation and ownership run inside the cache, incrementally —
     repeating them here would put a whole-program pass back on the
     warm path. Invalid programs produce the same error string
     [verify] does. *)
  match Summary_cache.reverify cache program with
  | Error e -> Error e
  | Ok (r, ownership_errors, stats) ->
    let verdict =
      if ownership_errors = [] && r.Abstract.findings = [] then Verified else Rejected
    in
    Ok
      ( {
          strategy = Incremental;
          verdict;
          ownership_errors;
          findings = r.Abstract.findings;
          transfers = r.Abstract.transfers;
          alias_locations = 0;
          alias_iterations = 0;
        },
        stats )

let pp_report ppf r =
  Format.fprintf ppf "@[<v>strategy: %s@,verdict: %s@," (strategy_name r.strategy)
    (match r.verdict with Verified -> "VERIFIED" | Rejected -> "REJECTED");
  List.iter
    (fun v -> Format.fprintf ppf "ownership: %s@," (Ownership.violation_to_string v))
    r.ownership_errors;
  List.iter (fun f -> Format.fprintf ppf "flow: %s@," (Abstract.finding_to_string f)) r.findings;
  Format.fprintf ppf "transfers: %d" r.transfers;
  if r.alias_locations > 0 then
    Format.fprintf ppf "@,points-to: %d locations, %d iterations" r.alias_locations
      r.alias_iterations;
  Format.fprintf ppf "@]"
