(* The layered benchmark executable. One invocation runs one workload on
   one domain and prints, as its last stdout line, a JSON record:
   correct/attempted/failed, the metrics of the selected mode, the
   deterministic counts and the workload parameters. run.py builds this
   program, runs it and trims the record to the benchmark contract.

   main.exe --workload NAME --seed N (--seconds S | --fixed) --trace 0|1 --out DIR

   --trace 0 measures the end-to-end metrics; --trace 1 times each call
   into a layer and writes the spans to DIR as Chrome trace JSON.
   --fixed runs a short fixed number of iterations instead of a time
   budget, for the self-test. *)

let workloads ~dir =
  [
    ("maglev-64b", Wl_maglev.run);
    ("megaflow-zipf-edits", Wl_megaflow.run);
    ("ifc-text-edits", Wl_ifc.run);
    ("flowtab-ckpt", Wl_flowtab.run ~dir);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0. and fixed = ref false in
  let trace = ref 0 and out = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds");
      ("--fixed", Arg.Set fixed, " run a fixed short length (self-test)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--out", Arg.Set_string out, "DIR directory for traces and scratch files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N (--seconds S | --fixed) --trace 0|1 --out DIR";
  let run =
    match List.assoc_opt !workload (workloads ~dir:!out) with
    | Some run -> run
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let budget =
    if !fixed then Measure.Fixed
    else if !seconds > 0. then Measure.Seconds !seconds
    else begin
      prerr_endline "--seconds must be positive (or pass --fixed)";
      exit 2
    end
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  let r = Report.create () in
  Report.param r "workload" !workload;
  Report.param r "seed" (string_of_int !seed);
  Report.param r "budget" (if !fixed then "fixed" else Printf.sprintf "%gs" !seconds);
  Report.param r "ocaml" Sys.ocaml_version;
  Report.param r "domains" (string_of_int (Domain.recommended_domain_count ()));
  let tr = if !trace = 1 then Some (Trace.create ()) else None in
  run ~seed:(Int64.of_int !seed) ~budget ~trace:tr r;
  (match tr with
  | None -> ()
  | Some tr ->
    Trace.print_self_times tr;
    let path = Filename.concat !out (Printf.sprintf "%s-seed%d.trace.json" !workload !seed) in
    Trace.write_chrome tr ~path ~meta:(List.rev r.Report.params);
    Printf.printf "trace written: %s\n" path);
  List.iter
    (fun (n, v, u) -> Printf.printf "%-36s %16.6g %s\n" n v u)
    (List.rev r.Report.metrics);
  Printf.printf "attempted %d, failed %d\n" r.Report.attempted r.Report.failed;
  print_endline (Report.to_json r)
