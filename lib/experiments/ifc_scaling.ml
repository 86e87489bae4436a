type row = {
  clients : int;
  statements : int;
  exact_transfers : int;
  compositional_transfers : int;
  andersen_transfers : int;
  andersen_iterations : int;
  all_verified : bool;
}

let verify strategy program =
  match Ifc.Verifier.verify ~strategy program with
  | Ok r -> r
  | Error e -> failwith ("Ifc_scaling: " ^ e)

let run () =
  let requests_per_client = 6 in
  List.map
    (fun clients ->
      let program = Ifc.Examples.secure_store ~clients ~requests_per_client () in
      let exact = verify Ifc.Verifier.Exact program in
      let comp = verify Ifc.Verifier.Compositional program in
      let andersen = verify Ifc.Verifier.Andersen program in
      let verified (r : Ifc.Verifier.report) = r.Ifc.Verifier.verdict = Ifc.Verifier.Verified in
      {
        clients;
        statements = Ifc.Ast.stmt_count program;
        exact_transfers = exact.Ifc.Verifier.transfers;
        compositional_transfers = comp.Ifc.Verifier.transfers;
        andersen_transfers = andersen.Ifc.Verifier.transfers;
        andersen_iterations = andersen.Ifc.Verifier.alias_iterations;
        all_verified = verified exact && verified comp && verified andersen;
      })
    [ 2; 4; 8; 16; 32 ]

let print rows =
  print_endline "E7: verification cost scaling on the secure store (transfer applications)";
  Table.print
    ~header:
      [ "clients"; "stmts"; "exact (inline)"; "compositional"; "andersen"; "pts iters"; "verified" ]
    (List.map
       (fun r ->
         [
           Table.fi r.clients; Table.fi r.statements; Table.fi r.exact_transfers;
           Table.fi r.compositional_transfers; Table.fi r.andersen_transfers;
           Table.fi r.andersen_iterations; Table.fb r.all_verified;
         ])
       rows);
  print_endline
    "  paper: function summaries make verification scale (no aliasing => effects\n\
    \         confined to arguments); conventional analysis pays the alias step"
