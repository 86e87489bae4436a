(* The state every qcheck property runs under: QCHECK_SEED when it is
   set (CI pins it; make qcheck-soak rotates it), else CI's first seed,
   so a plain `dune runtest` runs the same cases on every run. *)
let rand () =
  let env = Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt in
  Random.State.make [| Option.value env ~default:20171017 |]

(* [QCheck_alcotest.to_alcotest] under a fresh [rand ()], unless the
   case pins its own state. *)
let to_alcotest ?(rand = rand ()) t = QCheck_alcotest.to_alcotest ~rand t
