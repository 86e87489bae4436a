type row = {
  mode : string;
  cycles_per_batch : float;
  cycles_per_packet : float;
  overhead_vs_direct : float;
}

let modes =
  [
    ("direct", fun (_ : Env.t) -> Netstack.Pipeline.Direct);
    ("isolated (linear SFI)", fun env -> Netstack.Pipeline.Isolated env.Env.manager);
    ("copying (private heaps)", fun _ -> Netstack.Pipeline.Copying);
    ("tagged (shared heap + checks)", fun _ -> Netstack.Pipeline.Tagged);
  ]

let run ~telemetry =
  let batch = 32 in
  let raw =
    List.map
      (fun (name, mode) ->
        let env = Env.make ~telemetry () in
        let _mg, stages = Env.maglev_nf env in
        (name, Env.mean_batch_cycles env (mode env) stages ~batch))
      modes
  in
  let direct = match raw with (_, d) :: _ -> d | [] -> assert false in
  List.map
    (fun (mode, cycles_per_batch) ->
      {
        mode;
        cycles_per_batch;
        cycles_per_packet = cycles_per_batch /. float_of_int batch;
        overhead_vs_direct = (cycles_per_batch -. direct) /. direct;
      })
    raw

let print rows =
  print_endline "E4: SFI architecture comparison (Maglev NF pipeline, batch = 32)";
  Table.print
    ~header:[ "architecture"; "cycles/batch"; "cycles/packet"; "overhead" ]
    (List.map
       (fun r ->
         [ r.mode; Table.ff r.cycles_per_batch; Table.ff r.cycles_per_packet;
           Table.fpct r.overhead_vs_direct ])
       rows);
  print_endline
    "  paper: copying unacceptable at line rate; tagged heap >100% overhead;\n\
    \         linear SFI \"zero runtime overhead during normal execution\""
