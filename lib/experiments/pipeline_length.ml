type row = {
  length : int;
  direct_cycles : float;
  isolated_cycles : float;
  overhead_per_call : float;
}

let measure ~length ~batch ~warmup ~trials mode_of_env =
  let env = Env.make () in
  (* Overhead-per-call scaling needs one crossing per stage. *)
  let pipe =
    Netstack.Pipeline.create ~engine:env.Env.engine ~mode:(mode_of_env env)
      (Netstack.Filters.null_chain length)
  in
  Cycles.Stats.mean (Env.measure_pipeline env pipe ~batch ~warmup ~trials)

let run ?(lengths = [ 1; 2; 4; 8; 16 ]) ?(warmup = 20) ?(trials = 100) () =
  let batch = 32 in
  List.map
    (fun length ->
      let direct_cycles = measure ~length ~batch ~warmup ~trials (fun _ -> Netstack.Pipeline.Direct) in
      let isolated_cycles =
        measure ~length ~batch ~warmup ~trials (fun env -> Netstack.Pipeline.Isolated env.Env.manager)
      in
      {
        length;
        direct_cycles;
        isolated_cycles;
        overhead_per_call = (isolated_cycles -. direct_cycles) /. float_of_int length;
      })
    lengths

let max_deviation rows =
  let mean =
    List.fold_left (fun acc r -> acc +. r.overhead_per_call) 0. rows
    /. float_of_int (List.length rows)
  in
  List.fold_left (fun acc r -> max acc (abs_float (r.overhead_per_call -. mean) /. mean)) 0. rows

let print rows =
  print_endline "E2: per-invocation overhead vs pipeline length (batch = 32)";
  Table.print
    ~header:[ "length"; "direct"; "isolated"; "overhead/call" ]
    (List.map
       (fun r ->
         [ Table.fi r.length; Table.ff r.direct_cycles; Table.ff r.isolated_cycles; Table.ff r.overhead_per_call ])
       rows);
  Printf.printf "  paper: overhead independent of pipeline length\n";
  Printf.printf "  ours : max deviation from mean = %s\n" (Table.fpct (max_deviation rows))
