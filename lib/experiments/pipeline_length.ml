type row = {
  length : int;
  direct_cycles : float;
  isolated_cycles : float;
  overhead_per_call : float;
}

let run ~telemetry =
  let batch = 32 in
  List.map
    (fun length ->
      (* Overhead-per-call scaling needs one crossing per stage. *)
      let stages = Netstack.Filters.null_chain length in
      let direct_cycles =
        let env = Env.make ~telemetry () in
        Env.mean_batch_cycles env Netstack.Pipeline.Direct stages ~batch
      in
      let isolated_cycles =
        let env = Env.make ~telemetry () in
        Env.mean_batch_cycles env (Netstack.Pipeline.Isolated env.Env.manager) stages ~batch
      in
      {
        length;
        direct_cycles;
        isolated_cycles;
        overhead_per_call = (isolated_cycles -. direct_cycles) /. float_of_int length;
      })
    [ 1; 2; 4; 8; 16 ]

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
