type row = {
  batch : int;
  direct_cycles : float;
  isolated_cycles : float;
  overhead_per_call : float;
  maglev_cycles : float;
  overhead_vs_maglev : float;
  l3_equivalents : float;
}

let pipeline_length = 5

(* Per-boundary cost is the quantity under test: one crossing per
   stage, so the five null kernels must not fuse into one domain. *)
let null_stages = Netstack.Filters.null_chain pipeline_length

let run ~telemetry =
  List.map
    (fun batch ->
      (* A fresh, identically-seeded environment per mode, so every
         run sees the same traffic and the same cold caches. *)
      let direct_cycles =
        let env = Env.make ~telemetry () in
        Env.mean_batch_cycles env Netstack.Pipeline.Direct null_stages ~batch
      in
      let isolated_cycles =
        let env = Env.make ~telemetry () in
        Env.mean_batch_cycles env (Netstack.Pipeline.Isolated env.Env.manager) null_stages ~batch
      in
      let overhead_per_call =
        (isolated_cycles -. direct_cycles) /. float_of_int pipeline_length
      in
      let maglev_cycles =
        let env = Env.make ~telemetry () in
        Env.mean_batch_cycles env Netstack.Pipeline.Direct (snd (Env.maglev_nf env)) ~batch
      in
      {
        batch;
        direct_cycles;
        isolated_cycles;
        overhead_per_call;
        maglev_cycles;
        overhead_vs_maglev = overhead_per_call /. maglev_cycles;
        l3_equivalents = overhead_per_call /. float_of_int Cycles.Cost_model.default.l3_latency;
      })
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]

let print rows =
  print_endline "E1 / Figure 2: remote-invocation overhead vs Maglev batch cost";
  print_endline "  (5-stage null-filter pipeline; cycles are virtual-clock cycles)";
  Table.print
    ~header:
      [ "pkts/batch"; "direct"; "isolated"; "overhead/call"; "maglev/batch"; "ovh/maglev"; "~L3 accesses" ]
    (List.map
       (fun r ->
         [
           Table.fi r.batch;
           Table.ff r.direct_cycles;
           Table.ff r.isolated_cycles;
           Table.ff r.overhead_per_call;
           Table.ff r.maglev_cycles;
           Table.fpct r.overhead_vs_maglev;
           Table.ff ~decimals:2 r.l3_equivalents;
         ])
       rows);
  match (rows, List.rev rows) with
  | first :: _, last :: _ ->
    Printf.printf
      "  paper: 90 cycles @ batch 1 -> 122 @ 256, <1%% of Maglev for batch >= 32\n\
      \  ours : %.0f cycles @ batch %d -> %.0f @ %d\n"
      first.overhead_per_call first.batch last.overhead_per_call last.batch
  | _ -> ()
