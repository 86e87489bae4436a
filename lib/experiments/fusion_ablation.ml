(* E18: the kernel-fusion ablation. Fusion only exists under Isolated
   mode (the calls modes run one flat loop over the stages), so the
   deterministic section runs the Figure-2 Maglev NF in Isolated mode
   twice: fused (the pipeline's plan) and unfused (every stage a
   {!Netstack.Stage.barrier}, one domain per stage). The outputs must
   agree; the crossings scale with the groups, not the stages. *)

let default_rounds = 200
let default_batch_size = 32

(* --- Deterministic section ------------------------------------------- *)

type det_run = {
  dr_crafted : int;
  dr_tx : int;
  dr_cycles : int64;
  dr_groups : string list list;
  dr_reports : Netstack.Pipeline.stage_report list;
}

let run_det ~telemetry ~rounds ~batch_size ~barriers =
  let env = Env.make ~telemetry () in
  let _mg, stages = Env.maglev_nf env in
  let stages = if barriers then List.map Netstack.Stage.barrier stages else stages in
  let pipe =
    Netstack.Pipeline.create ~engine:env.Env.engine
      ~mode:(Netstack.Pipeline.Isolated env.Env.manager) stages
  in
  let crafted = ref 0 and tx = ref 0 in
  for _ = 1 to rounds do
    let b = Netstack.Nic.rx_batch env.Env.nic batch_size in
    crafted := !crafted + Netstack.Batch.length b;
    match Netstack.Pipeline.run pipe b with
    | Ok out -> tx := !tx + Netstack.Nic.tx_batch env.Env.nic out
    | Error e -> failwith ("fusion_ablation: " ^ Sfi.Sfi_error.to_string e)
  done;
  {
    dr_crafted = !crafted;
    dr_tx = !tx;
    dr_cycles = Cycles.Clock.now env.Env.clock;
    dr_groups = Netstack.Pipeline.fused_groups pipe;
    dr_reports = Netstack.Pipeline.stage_reports pipe;
  }

let groups_string groups =
  String.concat " " (List.map (fun g -> "[" ^ String.concat "+" g ^ "]") groups)

let crossings r =
  List.fold_left (fun acc sr -> acc + sr.Netstack.Pipeline.sr_entries) 0 r.dr_reports

type det_result = {
  d_rounds : int;
  d_batch_size : int;
  d_unfused : det_run;
  d_fused : det_run;
}

let run_stats ~telemetry =
  let rounds = default_rounds in
  let batch_size = default_batch_size in
  {
    d_rounds = rounds;
    d_batch_size = batch_size;
    d_unfused = run_det ~telemetry ~rounds ~batch_size ~barriers:true;
    d_fused = run_det ~telemetry ~rounds ~batch_size ~barriers:false;
  }

let same_outputs a b = a.dr_crafted = b.dr_crafted && a.dr_tx = b.dr_tx

let print_stats d =
  Printf.printf
    "E18: kernel fusion ablation (deterministic)\n\
    \  NF = csum -> ttl-dec -> maglev-gre, 1024 uniform flows, batch=%d, rounds=%d\n\n"
    d.d_batch_size d.d_rounds;
  print_endline "isolated mode: one protection-domain crossing per fused group";
  (* crossings/batch column: total crossings / batches served. *)
  let iso_row variant r =
    [
      variant;
      groups_string r.dr_groups;
      Table.fi (List.length r.dr_reports);
      Table.fi (crossings r);
      Table.ff ~decimals:2 (float_of_int (crossings r) /. float_of_int d.d_rounds);
      Int64.to_string r.dr_cycles;
    ]
  in
  Table.print
    ~header:[ "variant"; "groups"; "domains"; "crossings"; "crossings/batch"; "virtual cycles" ]
    [ iso_row "unfused" d.d_unfused; iso_row "fused" d.d_fused ];
  Printf.printf "  outputs identical (unfused vs fused)=%b  crossings saved=%d\n"
    (same_outputs d.d_unfused d.d_fused)
    (crossings d.d_unfused - crossings d.d_fused)
