type t = {
  clock : Cycles.Clock.t;
  pool : Netstack.Mempool.t;
  engine : Netstack.Engine.t;
  nic : Netstack.Nic.t;
  manager : Sfi.Manager.t;
  telemetry : Telemetry.Registry.t;
}

let pool_capacity = 4096
let payload_bytes = 18

let make ?(flows = 1024) ?model ~telemetry () =
  let clock =
    match model with None -> Cycles.Clock.create () | Some m -> Cycles.Clock.create ~model:m ()
  in
  let pool = Netstack.Mempool.create ~clock ~capacity:pool_capacity () in
  let engine = Netstack.Engine.create ~clock ~pool ~telemetry () in
  let rng = Cycles.Rng.create 2017L in
  let traffic = Netstack.Traffic.create ~rng ~payload_bytes (Netstack.Traffic.Uniform { flows }) in
  let nic = Netstack.Nic.create ~engine ~traffic () in
  let manager = Sfi.Manager.create ~clock ~telemetry () in
  { clock; pool; engine; nic; manager; telemetry }

let run_batch t pipe batch =
  let b = Netstack.Nic.rx_batch t.nic batch in
  let result, cycles = Cycles.Clock.measure t.clock (fun () -> Netstack.Pipeline.run pipe b) in
  match result with
  | Ok out ->
    ignore (Netstack.Nic.tx_batch t.nic out);
    cycles
  | Error e -> failwith ("Env.mean_batch_cycles: " ^ Sfi.Sfi_error.to_string e)

let mean_batch_cycles t mode stages ~batch =
  let pipe = Netstack.Pipeline.create ~engine:t.engine ~mode stages in
  for _ = 1 to 20 do
    ignore (run_batch t pipe batch)
  done;
  let stats = Cycles.Stats.create () in
  for _ = 1 to 100 do
    Cycles.Stats.add stats (Int64.to_float (run_batch t pipe batch))
  done;
  Cycles.Stats.mean stats

let maglev_backends = Array.init 8 (fun i -> Printf.sprintf "backend-%d" i)

let vip = 0xC0A80001

let maglev_nf t =
  let mg = Netstack.Maglev.create ~clock:t.clock ~backends:maglev_backends () in
  ( mg,
    [
      Netstack.Filters.checksum_verify;
      Netstack.Filters.ttl_decrement;
      Netstack.Filters.maglev_gre mg ~vip;
    ] )
