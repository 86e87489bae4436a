type result = {
  trials : int;
  catch_cycles : Cycles.Stats.t;
  recover_cycles : Cycles.Stats.t;
  total_mean : float;
}

let crash_loop env ~trials record =
  (* A crash-looping null filter: panics on every batch from the first. *)
  let pipe =
    Netstack.Pipeline.create ~engine:env.Env.engine
      ~mode:(Netstack.Pipeline.Isolated env.Env.manager)
      [ Netstack.Filters.fault_injector ~panic_after:1 ]
  in
  for _ = 1 to trials do
    let b = Netstack.Nic.rx_batch env.Env.nic 32 in
    let result, c_catch =
      Cycles.Clock.measure env.Env.clock (fun () -> Netstack.Pipeline.run pipe b)
    in
    (match result with
    | Error (Sfi.Sfi_error.Domain_failed _) -> ()
    | Ok _ | Error _ -> failwith "Recovery: expected the filter to panic");
    let r, c_recover =
      Cycles.Clock.measure env.Env.clock (fun () -> Netstack.Pipeline.recover_stage pipe 0)
    in
    (match r with Ok () -> () | Error msg -> failwith ("Recovery: " ^ msg));
    record c_catch c_recover
  done

let run ~telemetry =
  let trials = 1000 in
  let catch_cycles = Cycles.Stats.create () in
  let recover_cycles = Cycles.Stats.create () in
  crash_loop (Env.make ~telemetry ()) ~trials (fun c_catch c_recover ->
      Cycles.Stats.add catch_cycles (Int64.to_float c_catch);
      Cycles.Stats.add recover_cycles (Int64.to_float c_recover));
  {
    trials;
    catch_cycles;
    recover_cycles;
    total_mean = Cycles.Stats.mean catch_cycles +. Cycles.Stats.mean recover_cycles;
  }

let print r =
  print_endline "E3: fault-recovery cost (panic in a null-filter domain)";
  Table.print
    ~header:[ "phase"; "mean cycles"; "p99" ]
    [
      [ "catch (unwind + error return)"; Table.ff (Cycles.Stats.mean r.catch_cycles);
        Table.ff (Cycles.Stats.percentile r.catch_cycles 99.) ];
      [ "recover (clear + re-init)"; Table.ff (Cycles.Stats.mean r.recover_cycles);
        Table.ff (Cycles.Stats.percentile r.recover_cycles 99.) ];
      [ "total"; Table.ff r.total_mean; "" ];
    ];
  Printf.printf "  paper: 4389 cycles on average   ours: %.0f cycles (n=%d)\n" r.total_mean
    r.trials
