type row = {
  fault_probability : float;
  batches : int;
  faults : int;
  recoveries : int;
  availability : float;
  packets_lost : int;
  mttr_cycles : float;
  buffers_leaked : int;
  direct_survives : bool;
}

let stage_count = 3

(* Each stage does real work and can be told to crash on its next
   batch. *)
let make_stages env triggers =
  let maglev =
    Netstack.Maglev.create ~clock:env.Env.clock ~backends:Env.maglev_backends ()
  in
  let base = [| Netstack.Filters.checksum_verify; Netstack.Filters.ttl_decrement; Netstack.Filters.maglev maglev |] in
  List.init stage_count (fun i ->
      Netstack.Stage.opaque ~name:(Printf.sprintf "nf%d" i) (fun engine batch ->
          if triggers.(i) then begin
            triggers.(i) <- false;
            Sfi.Panic.panicf "injected fault in nf%d" i
          end;
          Netstack.Stage.process base.(i) engine batch))

let run_campaign ~mode_of_env ~p ~batches ~batch_size ~seed =
  let env = Env.make ~seed () in
  let rng = Cycles.Rng.create (Int64.add seed 7L) in
  let triggers = Array.make stage_count false in
  let stages = make_stages env triggers in
  let pipe = Netstack.Pipeline.create ~engine:env.Env.engine ~mode:(mode_of_env env) stages in
  let faults = ref 0 and recoveries = ref 0 and lost = ref 0 in
  let mttr = Cycles.Stats.create () in
  let alive = ref true in
  let served = ref 0 in
  for _ = 1 to batches do
    if !alive then begin
      if Cycles.Rng.float rng 1.0 < p then begin
        triggers.(Cycles.Rng.int rng stage_count) <- true;
        incr faults
      end;
      let b = Netstack.Nic.rx_batch env.Env.nic batch_size in
      let result, cycles =
        Cycles.Clock.measure env.Env.clock (fun () ->
            match Netstack.Pipeline.run pipe b with
            | r -> r
            | exception Sfi.Panic.Panic _ ->
              (* Direct mode: the fault escapes; the pipeline is gone.
                 The in-flight batch is stranded by the crash. *)
              alive := false;
              Error Sfi.Sfi_error.Domain_unavailable)
      in
      match result with
      | Ok out ->
        incr served;
        ignore (Netstack.Nic.tx_batch env.Env.nic out)
      | Error _ when not !alive -> lost := !lost + batch_size
      | Error _ -> (
        lost := !lost + batch_size;
        match Netstack.Pipeline.failed_stage pipe with
        | None -> ()
        | Some i ->
          let (), rec_cycles =
            Cycles.Clock.measure env.Env.clock (fun () ->
                match Netstack.Pipeline.recover_stage pipe i with
                | Ok () -> incr recoveries
                | Error msg -> failwith msg)
          in
          Cycles.Stats.add mttr (Int64.to_float (Int64.add cycles rec_cycles)))
    end
  done;
  let leaked =
    (* Every live buffer after the campaign is a leak, except the ones
       stranded by a direct-mode crash (the process died with them). *)
    if !alive then Netstack.Mempool.in_use env.Env.pool else 0
  in
  (!faults, !recoveries, !served, !lost, mttr, leaked, !alive)

let run ?(probabilities = [ 0.001; 0.01; 0.05 ]) ?(batches = 2000) ?(batch_size = 32)
    ?(seed = 31L) () =
  List.map
    (fun p ->
      let faults, recoveries, served, lost, mttr, leaked, _ =
        run_campaign ~p ~batches ~batch_size ~seed
          ~mode_of_env:(fun env -> Netstack.Pipeline.Isolated env.Env.manager)
      in
      let direct_faults, _, _, _, _, _, direct_alive =
        run_campaign ~p ~batches ~batch_size ~seed ~mode_of_env:(fun _ -> Netstack.Pipeline.Direct)
      in
      {
        fault_probability = p;
        batches;
        faults;
        recoveries;
        availability = float_of_int served /. float_of_int batches;
        packets_lost = lost;
        mttr_cycles = (if Cycles.Stats.count mttr = 0 then 0. else Cycles.Stats.mean mttr);
        buffers_leaked = leaked;
        direct_survives = direct_alive && direct_faults = 0;
      })
    probabilities

let print rows =
  print_endline "E11 (extension): availability under fault injection (isolated pipeline)";
  Table.print
    ~header:
      [ "P(fault/batch)"; "faults"; "recoveries"; "availability"; "pkts lost"; "MTTR cycles";
        "buffers leaked"; "direct survives" ]
    (List.map
       (fun r ->
         [
           Table.ff ~decimals:3 r.fault_probability; Table.fi r.faults; Table.fi r.recoveries;
           Table.fpct r.availability; Table.fi r.packets_lost; Table.ff r.mttr_cycles;
           Table.fi r.buffers_leaked; Table.fb r.direct_survives;
         ])
       rows);
  print_endline
    "  the unprotected pipeline dies at its first fault; the isolated one loses\n\
    \  only the in-flight batch per fault and leaks nothing"
