(* An isolated network-function pipeline with fault injection and
   transparent recovery — the full §3 scenario.

     dune exec examples/nf_isolation.exe

   Builds firewall -> TTL -> Maglev as three protection domains,
   pushes traffic through, injects a crash into the firewall domain
   mid-run, and shows that (a) the fault is contained, (b) service
   resumes after recovery with no client-visible reconfiguration, and
   (c) what all this protection costs in the steady state (about a
   tenth of the direct pipeline's cycles per batch). *)

open Beyond_safety

let batch_size = 32
let batches = 200
let crash_at = 100

(* The NF's stages on [env]'s clock, and its Maglev instance. *)
let nf_stages env trigger =
  let maglev =
    Netstack.Maglev.create ~clock:env.Experiments.Env.clock
      ~backends:Experiments.Env.maglev_backends ()
  in
  (* Block one misbehaving /16; pass everything else. *)
  let firewall =
    Netstack.Filters.firewall ~name:"edge-firewall" (fun flow ->
        Int32.logand flow.Netstack.Flow.src_ip 0xFFFF0000l <> 0x0A0B0000l)
  in
  (* The injected fault lives in the firewall's domain: compose the
     verdict filter with the one-shot crash trigger. *)
  let faulty_firewall =
    Netstack.Stage.opaque ~name:"edge-firewall" (fun engine batch ->
        let batch =
          Netstack.Stage.process (Netstack.Filters.triggered_fault ~trigger) engine batch
        in
        Netstack.Stage.process firewall engine batch)
  in
  ([ faulty_firewall; Netstack.Filters.ttl_decrement; Netstack.Filters.maglev maglev ], maglev)

let () =
  let env = Experiments.Env.make ~flows:256 ~telemetry:(Telemetry.Registry.create ()) () in
  let trigger = ref false in
  let stages, maglev = nf_stages env trigger in
  let pipe =
    Netstack.Pipeline.create ~engine:env.Experiments.Env.engine
      ~mode:(Netstack.Pipeline.Isolated env.Experiments.Env.manager)
      stages
  in
  let forwarded = ref 0 and lost = ref 0 and recoveries = ref 0 in
  for i = 1 to batches do
    if i = crash_at then begin
      Printf.printf "batch %3d: injecting a fault into the firewall domain\n" i;
      trigger := true
    end;
    let b = Netstack.Nic.rx_batch env.Experiments.Env.nic batch_size in
    match Netstack.Pipeline.run pipe b with
    | Ok out ->
      forwarded := !forwarded + Netstack.Nic.tx_batch env.Experiments.Env.nic out
    | Error e ->
      lost := !lost + batch_size;
      Printf.printf "batch %3d: %s\n" i (Sfi.Sfi_error.to_string e);
      (match Netstack.Pipeline.failed_stage pipe with
      | Some stage ->
        let (), cycles =
          Cycles.Clock.measure env.Experiments.Env.clock (fun () ->
              match Netstack.Pipeline.recover_stage pipe stage with
              | Ok () -> incr recoveries
              | Error msg -> failwith msg)
        in
        Printf.printf "batch %3d: stage %d recovered in %Ld cycles\n" i stage cycles
      | None -> assert false)
  done;
  Printf.printf "\nforwarded %d packets, lost %d to the contained fault, %d recovery\n"
    !forwarded !lost !recoveries;
  Printf.printf "maglev tracked %d connections across %d backends\n"
    (Netstack.Maglev.connection_count maglev)
    (Netstack.Maglev.backend_count maglev);
  Printf.printf "pipeline stats: %d ok, %d failed batches\n"
    (Netstack.Pipeline.batches_ok pipe)
    (Netstack.Pipeline.batches_failed pipe);
  print_endline "per-stage accounting (from the domain manager):";
  List.iter
    (fun (r : Netstack.Pipeline.stage_report) ->
      Printf.printf "  %-14s %9Ld cycles  %4d entries  %d panic(s)  gen %d\n"
        r.Netstack.Pipeline.sr_name r.Netstack.Pipeline.sr_cycles r.Netstack.Pipeline.sr_entries
        r.Netstack.Pipeline.sr_panics r.Netstack.Pipeline.sr_generation)
    (Netstack.Pipeline.stage_reports pipe);
  (* Steady-state price of protection, on this exact NF (its fault
     trigger left unset). *)
  let steady mode_of_env =
    let env = Experiments.Env.make ~flows:256 ~telemetry:(Telemetry.Registry.create ()) () in
    let stages, _ = nf_stages env (ref false) in
    Experiments.Env.mean_batch_cycles env (mode_of_env env) stages ~batch:batch_size
  in
  let direct = steady (fun _ -> Netstack.Pipeline.Direct) in
  let isolated = steady (fun env -> Netstack.Pipeline.Isolated env.Experiments.Env.manager) in
  Printf.printf "steady-state cost: direct %.0f cycles/batch, isolated %.0f (+%.1f%%)\n" direct
    isolated
    (100. *. (isolated -. direct) /. direct)
