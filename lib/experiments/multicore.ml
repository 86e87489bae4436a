type row = {
  cores : int;
  direct_batches_per_s : float;
  isolated_batches_per_s : float;
  isolation_cost : float;
  scaling : float;
  direct_cycles_per_batch : float;
  isolated_cycles_per_batch : float;
}

(* One replica: its own environment and pipeline, shared-nothing. *)
let replica ~seed ~isolated ~batches ~batch_size () =
  let env = Env.make ~seed () in
  let stages = [ Netstack.Filters.checksum_verify; Netstack.Filters.ttl_decrement ] in
  let mode =
    if isolated then Netstack.Pipeline.Isolated env.Env.manager else Netstack.Pipeline.Direct
  in
  let pipe = Netstack.Pipeline.create ~engine:env.Env.engine ~mode stages in
  env.Env.clock, fun () ->
    for _ = 1 to batches do
      let b = Netstack.Nic.rx_batch env.Env.nic batch_size in
      match Netstack.Pipeline.run pipe b with
      | Ok out -> ignore (Netstack.Nic.tx_batch env.Env.nic out)
      | Error e -> failwith (Sfi.Sfi_error.to_string e)
    done

let wall_time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Wall-clock batches/s and virtual cycles per batch over all replicas. *)
let throughput ~cores ~isolated ~batches ~batch_size =
  (* Build all replicas first so construction cost stays outside the
     timed region. *)
  let replicas =
    List.init cores (fun i ->
        replica ~seed:(Int64.of_int (1000 + i)) ~isolated ~batches ~batch_size ())
  in
  let start = List.map (fun (clock, _) -> Cycles.Clock.now clock) replicas in
  let elapsed =
    wall_time (fun () ->
        let workers = List.map (fun (_, body) -> Domain.spawn body) replicas in
        List.iter Domain.join workers)
  in
  let cycles =
    List.fold_left2
      (fun acc (clock, _) t0 -> Int64.add acc (Int64.sub (Cycles.Clock.now clock) t0))
      0L replicas start
  in
  let n = float_of_int (cores * batches) in
  (n /. elapsed, Int64.to_float cycles /. n)

let default_cores_list () =
  (* Never oversubscribe the host: with fewer hardware threads than
     replicas the domains just timeslice and the numbers measure the
     scheduler, not the architecture. *)
  let rdc = Domain.recommended_domain_count () in
  List.sort_uniq compare (List.filter (fun c -> c <= rdc) [ 1; 2; 4; 8 ])

let run ?cores_list ?(batches_per_core = 3000) ?(batch_size = 32) () =
  let cores_list = match cores_list with Some l -> l | None -> default_cores_list () in
  let base = ref None in
  List.map
    (fun cores ->
      let direct, direct_cycles =
        throughput ~cores ~isolated:false ~batches:batches_per_core ~batch_size
      in
      let isolated, isolated_cycles =
        throughput ~cores ~isolated:true ~batches:batches_per_core ~batch_size
      in
      let scaling =
        match !base with
        | None ->
          base := Some isolated;
          1.0
        | Some one -> isolated /. one
      in
      {
        cores;
        direct_batches_per_s = direct;
        isolated_batches_per_s = isolated;
        isolation_cost = 1. -. (isolated /. direct);
        scaling;
        direct_cycles_per_batch = direct_cycles;
        isolated_cycles_per_batch = isolated_cycles;
      })
    cores_list

let print rows =
  Printf.printf
    "E12 (extension): multi-core scaling, shared-nothing replicas (wall clock)\n\
    \  (host reports %d usable core(s); replica counts are capped there)\n"
    (Domain.recommended_domain_count ());
  Table.print
    ~header:
      [ "cores"; "direct batches/s"; "isolated batches/s"; "isolation cost"; "scaling";
        "direct cyc/batch"; "isolated cyc/batch" ]
    (List.map
       (fun r ->
         [
           Table.fi r.cores;
           Table.ff ~decimals:0 r.direct_batches_per_s;
           Table.ff ~decimals:0 r.isolated_batches_per_s;
           Table.fpct r.isolation_cost;
           Table.ff ~decimals:2 r.scaling ^ "x";
           Table.ff ~decimals:0 r.direct_cycles_per_batch;
           Table.ff ~decimals:0 r.isolated_cycles_per_batch;
         ])
       rows);
  print_endline
    "  SFI's costs are core-local (no shared validation state), so isolation\n\
    \  cost stays flat while throughput scales with cores"
