type row = {
  mode : Netstack.Shard.mode;
  shards : int;
  wall_s : float;
  batches : int;
  packets_out : int;
  failed : int;
  speedup : float;
  digest : string;
  deterministic : bool;
}

let default_queues = 8
let default_rounds = 1500
let default_batch_size = 32
let default_seed = 2017L

(* The Figure-2 processing pipeline (checksum + TTL), built fresh per
   queue; the stages are stateless, so a constructor ignoring the
   queue context is deterministic by construction. *)
let default_stages (_ : Netstack.Shard.queue_ctx) =
  [ Netstack.Filters.checksum_verify; Netstack.Filters.ttl_decrement ]

let digest_of registry =
  String.sub (Digest.to_hex (Digest.string (Telemetry.Render.to_string registry))) 0 12

let engine ~mode ~shards =
  Netstack.Shard.create
    (Netstack.Shard.default_spec ~shards ~queues:default_queues ~rounds:default_rounds
       ~batch_size:default_batch_size ~seed:default_seed ~mode ~stages:default_stages ())

(* No shard count and no wall clock: the bytes must not depend on
   [shards]. *)
let print_stats ~shards =
  List.iter
    (fun mode ->
      let r = Netstack.Shard.run (engine ~mode ~shards) in
      Telemetry.Render.print
        ~title:(Printf.sprintf "scale telemetry (%s)" (Netstack.Shard.mode_name mode))
        r.Netstack.Shard.r_telemetry;
      print_newline ())
    Netstack.Shard.[ Direct; Isolated ]

let shards_list () =
  (* Never oversubscribe the host, or the numbers measure the
     scheduler rather than the architecture. *)
  let rdc = Domain.recommended_domain_count () in
  List.sort_uniq compare (List.filter (fun s -> s <= rdc) [ 1; 2; 4; 8 ])

let run () =
  let shards_list = shards_list () in
  List.concat_map
    (fun mode ->
      let base_wall = ref None in
      let base_digest = ref None in
      List.map
        (fun shards ->
          let e = engine ~mode ~shards in
          let r, wall_s = Table.time (fun () -> Netstack.Shard.run e) in
          let digest = digest_of r.Netstack.Shard.r_telemetry in
          let speedup =
            match !base_wall with
            | None ->
              base_wall := Some wall_s;
              1.0
            | Some one -> one /. wall_s
          in
          let deterministic =
            match !base_digest with
            | None ->
              base_digest := Some digest;
              true
            | Some d -> String.equal d digest
          in
          {
            mode;
            shards;
            wall_s;
            batches = r.Netstack.Shard.r_batches;
            packets_out = r.Netstack.Shard.r_packets_out;
            failed = r.Netstack.Shard.r_failed;
            speedup;
            digest;
            deterministic;
          })
        shards_list)
    Netstack.Shard.[ Direct; Isolated; Copying; Tagged ]

let print rows =
  Printf.printf
    "E14 (extension): sharded engine - wall-clock scaling at fixed queue count\n\
    \  (host reports %d usable core(s); per-queue virtual state is fixed,\n\
    \  so every column except wall/speedup must be shard-count-invariant)\n"
    (Domain.recommended_domain_count ());
  Table.print
    ~header:
      [ "mode"; "shards"; "wall s"; "batches"; "packets"; "failed"; "speedup"; "telemetry md5"; "determ" ]
    (List.map
       (fun r ->
         [
           Netstack.Shard.mode_name r.mode;
           Table.fi r.shards;
           Table.ff ~decimals:3 r.wall_s;
           Table.fi r.batches;
           Table.fi r.packets_out;
           Table.fi r.failed;
           Table.ff ~decimals:2 r.speedup ^ "x";
           r.digest;
           Table.fb r.deterministic;
         ])
       rows);
  print_endline
    "  RSS pins each flow to one queue and each queue to one shard; queues are\n\
    \  complete shared-nothing replicas, so adding shards moves wall-clock time\n\
    \  only - the merged virtual-cycle telemetry is byte-identical (same md5)"
