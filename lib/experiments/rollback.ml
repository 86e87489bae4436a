type row = {
  interval : int;
  inputs : int;
  checkpoints : int;
  ckpt_nodes_per_input : float;
  replayed_on_crash : int;
  recovered_exact : bool;
}

let run ~telemetry =
  let seed = 5L and inputs = 2021 in
  List.map
    (fun interval ->
      let rng = Cycles.Rng.create seed in
      let traffic =
        Netstack.Traffic.create ~rng (Netstack.Traffic.Zipf { flows = 256; exponent = 1.1 })
      in
      let sketch = Netstack.Heavy_hitters.create ~capacity:32 in
      let protected_nf =
        Chkpt.Replay.create ~desc:Netstack.Heavy_hitters.desc
          ~apply:(fun s flow -> Netstack.Heavy_hitters.observe s flow)
          ~interval ~telemetry sketch
      in
      let ckpt_nodes = ref 0 in
      for _ = 1 to inputs do
        match Chkpt.Replay.feed protected_nf (Netstack.Traffic.next_flow traffic) with
        | Some stats -> ckpt_nodes := !ckpt_nodes + stats.Chkpt.Checkpointable.nodes
        | None -> ()
      done;
      (* Ground truth: an out-of-band copy of the state just before the
         crash. *)
      let truth, _ =
        Chkpt.Checkpointable.checkpoint Netstack.Heavy_hitters.desc
          (Chkpt.Replay.state protected_nf)
      in
      let recovery = Chkpt.Replay.crash_and_recover protected_nf in
      {
        interval;
        inputs;
        checkpoints = Chkpt.Replay.checkpoints_taken protected_nf;
        ckpt_nodes_per_input = float_of_int !ckpt_nodes /. float_of_int inputs;
        replayed_on_crash = recovery.Chkpt.Replay.replayed;
        recovered_exact =
          Netstack.Heavy_hitters.equal truth (Chkpt.Replay.state protected_nf);
      })
    [ 1; 8; 64; 256 ]

let print rows =
  print_endline
    "E13 (extension): middlebox rollback-recovery (checkpoint + input replay)";
  Table.print
    ~header:
      [ "ckpt interval"; "inputs"; "checkpoints"; "ckpt nodes/input"; "replayed on crash";
        "recovered exact" ]
    (List.map
       (fun r ->
         [
           Table.fi r.interval; Table.fi r.inputs; Table.fi r.checkpoints;
           Table.ff ~decimals:1 r.ckpt_nodes_per_input; Table.fi r.replayed_on_crash;
           Table.fb r.recovered_exact;
         ])
       rows);
  print_endline
    "  the checkpoint-interval dial: frequent snapshots cost steady-state work,\n\
    \  sparse ones cost replay at recovery; state is reconstructed exactly either way"
