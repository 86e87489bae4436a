(** E18: the kernel-fusion ablation.

    Under Isolated mode the pipeline compiles adjacent
    {!Netstack.Stage.Rewrite} / {!Netstack.Stage.Filter} kernels into
    fused groups, one protection domain each. This experiment prices
    what that buys: the Figure-2 Maglev NF runs in Isolated mode fused
    and unfused (every stage a {!Netstack.Stage.barrier}); the outputs
    must agree, and a fused group costs one crossing where the unfused
    chain pays one per stage. The calls modes do not fuse, so there is
    nothing to ablate there. *)

type det_result

val run_stats : telemetry:Telemetry.Registry.t -> det_result
(** 200 rounds of 32 packets, each arm in a fresh environment; both
    arms record into [telemetry]. *)

val print_stats : det_result -> unit
(** Virtual counters only — byte-identical across runs and hosts; the
    golden [test/golden/fusion_stats.txt] pins it. *)
