(** E19 (extension): durable crash-restart recovery.

    The storm's stateful flow-table stage ({!Netstack.Flowtab}) runs
    with a {!Chkpt.Durable} store attached, so every in-memory snapshot
    also lands on disk as a versioned manifest over a content-addressed
    chunk pool. This experiment then kills the engine mid-storm and
    cold-starts a {!Faultinj.Supervisor} from the newest valid
    checkpoint of every queue:

    - the {e deterministic section} replays the seeded storm with
      per-queue durable stores, "crashes" it, recovers every queue
      through {!Faultinj.Supervisor.cold_start} and checks the
      recovered table digests byte-identical to the state the crashed
      instance last persisted. Every line is a pure function of the
      seeds and invariant across shard counts — the golden is
      [test/golden/recover_stats.txt];
    - the {e corpus block} points {!Chkpt.Durable.recover} at the
      committed corpus of corrupt / truncated / wrong-version
      checkpoint files ([test/corpus/]) and prints each deterministic
      rejection — corrupt checkpoints fail before step 0, with the
      same error and the same telemetry every time;
    - the {e wall-clock section} (full run only) crashes a
      million-bucket flow table mid-storm and measures recovery from
      the newest checkpoint against a full rebuild by replay — the
      checkpoint path must be at least 10x faster. *)

val corpus_graph : int
(** The graph version the corpus generator writes (and the corpus
    block expects); the wrong-graph corpus file carries any other. *)

val default_queues : int

type queue_recovery = {
  q_queue : int;
  q_outcome : (string, string) result;  (** The cold-start outcome line. *)
  q_persists : int;  (** Durable saves the crashed instance had taken. *)
}

type stats = {
  s_result : Netstack.Shard.result;
  s_restores : int;  (** In-storm checkpoint rollbacks (pre-crash). *)
  s_units : queue_recovery list;  (** Ascending queue id. *)
  s_supervisor : Faultinj.Supervisor.stats;
  s_recovery_telemetry : Telemetry.Registry.t;
      (** The cold-start registry: durable recovered/reject counters,
          [sfi.q<i>.cold_restores], the recovery stores' [chkpt.*]. *)
}

val run_stats : shards:int -> stats
(** Storm (4 queues, 240 rounds) + crash + cold-start recovery over
    [shards] domains, against stores under a fresh
    temporary directory (removed before returning; no path appears in
    any output). *)

val print_stats : stats -> unit

val run_corpus : unit -> unit
(** Print the deterministic rejection of every corpus file (and the
    corpus reject-counter telemetry). The corpus is [test/corpus] under
    the working directory; raises [Failure] if it is not there. *)

type wall = {
  w_buckets : int;
  w_replayed : int;     (** Packets a full rebuild must replay. *)
  w_persists : int;
  w_recover_ms : float;
  w_rebuild_ms : float;
  w_speedup : float;
  w_digest_match : bool;
}

val run_wall : unit -> wall
(** A 2^20-bucket table, 42M packets, a durable checkpoint every 4M. *)

val print_wall : wall -> unit
