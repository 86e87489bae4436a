(** The experiment registry: one entry per paper artefact (DESIGN.md
    §4) and the only description of each. The [repro] CLI builds its
    per-experiment subcommands from it, and [repro check] — which
    [make determinism] and CI run — derives every determinism check
    from the [det] surfaces below. *)

type det = {
  cells : (string * (shards:int -> unit)) list;
      (** The [--stats-only] printers by [--cell] name. Each prints
          only deterministic output — no wall clock, no shard count —
          so runs diff byte-for-byte. The first cell is the default. *)
  queues : int;
      (** RSS queues the printers spread over shards: the largest
          valid shard count (1 when there is no shard axis). *)
  golden : string option;
      (** Committed output of the first cell at one shard, relative to
          the repository root. *)
  shards : int list;
      (** Shard counts [check] runs; each must equal the first. *)
  replay : bool;  (** [check] also runs the first shard count twice. *)
  require : string list;
      (** [Str] regexps that some output line of every cell must match. *)
  forbid : string list;  (** [Str] regexps no output line may match. *)
}

type entry = {
  id : string;           (** e.g. ["fig2"]. *)
  description : string;
  run : quick:bool -> unit;
      (** Execute and print. [quick:true] trades sweep sizes for
          speed in the sharded and wall-clock experiments (E14–E17,
          E19, E21); the others have one configuration, and their run
          prints exactly their first cell at one shard, with or
          without it. *)
  det : det;  (** The deterministic surface. *)
}

val all : entry list
val find : string -> entry option
