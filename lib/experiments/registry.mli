(** The experiment registry: one entry per paper artefact (DESIGN.md
    §4) and the only description of each. The [repro] CLI builds its
    per-experiment subcommands from it, and [repro check] — which
    [make determinism] and CI run — derives every determinism check
    from the [det] surfaces below. *)

type det = {
  print : shards:int -> unit;
      (** The deterministic printer ([repro <id> --stats-only]). It
          prints no wall clock and no shard count, so runs diff
          byte-for-byte; at one shard it prints exactly the golden.
          The telemetry it prints is this run's alone: every run
          records into registries it creates itself. *)
  queues : int;
      (** RSS queues the printer spreads over shards: the largest
          valid shard count (1 when there is no shard axis). *)
  shards : int list;
      (** Shard counts [check] runs; each must equal the first. *)
  replay : bool;  (** [check] also runs the first shard count twice. *)
  require : string list;
      (** [Str] regexps that some output line must match. *)
  forbid : string list;  (** [Str] regexps no output line may match. *)
}

type entry = {
  id : string;           (** e.g. ["fig2"]. *)
  description : string;
  det : det;
  wall : (unit -> unit) option;
      (** The wall-clock section that [repro <id>] prints after the
          golden: E14, E16, E17, E19 and E21 only. *)
}

val all : entry list
val find : string -> entry option

val golden : string -> string
(** [golden id]: the committed output of [id]'s printer at one shard,
    relative to the repository root
    ([test/golden/<id>_stats.txt], dashes as underscores). *)
