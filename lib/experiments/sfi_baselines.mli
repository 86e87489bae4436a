(** E4 — the §3 SFI architecture comparison, as a table.

    The paper positions linear-type SFI against the two traditional
    architectures: private heaps with cross-boundary copying
    (XFI/JX/NaCl [15,19,44]) and a tagged shared heap validated on
    every dereference (Mao et al. [27], "over 100 % overhead"). All
    four modes run the same Maglev NF pipeline on the same traffic. *)

type row = {
  mode : string;
  cycles_per_batch : float;
  cycles_per_packet : float;
  overhead_vs_direct : float;  (** (mode − direct) / direct. *)
}

val run : telemetry:Telemetry.Registry.t -> row list
(** Rows in order: direct, isolated (linear SFI), copying, tagged.
    Batch 32. Every mode's run records into [telemetry]. *)

val print : row list -> unit
