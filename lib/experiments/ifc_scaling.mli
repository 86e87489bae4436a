(** E7 — §4's closing scalability point: "Even without alias analysis,
    verification can be expensive for large programs. Further
    improvements can be achieved through compositional reasoning."

    Scales the secure store in the number of clients (functions ×
    requests) and measures the deterministic analysis cost — transfer-
    function applications — of: whole-program exact analysis (inlines
    every call), compositional summaries (each function analysed once),
    and the conventional Andersen pipeline (points-to solving +
    weak-update analysis). *)

type row = {
  clients : int;
  statements : int;            (** Program size. *)
  exact_transfers : int;
  compositional_transfers : int;
  andersen_transfers : int;
  andersen_iterations : int;   (** Points-to fixpoint rounds. *)
  all_verified : bool;         (** Every strategy agrees the clean store is safe. *)
}

val run : unit -> row list
(** Clients 2, 4, 8, 16, 32; 6 requests per client. *)

val print : row list -> unit
