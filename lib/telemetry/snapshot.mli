(** A point-in-time, name-sorted copy of a registry's contents —
    the unit of comparison for test isolation and the input to
    {!Render}. Capturing never blocks recorders: values are read with
    plain atomic loads. *)

type hist_summary = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_p50 : int;
  h_p90 : int;
  h_p99 : int;
  h_mean : float;
}

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of hist_summary

type t = (string * value) list
(** Sorted by metric name. *)

val capture : Registry.t -> t
