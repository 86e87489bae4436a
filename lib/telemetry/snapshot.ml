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

let summarize h =
  {
    h_count = Histogram.count h;
    h_sum = Histogram.sum h;
    h_min = Histogram.min h;
    h_max = Histogram.max h;
    h_p50 = Histogram.percentile h 50.;
    h_p90 = Histogram.percentile h 90.;
    h_p99 = Histogram.percentile h 99.;
    h_mean = Histogram.mean h;
  }

let capture registry =
  List.map
    (fun (name, m) ->
      let v =
        match m with
        | Registry.Counter c -> Counter_v (Counter.value c)
        | Registry.Gauge g -> Gauge_v (Gauge.value g)
        | Registry.Histogram h -> Histogram_v (summarize h)
      in
      (name, v))
    (Registry.metrics registry)
