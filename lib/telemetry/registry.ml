type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

type t = {
  lock : Mutex.t;
  tbl : (string, metric) Hashtbl.t;
  clock : Cycles.Clock.t option;
  charged : bool;
}

let create ?clock ?(charge = false) () =
  { lock = Mutex.create (); tbl = Hashtbl.create 64; clock; charged = charge }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let no_charge () = ()

(* One closure per handle, resolved at registration time: the hot path
   never re-examines the charging configuration. *)
let charge_fn t ops =
  match t.clock with
  | Some clock when t.charged ->
    fun () -> List.iter (fun op -> Cycles.Clock.charge clock op) ops
  | Some _ | None -> no_charge

let counter_cost = [ Cycles.Clock.Atomic_rmw ]
let gauge_cost = [ Cycles.Clock.Atomic_rmw ]

(* Bucket math + count/sum/min-max/bucket updates. *)
let histogram_cost = [ Cycles.Clock.Alu 4; Cycles.Clock.Atomic_rmw ]

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let mismatch name ~wanted m =
  invalid_arg
    (Printf.sprintf "Registry: %s is registered as a %s, not a %s" name (kind_name m) wanted)

let counter t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Counter c) -> c
      | Some m -> mismatch name ~wanted:"counter" m
      | None ->
        let c = Counter.make ~charge:(charge_fn t counter_cost) () in
        Hashtbl.add t.tbl name (Counter c);
        c)

let gauge t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Gauge g) -> g
      | Some m -> mismatch name ~wanted:"gauge" m
      | None ->
        let g = Gauge.make ~charge:(charge_fn t gauge_cost) () in
        Hashtbl.add t.tbl name (Gauge g);
        g)

let histogram t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Histogram h) -> h
      | Some m -> mismatch name ~wanted:"histogram" m
      | None ->
        let h = Histogram.make ~charge:(charge_fn t histogram_cost) () in
        Hashtbl.add t.tbl name (Histogram h);
        h)

let find t name = with_lock t (fun () -> Hashtbl.find_opt t.tbl name)

let metrics t =
  with_lock t (fun () -> Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Metrics are visited in sorted name order and find-or-created in the
   destination, so merging a list of registries in any grouping yields
   the same destination contents: counters/gauges add, histograms add
   bucket-wise (see Histogram.merge_into). *)
let merge_into ~into src =
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Counter.add (counter into name) (Counter.value c)
      | Gauge g -> Gauge.add (gauge into name) (Gauge.value g)
      | Histogram h -> Histogram.merge_into ~into:(histogram into name) h)
    (metrics src)

let merge regs =
  let into = create () in
  List.iter (fun r -> merge_into ~into r) regs;
  into

let sum_matching t ~prefix ~suffix =
  List.fold_left
    (fun acc (name, m) ->
      match m with
      | Counter c
        when String.starts_with ~prefix name && String.ends_with ~suffix name ->
        acc + Counter.value c
      | Counter _ | Gauge _ | Histogram _ -> acc)
    0 (metrics t)
