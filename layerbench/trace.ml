(* The traced run's span recorder.

   The benchmark opens a span around each call it makes into a layer
   ([enter]/[leave] in strict nesting). Every span is folded into
   per-layer aggregates (count, total time, time covered by child
   spans), so self time is exact over the whole run. The first [cap]
   spans are also kept in preallocated arrays — nothing is written
   while measuring — and [write_chrome] dumps them once at the end as
   Chrome trace-event JSON, which Perfetto opens offline. *)

let max_layers = 64
let max_depth = 16

type t = {
  names : string array;
  mutable n_layers : int;
  total : int array;
  child : int array;
  count : int array;
  st_layer : int array;
  st_start : int array;
  st_child : int array;
  st_seq : int array;
  mutable depth : int;
  mutable seq : int;
  cap : int;
  sp_layer : int array;
  sp_start : int array;
  sp_dur : int array;
  sp_seq : int array;
  sp_parent : int array;
  mutable kept : int;
  mutable dropped : int;
  origin : int;
}

let cap = 50_000

let create () =
  {
    names = Array.make max_layers "";
    n_layers = 0;
    total = Array.make max_layers 0;
    child = Array.make max_layers 0;
    count = Array.make max_layers 0;
    st_layer = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_seq = Array.make max_depth 0;
    depth = 0;
    seq = 0;
    cap;
    sp_layer = Array.make cap 0;
    sp_start = Array.make cap 0;
    sp_dur = Array.make cap 0;
    sp_seq = Array.make cap 0;
    sp_parent = Array.make cap 0;
    kept = 0;
    dropped = 0;
    origin = Measure.now_ns ();
  }

(* Register a layer name; spans refer to it by the returned id. *)
let layer t name =
  let rec find i = if i = t.n_layers then None else if t.names.(i) = name then Some i else find (i + 1) in
  match find 0 with
  | Some i -> i
  | None ->
    let i = t.n_layers in
    t.names.(i) <- name;
    t.n_layers <- i + 1;
    i

let enter t id =
  let d = t.depth in
  t.st_layer.(d) <- id;
  t.st_child.(d) <- 0;
  t.st_seq.(d) <- t.seq;
  t.seq <- t.seq + 1;
  t.depth <- d + 1;
  t.st_start.(d) <- Measure.now_ns ()

(* Close the innermost open span and return its duration in ns. *)
let leave t =
  let stop = Measure.now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let id = t.st_layer.(d) in
  let dur = stop - t.st_start.(d) in
  t.total.(id) <- t.total.(id) + dur;
  t.child.(id) <- t.child.(id) + t.st_child.(d);
  t.count.(id) <- t.count.(id) + 1;
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  if t.kept < t.cap then begin
    let k = t.kept in
    t.sp_layer.(k) <- id;
    t.sp_start.(k) <- t.st_start.(d) - t.origin;
    t.sp_dur.(k) <- dur;
    t.sp_seq.(k) <- t.st_seq.(d);
    t.sp_parent.(k) <- (if d > 0 then t.st_seq.(d - 1) else -1);
    t.kept <- k + 1
  end
  else t.dropped <- t.dropped + 1;
  dur

let span t id f =
  enter t id;
  let v = f () in
  ignore (leave t);
  v

let total_ns t id = t.total.(id)
let self_ns t id = t.total.(id) - t.child.(id)
let count t id = t.count.(id)

let print_self_times t =
  Printf.printf "%-28s %10s %14s %14s\n" "layer (traced)" "spans" "total ms" "self ms";
  for i = 0 to t.n_layers - 1 do
    if t.count.(i) > 0 then
      Printf.printf "%-28s %10d %14.3f %14.3f\n" t.names.(i) t.count.(i)
        (float_of_int t.total.(i) /. 1e6)
        (float_of_int (self_ns t i) /. 1e6)
  done

let write_chrome t ~path ~meta =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"displayTimeUnit\":\"ns\",\"otherData\":{";
  List.iteri
    (fun i (k, v) -> Printf.fprintf oc "%s\"%s\":\"%s\"" (if i = 0 then "" else ",") k v)
    (meta @ [ ("spans_kept", string_of_int t.kept); ("spans_dropped", string_of_int t.dropped) ]);
  output_string oc "},\"traceEvents\":[";
  for k = 0 to t.kept - 1 do
    Printf.fprintf oc
      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d}}"
      (if k = 0 then "" else ",")
      t.names.(t.sp_layer.(k))
      (float_of_int t.sp_start.(k) /. 1e3)
      (float_of_int t.sp_dur.(k) /. 1e3)
      t.sp_seq.(k) t.sp_parent.(k)
  done;
  output_string oc "\n]}\n"
