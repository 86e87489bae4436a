(* One run's result: the operation ledger, the metrics of the selected
   mode, the deterministic counts the self-test compares, and the
   workload parameters. [to_json] renders it for the last stdout line. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;
  mutable counts : (string * float) list;
  mutable params : (string * string) list;
  mutable series : (string * float array) list;
}

let create () = { attempted = 0; failed = 0; metrics = []; counts = []; params = []; series = [] }

let attempt r ok =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1

let metric r name unit_ v = r.metrics <- (name, v, unit_) :: r.metrics

(* A count that must repeat exactly for a fixed-length run and seed. *)
let count r name v = r.counts <- (name, v) :: r.counts

let param r k v = r.params <- (k, v) :: r.params

(* The samples a metric was taken from (one per window or repetition),
   kept in the full record so each figure names its sample count. *)
let series r name xs = r.series <- (name, xs) :: r.series

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* All digits as measured; JSON has no NaN or infinity, so those become
   null and run.py refuses the run. *)
let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let to_json r =
  obj
    [
      ("correct", string_of_bool (r.failed = 0));
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ( "metrics",
        obj
          (List.rev_map
             (fun (n, v, u) -> (n, obj [ ("value", json_float v); ("unit", json_string u) ]))
             r.metrics) );
      ("counts", obj (List.rev_map (fun (n, v) -> (n, json_float v)) r.counts));
      ("params", obj (List.rev_map (fun (k, v) -> (k, json_string v)) r.params));
      ( "series",
        obj
          (List.rev_map
             (fun (n, xs) -> (n, "[" ^ String.concat "," (Array.to_list (Array.map json_float xs)) ^ "]"))
             r.series) );
    ]
