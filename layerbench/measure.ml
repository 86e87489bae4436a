(* Wall-clock primitives: a nanosecond monotonic clock that neither
   allocates nor boxes, a growable sample buffer, order statistics and
   a least-squares line. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let minor_words () = int_of_float (Gc.minor_words ())

(* Samples live off the OCaml heap, so the harness's own buffers, whose
   size follows the host's speed, never show in the heap metric. *)
module Samples = struct
  open Bigarray

  type t = { mutable data : (int, int_elt, c_layout) Array1.t; mutable len : int }

  let create () = { data = Array1.create int c_layout 4096; len = 0 }

  let add t v =
    if t.len = Array1.dim t.data then begin
      let d = Array1.create int c_layout (2 * t.len) in
      Array1.blit t.data (Array1.sub d 0 t.len);
      t.data <- d
    end;
    Array1.unsafe_set t.data t.len v;
    t.len <- t.len + 1

  let length t = t.len
  let floats t ~lo ~hi = Array.init (hi - lo) (fun i -> float_of_int t.data.{lo + i})
  let to_floats t = floats t ~lo:0 ~hi:t.len

  let sum_range t ~lo ~hi =
    let s = ref 0 in
    for i = lo to hi - 1 do
      s := !s + t.data.{i}
    done;
    !s

  let sum t = sum_range t ~lo:0 ~hi:t.len
end

(* Host probe. Other tenants of a shared host slow the same code by up
   to 1.7x, in phases that last from seconds to minutes, so runs of the
   same code minutes apart disagree by more than any bound worth
   setting. Each timing is therefore taken next to a probe of the host:
   a fixed piece of work that no code of the repository runs (streaming
   stores over 2 MB, as allocation does, then a byte-hashing loop). The
   probe allocates nothing on the OCaml heap, so its cost follows the
   host, not the program's state, and a change to the libraries cannot
   move it. A timing is reported as it would read on the reference host,
   on which the probe takes [probe_ref_ns]. *)
let probe_ref_ns = 2e6
let probe_words = 1 lsl 18
let probe_arr = lazy (Bigarray.Array1.create Bigarray.int Bigarray.c_layout probe_words)
let probe_bytes = lazy (Bytes.create 4096)
let probe_sink = ref 0

let host_probe () =
  let a = Lazy.force probe_arr and b = Lazy.force probe_bytes in
  let t0 = now_ns () in
  for pass = 1 to 6 do
    for i = 0 to probe_words - 1 do
      Bigarray.Array1.unsafe_set a i (i + pass)
    done
  done;
  let s = ref (Bigarray.Array1.unsafe_get a (t0 land (probe_words - 1))) in
  for r = 1 to 48 do
    for i = 0 to 4095 do
      Bytes.unsafe_set b i (Char.unsafe_chr ((i * r) + !s land 0xff))
    done;
    for i = 0 to 4095 do
      s := ((!s lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3) land 0x3FFFFFFFFFFFFFFF
    done
  done;
  probe_sink := !s;
  now_ns () - t0

(* A time, or a rate, measured next to a probe of [probe_ns], as it
   would read on the reference host. *)
let time_at_ref ~probe_ns x = x *. probe_ref_ns /. probe_ns
let rate_at_ref ~probe_ns x = x *. probe_ns /. probe_ref_ns

(* Linear interpolation between closest ranks (the "type 7" rule used
   by numpy and R). [nan] for an empty sample. *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile xs 0.5

(* [time_ns f] is [f ()] and the nanoseconds it took. *)
let time_ns f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

(* Ordinary least squares y = a + b x; returns (a, b). A degenerate x
   (all equal) gives the mean of y and a zero slope. *)
let least_squares (xs : float array) (ys : float array) =
  let n = float_of_int (Array.length xs) in
  if n = 0. then (nan, nan)
  else begin
    let mx = Array.fold_left ( +. ) 0. xs /. n and my = Array.fold_left ( +. ) 0. ys /. n in
    let sxy = ref 0. and sxx = ref 0. in
    Array.iteri
      (fun i x ->
        let dx = x -. mx in
        sxy := !sxy +. (dx *. (ys.(i) -. my));
        sxx := !sxx +. (dx *. dx))
      xs;
    if !sxx = 0. then (my, 0.) else (my -. (!sxy /. !sxx *. mx), !sxy /. !sxx)
  end

(* How long a run measures: a wall-clock budget for benchmark runs, or
   a fixed short length for the self-test, whose counts must repeat
   exactly. Each workload turns [Fixed] into its own iteration count. *)
type budget = Seconds of float | Fixed

type limit = Time of float | Count of int

let fixed b = b = Fixed
let limit b ~fixed_count = match b with Seconds s -> Time s | Fixed -> Count fixed_count

(* [within lim ~start_ns ~i ~window]: may iteration [i] (0-based) still
   run? A timed loop always finishes the window it is in, so it stops on
   a boundary of the workload's period. *)
let within lim ~start_ns ~i ~window =
  match lim with
  | Count n -> i < n
  | Time s -> float_of_int (now_ns () - start_ns) < s *. 1e9 || i mod window <> 0

let per x n = if n = 0 then 0. else float_of_int x /. float_of_int n

(* Side tasks: the cold starts and the extra set-ups behind cold_start_ms
   and setup_s, each timed right after a probe of the host and scaled by
   it. The repetitions are spread evenly over the timed loop instead of
   run back to back after it, so no single phase of the host holds them
   all. *)
type side = {
  cold : (int * int) Queue.t;  (** (probe ns, cold start ns) *)
  setups : (int * int) Queue.t;  (** (probe ns, set-up ns) *)
  task : unit -> unit;
  reps : int;
  every_ns : int;
  mutable next_ns : int;
  mutable fired : int;
}

let side_reps = 20

(* [probed_ns f] is [f ()] and the (probe, ns) pair of its timing. *)
let probed_ns f =
  let probe = host_probe () in
  let v, ns = time_ns f in
  (v, (probe, ns))

(* [cold] returns the nanoseconds of the part it times; [setup] is
   timed whole and its result handed to [dispose], untimed. Each task
   starts from a collected heap, so the garbage the loop left behind is
   not charged to it. *)
let side lim ~first_setup ~cold ~setup ~dispose =
  let cold_q = Queue.create () and setups = Queue.create () in
  Queue.add first_setup setups;
  let task () =
    Gc.full_major ();
    let probe = host_probe () in
    Queue.add (probe, cold ()) cold_q;
    Gc.full_major ();
    let st, timing = probed_ns setup in
    Queue.add timing setups;
    dispose st
  in
  let reps, every_ns =
    match lim with Time s -> (side_reps, int_of_float (s *. 1e9) / (side_reps + 1)) | Count _ -> (1, 0)
  in
  let next_ns = match lim with Time _ -> now_ns () + every_ns | Count _ -> max_int in
  { cold = cold_q; setups; task; reps; every_ns; next_ns; fired = 0 }

let side_tick s =
  if s.fired < s.reps && now_ns () >= s.next_ns then begin
    s.task ();
    s.fired <- s.fired + 1;
    s.next_ns <- s.next_ns + s.every_ns
  end

(* The median of timings scaled to the reference host, in [unit_ns];
   the unscaled timings and their probes go to the record's series. *)
let report_scaled r name unit_ ~unit_ns timings =
  let ts = Array.of_seq (Queue.to_seq timings) in
  Report.series r (name ^ ".raw") (Array.map (fun (_, ns) -> float_of_int ns /. unit_ns) ts);
  Report.series r (name ^ ".probe_ns") (Array.map (fun (p, _) -> float_of_int p) ts);
  Report.metric r name unit_
    (median
       (Array.map (fun (p, ns) -> time_at_ref ~probe_ns:(float_of_int p) (float_of_int ns) /. unit_ns) ts))

(* Run the repetitions a loop left over (all of them for a fixed-length
   loop) and report the two metrics. *)
let side_finish s r =
  while s.fired < s.reps do
    s.task ();
    s.fired <- s.fired + 1
  done;
  report_scaled r "cold_start_ms" "ms" ~unit_ns:1e6 s.cold;
  report_scaled r "setup_s" "s" ~unit_ns:1e9 s.setups

(* One end-to-end metric from per-window figures [raw], window [k]
   scaled by the probe taken right after it: the median over windows. *)
let report_windows r ~probes name unit_ ~scale raw =
  Report.series r ("window." ^ name) raw;
  Report.metric r name unit_ (median (Array.mapi (fun k x -> scale ~probe_ns:probes.(k) x) raw))

(* Live major-heap data after a full collection: what the system keeps
   resident, independent of when the collector last ran. *)
let heap_live_mb () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words *. 8. /. 1048576.
