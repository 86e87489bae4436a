(* Log-bucketed histogram, HDR-style: values 0..7 get exact unit-width
   buckets; every power-of-two octave above that is split into 8 linear
   sub-buckets, so any recorded value lands in a bucket whose width is
   at most 1/8 of its lower bound (quantile estimates carry <= ~12.5 %
   relative error, always on the high side, never below the exact
   rank statistic).

   All mutation is per-bucket atomic fetch-and-add: concurrent
   observers from different OCaml domains can interleave freely
   without losing events or tearing a bucket. *)

let sub_bits = 3
let sub_count = 1 lsl sub_bits

(* Values are clamped to [0, max_int]; msb(max_int) = 61 on 64-bit, so
   512 buckets cover every octave with room to spare. *)
let bucket_count = 512

type t = {
  buckets : int Atomic.t array;
  count : int Atomic.t;
  sum : int Atomic.t;
  mn : int Atomic.t;
  mx : int Atomic.t;
  charge : unit -> unit;
}

let make ~charge () =
  {
    buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
    count = Atomic.make 0;
    sum = Atomic.make 0;
    mn = Atomic.make max_int;
    mx = Atomic.make 0;
    charge;
  }

let index v =
  if v < sub_count then v
  else begin
    let msb = ref 0 in
    let x = ref v in
    while !x > 1 do
      incr msb;
      x := !x lsr 1
    done;
    let shift = !msb - sub_bits in
    (!msb - sub_bits + 1) * sub_count + ((v lsr shift) - sub_count)
  end

(* Inclusive [lower, upper] range covered by bucket [idx]. *)
let bounds idx =
  if idx < 2 * sub_count then (idx, idx)
  else begin
    let shift = (idx / sub_count) - 1 in
    let lower = ((idx mod sub_count) + sub_count) lsl shift in
    (lower, lower + (1 lsl shift) - 1)
  end

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let rec atomic_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then atomic_min a v

let observe t v =
  let v = if v < 0 then 0 else v in
  t.charge ();
  ignore (Atomic.fetch_and_add t.count 1);
  ignore (Atomic.fetch_and_add t.sum v);
  atomic_min t.mn v;
  atomic_max t.mx v;
  ignore (Atomic.fetch_and_add t.buckets.(index v) 1)

let count t = Atomic.get t.count
let sum t = Atomic.get t.sum
let min t = if count t = 0 then 0 else Atomic.get t.mn
let max t = Atomic.get t.mx
let mean t = if count t = 0 then 0. else float_of_int (sum t) /. float_of_int (count t)

(* Rank statistic with rank = ceil(p/100 * n), the same convention as
   Cycles.Stats.percentile. Returns the upper bound of the bucket
   holding the rank-th smallest sample (clamped to the observed max),
   so the estimate is >= the exact statistic and within one bucket
   width of it. *)
let percentile t p =
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile: p out of range";
  let n = count t in
  if n = 0 then 0
  else begin
    let rank = Stdlib.max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
    let acc = ref 0 in
    let result = ref (max t) in
    (try
       for i = 0 to bucket_count - 1 do
         acc := !acc + Atomic.get t.buckets.(i);
         if !acc >= rank then begin
           let _, upper = bounds i in
           result := Stdlib.min upper (max t);
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let bucket_counts t = Array.map Atomic.get t.buckets

(* Bucket-wise addition is exact: the merged histogram is
   indistinguishable from one that observed the union of both sample
   streams, so quantiles of a merge do not depend on how the samples
   were partitioned. No cycles are charged — merging is a
   management-plane operation, not a recorded event. *)
let merge_into ~into src =
  if Atomic.get src.count > 0 then begin
    Array.iteri
      (fun i b ->
        let v = Atomic.get b in
        if v > 0 then ignore (Atomic.fetch_and_add into.buckets.(i) v))
      src.buckets;
    ignore (Atomic.fetch_and_add into.count (Atomic.get src.count));
    ignore (Atomic.fetch_and_add into.sum (Atomic.get src.sum));
    atomic_min into.mn (Atomic.get src.mn);
    atomic_max into.mx (Atomic.get src.mx)
  end
