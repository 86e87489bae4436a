type pattern =
  | Single_flow of Flow.t
  | Uniform of { flows : int }
  | Zipf of { flows : int; exponent : float }

(* The immutable, shareable half of a generator: pattern parameters
   plus the Zipf CDF. Building the CDF for a million-flow population
   costs O(flows) float work — queue replicas share one [plan] so a
   sharded engine pays it once, and the read-only float array is safe
   to share across OCaml domains. *)
type plan = {
  pattern : pattern;
  pl_payload_bytes : int;
  pl_protocol : Flow.protocol;
  zipf_cdf : float array;  (* empty unless the pattern is Zipf *)
  (* Lazily interned [synth_flow] results, one per population index,
     [no_flow] until first drawn: the generator hands out a flow per
     packet, and [Flow.t] carries boxed fields, so building a fresh
     record per arrival is the dominant allocation of the rx path.
     Flows are immutable, so sharing is sound; replicas sharing a plan
     share the cache (the benign race re-installs an equal record). *)
  interned : Flow.t array;
}

(* Placeholder for flows not yet interned, compared physically: a plain
   array with a sentinel saves the [Some] box and its dependent load. *)
let no_flow = Flow.make ~src_ip:0l ~dst_ip:0l ~src_port:0 ~dst_port:0 ~protocol:Flow.Udp

type t = {
  rng : Cycles.Rng.t;
  plan : plan;
}

(* Flow [i] of the synthetic population: clients in 10.0.0.0/16 hitting
   the virtual IP 192.168.0.1:80. *)
let synth_flow protocol i =
  Flow.make
    ~src_ip:(Int32.logor 0x0A000000l (Int32.of_int (i land 0xffff)))
    ~dst_ip:0xC0A80001l
    ~src_port:(1024 + (i * 7 mod 50000))
    ~dst_port:80 ~protocol

let build_zipf_cdf flows exponent =
  let weights = Array.init flows (fun i -> 1. /. Float.pow (float_of_int (i + 1)) exponent) in
  let total = Array.fold_left ( +. ) 0. weights in
  let cdf = Array.make flows 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(flows - 1) <- 1.0;
  cdf

let plan ?(payload_bytes = 18) ?(protocol = Flow.Udp) pattern =
  (match pattern with
  | Uniform { flows } when flows <= 0 -> invalid_arg "Traffic: flows must be positive"
  | Zipf { flows; _ } when flows <= 0 -> invalid_arg "Traffic: flows must be positive"
  | Zipf { exponent; _ } when exponent <= 0. -> invalid_arg "Traffic: exponent must be positive"
  | Single_flow _ | Uniform _ | Zipf _ -> ());
  let zipf_cdf =
    match pattern with
    | Zipf { flows; exponent } -> build_zipf_cdf flows exponent
    | Single_flow _ | Uniform _ -> [||]
  in
  let population =
    match pattern with Single_flow _ -> 0 | Uniform { flows } | Zipf { flows; _ } -> flows
  in
  {
    pattern;
    pl_payload_bytes = payload_bytes;
    pl_protocol = protocol;
    zipf_cdf;
    interned = Array.make population no_flow;
  }

let of_plan ~rng plan = { rng; plan }

let create ~rng ?payload_bytes pattern = of_plan ~rng (plan ?payload_bytes pattern)

let payload_bytes t = t.plan.pl_payload_bytes
let plan_population p =
  match p.pattern with
  | Single_flow _ -> 1
  | Uniform { flows } | Zipf { flows; _ } -> flows

let population t = plan_population t.plan

let plan_flow_of_index p i =
  match p.pattern with
  | Single_flow flow ->
    if i <> 0 then invalid_arg "Traffic.flow_of_index: single flow";
    flow
  | Uniform { flows } | Zipf { flows; _ } ->
    if i < 0 || i >= flows then invalid_arg "Traffic.flow_of_index: out of range";
    synth_flow p.pl_protocol i

let flow_of_index t i = plan_flow_of_index t.plan i

let expected_share p i =
  match p.pattern with
  | Single_flow _ ->
    if i <> 0 then invalid_arg "Traffic.expected_share: single flow";
    1.0
  | Uniform { flows } ->
    if i < 0 || i >= flows then invalid_arg "Traffic.expected_share: out of range";
    1.0 /. float_of_int flows
  | Zipf { flows; _ } ->
    if i < 0 || i >= flows then invalid_arg "Traffic.expected_share: out of range";
    if i = 0 then p.zipf_cdf.(0) else p.zipf_cdf.(i) -. p.zipf_cdf.(i - 1)

let interned_flow p i =
  let flow = Array.unsafe_get p.interned i in
  if flow != no_flow then flow
  else begin
    let flow = synth_flow p.pl_protocol i in
    p.interned.(i) <- flow;
    flow
  end

let next_flow t =
  let p = t.plan in
  match p.pattern with
  | Single_flow flow -> flow
  | Uniform { flows } -> interned_flow p (Cycles.Rng.int t.rng flows)
  | Zipf _ ->
    let u = Cycles.Rng.float t.rng 1.0 in
    (* Binary search for the first CDF entry >= u. *)
    let lo = ref 0 and hi = ref (Array.length p.zipf_cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if p.zipf_cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    interned_flow p !lo
