type fault =
  | Panic_in_stage of { stage : int }
  | Recovery_panic of { stage : int; times : int }
  | Rref_revoke of { stage : int }
  | Channel_full
  | Mempool_exhaust of { buffers : int }

type kind =
  | Panics
  | Recovery_panics
  | Revocations
  | Channel_overflows
  | Mempool_pressure

let all_kinds = [ Panics; Recovery_panics; Revocations; Channel_overflows; Mempool_pressure ]

type queue_plan = {
  q_rounds : int;
  by_round : (int, fault list) Hashtbl.t;  (* faults stored in draw order *)
  q_total : int;
}

(* Mix the queue index into the seed SplitMix-style, so queue streams
   are independent and a function of (seed, queue) alone. *)
let queue_seed seed q =
  Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (q + 1)))

let max_recovery_panics = 3
let max_steal = 16

let draw_fault rng ~stages =
  let kind = List.nth all_kinds (Cycles.Rng.int rng (List.length all_kinds)) in
  match kind with
  | Panics -> Panic_in_stage { stage = Cycles.Rng.int rng stages }
  | Recovery_panics ->
    Recovery_panic
      { stage = Cycles.Rng.int rng stages; times = 1 + Cycles.Rng.int rng max_recovery_panics }
  | Revocations -> Rref_revoke { stage = Cycles.Rng.int rng stages }
  | Channel_overflows -> Channel_full
  | Mempool_pressure -> Mempool_exhaust { buffers = 1 + Cycles.Rng.int rng max_steal }

let for_queue ~seed ~rate ~rounds ~stages ~queue () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Plan.for_queue: rate must be in [0, 1]";
  if rounds < 0 then invalid_arg "Plan.for_queue: rounds must be non-negative";
  if stages <= 0 then invalid_arg "Plan.for_queue: stages must be positive";
  let by_round = Hashtbl.create 16 in
  let total = ref 0 in
  if rate > 0.0 then begin
    let rng = Cycles.Rng.create (queue_seed seed queue) in
    (* Poisson arrivals: exponential inter-arrival gaps with mean
       [1/rate] rounds, floored at one round. *)
    let gap () =
      let u = Cycles.Rng.float rng 1.0 in
      max 1 (int_of_float (ceil (-.log (1.0 -. u) /. rate)))
    in
    let round = ref (gap ()) in
    while !round <= rounds do
      let f = draw_fault rng ~stages in
      let existing = Option.value (Hashtbl.find_opt by_round !round) ~default:[] in
      Hashtbl.replace by_round !round (existing @ [ f ]);
      incr total;
      round := !round + gap ()
    done
  end;
  { q_rounds = rounds; by_round; q_total = !total }

let faults_at qp ~round =
  ignore qp.q_rounds;
  Option.value (Hashtbl.find_opt qp.by_round round) ~default:[]

let queue_total qp = qp.q_total
