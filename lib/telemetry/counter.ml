type t = {
  v : int Atomic.t;
  charge : unit -> unit;
}

let make ~charge () = { v = Atomic.make 0; charge }

let add t n =
  if n < 0 then invalid_arg "Counter.add: counters are monotonic";
  t.charge ();
  ignore (Atomic.fetch_and_add t.v n)

let incr t = add t 1
let value t = Atomic.get t.v
