type t = {
  v : int Atomic.t;
  charge : unit -> unit;
}

let make ~charge () = { v = Atomic.make 0; charge }

let set t n =
  t.charge ();
  Atomic.set t.v n

let add t n =
  t.charge ();
  ignore (Atomic.fetch_and_add t.v n)

let value t = Atomic.get t.v
