type t = {
  clock : Cycles.Clock.t;
  hist : Histogram.t;
}

let create ~clock hist = { clock; hist }

let with_ t f =
  let start = Cycles.Clock.now t.clock in
  Fun.protect
    ~finally:(fun () ->
      Histogram.observe t.hist (Int64.to_int (Int64.sub (Cycles.Clock.now t.clock) start)))
    f
