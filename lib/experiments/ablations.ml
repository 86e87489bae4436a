type pin_row = { variant : string; cycles_per_call : float; revocable : bool }

type attribution_row = {
  zeroed : string;
  overhead_per_call : float;
  delta_vs_full : float;
}

type unwind_row = { unwind_cost : int; recovery_total : float }

type tele_row = { tele_op : string; events : int; cycles_per_event : float }

type result = {
  pin : pin_row list;
  attribution : attribution_row list;
  unwind : unwind_row list;
  telemetry : tele_row list;
}

(* A1: full invoke vs pinned invoke on a hot counter service. *)
let pin_ablation () =
  let trials = 1000 in
  let mgr = Sfi.Manager.create () in
  let clock = Sfi.Manager.clock mgr in
  let d = Sfi.Manager.create_domain mgr ~name:"svc" () in
  let rref = Sfi.Rref.create d ~label:"counter" (ref 0) in
  let mean_of f =
    (* Warm up, then average. *)
    for _ = 1 to 50 do
      ignore (f ())
    done;
    let stats = Cycles.Stats.create () in
    for _ = 1 to trials do
      let _, c = Cycles.Clock.measure clock f in
      Cycles.Stats.add stats (Int64.to_float c)
    done;
    Cycles.Stats.mean stats
  in
  let full = mean_of (fun () -> Sfi.Rref.invoke rref (fun c -> incr c)) in
  let pinned =
    match Sfi.Rref.pin rref with
    | Error e -> failwith (Sfi.Sfi_error.to_string e)
    | Ok p ->
      let m = mean_of (fun () -> Sfi.Rref.invoke_pinned p (fun c -> incr c)) in
      Sfi.Rref.unpin p;
      m
  in
  [
    { variant = "weak upgrade per call (ours)"; cycles_per_call = full; revocable = true };
    { variant = "pinned strong reference"; cycles_per_call = pinned; revocable = false };
  ]

(* A2: re-run the Figure-2 batch-1 measurement with one micro-cost
   zeroed at a time, on E1's per-boundary chain. *)
let overhead_with ~telemetry model =
  let stages = Netstack.Filters.null_chain Fig2.pipeline_length in
  let direct =
    let env = Env.make ~model ~telemetry () in
    Env.mean_batch_cycles env Netstack.Pipeline.Direct stages ~batch:1
  in
  let isolated =
    let env = Env.make ~model ~telemetry () in
    Env.mean_batch_cycles env (Netstack.Pipeline.Isolated env.Env.manager) stages ~batch:1
  in
  (isolated -. direct) /. float_of_int Fig2.pipeline_length

let attribution_ablation ~telemetry =
  let base = Cycles.Cost_model.default in
  let variants =
    [
      ("(none: full model)", base);
      ("tls_lookup", { base with tls_lookup = 0 });
      ("atomic_rmw", { base with atomic_rmw = 0 });
      ("indirect_call", { base with indirect_call = 0 });
    ]
  in
  let full = overhead_with ~telemetry base in
  List.map
    (fun (zeroed, model) ->
      let overhead_per_call = overhead_with ~telemetry model in
      { zeroed; overhead_per_call; delta_vs_full = full -. overhead_per_call })
    variants

(* A3: recovery total vs modelled unwind cost, on E3's crash loop. *)
let unwind_ablation ~telemetry =
  List.map
    (fun unwind ->
      let model = { Cycles.Cost_model.default with unwind } in
      let stats = Cycles.Stats.create () in
      Recovery.crash_loop (Env.make ~model ~telemetry ()) ~trials:200 (fun c1 c2 ->
          Cycles.Stats.add stats (Int64.to_float (Int64.add c1 c2)));
      { unwind_cost = unwind; recovery_total = Cycles.Stats.mean stats })
    [ 0; 1400; 2800; 5600 ]

(* A4: what one telemetry event costs in virtual cycles. The charged
   registry bills each recording to the clock through the same cost
   model as everything else; the default (uncharged) registry is free
   by construction — which is why wiring telemetry into the Figure-2
   runs does not move their numbers. *)
let telemetry_overhead () =
  let events = 10_000 in
  let clock = Cycles.Clock.create () in
  let reg = Telemetry.Registry.create ~clock ~charge:true () in
  let counter = Telemetry.Registry.counter reg "ablation.counter" in
  let hist = Telemetry.Registry.histogram reg "ablation.hist" in
  let span = Telemetry.Span.create ~clock (Telemetry.Registry.histogram reg "ablation.span") in
  let uncharged = Telemetry.Registry.create () in
  let free_counter = Telemetry.Registry.counter uncharged "ablation.counter" in
  let per_event f =
    let _, cycles =
      Cycles.Clock.measure clock (fun () ->
          for i = 1 to events do
            f i
          done)
    in
    Int64.to_float cycles /. float_of_int events
  in
  [
    {
      tele_op = "counter incr (charged)";
      events;
      cycles_per_event = per_event (fun _ -> Telemetry.Counter.incr counter);
    };
    {
      tele_op = "histogram observe (charged)";
      events;
      cycles_per_event = per_event (fun i -> Telemetry.Histogram.observe hist i);
    };
    {
      tele_op = "span enter+exit (charged)";
      events;
      cycles_per_event = per_event (fun _ -> Telemetry.Span.with_ span (fun () -> ()));
    };
    {
      tele_op = "counter incr (uncharged)";
      events;
      cycles_per_event = per_event (fun _ -> Telemetry.Counter.incr free_counter);
    };
  ]

let run ~telemetry =
  {
    pin = pin_ablation ();
    attribution = attribution_ablation ~telemetry;
    unwind = unwind_ablation ~telemetry;
    telemetry = telemetry_overhead ();
  }

let print r =
  print_endline "A1: full remote invocation vs pinned strong reference";
  Table.print
    ~header:[ "variant"; "cycles/call"; "revocable" ]
    (List.map
       (fun p -> [ p.variant; Table.ff p.cycles_per_call; Table.fb p.revocable ])
       r.pin);
  print_endline "";
  print_endline "A2: where the per-call overhead lives (micro-cost zeroed at a time)";
  Table.print
    ~header:[ "zeroed cost"; "overhead/call"; "share of full" ]
    (List.map
       (fun a -> [ a.zeroed; Table.ff a.overhead_per_call; Table.ff a.delta_vs_full ])
       r.attribution);
  print_endline "";
  print_endline "A3: recovery cost vs modelled stack-unwind cost";
  Table.print
    ~header:[ "unwind cycles"; "recovery total" ]
    (List.map (fun u -> [ Table.fi u.unwind_cost; Table.ff u.recovery_total ]) r.unwind);
  print_endline "";
  print_endline "A4: telemetry per-event cost (virtual cycles, charged vs default registry)";
  Table.print
    ~header:[ "operation"; "events"; "cycles/event" ]
    (List.map
       (fun t -> [ t.tele_op; Table.fi t.events; Table.ff ~decimals:1 t.cycles_per_event ])
       r.telemetry)
