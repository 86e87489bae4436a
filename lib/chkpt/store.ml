type 'a t = {
  desc : 'a Checkpointable.t;
  strategy : Checkpointable.strategy;
  mutable live : 'a;
  mutable snap : 'a option;
}

let create ?(strategy = Checkpointable.Rc_flag) desc live =
  { desc; strategy; live; snap = None }

let get t = t.live

let snapshot t =
  let copy, stats = Checkpointable.checkpoint ~strategy:t.strategy t.desc t.live in
  t.snap <- Some copy;
  stats

let rollback t =
  match t.snap with
  | None -> invalid_arg "Store.rollback: no snapshot"
  | Some snap ->
    let copy, stats = Checkpointable.checkpoint ~strategy:t.strategy t.desc snap in
    t.live <- copy;
    stats
