type 'a t = {
  desc : 'a Checkpointable.t;
  mutable live : 'a;
  mutable snap : 'a option;
}

let create desc live = { desc; live; snap = None }

let get t = t.live

let snapshot t =
  let copy, stats = Checkpointable.checkpoint t.desc t.live in
  t.snap <- Some copy;
  stats

let rollback t =
  match t.snap with
  | None -> invalid_arg "Store.rollback: no snapshot"
  | Some snap ->
    let copy, stats = Checkpointable.checkpoint t.desc snap in
    t.live <- copy;
    stats
