type 'a t = {
  desc : 'a Checkpointable.t;
  strategy : Checkpointable.strategy;
  mutable live : 'a;
  mutable stack : 'a list;
}

let create ?(strategy = Checkpointable.Rc_flag) desc live =
  { desc; strategy; live; stack = [] }

let get t = t.live

let snapshot t =
  let copy, stats = Checkpointable.checkpoint ~strategy:t.strategy t.desc t.live in
  t.stack <- copy :: t.stack;
  stats

let rollback t =
  match t.stack with
  | [] -> invalid_arg "Store.rollback: no snapshot"
  | snap :: _ ->
    let copy, stats = Checkpointable.checkpoint ~strategy:t.strategy t.desc snap in
    t.live <- copy;
    stats

let commit t =
  match t.stack with
  | [] -> invalid_arg "Store.commit: no snapshot"
  | _ :: rest -> t.stack <- rest

let depth t = List.length t.stack
