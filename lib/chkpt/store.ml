type 'a full = {
  desc : 'a Checkpointable.t;
  strategy : Checkpointable.strategy;
  mutable live : 'a;
  mutable stack : 'a list;
}

type 'a backing = Full of 'a full | Incr of 'a Incr.tracker

type 'a t = {
  backing : 'a backing;
  tele : Tele.t option;
  mutable snapshots_taken : int;
  mutable rollbacks : int;
}

let create ?(strategy = Checkpointable.Rc_flag) desc live =
  {
    backing = Full { desc; strategy; live; stack = [] };
    tele = None;
    snapshots_taken = 0;
    rollbacks = 0;
  }

let create_incr ?telemetry tracker =
  let tele = Option.map Tele.v telemetry in
  { backing = Incr tracker; tele; snapshots_taken = 0; rollbacks = 0 }

let get t = match t.backing with Full f -> f.live | Incr tr -> tr.Incr.value

let snapshot t =
  let stats =
    match t.backing with
    | Full f ->
      let copy, stats = Checkpointable.checkpoint ~strategy:f.strategy f.desc f.live in
      f.stack <- copy :: f.stack;
      stats
    | Incr tr -> tr.Incr.sync ()
  in
  t.snapshots_taken <- t.snapshots_taken + 1;
  Option.iter (fun tl -> Tele.record_snapshot tl stats) t.tele;
  stats

let rollback t =
  let stats =
    match t.backing with
    | Full f -> (
      match f.stack with
      | [] -> invalid_arg "Store.rollback: no snapshot"
      | snap :: _ ->
        let copy, stats = Checkpointable.checkpoint ~strategy:f.strategy f.desc snap in
        f.live <- copy;
        stats)
    | Incr tr ->
      if not (tr.Incr.synced ()) then invalid_arg "Store.rollback: no snapshot";
      tr.Incr.restore ()
  in
  t.rollbacks <- t.rollbacks + 1;
  Option.iter (fun tl -> Tele.record_rollback tl stats) t.tele;
  stats

let commit t =
  match t.backing with
  | Full f -> (
    match f.stack with
    | [] -> invalid_arg "Store.commit: no snapshot"
    | _ :: rest -> f.stack <- rest)
  | Incr _ -> invalid_arg "Store.commit: incremental store keeps one shadow snapshot"

let depth t =
  match t.backing with
  | Full f -> List.length f.stack
  | Incr tr -> if tr.Incr.synced () then 1 else 0

let snapshots_taken t = t.snapshots_taken
let rollbacks t = t.rollbacks
