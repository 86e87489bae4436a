type ('state, 'input) t = {
  desc : 'state Checkpointable.t;
  apply : 'state -> 'input -> unit;
  interval : int;
  tele : Tele.t option;
  mutable live : 'state;
  mutable snapshot : 'state;
  mutable log : 'input list;      (* newest first *)
  mutable since_snapshot : int;
  mutable checkpoints_taken : int;
}

let take_snapshot t =
  let copy, stats = Checkpointable.checkpoint t.desc t.live in
  t.snapshot <- copy;
  t.log <- [];
  t.since_snapshot <- 0;
  t.checkpoints_taken <- t.checkpoints_taken + 1;
  Option.iter (fun tl -> Tele.record_snapshot tl stats) t.tele;
  stats

let create ~desc ~apply ~interval ?telemetry state =
  if interval <= 0 then invalid_arg "Replay.create: interval must be positive";
  let t =
    {
      desc;
      apply;
      interval;
      tele = Option.map Tele.v telemetry;
      live = state;
      snapshot = state (* replaced immediately below *);
      log = [];
      since_snapshot = 0;
      checkpoints_taken = 0;
    }
  in
  ignore (take_snapshot t);
  t

let state t = t.live

let feed t input =
  t.apply t.live input;
  t.log <- input :: t.log;
  t.since_snapshot <- t.since_snapshot + 1;
  if t.since_snapshot >= t.interval then Some (take_snapshot t) else None

type recovery = { replayed : int; checkpoint_age : int }

let crash_and_recover t =
  let checkpoint_age = t.since_snapshot in
  (* The live state is gone; rebuild from the (preserved) snapshot. A
     copy is installed so the snapshot itself stays pristine for
     further crashes. *)
  let fresh, stats = Checkpointable.checkpoint t.desc t.snapshot in
  t.live <- fresh;
  let inputs = List.rev t.log in
  List.iter (t.apply t.live) inputs;
  let replayed = List.length inputs in
  Option.iter
    (fun tl ->
      Tele.record_rollback tl stats;
      Tele.record_replayed tl replayed)
    t.tele;
  { replayed; checkpoint_age }

let checkpoints_taken t = t.checkpoints_taken
let log_length t = List.length t.log
