(* The live state and its snapshot are a [Store.t]: a checkpoint is
   [Store.snapshot], a crash is [Store.rollback] (a copy of the
   snapshot, which stays pristine for further crashes) plus the log. *)
type ('state, 'input) t = {
  store : 'state Store.t;
  apply : 'state -> 'input -> unit;
  interval : int;
  tele : Tele.t option;
  mutable log : 'input list;      (* newest first *)
  mutable since_snapshot : int;
  mutable checkpoints_taken : int;
}

let take_snapshot t =
  let stats = Store.snapshot t.store in
  t.log <- [];
  t.since_snapshot <- 0;
  t.checkpoints_taken <- t.checkpoints_taken + 1;
  Option.iter (fun tl -> Tele.record_snapshot tl stats) t.tele;
  stats

let create ~desc ~apply ~interval ?telemetry state =
  if interval <= 0 then invalid_arg "Replay.create: interval must be positive";
  let t =
    {
      store = Store.create desc state;
      apply;
      interval;
      tele = Option.map Tele.v telemetry;
      log = [];
      since_snapshot = 0;
      checkpoints_taken = 0;
    }
  in
  ignore (take_snapshot t);
  t

let state t = Store.get t.store

let feed t input =
  t.apply (state t) input;
  t.log <- input :: t.log;
  t.since_snapshot <- t.since_snapshot + 1;
  if t.since_snapshot >= t.interval then Some (take_snapshot t) else None

type recovery = { replayed : int; checkpoint_age : int }

let crash_and_recover t =
  let checkpoint_age = t.since_snapshot in
  let stats = Store.rollback t.store in
  let inputs = List.rev t.log in
  List.iter (t.apply (state t)) inputs;
  let replayed = List.length inputs in
  Option.iter
    (fun tl ->
      Tele.record_rollback tl stats;
      Tele.record_replayed tl replayed)
    t.tele;
  { replayed; checkpoint_age }

let checkpoints_taken t = t.checkpoints_taken
let log_length t = List.length t.log
