type policy =
  | Immediate
  | Backoff of { base : int; cap : int }
  | Breaker of { failures : int; window : int; cooldown : int }
  | Degrade

let policy_name = function
  | Immediate -> "restart"
  | Backoff _ -> "backoff"
  | Breaker _ -> "breaker"
  | Degrade -> "degrade"

type breaker_state = Closed | Open | Half_open

let breaker_code = function Closed -> 0 | Open -> 1 | Half_open -> 2

type t = {
  policy : policy;
  mutable consecutive : int;
  mutable stamps : int64 list;  (* breaker: recent failure times, newest first *)
  mutable bstate : breaker_state;
}

let create policy =
  (match policy with
  | Backoff { base; cap } ->
    if base <= 0 || cap < base then invalid_arg "Restart.create: need 0 < base <= cap"
  | Breaker { failures; window; cooldown } ->
    if failures <= 0 || window <= 0 || cooldown <= 0 then
      invalid_arg "Restart.create: breaker parameters must be positive"
  | Immediate | Degrade -> ());
  { policy; consecutive = 0; stamps = []; bstate = Closed }

let policy t = t.policy

type decision =
  | Retry_at of int64
  | Trip_until of int64
  | Give_up

let backoff_delay ~base ~cap n =
  (* n-th consecutive failure, n >= 1; shift saturates well before
     overflow territory. *)
  if n >= 30 then cap else min cap (base lsl (n - 1))

let on_failure t ~now =
  t.consecutive <- t.consecutive + 1;
  match t.policy with
  | Immediate -> Retry_at now
  | Backoff { base; cap } ->
    Retry_at (Int64.add now (Int64.of_int (backoff_delay ~base ~cap t.consecutive)))
  | Degrade -> Give_up
  | Breaker { failures; window; cooldown } ->
    (match t.bstate with
    | Half_open ->
      (* The probe failed: straight back to Open. *)
      t.bstate <- Open;
      t.stamps <- [];
      Trip_until (Int64.add now (Int64.of_int cooldown))
    | Open ->
      (* Failure while already open (e.g. the restart attempt itself
         panicked): extend the cooldown from now. *)
      Trip_until (Int64.add now (Int64.of_int cooldown))
    | Closed ->
      let horizon = Int64.sub now (Int64.of_int window) in
      t.stamps <- now :: List.filter (fun s -> Int64.compare s horizon >= 0) t.stamps;
      if List.length t.stamps >= failures then begin
        t.bstate <- Open;
        t.stamps <- [];
        Trip_until (Int64.add now (Int64.of_int cooldown))
      end
      else Retry_at now)

let on_restart t =
  match t.bstate with
  | Open ->
    t.bstate <- Half_open;
    `Probe
  | Closed | Half_open -> `Normal

let on_service_ok t =
  t.consecutive <- 0;
  t.stamps <- [];
  t.bstate <- Closed

let breaker_state t = t.bstate
