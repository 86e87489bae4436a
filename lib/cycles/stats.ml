type t = {
  mutable samples : float array;
  mutable len : int;
  mutable sorted : bool;
  mutable sum : float;
}

let create () = { samples = Array.make 16 0.; len = 0; sorted = true; sum = 0. }

let add t x =
  if t.len = Array.length t.samples then begin
    let bigger = Array.make (2 * t.len) 0. in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false;
  t.sum <- t.sum +. x

let mean t = if t.len = 0 then 0. else t.sum /. float_of_int t.len

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.samples 0 t.len in
    Array.sort compare live;
    Array.blit live 0 t.samples 0 t.len;
    t.sorted <- true
  end

let percentile t p =
  if t.len = 0 then invalid_arg "Stats.percentile: empty accumulator";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  ensure_sorted t;
  let rank = int_of_float (ceil (p /. 100. *. float_of_int t.len)) in
  let idx = max 0 (min (t.len - 1) (rank - 1)) in
  t.samples.(idx)
