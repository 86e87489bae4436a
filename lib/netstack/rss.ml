type t = {
  queues : int;
  table : int array;
  mask : int;
}

let default_entries = 128

let create ?(entries = default_entries) ~queues () =
  if queues <= 0 then invalid_arg "Rss.create: queues must be positive";
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Rss.create: entries must be a power of two";
  if queues > entries then invalid_arg "Rss.create: more queues than table entries";
  (* The default NIC programming: buckets dealt round-robin over the
     queues, so every queue owns entries/queues buckets. *)
  { queues; table = Array.init entries (fun i -> i mod queues); mask = entries - 1 }

let queues t = t.queues
let entries t = Array.length t.table

let bucket_of_key t key = key land t.mask
let bucket t flow = bucket_of_key t (Flow.hash flow)
let queue t flow = t.table.(bucket t flow)

let retarget t ~bucket ~queue =
  if bucket < 0 || bucket > t.mask then invalid_arg "Rss.retarget: bad bucket";
  if queue < 0 || queue >= t.queues then invalid_arg "Rss.retarget: bad queue";
  t.table.(bucket) <- queue
