type t = int array

let entries = 128

let create ~queues () =
  if queues <= 0 then invalid_arg "Rss.create: queues must be positive";
  if queues > entries then invalid_arg "Rss.create: more queues than table entries";
  (* The default NIC programming: buckets dealt round-robin over the
     queues, so every queue owns entries/queues buckets. *)
  Array.init entries (fun i -> i mod queues)

let queue t flow = t.(Flow.hash flow land (entries - 1))
