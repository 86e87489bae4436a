(* A stage is a kernel descriptor, not a batch closure: declaring the
   kernel's *shape* (per-packet rewrite, per-packet filter, or an
   opaque batch transformer) is what lets an Isolated pipeline run
   adjacent pure kernels in one protection domain, one crossing per
   fused group instead of per stage. *)

type kernel =
  | Rewrite of (Engine.t -> Batch.t -> int -> Packet.t -> unit)
  | Filter of (Engine.t -> Batch.t -> int -> Packet.t -> bool)
  | Opaque of (Engine.t -> Batch.t -> Batch.t)

type hook = (unit -> unit) -> unit

(* What a kernel body touches: [Cols] bodies go through the batch's
   header-plane columns (and flow memo) only and never read wire
   bytes, so the pipeline can defer byte writeback across them; [Bytes]
   bodies may read or write raw bytes and force the plane to
   materialize first. [Opaque] kernels are always [Bytes]. *)
type access = Cols | Bytes

type t = {
  name : string;
  kernel : kernel;
  hooks : hook list;
  access : access;
}

let rewrite ~name ?(hooks = []) ?(access = Bytes) f =
  { name; kernel = Rewrite f; hooks; access }

let filter ~name ?(hooks = []) ?(access = Bytes) f =
  { name; kernel = Filter f; hooks; access }

let opaque ~name ?(hooks = []) f = { name; kernel = Opaque f; hooks; access = Bytes }

let name t = t.name
let kernel t = t.kernel
let hooks t = t.hooks
let access t = t.access
let with_hooks hooks t = { t with hooks }

let fusible t = match t.kernel with Rewrite _ | Filter _ -> true | Opaque _ -> false

(* Run one stage standalone, replicating the pre-fusion per-stage
   semantics exactly: filter drops are released to the pool after the
   pass, in encounter order (the mempool free list is LIFO, so the
   order is observable through later allocation addresses). *)
let process t engine batch =
  (* Standalone runs follow the same barrier discipline as the
     pipeline: a byte-touching body sees canonical bytes, and the batch
     handed back is materialized. Both passes are wall-clock only. *)
  if t.access = Bytes then Batch.materialize batch;
  let out =
    match t.kernel with
    | Opaque f -> f engine batch
    | Rewrite f ->
      for i = 0 to Batch.length batch - 1 do
        f engine batch i (Batch.get batch i)
      done;
      batch
    | Filter f ->
      let dropped = Batch.filteri_in_place batch (fun i p -> f engine batch i p) in
      List.iter (fun p -> Mempool.free (Engine.pool engine) p) dropped;
      batch
  in
  Batch.materialize out;
  out

let barrier t = opaque ~name:t.name ~hooks:t.hooks (process t)
