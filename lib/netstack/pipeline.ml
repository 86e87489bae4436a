type mode =
  | Direct
  | Isolated of Sfi.Manager.t
  | Copying
  | Tagged

(* A fused group of the Isolated plan: a maximal run of adjacent
   fusible kernels (Rewrite/Filter), or a single Opaque stage (opaque
   kernels are fusion barriers). [g_base] is the pipeline index of the
   first member, so member [k] is stage [g_base + k] for skip flags,
   telemetry and supervisor attribution. *)
type group = {
  g_base : int;
  g_stages : Stage.t array;
  g_name : string;  (* member names joined with "+" *)
}

type isolated_cell = {
  ic_group : group;
  domain : Sfi.Pdomain.t;
  mutable rref : Stage.t array Sfi.Rref.t;
}

(* Isolated mode's domain plan and crossing state: one cell (domain,
   proxy) per fused group. [m_in]/[m_out] stage per-member batch
   lengths during a crossing, sized to the largest group. *)
type isolated = {
  mgr : Sfi.Manager.t;
  cells : isolated_cell array;
  cell_of_stage : int array;  (* stage index -> index into [cells] *)
  mutable scratch : Packet.t array;  (* in-flight snapshots, reused *)
  m_in : int array;   (* per group member: batch length entering; -1 = not run *)
  m_out : int array;  (* per group member: batch length leaving *)
  mutable m_cur : int;  (* member executing inside the current crossing *)
}

type prepared =
  | P_calls of Stage.t array  (* Direct / Copying / Tagged share this *)
  | P_isolated of isolated

(* Pre-resolved per-stage handles under [netstack.stage.<name>.*]. *)
type stage_tele = {
  st_processed : Telemetry.Counter.t;
  st_drops : Telemetry.Counter.t;
}

type tele = {
  pt_batches : Telemetry.Counter.t;
  pt_failed_batches : Telemetry.Counter.t;
  pt_degraded_batches : Telemetry.Counter.t;
  pt_packets_in : Telemetry.Counter.t;
  pt_batch_span : Telemetry.Span.t;
  pt_stages : stage_tele array;
}

(* Fast-path working state, owned by the pipeline and reused across
   batches (grown to the high-water mark once). [fs_disp] records each
   input packet's disposition: [-1] replayed-and-serve, [-2]
   replayed-and-drop, [j >= 0] the packet's index in the slow
   sub-batch — what lets the output batch be rebuilt in exact arrival
   order after the slow chain ran. *)
type fc_state = {
  fc : Flowcache.t;
  fc_slot_map : int array;  (* pool slot -> slow index + 1; 0 = none *)
  mutable fs_disp : int array;
  mutable fs_guards : string array;  (* per slow index: input guard *)
  mutable fs_keys : int array;
  mutable fs_in_lens : int array;
  mutable fs_slots : int array;
  mutable fs_out_pkts : Packet.t array;  (* per slow index: surviving output *)
  mutable fs_survived : bool array;
  mutable fs_slow : Batch.t;
  mutable fs_out : Batch.t;
}

type t = {
  engine : Engine.t;
  stage_engine : Engine.t;  (* Tagged: a Tagged view of [engine]; else [engine] *)
  mode : mode;
  prepared : prepared;
  n_stages : int;
  skipped : bool array;  (* degraded stages the batch routes around *)
  tele : tele option;
  fcs : fc_state option;
  mutable drop_scratch : Packet.t array;  (* filter-pass drops, reused *)
  mutable batches_ok : int;
  mutable batches_failed : int;
  mutable batches_degraded : int;
  mutable last_error : int option;
}

(* The fusion pass of the Isolated plan: partition the stage list into
   maximal runs of fusible kernels, with every Opaque stage a
   singleton. *)
let compute_groups stages =
  let n = Array.length stages in
  let groups = ref [] in
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    if Stage.fusible stages.(!i) then
      while !j < n && Stage.fusible stages.(!j) do
        incr j
      done;
    let members = Array.sub stages !i (!j - !i) in
    let name =
      String.concat "+" (List.map (fun (s : Stage.t) -> s.Stage.name) (Array.to_list members))
    in
    groups := { g_base = !i; g_stages = members; g_name = name } :: !groups;
    i := !j
  done;
  Array.of_list (List.rev !groups)

let prepare_isolated mgr stages =
  let groups = compute_groups stages in
  let cells =
    Array.map
      (fun (grp : group) ->
        let domain = Sfi.Manager.create_domain mgr ~name:grp.g_name () in
        let rref =
          match
            Sfi.Pdomain.execute domain (fun () ->
                Sfi.Rref.create domain ~label:grp.g_name grp.g_stages)
          with
          | Ok r -> r
          | Error e ->
            invalid_arg
              (Printf.sprintf "Pipeline: cannot install stage %s: %s" grp.g_name
                 (Sfi.Sfi_error.to_string e))
        in
        let cell = { ic_group = grp; domain; rref } in
        (* Recovery re-publishes the same stages behind a fresh proxy. *)
        Sfi.Pdomain.set_recovery domain
          (Some (fun d -> cell.rref <- Sfi.Rref.create d ~label:grp.g_name grp.g_stages));
        cell)
      groups
  in
  let cell_of_stage = Array.make (Array.length stages) 0 in
  Array.iteri
    (fun c (grp : group) ->
      Array.iteri (fun k _ -> cell_of_stage.(grp.g_base + k) <- c) grp.g_stages)
    groups;
  let max_group = Array.fold_left (fun m g -> max m (Array.length g.g_stages)) 1 groups in
  {
    mgr;
    cells;
    cell_of_stage;
    scratch = [||];
    m_in = Array.make max_group (-1);
    m_out = Array.make max_group 0;
    m_cur = -1;
  }

let make_tele engine stages =
  match Engine.telemetry engine with
  | None -> None
  | Some reg ->
    let scope = Telemetry.Scope.v reg "netstack.pipeline" in
    Some
      {
        pt_batches = Telemetry.Scope.counter scope "batches";
        pt_failed_batches = Telemetry.Scope.counter scope "failed_batches";
        pt_degraded_batches = Telemetry.Scope.counter scope "degraded_batches";
        pt_packets_in = Telemetry.Scope.counter scope "packets_in";
        pt_batch_span =
          Telemetry.Span.create ~clock:(Engine.clock engine)
            (Telemetry.Scope.histogram scope "batch_cycles");
        pt_stages =
          Array.of_list
            (List.map
               (fun (stage : Stage.t) ->
                 let s = Telemetry.Scope.v reg ("netstack.stage." ^ stage.Stage.name) in
                 {
                   st_processed = Telemetry.Scope.counter s "processed";
                   st_drops = Telemetry.Scope.counter s "drops";
                 })
               stages);
      }

let create ~engine ~mode ?flowcache stages =
  if stages = [] then invalid_arg "Pipeline.create: no stages";
  (match (mode, flowcache) with
  | Copying, Some _ ->
    (* Copying re-homes every packet into fresh buffers per boundary;
       slot-based matching of slow-path outputs to inputs (and the
       whole premise that replay skips the per-boundary copies the
       mode exists to measure) does not survive that. *)
    invalid_arg "Pipeline.create: flowcache is incompatible with Copying mode"
  | (Direct | Isolated _ | Tagged | Copying), _ -> ());
  let stage_array = Array.of_list stages in
  let n_stages = Array.length stage_array in
  let prepared =
    match mode with
    | Direct | Copying | Tagged -> P_calls stage_array
    | Isolated mgr -> P_isolated (prepare_isolated mgr stage_array)
  in
  (* The mode is part of the pipeline's identity, fixed at creation:
     a Tagged pipeline owns a Tagged *view* of the engine rather than
     flipping the shared engine's mode around every batch (which
     sharded engines would race on). *)
  let stage_engine =
    match mode with
    | Tagged -> Engine.with_mode engine Engine.Tagged
    | Direct | Copying | Isolated _ -> engine
  in
  (* The cache's staleness barrier, wired by construction: every hook a
     stage descriptor declares gets the cache's invalidation
     registered through it, so a mutation of any state the chain's
     verdicts depend on flushes the memoised verdicts without the
     call site having to remember to. *)
  (match flowcache with
  | Some fc ->
    List.iter
      (fun (stage : Stage.t) ->
        List.iter (fun hook -> hook (fun () -> Flowcache.invalidate fc)) stage.Stage.hooks)
      stages
  | None -> ());
  let fcs =
    Option.map
      (fun fc ->
        {
          fc;
          fc_slot_map = Array.make (Mempool.capacity (Engine.pool engine)) 0;
          fs_disp = [||];
          fs_guards = [||];
          fs_keys = [||];
          fs_in_lens = [||];
          fs_slots = [||];
          fs_out_pkts = [||];
          fs_survived = [||];
          fs_slow = Batch.create ~capacity:1;
          fs_out = Batch.create ~capacity:1;
        })
      flowcache
  in
  {
    engine;
    stage_engine;
    mode;
    prepared;
    n_stages;
    skipped = Array.make n_stages false;
    tele = make_tele engine stages;
    fcs;
    drop_scratch = [||];
    batches_ok = 0;
    batches_failed = 0;
    batches_degraded = 0;
    last_error = None;
  }

let length t = t.n_stages

let fused_groups t =
  match t.prepared with
  | P_calls stages -> Array.to_list (Array.map (fun (s : Stage.t) -> [ s.Stage.name ]) stages)
  | P_isolated iso ->
    Array.to_list
      (Array.map
         (fun c ->
           Array.to_list (Array.map (fun (s : Stage.t) -> s.Stage.name) c.ic_group.g_stages))
         iso.cells)

(* Deep-copy every packet of the batch into fresh buffers (the next
   domain's private heap) and release the originals. The copies are
   byte-identical, so each slot's header plane and flow memo transfer
   verbatim. *)
let copy_batch engine batch =
  let clock = Engine.clock engine in
  let pool = Engine.pool engine in
  let n = Batch.length batch in
  let fresh = Batch.create ~capacity:(max 1 n) in
  for i = 0 to n - 1 do
    let src = Batch.get batch i in
    if not (Mempool.alloc_into pool fresh) then
      (* Pool pressure from double-buffering: drop the packet. *)
      Mempool.free pool src
    else begin
      let j = Batch.length fresh - 1 in
      let dst = Batch.get fresh j in
      Slab.blit src.Packet.buf 0 dst.Packet.buf 0 src.Packet.len;
      dst.Packet.len <- src.Packet.len;
      Engine.touch_packet engine src ~off:0 ~bytes:src.Packet.len;
      Engine.touch_packet engine dst ~off:0 ~bytes:src.Packet.len;
      Cycles.Clock.charge clock (Copy src.Packet.len);
      Mempool.free pool src;
      Batch.blit_slot batch i fresh j
    end
  done;
  Batch.clear batch;
  fresh

(* Stage [i] turned [in_len] packets into [out_len]: everything that
   went in but did not come out was dropped by the stage. *)
let record_stage t i ~in_len ~out_len =
  match t.tele with
  | None -> ()
  | Some tl ->
    let st = tl.pt_stages.(i) in
    Telemetry.Counter.add st.st_processed out_len;
    if in_len > out_len then Telemetry.Counter.add st.st_drops (in_len - out_len)

(* One kernel pass over the batch. Passes are stage-major — each
   member kernel traverses the whole batch before the next starts —
   because the cache simulator is stateful: interleaving members
   packet-major would change the line-touch order and with it every
   cycle total. Filter drops are released after the pass in encounter
   order (the pool free list is LIFO; order is observable through
   later allocation addresses), through a reusable scratch array so
   the pass allocates nothing. *)
let run_member t (stage : Stage.t) engine batch =
  match stage.Stage.kernel with
  | Stage.Opaque f -> f engine batch
  | Stage.Rewrite f ->
    for i = 0 to Batch.length batch - 1 do
      f engine batch i (Batch.get batch i)
    done;
    batch
  | Stage.Filter f ->
    let n = Batch.length batch in
    if Array.length t.drop_scratch < n then
      t.drop_scratch <- Array.make (max n (2 * Array.length t.drop_scratch)) Packet.null;
    let dropped = t.drop_scratch in
    let d = Batch.sieve_kernel batch f engine ~dropped in
    let pool = Engine.pool engine in
    for k = 0 to d - 1 do
      Mempool.free pool dropped.(k)
    done;
    batch

(* The per-batch loop of the calls modes: per live stage, one [Call],
   then its pass (in Copying mode after a deep copy into fresh
   buffers). A boundary here costs only what each stage pays anyway,
   so there is nothing for fusion to collapse. *)
let exec_calls t stages batch =
  let clock = Engine.clock t.engine in
  let current = ref batch in
  for i = 0 to Array.length stages - 1 do
    if not t.skipped.(i) then begin
      let stage = stages.(i) in
      (* Byte-reading stages see canonical bytes: flush deferred
         column writes first. Wall-clock only — the column stages
         already charged the writes they deferred. *)
      if Stage.access stage = Stage.Bytes then Batch.materialize !current;
      (* Measured before [copy_batch]: a pool-pressure drop during
         the copy is charged to the stage about to run. *)
      let in_len = Batch.length !current in
      (match t.mode with
      | Copying -> current := copy_batch t.stage_engine !current
      | Direct | Tagged | Isolated _ -> ());
      Cycles.Clock.charge clock Call;
      current := run_member t stage t.stage_engine !current;
      record_stage t i ~in_len ~out_len:(Batch.length !current)
    end
  done;
  (* Ownership returns to the caller: the batch leaves with canonical
     bytes, whatever mix of column and byte stages ran. *)
  Batch.materialize !current;
  Ok !current

(* Snapshot the batch's packets into the pipeline's reusable scratch
   array (grown to the high-water mark once, then allocation-free)
   instead of materialising a list per crossing. *)
let snapshot_in_flight iso batch =
  let n = Batch.length batch in
  if Array.length iso.scratch < n then
    iso.scratch <- Array.make (max n (2 * Array.length iso.scratch)) Packet.null;
  for i = 0 to n - 1 do
    iso.scratch.(i) <- Batch.get batch i
  done;
  n

let group_all_skipped t (grp : group) =
  let all = ref true in
  for k = 0 to Array.length grp.g_stages - 1 do
    if not t.skipped.(grp.g_base + k) then all := false
  done;
  !all

let first_live_member t (grp : group) =
  let rec go k =
    if k >= Array.length grp.g_stages then 0
    else if not t.skipped.(grp.g_base + k) then k
    else go (k + 1)
  in
  go 0

(* Isolated mode crosses the protection boundary once per fused
   group: one snapshot, one ownership transfer, one rref invocation —
   the members run back-to-back inside the domain. Per-member batch
   lengths are staged in [m_in]/[m_out] during the crossing and only
   recorded to telemetry after the invocation returns, so a mid-group
   panic cannot leave half-recorded counters; the member that was
   executing ([m_cur]) is the one charged with the failure. *)
let exec_isolated t iso batch =
  let pool = Engine.pool t.engine in
  let rec go c batch =
    if c = Array.length iso.cells then Ok batch
    else begin
      let cell = iso.cells.(c) in
      let grp = cell.ic_group in
      if group_all_skipped t grp then go (c + 1) batch
      else begin
        let n_members = Array.length grp.g_stages in
        for k = 0 to n_members - 1 do
          iso.m_in.(k) <- -1
        done;
        iso.m_cur <- -1;
        (* Snapshot buffers so they can be reclaimed if a member panics
           while the group owns the batch; the allocation watermark
           additionally catches buffers the group allocates itself
           before panicking. *)
        let in_len = snapshot_in_flight iso batch in
        let watermark = Mempool.mark pool in
        let owned = Linear.Own.create ~label:"batch" batch in
        match
          Sfi.Rref.invoke_move cell.rref owned (fun stages b ->
              let cur = ref b in
              for k = 0 to Array.length stages - 1 do
                if not t.skipped.(grp.g_base + k) then begin
                  if Stage.access stages.(k) = Stage.Bytes then Batch.materialize !cur;
                  iso.m_cur <- k;
                  iso.m_in.(k) <- Batch.length !cur;
                  cur := run_member t stages.(k) t.stage_engine !cur;
                  iso.m_out.(k) <- Batch.length !cur
                end
              done;
              (* Materialize before ownership leaves the domain: the
                 caller (and the flowcache install path) reads bytes. *)
              Batch.materialize !cur;
              !cur)
        with
        | Ok batch' ->
          for k = 0 to n_members - 1 do
            if iso.m_in.(k) >= 0 then
              record_stage t (grp.g_base + k) ~in_len:iso.m_in.(k) ~out_len:iso.m_out.(k)
          done;
          go (c + 1) batch'
        | Error e ->
          (* Members that completed before the failure keep their
             records; the failing member (or, for a crossing refused
             before entry — e.g. a revoked proxy — the first live
             member) is charged with losing the whole in-flight
             batch. *)
          for k = 0 to n_members - 1 do
            if iso.m_in.(k) >= 0 && k <> iso.m_cur then
              record_stage t (grp.g_base + k) ~in_len:iso.m_in.(k) ~out_len:iso.m_out.(k)
          done;
          let fail_k = if iso.m_cur >= 0 then iso.m_cur else first_live_member t grp in
          let fail_in = if iso.m_cur >= 0 then iso.m_in.(iso.m_cur) else in_len in
          t.last_error <- Some (grp.g_base + fail_k);
          record_stage t (grp.g_base + fail_k) ~in_len:fail_in ~out_len:0;
          (* The failed domain's resources (here: the in-flight packet
             buffers) are reclaimed by the management plane. Only buffers
             the group still held are reclaimed — it may already have
             released some before panicking — plus whatever it allocated
             after entry (the watermark sweep), which would otherwise
             leak. *)
          for k = 0 to in_len - 1 do
            let p = iso.scratch.(k) in
            if Mempool.is_allocated pool p then Mempool.free pool p
          done;
          ignore (Mempool.reclaim_since pool watermark);
          Error e
      end
    end
  in
  go 0 batch

let exec t batch =
  match t.prepared with
  | P_calls stages -> exec_calls t stages batch
  | P_isolated iso -> exec_isolated t iso batch

let invalidate_cache t = match t.fcs with Some s -> Flowcache.invalidate s.fc | None -> ()

let fc_ensure s n =
  if Array.length s.fs_disp < n then begin
    s.fs_disp <- Array.make n 0;
    s.fs_guards <- Array.make n "";
    s.fs_keys <- Array.make n 0;
    s.fs_in_lens <- Array.make n 0;
    s.fs_slots <- Array.make n 0;
    s.fs_out_pkts <- Array.make n Packet.null;
    s.fs_survived <- Array.make n false
  end;
  if Batch.capacity s.fs_slow < n then s.fs_slow <- Batch.create ~capacity:n;
  if Batch.capacity s.fs_out < n then s.fs_out <- Batch.create ~capacity:n

(* The megaflow batch walk. Phase 1 partitions: cache hits are
   replayed (or released) on the spot, misses are compacted into the
   reusable slow sub-batch. Phase 2 runs the full stage chain over the
   misses only. Phase 3 matches the chain's survivors back to their
   inputs by pool slot (stable — stages mutate buffers in place, they
   never re-home them; Copying mode, which would, is rejected at
   creation), installs one fused verdict per miss, and rebuilds the
   output batch in exact arrival order so the packet sequence is
   byte-identical to the uncached pipeline's. *)
let run_cached t s batch =
  let pool = Engine.pool t.engine in
  let n = Batch.length batch in
  (* Guard capture and compare read wire bytes, and replay patches
     them: the megaflow walk is a materialization barrier. *)
  Batch.materialize batch;
  fc_ensure s n;
  let slow = s.fs_slow and out = s.fs_out in
  if not (Batch.is_empty slow) then Batch.clear slow;
  if not (Batch.is_empty out) then Batch.clear out;
  let slow_len = ref 0 in
  for i = 0 to n - 1 do
    let p = Batch.get batch i in
    let key = Batch.flow_key batch i in
    match Flowcache.access s.fc ~engine:t.engine ~key p with
    | Flowcache.Hit_serve ->
      (* Replay patched header bytes behind the slot's (clean but now
         stale) column plane. *)
      Batch.invalidate_hdr batch i;
      s.fs_disp.(i) <- -1
    | Flowcache.Hit_drop ->
      Mempool.free pool p;
      s.fs_disp.(i) <- -2
    | Flowcache.Miss ->
      let j = !slow_len in
      s.fs_disp.(i) <- j;
      s.fs_guards.(j) <- Flowcache.guard_of s.fc p;
      s.fs_keys.(j) <- key;
      s.fs_in_lens.(j) <- p.Packet.len;
      s.fs_slots.(j) <- p.Packet.slot;
      Batch.push slow p;
      Batch.blit_slot batch i slow j;
      incr slow_len
  done;
  let slow_len = !slow_len in
  let result = if slow_len = 0 then Ok slow else exec t slow in
  match result with
  | Ok slow_out ->
    for j = 0 to slow_len - 1 do
      s.fs_survived.(j) <- false;
      s.fc_slot_map.(s.fs_slots.(j)) <- j + 1
    done;
    for k = 0 to Batch.length slow_out - 1 do
      let p = Batch.get slow_out k in
      if p.Packet.slot >= 0 && p.Packet.slot < Array.length s.fc_slot_map then begin
        let jm = s.fc_slot_map.(p.Packet.slot) in
        if jm > 0 then begin
          s.fs_survived.(jm - 1) <- true;
          s.fs_out_pkts.(jm - 1) <- p
        end
      end
    done;
    for j = 0 to slow_len - 1 do
      (if s.fs_survived.(j) then begin
         let p = s.fs_out_pkts.(j) in
         let g = String.length s.fs_guards.(j) in
         let delta = p.Packet.len - s.fs_in_lens.(j) in
         (* A chain that consumed past the guard split cannot be
            replayed as a prefix patch; leave the flow on the slow
            path (never happens for header-only chains). *)
         if g + delta >= 0 && g + delta <= p.Packet.len then
           Flowcache.install_serve s.fc ~key:s.fs_keys.(j) ~guard:s.fs_guards.(j)
             ~out_prefix:(Slab.sub_string p.Packet.buf 0 (g + delta))
             ~delta
       end
       else Flowcache.install_drop s.fc ~key:s.fs_keys.(j) ~guard:s.fs_guards.(j));
      s.fc_slot_map.(s.fs_slots.(j)) <- 0
    done;
    for i = 0 to n - 1 do
      let d = s.fs_disp.(i) in
      if d = -1 then Batch.push out (Batch.get batch i)
      else if d >= 0 && s.fs_survived.(d) then begin
        Batch.push out s.fs_out_pkts.(d);
        s.fs_out_pkts.(d) <- Packet.null
      end
    done;
    Batch.clear batch;
    Batch.clear slow_out;
    if not (slow_out == slow) then Batch.clear slow;
    Ok out
  | Error e ->
    (* Converge with the uncached failure semantics: the whole batch is
       lost. The slow sub-batch was reclaimed by the isolated error
       path and fast drops were already released; the fast-served
       packets still in our hands go back to the pool here. The chain
       may have died mid-batch with stage state part-mutated, so every
       memoised verdict is suspect: invalidate. *)
    for i = 0 to n - 1 do
      if s.fs_disp.(i) = -1 then Mempool.free pool (Batch.get batch i)
    done;
    for j = 0 to slow_len - 1 do
      s.fc_slot_map.(s.fs_slots.(j)) <- 0
    done;
    Batch.clear batch;
    Batch.clear slow;
    Flowcache.invalidate s.fc;
    Error e

let run t batch =
  t.last_error <- None;
  (match t.tele with
  | Some tl ->
    Telemetry.Counter.incr tl.pt_batches;
    Telemetry.Counter.add tl.pt_packets_in (Batch.length batch)
  | None -> ());
  let body () =
    match t.fcs with
    | Some s -> run_cached t s batch
    | None -> exec t batch
  in
  let result =
    match t.tele with
    | Some tl -> Telemetry.Span.with_ tl.pt_batch_span body
    | None -> body ()
  in
  (match result with
  | Ok _ ->
    t.batches_ok <- t.batches_ok + 1;
    if Array.exists Fun.id t.skipped then begin
      t.batches_degraded <- t.batches_degraded + 1;
      match t.tele with
      | Some tl -> Telemetry.Counter.incr tl.pt_degraded_batches
      | None -> ()
    end
  | Error _ ->
    (match t.tele with
    | Some tl -> Telemetry.Counter.incr tl.pt_failed_batches
    | None -> ());
    t.batches_failed <- t.batches_failed + 1);
  result

let isolated op t =
  match t.prepared with
  | P_calls _ -> invalid_arg (Printf.sprintf "Pipeline.%s: pipeline is not isolated" op)
  | P_isolated iso -> iso

let cell_of_stage op t i =
  let iso = isolated op t in
  if i < 0 || i >= t.n_stages then invalid_arg (Printf.sprintf "Pipeline.%s: bad index" op);
  iso.cells.(iso.cell_of_stage.(i))

let recover_stage t i =
  let cell = cell_of_stage "recover_stage" t i in
  (* A restarted stage may come back with rebuilt state; memoised
     verdicts from its previous incarnation must not survive it. *)
  invalidate_cache t;
  Sfi.Manager.recover (isolated "recover_stage" t).mgr cell.domain

let failed_stage t =
  match t.prepared with
  | P_calls _ -> None
  | P_isolated iso ->
    let rec scan c =
      if c = Array.length iso.cells then None
      else
        match Sfi.Pdomain.state iso.cells.(c).domain with
        | Sfi.Pdomain.Failed _ -> Some iso.cells.(c).ic_group.g_base
        | Sfi.Pdomain.Running -> scan (c + 1)
    in
    scan 0

let stage_domain t i = (cell_of_stage "stage_domain" t i).domain

let revoke_stage t i =
  let cell = cell_of_stage "revoke_stage" t i in
  (* Without this, a batch of pure cache hits would never invoke the
     revoked stage and so never observe the revocation — the cached
     engine would keep serving while the uncached one fails. *)
  invalidate_cache t;
  Sfi.Rref.revoke cell.rref

let set_stage_skipped t i v =
  if i < 0 || i >= t.n_stages then invalid_arg "Pipeline.set_stage_skipped: bad index";
  (* Skipping (or un-skipping) a stage changes the effective chain
     every memoised verdict was computed against. *)
  if t.skipped.(i) <> v then invalidate_cache t;
  t.skipped.(i) <- v

let last_error_stage t = t.last_error
let batches_ok t = t.batches_ok
let batches_failed t = t.batches_failed
let batches_degraded t = t.batches_degraded

type stage_report = {
  sr_name : string;
  sr_cycles : int64;
  sr_entries : int;
  sr_panics : int;
  sr_generation : int;
}

let stage_reports t =
  Array.to_list
    (Array.map
       (fun cell ->
         {
           sr_name = Sfi.Pdomain.name cell.domain;
           sr_cycles = Sfi.Pdomain.cycles_consumed cell.domain;
           sr_entries = Sfi.Pdomain.entry_count cell.domain;
           sr_panics = Sfi.Pdomain.panic_count cell.domain;
           sr_generation = Sfi.Pdomain.generation cell.domain;
         })
       (isolated "stage_reports" t).cells)
