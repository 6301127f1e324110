(* The parallel execution engine: the cluster sharded over OCaml 5
   domains.  DESIGN.md, "Multicore architecture", has the full
   protocol; this is the map of the file.

   Each shard owns a disjoint set of nodes and everything beneath
   them — sites, VMs, export tables, statistics — plus its own
   discrete-event simulator and its own {!Fabric}, which holds the
   site table, pumps the sites and dispatches every packet that
   arrives (the centralized name service lives in shard 0's).  Which
   nodes a shard owns is a placement map ({!Placement}).  What this
   file adds on top of Fabric is only what sharding needs:

   - envelopes: a packet for a node of another shard is buffered per
     destination shard and leaves as one {!Tyco_support.Spsc_ring}
     element at the shard's step/park boundary;
   - quiescence: per-shard [pending] counters and the global
     [g_inflight] count every scheduled event, buffered batch, ring
     element and node in transit, children always counted before
     their parent is uncounted, so [inflight + sum pending = 0] only at
     true quiescence;
   - migration: the node-to-shard map is a table of atomics; a shard
     ships a node (a [Mig] ring element, one [g_inflight] unit held
     until the install), forwards packets for sites that left along
     the table, and parks packets that raced ahead of an install in
     [limbo].  Sites reach their current shard through the table.

   Clock merge rule: a packet sent at sender time [s] with wire delay
   [d] is delivered at receiver time [max (receiver now) (s + d)], so
   this engine preserves output multisets, not timestamps.  Reliable
   delivery, faults and the replicated name service stay with the
   deterministic engine ({!validate}); tracing is rejected when
   rebalancing, since a site's trace collector cannot follow it across
   domains.  Per-shard traces and metrics are merged after the joins —
   the only time shard state is read from outside. *)

module Simnet = Tyco_net.Simnet
module Packet = Tyco_net.Packet
module Nameservice = Tyco_net.Nameservice
module Stats = Tyco_support.Stats
module Prng = Tyco_support.Prng
module Trace = Tyco_support.Trace
module Metrics = Tyco_support.Metrics
module Spsc = Tyco_support.Spsc_ring

exception Shard_failure of int * string
(* An exception that escaped one shard's domain, re-raised at join
   with the shard identified; [Api.run_parallel] maps it to
   [Runtime_error]. *)

(* One handed-off packet: everything the receiving shard needs to
   charge the wire and route, so it never touches sender state. *)
type envelope = {
  env_pkt : Packet.t;
  env_src_ip : int;
  env_dst_ip : int;
  env_send_ts : int; (* sender's virtual clock at send *)
  env_bytes : int;
  env_span : Trace.span; (* causal context rides the ring with the packet *)
}

(* Per-destination accumulation buffer (producer-shard confined). *)
type outbuf = {
  mutable hb_envs : envelope array;
  mutable hb_count : int;
}

type global = {
  g_domains : int;
  (* the indirection table: node ip -> owning shard.  Atomic so a
     migration's publication is a release/acquire edge — a stale
     sender reads an old owner at worst, and the old owner forwards *)
  g_shard_map : int Atomic.t array;
  g_site_ip : int array; (* site id -> node ip; immutable after load *)
  (* ring elements pushed (or buffered for push) whose consequences
     have not all been scheduled yet: > 0 whenever cross-shard work
     (a batch, or a node in transit) is outside any heap *)
  g_inflight : int Atomic.t;
  g_stop : bool Atomic.t;
  (* per-shard executed-event counters, summed at step boundaries so
     [max_events] bounds the run globally (the Simnet.run livelock
     guard), not per shard *)
  g_executed : int Atomic.t array;
  (* rebalancing signal: per-node executed pump cost, bumped by the
     owning domain only when [g_rb_on] (zero hot-path cost otherwise);
     the coordinator reads deltas to estimate recent load *)
  g_node_load : int Atomic.t array;
  g_rb_on : bool;
  g_migrations : int Atomic.t; (* installs completed, coordinator-read *)
}

type shard = {
  sh_id : int;
  g : global;
  sim : Simnet.t;
  loopback_delay : int;
  (* site table, pump scheduler, demux and — on shard 0 — the
     centralized name service *)
  fab : Fabric.t;
  in_rings : element Spsc.t option array; (* index = source shard *)
  out_rings : element Spsc.t option array; (* index = destination shard *)
  out_bufs : outbuf array; (* index = destination shard; self unused *)
  weight : float; (* this shard's placement weight (reporting only) *)
  (* packets that arrived for a node this shard owns per the table but
     has not installed yet (they raced ahead of the migration
     envelope, whose [g_inflight] unit covers them): drained at
     install, keyed by node ip *)
  limbo : (int, (Trace.span * Packet.t) list ref) Hashtbl.t;
  (* coordinator-posted migration command: [ip * domains + dst], or
     -1 for none; consumed at the step boundary *)
  mig_cmd : int Atomic.t;
  (* shard-confined accumulators, merged after join *)
  mutable packets : int;
  mutable bytes : int;
  mutable same_node : int;
  mutable handoffs_in : int; (* envelopes received through rings *)
  mutable batches_out : int; (* flushes, = ring pushes attempted *)
  mutable envelopes_out : int; (* envelopes those flushes carried *)
  mutable parks : int;
  mutable drains : int; (* backpressure drain passes while pushing *)
  mutable forwarded : int; (* envelopes re-sent along the table *)
  mutable migrations_out : int; (* nodes this shard shipped *)
  mutable migrations_in : int; (* nodes this shard installed *)
  mutable migration_ns : int; (* wall ns, ship to install, summed *)
  (* migrations dropped at teardown (g_stop while pushing): kept so
     the post-join merge still sees their sites' stats *)
  mutable lost_migs : migration list;
  mutable error : exn option;
  (* shard-local observability: nothing here is shared while the
     domain runs; merged after join *)
  tr : Trace.t;
  mx : Metrics.t;
  m_packets : Metrics.counter;
  m_bytes : Metrics.counter;
  m_same_node : Metrics.counter;
  m_handoffs_in : Metrics.counter;
  m_handoff_lat : Metrics.histogram; (* virtual ns from send to delivery *)
  m_batch_fill : Metrics.histogram; (* envelopes per ring push *)
  (* termination-detection counters (Mattern-style): [pending] is the
     shard's heap size plus one unit per non-empty outbound buffer,
     maintained so that children are counted before their parent event
     is uncounted, which makes [inflight + sum pending = 0] hold only
     at true quiescence; [executed] (an alias of the shard's slot in
     [g_executed]) is monotone and detects activity between the
     coordinator's two collects *)
  pending : int Atomic.t;
  executed : int Atomic.t;
}

(* What actually travels through a ring: one flush's worth of
   same-destination envelopes (the array is freshly sized at flush;
   ownership passes to the consumer with the push), or one migrating
   node — its [Node.t] plus every site on it. *)
and element =
  | Batch of envelope array
  | Mig of migration

and migration = {
  mg_ip : int;
  mg_node : Node.t;
  mg_sites : Site.t list;
  mg_sent_wall : float; (* host clock at ship, for [migration_ns] *)
}

(* Every event entering a shard's heap goes through here so [pending]
   tracks the heap exactly; the matching decrement is in [shard_loop],
   after [Simnet.step] returns. *)
let sched sh ~delay f =
  Atomic.incr sh.pending;
  Simnet.schedule sh.sim ~delay f

let shard_of_ip g ip = Atomic.get (Array.unsafe_get g.g_shard_map ip)

(* Flush threshold: a buffer reaching this many envelopes is flushed
   immediately rather than waiting for the step boundary, bounding
   both handoff latency and the allocation size of one batch. *)
let handoff_batch_max = 64

(* ------------------------------------------------------------------ *)
(* The event graph: transport, handoff and migration.  Scheduling and
   dispatch are [Fabric]'s.                                            *)

let rec send_packet sh ~src_ip ~ctx (p : Packet.t) =
  let dst_ip = Packet.dst_ip p ~ns_ip:0 in
  let dst_shard = shard_of_ip sh.g dst_ip in
  if dst_shard = sh.sh_id then
    if dst_ip = src_ip then begin
      (* same-node fast path, intact inside the shard: shared memory,
         no size accounting, loopback latency only *)
      sh.same_node <- sh.same_node + 1;
      Metrics.incr sh.m_same_node;
      sched sh ~delay:sh.loopback_delay (fun () ->
          Fabric.deliver sh.fab ~at_ip:dst_ip ~ctx ~same_node:true p)
    end
    else begin
      let bytes = Packet.byte_size p in
      sh.packets <- sh.packets + 1;
      sh.bytes <- sh.bytes + bytes;
      Metrics.incr sh.m_packets;
      Metrics.add sh.m_bytes bytes;
      let delay = Simnet.packet_delay sh.sim ~src_ip ~dst_ip ~bytes in
      sched sh ~delay (fun () ->
          Fabric.deliver sh.fab ~at_ip:dst_ip ~ctx ~same_node:false p)
    end
  else begin
    let bytes = Packet.byte_size p in
    sh.packets <- sh.packets + 1;
    sh.bytes <- sh.bytes + bytes;
    Metrics.incr sh.m_packets;
    Metrics.add sh.m_bytes bytes;
    enqueue_handoff sh ~dst_shard
      { env_pkt = p; env_src_ip = src_ip; env_dst_ip = dst_ip;
        env_send_ts = Simnet.now sh.sim; env_bytes = bytes;
        env_span = ctx }
  end

(* Buffer an outbound envelope.  The buffer's first envelope counts
   one unit on [pending] — the obligation to flush — so quiescence
   detection cannot fire between enqueue and flush; subsequent
   envelopes ride the same unit, which is what makes the handoff path
   free of per-packet atomics. *)
and enqueue_handoff sh ~dst_shard env =
  let ub = Array.unsafe_get sh.out_bufs dst_shard in
  let n = ub.hb_count in
  if n = 0 then Atomic.incr sh.pending;
  if n = Array.length ub.hb_envs then begin
    let grown = Array.make (max 8 (2 * n)) env in
    Array.blit ub.hb_envs 0 grown 0 n;
    ub.hb_envs <- grown
  end;
  ub.hb_envs.(n) <- env;
  ub.hb_count <- n + 1;
  if ub.hb_count >= handoff_batch_max then flush_handoff sh ~dst_shard ub

(* Flush one destination's buffer as a single ring element: one push,
   one [g_inflight] unit, one pop on the far side for the whole
   batch.  Increment-inflight-then-decrement-pending order keeps the
   termination sum from transiently reaching zero. *)
and flush_handoff sh ~dst_shard ub =
  let count = ub.hb_count in
  let batch = Array.sub ub.hb_envs 0 count in
  (* drop the buffer's references: the consumer owns the batch now,
     and a stale slot would otherwise keep packet payloads alive
     until the next burst overwrites it *)
  Array.fill ub.hb_envs 0 count (Obj.magic 0);
  ub.hb_count <- 0;
  sh.batches_out <- sh.batches_out + 1;
  sh.envelopes_out <- sh.envelopes_out + count;
  Metrics.observe_int sh.m_batch_fill count;
  Atomic.incr sh.g.g_inflight;
  push_element sh ~dst_shard (Batch batch);
  Atomic.decr sh.pending

(* Flush every non-empty buffer; called at the shard loop's step/park
   boundary.  Returns the number of batches pushed so the loop can
   tell an idle pass from one that produced work for a sibling. *)
and flush_handoffs sh =
  let flushed = ref 0 in
  Array.iteri
    (fun dst_shard ub ->
      if ub.hb_count > 0 then begin
        flush_handoff sh ~dst_shard ub;
        incr flushed
      end)
    sh.out_bufs;
  !flushed

and push_element sh ~dst_shard el =
  let ring =
    match sh.out_rings.(dst_shard) with
    | Some r -> r
    | None ->
        failwith
          (Printf.sprintf
             "Par_runner: shard %d pushed a ring element to itself \
              (invariant: ring traffic always crosses shards)"
             sh.sh_id)
  in
  if not (Spsc.try_push ring el) then begin
    (* Backpressure: the ring is bounded, so spin — but keep draining
       our own inbound rings while we wait, otherwise two shards
       pushing into each other's full rings deadlock. *)
    let spins = ref 0 in
    let pushed = ref false in
    while not !pushed do
      if Atomic.get sh.g.g_stop then begin
        (* the run is being torn down (error or timeout): drop rather
           than block forever against a consumer that already exited.
           A dropped migration is remembered so the merge still sees
           its sites *)
        (match el with
        | Mig m -> sh.lost_migs <- m :: sh.lost_migs
        | Batch _ -> ());
        Atomic.decr sh.g.g_inflight;
        pushed := true
      end
      else if Spsc.try_push ring el then pushed := true
      else begin
        sh.drains <- sh.drains + 1;
        ignore (drain_rings sh);
        incr spins;
        if !spins < 64 then Domain.cpu_relax ()
        else begin
          sh.parks <- sh.parks + 1;
          Unix.sleepf 2e-5
        end
      end
    done
  end

(* Consume one inbound batch: schedule every envelope's delivery
   (each [sched] counts it on [pending]), then — children counted —
   uncount the batch from [g_inflight]. *)
and absorb_batch sh (batch : envelope array) =
  let n = Array.length batch in
  for i = 0 to n - 1 do
    let env = Array.unsafe_get batch i in
    sh.handoffs_in <- sh.handoffs_in + 1;
    Metrics.incr sh.m_handoffs_in;
    let d =
      Simnet.packet_delay sh.sim ~src_ip:env.env_src_ip
        ~dst_ip:env.env_dst_ip ~bytes:env.env_bytes
    in
    let now = Simnet.now sh.sim in
    (* clock merge rule: monotone per receiver *)
    let at = max now (env.env_send_ts + d) in
    Metrics.observe_int sh.m_handoff_lat (at - env.env_send_ts);
    sched sh ~delay:(at - now) (fun () ->
        Fabric.deliver sh.fab ~at_ip:env.env_dst_ip ~ctx:env.env_span
          ~same_node:false env.env_pkt)
  done;
  Atomic.decr sh.g.g_inflight;
  n

(* Install a migrated node: enter its sites in this shard's table
   under fresh wrappers (the shipper's retired ones stay behind so its
   leftover pump events no-op without cross-domain writes), reset the
   node's core clock, drain the packets that raced ahead, wake the busy
   sites — and only then release the in-transit [g_inflight] unit
   (children counted before the parent is uncounted). *)
and install_migration sh (m : migration) =
  sh.migrations_in <- sh.migrations_in + 1;
  sh.migration_ns <-
    sh.migration_ns
    + int_of_float ((Unix.gettimeofday () -. m.mg_sent_wall) *. 1e9);
  Node.reset_cores m.mg_node;
  let ws = List.map (Fabric.adopt sh.fab ~node:m.mg_node) m.mg_sites in
  (match Hashtbl.find_opt sh.limbo m.mg_ip with
  | Some q ->
      Hashtbl.remove sh.limbo m.mg_ip;
      List.iter
        (fun (ctx, p) ->
          sched sh ~delay:0 (fun () ->
              Fabric.deliver sh.fab ~at_ip:m.mg_ip ~ctx ~same_node:false p))
        (List.rev !q)
  | None -> ());
  List.iter
    (fun w ->
      if Site.busy w.Fabric.site then Fabric.request_pump sh.fab w ~delay:0)
    ws;
  Atomic.incr sh.g.g_migrations;
  Atomic.decr sh.g.g_inflight

(* Ship one node to [dst]: the source half of a migration, run at the
   step boundary so no event is mid-flight on this shard.  Publishing
   the new owner *after* taking the in-flight unit and *before*
   retiring the wrappers keeps every window covered: packets arriving
   here afterwards miss [by_id] and forward; packets arriving at the
   destination early park in its limbo under the unit we hold. *)
and ship_node sh ~ip ~dst =
  if
    dst <> sh.sh_id && dst >= 0
    && dst < sh.g.g_domains
    && Atomic.get sh.g.g_shard_map.(ip) = sh.sh_id
  then begin
    let mine =
      List.filter
        (fun w -> Site.ip w.Fabric.site = ip)
        (Fabric.wrappers sh.fab)
    in
    if mine <> [] then begin
      (* buffered envelopes leave first so per-destination order is
         preserved across the ownership change *)
      ignore (flush_handoffs sh);
      Atomic.incr sh.g.g_inflight;
      Atomic.set sh.g.g_shard_map.(ip) dst;
      List.iter (Fabric.retire sh.fab) mine;
      sh.migrations_out <- sh.migrations_out + 1;
      push_element sh ~dst_shard:dst
        (Mig
           { mg_ip = ip;
             mg_node = (List.hd mine).Fabric.node;
             mg_sites = List.map (fun w -> w.Fabric.site) mine;
             mg_sent_wall = Unix.gettimeofday () })
    end
  end

and absorb_element sh = function
  | Batch batch -> absorb_batch sh batch
  | Mig m ->
      install_migration sh m;
      1

and drain_rings sh =
  let got = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some ring ->
          let draining = ref true in
          while !draining do
            match Spsc.pop_exn ring with
            | el -> got := !got + absorb_element sh el
            | exception Spsc.Empty -> draining := false
          done)
    sh.in_rings;
  !got

(* A packet for a site id missing from this shard's table
   ([Fabric]'s [forward] hook): [false] — a dead letter — when no
   shard can host the id. *)
and forward sh site_id ctx p =
  let ips = sh.g.g_site_ip in
  site_id >= 0
  && site_id < Array.length ips
  &&
  let ip = Array.unsafe_get ips site_id in
  let owner = shard_of_ip sh.g ip in
  if owner <> sh.sh_id then begin
    (* the node migrated away: forward along the current table (no
       packet/byte re-count — the original hop was already charged; the
       hop is zero-distance on the wire model) *)
    sh.forwarded <- sh.forwarded + 1;
    enqueue_handoff sh ~dst_shard:owner
      { env_pkt = p; env_src_ip = ip; env_dst_ip = ip;
        env_send_ts = Simnet.now sh.sim;
        env_bytes = Packet.byte_size p; env_span = ctx }
  end
  else begin
    (* the table says this shard owns the node, but its migration
       envelope has not been popped yet: park the packet in limbo.  The
       envelope's [g_inflight] unit (held until the install finishes
       draining this queue) keeps quiescence from firing with the
       packet parked here *)
    let q =
      match Hashtbl.find_opt sh.limbo ip with
      | Some q -> q
      | None ->
          let q = ref [] in
          Hashtbl.add sh.limbo ip q;
          q
    in
    q := (ctx, p) :: !q
  end;
  true

(* ------------------------------------------------------------------ *)
(* The per-domain driver loop.                                         *)

let park_min = 2e-5 (* 20 us *)
let park_max = 1e-3 (* 1 ms *)

let shard_loop sh ~max_events =
  let backoff = ref park_min in
  (try
     while not (Atomic.get sh.g.g_stop) do
       let drained = drain_rings sh in
       (* bounded local batch so inbound rings are polled regularly *)
       let steps = ref 0 in
       while
         !steps < 256
         && (not (Atomic.get sh.g.g_stop))
         && Simnet.step sh.sim
       do
         Atomic.decr sh.pending;
         Atomic.incr sh.executed;
         incr steps
       done;
       (* step/park boundary: everything the local batch produced for
          siblings leaves as one ring push per destination *)
       let flushed = flush_handoffs sh in
       (* a coordinator-posted migration command is consumed here, once
          the local batch's own handoffs are out *)
       let shipped =
         let cmd = Atomic.exchange sh.mig_cmd (-1) in
         if cmd >= 0 then begin
           ship_node sh ~ip:(cmd / sh.g.g_domains)
             ~dst:(cmd mod sh.g.g_domains);
           1
         end
         else 0
       in
       (* the event budget is global — the sum over shards must respect
          [max_events] exactly as [Simnet.run]'s livelock guard does at
          --domains 1, not [domains * max_events] *)
       let executed_total =
         Array.fold_left
           (fun acc c -> acc + Atomic.get c)
           0 sh.g.g_executed
       in
       if executed_total > max_events then
         failwith
           (Printf.sprintf "Par_runner: exceeded %d events (livelock?)"
              max_events);
       if drained = 0 && !steps = 0 && flushed = 0 && shipped = 0 then begin
         (* idle: exponential-backoff parking.  The sleep is what lets
            sibling domains (and the coordinator) run when there are
            more domains than cores. *)
         sh.parks <- sh.parks + 1;
         Unix.sleepf !backoff;
         backoff := Float.min park_max (!backoff *. 2.)
       end
       else backoff := park_min
     done
   with exn ->
     sh.error <- Some exn;
     Atomic.set sh.g.g_stop true)

(* ------------------------------------------------------------------ *)
(* Construction, loading, coordination.                                *)

(* Per-shard section of the run report: ring traffic, occupancy
   high-water, backpressure and parking — the signals that say where a
   parallel run's time went. *)
type shard_stat = {
  ss_shard : int;
  ss_sites : int;
  ss_events : int;
  ss_virtual_ns : int;
  ss_packets : int;
  ss_same_node : int;
  ss_handoffs_in : int; (* envelopes this shard received *)
  ss_ring_pushed : int; (* elements this shard pushed outbound *)
  ss_ring_popped : int; (* elements this shard consumed *)
  ss_ring_hiwater : int; (* max outbound-ring occupancy at push *)
  ss_parks : int;
  ss_drains : int; (* backpressure drain passes while pushing *)
  ss_weight : float; (* placement weight this shard was assigned *)
}

(* A coordinator-side mid-run observation: only whole-run atomics and
   ring counters are read (never shard heaps), so taking one is safe
   while the domains run.  This is what [--metrics-out] streams. *)
type snapshot = {
  sn_wall_ms : float;
  sn_inflight : int;
  sn_executed : int array; (* per shard, monotone *)
  sn_pending : int array;
  sn_ring_pushed : int; (* elements *)
  sn_ring_popped : int;
  sn_migrations : int; (* node installs completed so far *)
}

(* Dynamic-rebalancing knobs ([tycosh --rebalance interval:MS,threshold:R]):
   every [rb_interval_ms] the coordinator reads per-node load deltas
   and, when max-over-mean per-shard load exceeds [rb_threshold],
   issues one migration ({!Placement.choose_migration}). *)
type rebalance = {
  rb_interval_ms : int;
  rb_threshold : float;
}

type result = {
  outputs : (int * Output.event) list; (* merged, sorted by timestamp *)
  virtual_ns : int; (* max over shards *)
  packets : int;
  bytes : int;
  same_node_fast : int;
  handoffs : int; (* envelopes carried by rings *)
  ring_pushed : int; (* elements pushed (= pops after a clean run) *)
  ring_popped : int;
  ring_batch_fill_mean : float; (* envelopes per ring push *)
  parks : int; (* idle/backpressure parks across all shards *)
  domains : int;
  instructions : int; (* total VM instructions, for throughput *)
  wall_ns : int;
  dead_letters : int;
  migrations : int; (* node migrations completed (installs) *)
  migration_ns : int; (* host ns from ship to install, summed *)
  forwarded_envelopes : int; (* packets re-routed via the table *)
  suspected : (int * string) list;
  sites_per_shard : int array;
  placement_weights : float array; (* per-shard assigned weight *)
  node_weights : float array;
      (* measured per-node instruction counts — feed these back as
         [Placement.Profile] for the next run of the same workload *)
  events : int; (* simulation events across all shards *)
  clean : bool; (* quiesced with rings drained, heaps and limbo empty *)
  timed_out : bool;
  trace : Trace.t; (* merged shard-tagged collector; disabled when off *)
  metrics : Metrics.t; (* merged registry; disabled when off *)
  shard_stats : shard_stat array;
  sites : Site.t list; (* post-join reads only (join = happens-before) *)
}

let validate (cfg : Cluster.config) =
  if cfg.Cluster.reliable then
    invalid_arg "Par_runner: reliable delivery requires --domains 1";
  if cfg.Cluster.faults <> Simnet.no_faults then
    invalid_arg "Par_runner: fault injection requires --domains 1";
  if cfg.Cluster.ns_mode <> Cluster.Centralized then
    invalid_arg "Par_runner: replicated name service requires --domains 1"

let ring_capacity = 4096

let run ?(config = Cluster.default_config) ?placement
    ?(policy = Placement.Mod) ?(inputs = fun _ -> [])
    ?(max_events = 10_000_000) ?(max_wall_ms = 120_000) ?on_snapshot
    ?(snapshot_every_ms = 100) ?rebalance ?(force_migrations = [])
    ~domains (units : (string * Tyco_compiler.Block.unit_) list) =
  if domains < 1 then invalid_arg "Par_runner.run: domains must be >= 1";
  validate config;
  let rb_requested = rebalance <> None || force_migrations <> [] in
  if rb_requested && config.Cluster.tracing then
    invalid_arg
      "Par_runner: tracing with dynamic rebalancing requires --domains 1 \
       (a site's trace collector cannot follow it across domains)";
  let nnodes = config.Cluster.nodes in
  List.iter
    (fun (ip, dst) ->
      if ip <= 0 || ip >= nnodes then
        invalid_arg
          (Printf.sprintf
             "Par_runner: cannot migrate node %d (node 0 is pinned; the \
              cluster has %d nodes)"
             ip nnodes);
      if dst < 0 || dst >= domains then
        invalid_arg
          (Printf.sprintf
             "Par_runner: migration of node %d targets shard %d of %d" ip
             dst domains))
    force_migrations;
  (* resolve every site's node first: the placement policy needs the
     per-node site counts before any shard exists *)
  let seen = Hashtbl.create 16 in
  let site_nodes =
    List.mapi
      (fun i (name, _) ->
        if Hashtbl.mem seen name then
          invalid_arg
            (Printf.sprintf "Par_runner.run: duplicate site '%s'" name);
        Hashtbl.add seen name ();
        match placement with
        | Some f ->
            let n = f name in
            if n < 0 || n >= nnodes then
              invalid_arg
                (Printf.sprintf "Par_runner.run: site '%s' placed on node %d"
                   name n)
            else n
        | None -> i mod nnodes)
      units
  in
  let site_counts = Array.make nnodes 0 in
  List.iter (fun n -> site_counts.(n) <- site_counts.(n) + 1) site_nodes;
  let shard_map = Placement.assign ~domains ~site_counts policy in
  assert (Array.length shard_map = nnodes);
  if nnodes > 0 && shard_map.(0) <> 0 then
    failwith
      (Printf.sprintf
         "Par_runner: placement put node 0 on shard %d (invariant: the \
          name-service host is pinned to shard 0)"
         shard_map.(0));
  let weights =
    match policy with
    | Placement.Profile w -> w
    | Placement.Mod | Placement.Greedy -> Array.map float_of_int site_counts
  in
  let placement_weights =
    Placement.shard_weights ~domains ~map:shard_map weights
  in
  let g =
    { g_domains = domains;
      g_shard_map = Array.map Atomic.make shard_map;
      g_site_ip =
        Array.of_list site_nodes (* site ids follow unit order below *);
      g_inflight = Atomic.make 0;
      g_stop = Atomic.make false;
      g_executed = Array.init domains (fun _ -> Atomic.make 0);
      g_node_load = Array.init nnodes (fun _ -> Atomic.make 0);
      g_rb_on = rebalance <> None;
      g_migrations = Atomic.make 0 }
  in
  (* ring matrix: rings.(src).(dst) carries src -> dst *)
  let rings =
    Array.init domains (fun src ->
        Array.init domains (fun dst ->
            if src = dst then None
            else Some (Spsc.create ~capacity:ring_capacity)))
  in
  let nodes =
    Array.init nnodes (fun i ->
        Node.create ~node_id:i ~ip:i ~cores:config.Cluster.cores_per_node)
  in
  let shards =
    Array.init domains (fun s ->
        (* per-owner seed derivation: each shard's simulator draws from
           its own stream; nothing is shared with siblings *)
        let seed =
          Int64.to_int
            (Prng.next (Prng.for_owner ~seed:config.Cluster.seed ~owner:s))
          land max_int
        in
        let sim =
          Simnet.create ~topology:config.Cluster.topology
            ~faults:Simnet.no_faults ~seed ()
        in
        (* span ids strided by (shard, domains): globally unique without
           sharing a counter, and at domains = 1 identical to the
           deterministic engine's allocation order *)
        let tr =
          Trace.create ~capacity:config.Cluster.trace_capacity ~span_base:s
            ~span_stride:domains ~enabled:config.Cluster.tracing ()
        in
        if s = 0 then
          Trace.register_track tr ~id:Trace.fabric_track ~name:"fabric" ();
        let mx =
          if config.Cluster.metrics then
            Metrics.create ~label:(Printf.sprintf "shard%d" s) ~enabled:true
              ()
          else Metrics.disabled
        in
        Metrics.set (Metrics.gauge mx "placement_weight")
          (int_of_float (Float.round placement_weights.(s)));
        let ns =
          if s = 0 then
            let ns = Nameservice.create () in
            fun _ -> ns
          else fun _ ->
            failwith
              (Printf.sprintf
                 "Par_runner: shard %d received name-service traffic \
                  (invariant: the service is pinned to shard 0)"
                 s)
        in
        let pumped =
          if g.g_rb_on then fun node cost ->
            ignore
              (Atomic.fetch_and_add
                 (Array.unsafe_get g.g_node_load (Node.ip node))
                 cost)
          else fun _ _ -> ()
        in
        (* the fabric's callbacks close over the shard they belong to *)
        let rec sh =
          lazy
            { sh_id = s;
              g;
              sim;
              loopback_delay =
                Simnet.packet_delay sim ~src_ip:0 ~dst_ip:0 ~bytes:0;
              fab =
                Fabric.create ~quantum:config.Cluster.quantum ~metrics:mx
                  ~dead_letters:(Stats.Counter.create "dead_letters")
                  { Fabric.now = (fun () -> Simnet.now sim);
                    sched = (fun ~delay f -> sched (Lazy.force sh) ~delay f);
                    send =
                      (fun ~src_ip ~ctx p ->
                        send_packet (Lazy.force sh) ~src_ip ~ctx p);
                    ns;
                    forward =
                      (fun id ctx p -> forward (Lazy.force sh) id ctx p);
                    pumped;
                    tracer = tr };
              in_rings = Array.init domains (fun src -> rings.(src).(s));
              out_rings = rings.(s);
              out_bufs =
                Array.init domains (fun _ -> { hb_envs = [||]; hb_count = 0 });
              weight = placement_weights.(s);
              limbo = Hashtbl.create 4;
              mig_cmd = Atomic.make (-1);
              packets = 0;
              bytes = 0;
              same_node = 0;
              handoffs_in = 0;
              batches_out = 0;
              envelopes_out = 0;
              parks = 0;
              drains = 0;
              forwarded = 0;
              migrations_out = 0;
              migrations_in = 0;
              migration_ns = 0;
              lost_migs = [];
              error = None;
              tr;
              mx;
              m_packets = Metrics.counter mx "packets";
              m_bytes = Metrics.counter mx "bytes";
              m_same_node = Metrics.counter mx "same_node_fast";
              m_handoffs_in = Metrics.counter mx "handoffs_in";
              m_handoff_lat = Metrics.histogram mx "handoff_lat_ns";
              m_batch_fill = Metrics.histogram mx "ring_batch_fill";
              pending = Atomic.make 0;
              executed = g.g_executed.(s) }
        in
        Lazy.force sh)
  in
  (* load sites (on the coordinating domain, before any shard domain
     exists — construction is the last moment state is shared).  Any
     packets sites emit while starting are buffered in the owning
     shard's out_bufs; its domain flushes them on its first loop
     iteration. *)
  let next_site_id = ref (-1) in
  List.iter2
    (fun (name, unit_) node_idx ->
      let node = nodes.(node_idx) in
      let sh = shards.(shard_of_ip g (Node.ip node)) in
      (* site ids follow unit order, as before *)
      incr next_site_id;
      let site_id = !next_site_id in
      (* the site's callbacks reach whichever shard owns its node now:
         they only run inside that shard's pumps, so the indirection
         table a migration flips is all they need *)
      let ip = Node.ip node in
      let owner () = shards.(shard_of_ip g ip) in
      let site =
        Site.create ~inputs:(inputs name) ~retry:config.Cluster.site_retry
          ~lifecycle:(Cluster.site_lifecycle config)
          ~on_suspect:(fun who -> Fabric.suspect (owner ()).fab who)
          ~trace:sh.tr ~name ~site_id ~ip
          ~send:(fun ctx p -> send_packet (owner ()) ~src_ip:ip ~ctx p)
          ~on_output:(fun e -> Fabric.output (owner ()).fab e)
          ~unit_ ()
      in
      ignore (Fabric.load sh.fab ~node site))
    units site_nodes;
  (* forced migrations (the deterministic test hook): posted before the
     domains spawn, so each is consumed at the owning shard's first
     step boundary and is guaranteed installed in a clean run.
     Commands whose shard slot is taken retry from the wait loop. *)
  let forced = ref force_migrations in
  let try_post_forced () =
    forced :=
      List.filter
        (fun (ip, dst) ->
          let src = Atomic.get g.g_shard_map.(ip) in
          if src = dst then false (* already there *)
          else
            not
              (Atomic.compare_and_set shards.(src).mig_cmd (-1)
                 ((ip * domains) + dst)))
        !forced
  in
  try_post_forced ();
  (* run *)
  let t0 = Unix.gettimeofday () in
  let doms =
    Array.map (fun sh -> Domain.spawn (fun () -> shard_loop sh ~max_events))
      shards
  in
  (* Quiescence: [inflight + sum pending] is maintained so it is zero
     only when no work exists anywhere (children are counted before
     parents are uncounted; buffered and in-ring elements — batches
     and nodes in transit alike — are covered by pending/inflight
     until every consequence is scheduled).  Two collects agreeing on
     the monotone executed-count with a zero work-sum close the race
     of reading the counters one by one. *)
  let collect () =
    let work = ref (Atomic.get g.g_inflight) in
    let execd = ref 0 in
    Array.iter
      (fun sh ->
        work := !work + Atomic.get sh.pending;
        execd := !execd + Atomic.get sh.executed)
      shards;
    (!work, !execd)
  in
  let timed_out = ref false in
  (* Mid-run snapshots ([--metrics-out]): reads only whole-run atomics
     and ring counters — never a shard heap — so it is safe while the
     domains run. *)
  let ring_totals () =
    let pushed = ref 0 and popped = ref 0 in
    Array.iter
      (Array.iter (function
        | None -> ()
        | Some r ->
            pushed := !pushed + Spsc.pushed r;
            popped := !popped + Spsc.popped r))
      rings;
    (!pushed, !popped)
  in
  let take_snapshot () =
    match on_snapshot with
    | None -> ()
    | Some f ->
        let pushed, popped = ring_totals () in
        f
          { sn_wall_ms = (Unix.gettimeofday () -. t0) *. 1000.;
            sn_inflight = Atomic.get g.g_inflight;
            sn_executed = Array.map (fun sh -> Atomic.get sh.executed) shards;
            sn_pending = Array.map (fun sh -> Atomic.get sh.pending) shards;
            sn_ring_pushed = pushed;
            sn_ring_popped = popped;
            sn_migrations = Atomic.get g.g_migrations }
  in
  let last_snapshot = ref t0 in
  let maybe_snapshot () =
    if on_snapshot <> None then begin
      let now = Unix.gettimeofday () in
      if (now -. !last_snapshot) *. 1000. >= float_of_int snapshot_every_ms
      then begin
        last_snapshot := now;
        take_snapshot ()
      end
    end
  in
  (* The rebalancer: every interval, turn the per-node load-counter
     deltas into a load estimate and ask {!Placement.choose_migration}
     for at most one move.  One migration is outstanding at a time
     (issued vs installed), so each decision sees the effect of the
     previous one. *)
  let issued = ref 0 in
  let last_rb = ref t0 in
  let last_loads = Array.make nnodes 0 in
  let maybe_rebalance () =
    if !forced <> [] then try_post_forced ()
    else
      match rebalance with
      | None -> ()
      | Some rb ->
          let now = Unix.gettimeofday () in
          if (now -. !last_rb) *. 1000. >= float_of_int rb.rb_interval_ms
          then begin
            last_rb := now;
            let loads =
              Array.mapi
                (fun ip c ->
                  let v = Atomic.get c in
                  let d = v - last_loads.(ip) in
                  last_loads.(ip) <- v;
                  float_of_int d)
                g.g_node_load
            in
            if !issued = Atomic.get g.g_migrations then begin
              let map = Array.map Atomic.get g.g_shard_map in
              match
                Placement.choose_migration ~domains ~map ~loads
                  ~threshold:rb.rb_threshold
              with
              | None -> ()
              | Some (ip, dst) ->
                  let src = map.(ip) in
                  if
                    Atomic.compare_and_set shards.(src).mig_cmd (-1)
                      ((ip * domains) + dst)
                  then incr issued
            end
          end
  in
  let rec wait () =
    if Atomic.get g.g_stop then ()
    else if (Unix.gettimeofday () -. t0) *. 1000. > float_of_int max_wall_ms
    then timed_out := true
    else begin
      maybe_snapshot ();
      maybe_rebalance ();
      let w1, e1 = collect () in
      if w1 = 0 then begin
        let w2, e2 = collect () in
        if w2 = 0 && e1 = e2 then () (* quiescent *)
        else begin
          Unix.sleepf 2e-4;
          wait ()
        end
      end
      else begin
        Unix.sleepf 2e-4;
        wait ()
      end
    end
  in
  wait ();
  Atomic.set g.g_stop true;
  Array.iter Domain.join doms;
  let wall_ns =
    int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
  in
  Array.iter
    (fun sh ->
      match sh.error with
      | Some exn ->
          let msg =
            match exn with
            | Failure m | Site.Protocol_error m -> m
            | e -> Printexc.to_string e
          in
          raise (Shard_failure (sh.sh_id, msg))
      | None -> ())
    shards;
  (* merge (the only time shard state is read from outside) *)
  let outputs =
    List.stable_sort
      (fun (ts1, (e1 : Output.event)) (ts2, e2) ->
        match compare ts1 ts2 with
        | 0 -> compare e1.Output.site e2.Output.site
        | c -> c)
      (Array.fold_left
         (fun acc sh -> Fabric.outputs sh.fab @ acc)
         [] shards)
  in
  let sum (f : shard -> int) =
    Array.fold_left (fun acc sh -> acc + f sh) 0 shards
  in
  let ring_pushed, ring_popped = ring_totals () in
  let clean =
    (not !timed_out) && ring_pushed = ring_popped
    && Atomic.get g.g_inflight = 0
    && Array.for_all (fun sh -> Atomic.get sh.pending = 0) shards
    && Array.for_all (fun sh -> Hashtbl.length sh.limbo = 0) shards
  in
  (* every site this shard can account for: its live wrappers plus any
     migration it had to drop at teardown *)
  let shard_sites (sh : shard) =
    Fabric.sites sh.fab @ List.concat_map (fun m -> m.mg_sites) sh.lost_migs
  in
  let node_weights =
    let w = Array.make nnodes 0. in
    Array.iter
      (fun sh ->
        List.iter
          (fun s ->
            let ip = Site.ip s in
            w.(ip) <-
              w.(ip)
              +. float_of_int
                   (Stats.counter_value (Site.stats s) "instructions"))
          (shard_sites sh))
      shards;
    w
  in
  (* Observability merge: fold the shard-confined collectors into run-
     level ones.  [Domain.join] above is the happens-before edge that
     makes every shard-local field safe to read here. *)
  let shard_stats =
    Array.map
      (fun sh ->
        let pushed = ref 0 and hi = ref 0 and popped = ref 0 in
        Array.iter
          (function
            | None -> ()
            | Some r ->
                pushed := !pushed + Spsc.pushed r;
                if Spsc.hiwater r > !hi then hi := Spsc.hiwater r)
          sh.out_rings;
        Array.iter
          (function
            | None -> () | Some r -> popped := !popped + Spsc.popped r)
          sh.in_rings;
        { ss_shard = sh.sh_id;
          ss_sites = Fabric.site_count sh.fab;
          ss_events = Atomic.get sh.executed;
          ss_virtual_ns = max (Simnet.now sh.sim) (Fabric.busy_until sh.fab);
          ss_packets = sh.packets;
          ss_same_node = sh.same_node;
          ss_handoffs_in = sh.handoffs_in;
          ss_ring_pushed = !pushed;
          ss_ring_popped = !popped;
          ss_ring_hiwater = !hi;
          ss_parks = sh.parks;
          ss_drains = sh.drains;
          ss_weight = sh.weight })
      shards
  in
  let batches_total = sum (fun sh -> sh.batches_out) in
  let envelopes_total = sum (fun sh -> sh.envelopes_out) in
  let ring_batch_fill_mean =
    if batches_total = 0 then 0.
    else float_of_int envelopes_total /. float_of_int batches_total
  in
  let trace =
    if config.Cluster.tracing then
      Trace.merge
        (Array.to_list (Array.map (fun sh -> (sh.sh_id, sh.tr)) shards))
    else Trace.disabled
  in
  let metrics =
    if config.Cluster.metrics then begin
      let into = Metrics.create ~enabled:true () in
      Array.iteri
        (fun i sh ->
          (* stamp the post-join ring/park/migration signals into the
             shard's own registry so they travel through the merge like
             every other instrument (sum of values, max of high-waters) *)
          let st = shard_stats.(i) in
          Metrics.add (Metrics.counter sh.mx "ring_pushed") st.ss_ring_pushed;
          Metrics.add (Metrics.counter sh.mx "ring_popped") st.ss_ring_popped;
          Metrics.set (Metrics.gauge sh.mx "ring_hiwater") st.ss_ring_hiwater;
          Metrics.add (Metrics.counter sh.mx "parks") st.ss_parks;
          Metrics.add (Metrics.counter sh.mx "drains") st.ss_drains;
          Metrics.add (Metrics.counter sh.mx "migrations") sh.migrations_in;
          Metrics.add (Metrics.counter sh.mx "migration_ns") sh.migration_ns;
          Metrics.add
            (Metrics.counter sh.mx "forwarded_envelopes")
            sh.forwarded;
          Metrics.merge_into ~into sh.mx)
        shards;
      into
    end
    else Metrics.disabled
  in
  let sites =
    List.concat_map
      (fun (sh : shard) -> shard_sites sh)
      (Array.to_list shards)
  in
  { outputs;
    virtual_ns =
      Array.fold_left
        (fun acc sh ->
          max acc (max (Simnet.now sh.sim) (Fabric.busy_until sh.fab)))
        0 shards;
    packets = sum (fun sh -> sh.packets);
    bytes = sum (fun sh -> sh.bytes);
    same_node_fast = sum (fun sh -> sh.same_node);
    handoffs = sum (fun sh -> sh.handoffs_in);
    ring_pushed;
    ring_popped;
    ring_batch_fill_mean;
    parks = sum (fun sh -> sh.parks);
    domains;
    instructions = int_of_float (Array.fold_left ( +. ) 0. node_weights);
    wall_ns;
    dead_letters = sum (fun sh -> Fabric.dead_letters sh.fab);
    migrations = sum (fun sh -> sh.migrations_in);
    migration_ns = sum (fun sh -> sh.migration_ns);
    forwarded_envelopes = sum (fun sh -> sh.forwarded);
    suspected =
      List.concat_map
        (fun (sh : shard) -> Fabric.suspected sh.fab)
        (Array.to_list shards);
    sites_per_shard = Array.map (fun sh -> Fabric.site_count sh.fab) shards;
    placement_weights;
    node_weights;
    events = sum (fun sh -> Atomic.get sh.executed);
    clean;
    timed_out = !timed_out;
    trace;
    metrics;
    shard_stats;
    sites }
