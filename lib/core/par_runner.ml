(* The parallel execution engine: the cluster sharded over OCaml 5
   domains, each shard a {!Cluster} that owns some of the nodes.
   DESIGN.md, "Multicore architecture", has the protocol; this is the
   map of the file.  The cluster's transport is the whole transport;
   what this file adds is only what sharding needs:

   - handoff: a transmission [Cluster.transmit] lands on a node of
     another shard is buffered per destination and leaves as one
     {!Tyco_support.Spsc_ring} element at the step/park boundary; the
     receiver runs it on its own cluster at [max now arrival];
   - quiescence and timeouts: each shard publishes its work count (heap
     plus non-empty buffers) and, when a live timeout blocks it, its
     gate; the coordinator stops the run, or releases the earliest
     gate, when nothing else is left;
   - migration: a node-to-shard table of atomics; a shard ships a node
     as a [Mig] element, forwards packets for sites that left, and
     parks in [limbo] packets that raced ahead of an install.

   Migration is rejected with tracing, reliable delivery and the
   replicated name service ({!validate}), whose state stays in the old
   shard's cluster.  Shard traces and metrics are merged after the
   joins, the only time shard state is read from outside. *)

module Simnet = Tyco_net.Simnet
module Packet = Tyco_net.Packet
module Stats = Tyco_support.Stats
module Trace = Tyco_support.Trace
module Metrics = Tyco_support.Metrics
module Spsc = Tyco_support.Spsc_ring

exception Shard_failure of int * string

(* One transmission handed to another shard.  [tx_act] reads only
   immutable data and the cluster it runs on. *)
type transmission = {
  tx_at : int; (* arrival time, on the sender's clock *)
  tx_sent : int; (* the sender's clock at handoff *)
  tx_act : Cluster.t -> unit;
}

(* Per-destination accumulation buffer (producer-shard confined). *)
type outbuf = {
  mutable hb_txs : transmission array;
  mutable hb_count : int;
}

type global = {
  g_domains : int;
  (* the indirection table: node ip -> owning shard.  Atomic so a
     migration's publication is a release/acquire edge — a stale
     sender reads an old owner at worst, and the old owner forwards *)
  g_shard_map : int Atomic.t array;
  g_site_ip : int array; (* site id -> node ip; immutable *)
  (* ring elements pushed (or being pushed) whose consequences have not
     all been scheduled yet: > 0 whenever cross-shard work (a batch, or
     a node in transit) is outside any heap *)
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
  (* timeouts at or before this time may run (see [blocked]); raised
     by the coordinator only *)
  g_release : int Atomic.t;
}

type shard = {
  sh_id : int;
  g : global;
  cl : Cluster.t;
  in_rings : element Spsc.t option array; (* index = source shard *)
  out_rings : element Spsc.t option array; (* index = destination shard *)
  out_bufs : outbuf array; (* index = destination shard; self unused *)
  mutable nonempty : int; (* out_bufs holding a transmission *)
  (* packets that arrived for a node this shard owns per the table but
     has not installed yet (they raced ahead of the migration element,
     whose [g_inflight] unit covers them): drained at install, keyed by
     node ip *)
  limbo : (int, (Trace.span * Packet.t) list ref) Hashtbl.t;
  (* coordinator-posted migration command: [ip * domains + dst], or
     -1 for none; consumed at the step boundary *)
  mig_cmd : int Atomic.t;
  (* shard-confined accumulators, merged after join *)
  mutable handoffs_in : int; (* transmissions received through rings *)
  mutable batches_out : int; (* flushes, = ring pushes attempted *)
  mutable txs_out : int; (* transmissions those flushes carried *)
  mutable parks : int;
  mutable drains : int; (* backpressure drain passes while pushing *)
  mutable forwarded : int; (* packets re-sent along the table *)
  mutable migrations_in : int; (* nodes this shard installed *)
  mutable migration_ns : int; (* wall ns, ship to install, summed *)
  (* migrations dropped at teardown (g_stop while pushing): kept so
     the post-join merge still sees their sites' stats *)
  mutable lost_migs : migration list;
  mutable error : exn option;
  m_handoffs_in : Metrics.counter;
  m_handoff_lat : Metrics.histogram; (* virtual ns from send to arrival *)
  m_batch_fill : Metrics.histogram; (* transmissions per ring push *)
  (* termination detection: [pending] is the published work count (see
     [publish]); [executed] (an alias of the shard's slot in
     [g_executed]) is monotone and detects activity between the
     coordinator's two collects *)
  pending : int Atomic.t;
  executed : int Atomic.t;
  gate : int Atomic.t; (* the timeout this shard waits at, or max_int *)
}

(* What actually travels through a ring: one flush's worth of
   same-destination transmissions (the array is freshly sized at flush;
   ownership passes to the consumer with the push), or one migrating
   node with every site on it. *)
and element =
  | Batch of transmission array
  | Mig of migration

and migration = {
  mg_node : Node.t;
  mg_sites : Site.t list;
  mg_sent_wall : float; (* host clock at ship, for [migration_ns] *)
}

let shard_of_ip g ip = Atomic.get (Array.unsafe_get g.g_shard_map ip)

(* Flush threshold: a buffer reaching this many transmissions is
   flushed immediately rather than waiting for the step boundary,
   bounding both handoff latency and the allocation size of one
   batch. *)
let handoff_batch_max = 64

(* Publish the shard's work count: its heap plus its non-empty handoff
   buffers, plus [busy] while the shard is itself mid-work (pushing
   from inside a step, flush or ship, whose own effects the count
   cannot see yet).  Published before every uncount of [g_inflight] and
   after every step, so a shard with work never reads zero. *)
let publish ?(busy = 0) sh =
  Atomic.set sh.pending
    (Simnet.pending (Cluster.sim sh.cl) + sh.nonempty + busy)

(* A shard may not run its next event when that event lies at or past
   its earliest live timeout [t]: another shard, whose clock may be
   behind, can still send what the timeout waits for.  It waits until
   the coordinator, having seen every other shard idle or waiting at a
   later timeout and nothing in flight, releases [t]. *)
let blocked sh =
  match Cluster.next_timeout sh.cl with
  | None -> None
  | Some t -> (
      match Simnet.next_time (Cluster.sim sh.cl) with
      | Some next when next >= t && t > Atomic.get sh.g.g_release -> Some t
      | _ -> None)

(* A waiting shard reports its gate before dropping its work from the
   count; a running one restores the count before clearing the gate. *)
let publish_state sh =
  match blocked sh with
  | Some t ->
      Atomic.set sh.gate t;
      Atomic.set sh.pending sh.nonempty
  | None ->
      publish sh;
      Atomic.set sh.gate max_int

(* ------------------------------------------------------------------ *)
(* Handoff and migration.  Transport and dispatch are [Cluster]'s.     *)

let rec handoff sh dst ~at act =
  let ub = Array.unsafe_get sh.out_bufs dst in
  let n = ub.hb_count in
  if n = 0 then sh.nonempty <- sh.nonempty + 1;
  let tx =
    { tx_at = at; tx_sent = Simnet.now (Cluster.sim sh.cl); tx_act = act }
  in
  if n = Array.length ub.hb_txs then begin
    let grown = Array.make (max 8 (2 * n)) tx in
    Array.blit ub.hb_txs 0 grown 0 n;
    ub.hb_txs <- grown
  end;
  ub.hb_txs.(n) <- tx;
  ub.hb_count <- n + 1;
  if ub.hb_count >= handoff_batch_max then flush_handoff sh ~dst ub

(* Flush one destination's buffer as a single ring element: one push,
   one [g_inflight] unit, one pop on the far side for the whole batch.
   The unit is taken before the push; the buffer stays in the
   published count until the next publication. *)
and flush_handoff sh ~dst ub =
  let count = ub.hb_count in
  let batch = Array.sub ub.hb_txs 0 count in
  (* drop the buffer's references: the consumer owns the batch now,
     and a stale slot would otherwise keep closures alive until the
     next burst overwrites it *)
  Array.fill ub.hb_txs 0 count (Obj.magic 0);
  ub.hb_count <- 0;
  sh.nonempty <- sh.nonempty - 1;
  sh.batches_out <- sh.batches_out + 1;
  sh.txs_out <- sh.txs_out + count;
  Metrics.observe_int sh.m_batch_fill count;
  Atomic.incr sh.g.g_inflight;
  push_element sh ~dst (Batch batch)

(* Flush every non-empty buffer; called at the shard loop's step/park
   boundary.  Returns the number of batches pushed. *)
and flush_handoffs sh =
  let flushed = ref 0 in
  Array.iteri
    (fun dst ub ->
      if ub.hb_count > 0 then begin
        flush_handoff sh ~dst ub;
        incr flushed
      end)
    sh.out_bufs;
  !flushed

and push_element sh ~dst el =
  let ring =
    match sh.out_rings.(dst) with
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
        ignore (drain_rings sh ~busy:1);
        incr spins;
        if !spins < 64 then Domain.cpu_relax ()
        else begin
          sh.parks <- sh.parks + 1;
          Unix.sleepf 2e-5
        end
      end
    done
  end

(* Consume one inbound batch: every transmission lands on this shard's
   cluster at [max now tx_at] (the clock merge rule). *)
and absorb_batch sh (batch : transmission array) =
  let now = Simnet.now (Cluster.sim sh.cl) in
  Array.iter
    (fun tx ->
      sh.handoffs_in <- sh.handoffs_in + 1;
      Metrics.incr sh.m_handoffs_in;
      Metrics.observe_int sh.m_handoff_lat (max now tx.tx_at - tx.tx_sent);
      Cluster.arrive sh.cl ~at:tx.tx_at tx.tx_act)
    batch

(* Install a migrated node: its sites join this shard's table under
   fresh wrappers (the shipper's retired ones stay behind so its
   leftover pump events no-op without cross-domain writes), and the
   packets that raced ahead are delivered. *)
and install_migration sh (m : migration) =
  sh.migrations_in <- sh.migrations_in + 1;
  sh.migration_ns <-
    sh.migration_ns
    + int_of_float ((Unix.gettimeofday () -. m.mg_sent_wall) *. 1e9);
  Cluster.adopt_node sh.cl m.mg_node m.mg_sites;
  let ip = Node.ip m.mg_node in
  (match Hashtbl.find_opt sh.limbo ip with
  | Some q ->
      Hashtbl.remove sh.limbo ip;
      let now = Simnet.now (Cluster.sim sh.cl) in
      List.iter
        (fun (ctx, p) ->
          Cluster.arrive sh.cl ~at:now (fun c ->
              Cluster.deliver c ~at_ip:ip ~ctx p))
        (List.rev !q)
  | None -> ());
  Atomic.incr sh.g.g_migrations

(* Every consequence of a ring element is scheduled before its
   [g_inflight] unit is released, and the count is published in
   between. *)
and absorb_element sh ~busy el =
  (match el with
  | Batch batch -> absorb_batch sh batch
  | Mig m -> install_migration sh m);
  publish ~busy sh;
  Atomic.decr sh.g.g_inflight

and drain_rings sh ~busy =
  let got = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some ring ->
          let draining = ref true in
          while !draining do
            match Spsc.pop_exn ring with
            | el ->
                absorb_element sh ~busy el;
                incr got
            | exception Spsc.Empty -> draining := false
          done)
    sh.in_rings;
  !got

(* Ship one node to [dst]: the source half of a migration, run at the
   step boundary so no event is mid-flight on this shard.  The node's
   outboxes are flushed (by [Cluster.release_node]) and every buffered
   handoff leaves before the new owner is published, so per-destination
   order holds across the ownership change.  Publishing the owner
   after taking the in-flight unit keeps every window covered: packets
   arriving here afterwards miss the table and forward; packets
   arriving at the destination early park in its limbo under the unit
   we hold. *)
and ship_node sh ~ip ~dst =
  if
    dst <> sh.sh_id && dst >= 0
    && dst < sh.g.g_domains
    && Atomic.get sh.g.g_shard_map.(ip) = sh.sh_id
  then
    match Cluster.release_node sh.cl ip with
    | None -> ()
    | Some (node, sites) ->
        ignore (flush_handoffs sh);
        publish sh;
        Atomic.incr sh.g.g_inflight;
        Atomic.set sh.g.g_shard_map.(ip) dst;
        push_element sh ~dst
          (Mig
             { mg_node = node; mg_sites = sites;
               mg_sent_wall = Unix.gettimeofday () })

(* A packet for a site id missing from this shard's table (the
   cluster's [forward] hook): [false] — a dead letter — when no shard
   can host the id. *)
and forward sh site_id ctx p =
  let ips = sh.g.g_site_ip in
  site_id >= 0
  && site_id < Array.length ips
  &&
  let ip = Array.unsafe_get ips site_id in
  let owner = shard_of_ip sh.g ip in
  if owner <> sh.sh_id then begin
    (* the node migrated away: forward along the current table (no
       packet/byte re-count — the original hop was already charged) *)
    sh.forwarded <- sh.forwarded + 1;
    handoff sh owner ~at:(Simnet.now (Cluster.sim sh.cl)) (fun c ->
        Cluster.deliver c ~at_ip:ip ~ctx p)
  end
  else begin
    (* the table says this shard owns the node, but its migration
       element has not been popped yet: park the packet in limbo *)
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
  let sim = Cluster.sim sh.cl in
  let backoff = ref park_min in
  (try
     while not (Atomic.get sh.g.g_stop) do
       let drained = drain_rings sh ~busy:0 in
       (* bounded local batch so inbound rings are polled regularly *)
       let steps = ref 0 in
       while
         !steps < 256
         && (not (Atomic.get sh.g.g_stop))
         && blocked sh = None
         && Simnet.step sim
       do
         publish sh;
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
       publish_state sh;
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
(* Construction, merge, coordination.                                  *)

(* The report types; par_runner.mli documents them. *)

type shard_stat = {
  ss_shard : int;
  ss_sites : int;
  ss_events : int;
  ss_virtual_ns : int;
  ss_packets : int;
  ss_same_node : int;
  ss_handoffs_in : int; (* transmissions this shard received *)
  ss_ring_pushed : int; (* elements this shard pushed outbound *)
  ss_ring_popped : int; (* elements this shard consumed *)
  ss_ring_hiwater : int; (* max outbound-ring occupancy at push *)
  ss_parks : int;
  ss_drains : int; (* backpressure drain passes while pushing *)
  ss_weight : float; (* placement weight this shard was assigned *)
}

type snapshot = {
  sn_wall_ms : float;
  sn_inflight : int;
  sn_executed : int array; (* per shard, monotone *)
  sn_pending : int array;
  sn_ring_pushed : int; (* elements *)
  sn_ring_popped : int;
  sn_migrations : int; (* node installs completed so far *)
}

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
  handoffs : int; (* transmissions carried by rings *)
  ring_pushed : int; (* elements pushed (= pops after a clean run) *)
  ring_popped : int;
  ring_batch_fill_mean : float; (* transmissions per ring push *)
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
  node_weights : float array; (* measured per-node instructions *)
  events : int; (* simulation events across all shards *)
  clean : bool; (* quiesced with rings drained, heaps and limbo empty *)
  timed_out : bool;
  trace : Trace.t; (* merged shard-tagged collector; disabled when off *)
  metrics : Metrics.t; (* merged registry; disabled when off *)
  shard_stats : shard_stat array;
  sites : Site.t list; (* post-join reads only (join = happens-before) *)
}

(* Migration moves a node's sites, not the state their cluster keeps
   for them, so it is rejected where that state matters. *)
let validate (cfg : Cluster.config) ~migrating =
  let reject what why =
    invalid_arg
      (Printf.sprintf
         "Par_runner: %s cannot be combined with dynamic rebalancing (%s)"
         what why)
  in
  if migrating then begin
    if cfg.Cluster.tracing then
      reject "tracing" "a site's trace collector cannot follow it across domains";
    if cfg.Cluster.reliable then
      reject "reliable delivery"
        "unacked batches and retransmit timers stay in the old shard";
    if cfg.Cluster.ns_mode = Cluster.Replicated then
      reject "the replicated name service"
        "replica state stays in the old shard"
  end

let ring_capacity = 4096

let new_global ~domains ~shard_map ~site_ip ~rb_on =
  { g_domains = domains;
    g_shard_map = Array.map Atomic.make shard_map;
    g_site_ip = site_ip;
    g_inflight = Atomic.make 0;
    g_stop = Atomic.make false;
    g_executed = Array.init domains (fun _ -> Atomic.make 0);
    g_node_load = Array.map (fun _ -> Atomic.make 0) shard_map;
    g_rb_on = rb_on;
    g_migrations = Atomic.make 0;
    g_release = Atomic.make min_int }

(* [rings.(src).(dst)] carries src -> dst; [mx] gets the handoff
   instruments *)
let new_shard g ~rings ~mx s cl =
  { sh_id = s;
    g;
    cl;
    in_rings = Array.init g.g_domains (fun src -> rings.(src).(s));
    out_rings = rings.(s);
    out_bufs =
      Array.init g.g_domains (fun _ -> { hb_txs = [||]; hb_count = 0 });
    nonempty = 0;
    limbo = Hashtbl.create 4;
    mig_cmd = Atomic.make (-1);
    handoffs_in = 0;
    batches_out = 0;
    txs_out = 0;
    parks = 0;
    drains = 0;
    forwarded = 0;
    migrations_in = 0;
    migration_ns = 0;
    lost_migs = [];
    error = None;
    m_handoffs_in = Metrics.counter mx "handoffs_in";
    m_handoff_lat = Metrics.histogram mx "handoff_lat_ns";
    m_batch_fill = Metrics.histogram mx "ring_batch_fill";
    pending = Atomic.make 0;
    executed = g.g_executed.(s);
    gate = Atomic.make max_int }

let ring_totals shards =
  let pushed = ref 0 and popped = ref 0 in
  Array.iter
    (fun sh ->
      Array.iter
        (function
          | None -> ()
          | Some r ->
              pushed := !pushed + Spsc.pushed r;
              popped := !popped + Spsc.popped r)
        sh.out_rings)
    shards;
  (!pushed, !popped)

(* The merge: the only time shard state is read from outside
   ([Domain.join] is the happens-before edge).  With one shard there is
   nothing to merge: its own trace and registry are the run's. *)
let finish ~wall_ns ~timed_out ~placement_weights shards =
  let sum (f : shard -> int) =
    Array.fold_left (fun acc sh -> acc + f sh) 0 shards
  in
  let all f = List.concat_map f (Array.to_list shards) in
  let outputs =
    List.stable_sort
      (fun (ts1, (e1 : Output.event)) (ts2, e2) ->
        match compare ts1 ts2 with
        | 0 -> compare e1.Output.site e2.Output.site
        | c -> c)
      (all (fun sh -> Cluster.outputs sh.cl))
  in
  let ring_pushed, ring_popped = ring_totals shards in
  let clean =
    (not timed_out) && ring_pushed = ring_popped
    && Atomic.get shards.(0).g.g_inflight = 0
    && Array.for_all
         (fun sh ->
           Simnet.pending (Cluster.sim sh.cl) = 0
           && sh.nonempty = 0
           && Hashtbl.length sh.limbo = 0)
         shards
  in
  (* every site a shard can account for: its live ones plus any
     migration it had to drop at teardown *)
  let shard_sites sh =
    Cluster.sites sh.cl @ List.concat_map (fun m -> m.mg_sites) sh.lost_migs
  in
  let sites = all shard_sites in
  let node_weights =
    let w = Array.make (Cluster.config shards.(0).cl).Cluster.nodes 0. in
    List.iter
      (fun s ->
        w.(Site.ip s) <-
          w.(Site.ip s)
          +. float_of_int (Stats.counter_value (Site.stats s) "instructions"))
      sites;
    w
  in
  let events sh = Simnet.events_processed (Cluster.sim sh.cl) in
  let shard_stats =
    Array.mapi
      (fun i sh ->
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
          ss_sites = List.length (Cluster.sites sh.cl);
          ss_events = events sh;
          ss_virtual_ns = Cluster.virtual_time sh.cl;
          ss_packets = Cluster.packets_sent sh.cl;
          ss_same_node = Cluster.same_node_fast sh.cl;
          ss_handoffs_in = sh.handoffs_in;
          ss_ring_pushed = !pushed;
          ss_ring_popped = !popped;
          ss_ring_hiwater = !hi;
          ss_parks = sh.parks;
          ss_drains = sh.drains;
          ss_weight = placement_weights.(i) })
      shards
  in
  let batches_total = sum (fun sh -> sh.batches_out) in
  let ring_batch_fill_mean =
    if batches_total = 0 then 0.
    else float_of_int (sum (fun sh -> sh.txs_out)) /. float_of_int batches_total
  in
  let single = Array.length shards = 1 in
  let cfg = Cluster.config shards.(0).cl in
  let trace =
    if single then Cluster.tracer shards.(0).cl
    else if cfg.Cluster.tracing then
      Trace.merge
        (Array.to_list
           (Array.map (fun sh -> (sh.sh_id, Cluster.tracer sh.cl)) shards))
    else Trace.disabled
  in
  let metrics =
    if single then Cluster.metrics shards.(0).cl
    else if cfg.Cluster.metrics then begin
      let into = Metrics.create ~enabled:true () in
      Array.iteri
        (fun i sh ->
          (* stamp the post-join ring/park/migration signals into the
             shard's own registry so they travel through the merge like
             every other instrument (sum of values, max of high-waters) *)
          let mx = Cluster.metrics sh.cl in
          let st = shard_stats.(i) in
          Metrics.add (Metrics.counter mx "ring_pushed") st.ss_ring_pushed;
          Metrics.add (Metrics.counter mx "ring_popped") st.ss_ring_popped;
          Metrics.set (Metrics.gauge mx "ring_hiwater") st.ss_ring_hiwater;
          Metrics.add (Metrics.counter mx "parks") st.ss_parks;
          Metrics.add (Metrics.counter mx "drains") st.ss_drains;
          Metrics.add (Metrics.counter mx "migrations") sh.migrations_in;
          Metrics.add (Metrics.counter mx "migration_ns") sh.migration_ns;
          Metrics.add (Metrics.counter mx "forwarded_envelopes") sh.forwarded;
          Metrics.merge_into ~into mx)
        shards;
      into
    end
    else Metrics.disabled
  in
  { outputs;
    virtual_ns =
      Array.fold_left (fun acc sh -> max acc (Cluster.virtual_time sh.cl)) 0
        shards;
    packets = sum (fun sh -> Cluster.packets_sent sh.cl);
    bytes = sum (fun sh -> Cluster.bytes_sent sh.cl);
    same_node_fast = sum (fun sh -> Cluster.same_node_fast sh.cl);
    handoffs = sum (fun sh -> sh.handoffs_in);
    ring_pushed;
    ring_popped;
    ring_batch_fill_mean;
    parks = sum (fun sh -> sh.parks);
    domains = Array.length shards;
    instructions = int_of_float (Array.fold_left ( +. ) 0. node_weights);
    wall_ns;
    dead_letters = sum (fun sh -> Cluster.dead_letters sh.cl);
    migrations = sum (fun sh -> sh.migrations_in);
    migration_ns = sum (fun sh -> sh.migration_ns);
    forwarded_envelopes = sum (fun sh -> sh.forwarded);
    suspected = all (fun sh -> Cluster.suspected_failures sh.cl);
    sites_per_shard = Array.map (fun st -> st.ss_sites) shard_stats;
    placement_weights;
    node_weights;
    events = sum events;
    clean;
    timed_out;
    trace;
    metrics;
    shard_stats;
    sites }

let of_cluster ~wall_ns cl =
  let g =
    new_global ~domains:1
      ~shard_map:(Array.make (Cluster.config cl).Cluster.nodes 0)
      ~site_ip:[||] ~rb_on:false
  in
  let sh = new_shard g ~rings:[| [| None |] |] ~mx:Metrics.disabled 0 cl in
  finish ~wall_ns ~timed_out:false
    ~placement_weights:[| float_of_int (List.length (Cluster.sites cl)) |]
    [| sh |]

let run ?(config = Cluster.default_config) ?placement
    ?(policy = Placement.Mod) ?(inputs = fun _ -> [])
    ?(max_events = 10_000_000) ?(max_wall_ms = 120_000) ?on_snapshot
    ?(snapshot_every_ms = 100) ?rebalance ?(force_migrations = [])
    ~domains (units : (string * Tyco_compiler.Block.unit_) list) =
  if domains < 1 then invalid_arg "Par_runner.run: domains must be >= 1";
  validate config ~migrating:(rebalance <> None || force_migrations <> []);
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
  (* the placement policy needs the per-node site counts before any
     shard exists *)
  let site_nodes = Cluster.site_nodes ?placement ~nodes:nnodes units in
  let site_counts = Array.make nnodes 0 in
  List.iter (fun n -> site_counts.(n) <- site_counts.(n) + 1) site_nodes;
  let shard_map = Placement.assign ~domains ~site_counts policy in
  let weights =
    match policy with
    | Placement.Profile w -> w
    | Placement.Mod | Placement.Greedy -> Array.map float_of_int site_counts
  in
  let placement_weights =
    Placement.shard_weights ~domains ~map:shard_map weights
  in
  let g =
    new_global ~domains ~shard_map ~site_ip:(Array.of_list site_nodes)
      ~rb_on:(rebalance <> None)
  in
  let rings =
    Array.init domains (fun src ->
        Array.init domains (fun dst ->
            if src = dst then None
            else Some (Spsc.create ~capacity:ring_capacity)))
  in
  let pumped =
    if g.g_rb_on then fun node cost ->
      ignore
        (Atomic.fetch_and_add
           (Array.unsafe_get g.g_node_load (Node.ip node))
           cost)
    else fun _ _ -> ()
  in
  (* each shard's cluster reaches back into its shard (handoff,
     forward) and its siblings (the clusters sites run on after a
     migration) *)
  let rec shards =
    lazy
      (Array.init domains (fun s ->
           let rec sh =
             lazy
               (let cl =
                  Cluster.create ~config
                    ~shard:
                      { Cluster.index = s;
                        count = domains;
                        owner = shard_of_ip g;
                        peer = (fun i -> (Lazy.force shards).(i).cl);
                        handoff =
                          (fun dst ~at act ->
                            handoff (Lazy.force sh) dst ~at act);
                        forward =
                          (fun id ctx p -> forward (Lazy.force sh) id ctx p);
                        pumped }
                    ()
                in
                let mx = Cluster.metrics cl in
                Metrics.set (Metrics.gauge mx "placement_weight")
                  (int_of_float (Float.round placement_weights.(s)));
                new_shard g ~rings ~mx s cl)
           in
           Lazy.force sh))
  in
  let shards = Lazy.force shards in
  (* load sites (on the coordinating domain, before any shard domain
     exists — construction is the last moment state is shared): every
     shard numbers every unit and builds the sites of its own nodes *)
  Array.iter (fun sh -> Cluster.load ?placement ~inputs sh.cl units) shards;
  Array.iter (fun sh -> publish sh) shards;
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
  (* Quiescence: [inflight + sum pending] is zero only when no work
     exists anywhere but behind gates (see [publish], [blocked]).  Two
     collects agreeing on the monotone executed-count with a zero
     work-sum close the race of reading the counters one by one;
     [inflight] is read first, each gate before its count.  Zero with
     no gate is quiescence; zero with gates releases the earliest. *)
  let collect () =
    let work = ref (Atomic.get g.g_inflight) in
    let execd = ref 0 and gate = ref max_int in
    Array.iter
      (fun sh ->
        gate := min !gate (Atomic.get sh.gate);
        work := !work + Atomic.get sh.pending;
        execd := !execd + Atomic.get sh.executed)
      shards;
    (!work, !execd, !gate)
  in
  let timed_out = ref false in
  let take_snapshot () =
    match on_snapshot with
    | None -> ()
    | Some f ->
        let pushed, popped = ring_totals shards in
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
      let w1, e1, _ = collect () in
      let stable, gate =
        if w1 <> 0 then (false, max_int)
        else
          let w2, e2, gate = collect () in
          (w2 = 0 && e1 = e2, gate)
      in
      if stable && gate = max_int then () (* quiescent *)
      else begin
        if stable && gate > Atomic.get g.g_release then
          Atomic.set g.g_release gate;
        Unix.sleepf 2e-4;
        wait ()
      end
    end
  in
  wait ();
  Atomic.set g.g_stop true;
  Array.iter Domain.join doms;
  let wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
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
  finish ~wall_ns ~timed_out:!timed_out ~placement_weights shards
