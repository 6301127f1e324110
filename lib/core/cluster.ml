module Simnet = Tyco_net.Simnet
module Packet = Tyco_net.Packet
module Latency = Tyco_net.Latency
module Nameservice = Tyco_net.Nameservice
module Netref = Tyco_support.Netref
module Stats = Tyco_support.Stats
module Prng = Tyco_support.Prng
module Trace = Tyco_support.Trace
module Metrics = Tyco_support.Metrics
module Dq = Tyco_support.Dq

(* The paper's first implementation uses a centralized name service;
   its stated future work is a distributed one "for reasons of both
   redundancy (for failure recovery) and performance".  [Replicated]
   keeps one replica per node: lookups are answered by the local
   replica (a shared-memory hop), registrations broadcast to all
   replicas over the cluster links. *)
type ns_mode = Centralized | Replicated

(* Daemon-level retransmission: an unacknowledged frame is re-sent
   under exponential backoff (jittered via the simulation PRNG) up to
   [max_attempts] times before the destination is suspected. *)
type retry_params = {
  rto_ns : int;
  rto_backoff : float;
  max_attempts : int;
}

let default_retry_params =
  { rto_ns = 300_000; rto_backoff = 2.0; max_attempts = 12 }

type config = {
  nodes : int;
  cores_per_node : int;
  quantum : int;
  topology : Simnet.topology;
  seed : int;
  ns_mode : ns_mode;
  ns_replicas : int;
  faults : Simnet.fault_model;
  reliable : bool;
  retry : retry_params;
  site_retry : Site.retry;
  tracing : bool;
  trace_capacity : int;
  metrics : bool;
  packet_log_capacity : int;
  batching : bool;
  flush_max_packets : int;
  flush_max_bytes : int;
  flush_deadline_ns : int;
  ack_delay_ns : int;
  lease_ns : int;
  lease_refresh_ns : int;
  lease_hold_ns : int;
  code_cache_capacity : int;
}

(* Flush defaults tuned by bench E16: a deadline of 0 virtual ns still
   coalesces everything a site emits within one scheduling event (the
   flush runs as a separate event at the same timestamp, after the
   current pump), so bursts batch fully while a lone packet is never
   delayed.  The ack delay is well under the retransmission timeout so
   delayed acks cannot cause spurious retransmits. *)
let default_config =
  { nodes = 4;
    cores_per_node = 2;
    quantum = 512;
    topology = Simnet.default_topology;
    seed = 42;
    ns_mode = Centralized;
    ns_replicas = 0;
    faults = Simnet.no_faults;
    reliable = false;
    retry = default_retry_params;
    site_retry = Site.default_retry;
    tracing = false;
    trace_capacity = 65536;
    metrics = false;
    packet_log_capacity = 4096;
    batching = true;
    flush_max_packets = 16;
    flush_max_bytes = 8192;
    flush_deadline_ns = 0;
    ack_delay_ns = 30_000;
    lease_ns = 0;
    lease_refresh_ns = 0;
    lease_hold_ns = 0;
    code_cache_capacity = Site.default_lifecycle.Site.lc_code_cache }

(* Per-(src, dst) transmit coalescing: packets headed for the same
   node wait here until a flush — by packet-count threshold, byte
   threshold, or deadline — turns them into one [Fbatch] frame. *)
type outbox = {
  ob_src_ip : int;
  ob_dst_ip : int;
  (* parallel buffers of queued packets, reused across flushes: they
     grow to the connection's burst high-water mark once and are never
     shrunk, so a steady sender enqueues with zero allocation *)
  mutable ob_pkts : Packet.t array;
  mutable ob_ctxs : Trace.span array;
  mutable ob_sizes : int array;   (* payload bytes *)
  mutable ob_enq_ts : int array;  (* enqueue timestamps *)
  mutable ob_count : int;
  mutable ob_bytes : int;
  mutable ob_flush_scheduled : bool;
}

(* One reliable batch transmission: retransmitted whole (minus the
   cumulatively-acked prefix) until the peer's ack floor passes its
   last sequence number. *)
type bxmit = {
  bx_src_ip : int;
  bx_dst_ip : int;
  mutable bx_base_seq : int; (* seq of [bx_pkts.(bx_lo)] *)
  (* the flushed batch, snapshotted from the outbox; content is frozen,
     acked prefixes advance [bx_lo] instead of rebuilding a list *)
  bx_pkts : Packet.t array;
  bx_ctxs : Trace.span array;
  bx_sizes : int array;
  mutable bx_lo : int;
  mutable bx_payload_bytes : int; (* of the unacked suffix *)
  bx_span : Trace.span; (* the batch's fabric span, kept across retries *)
  mutable bx_attempts : int;
  mutable bx_done : bool; (* fully acked, or given up *)
}

(* Receiver-side delayed-ack state towards one peer: [ak_need] is set
   by every arriving data batch and cleared by whichever ack goes out
   first — the piggybacked floor on a reverse-direction batch, or the
   standalone [Fcum_ack] the timer sends. *)
type ack_state = { mutable ak_need : bool; mutable ak_armed : bool }

type t = {
  cfg : config;
  sim : Simnet.t;
  replicas : Nameservice.t array;  (* one in Centralized mode *)
  ns_ip : int;
  node_arr : Node.t array;
  (* site table, pump scheduler, demux and name service *)
  fab : Fabric.t;
  by_name : (string, Fabric.wrapper) Hashtbl.t;
  mutable next_site_id : int;
  mutable packets : int;
  mutable bytes : int;
  mutable in_flight : int;
  (* send-time packet log: a bounded ring (oldest dropped past
     [packet_log_capacity] — the unbounded list it replaces grew with
     every packet of a long run) *)
  plog : (int * Packet.t) Dq.t;
  mutable plog_dropped : int;
  tracer : Trace.t;
  tr_on : bool; (* cached [Trace.enabled tracer]; fixed at creation *)
  (* metrics registry (off = shared disabled singleton; each bump below
     is one load of the instrument's own flag and a branch) *)
  mx : Metrics.t;
  m_packets : Metrics.counter;
  m_bytes : Metrics.counter;
  m_same_node : Metrics.counter;
  m_wire_ns : Metrics.histogram;
  (* Same-node delivery latency (shared memory, zero payload bytes):
     constant for the whole run, precomputed so the same-node fast path
     never consults the link model per packet. *)
  loopback_delay : int;
  (* batching state *)
  outboxes : (int * int, outbox) Hashtbl.t;
  (* per-connection unacked batches, front = oldest.  Batches enter in
     contiguous sequence order and a cumulative ack acknowledges a
     prefix of the stream, so acks only ever touch a front segment:
     [apply_cum_ack] pops acked fronts in O(1) each instead of the
     O(queue) [List.filter] rebuild this deque replaces.  Timed-out
     batches are marked [bx_done] in place and popped lazily when they
     surface at the front. *)
  pending_batches : (int * int, bxmit Dq.t) Hashtbl.t;
  ack_states : (int * int, ack_state) Hashtbl.t;
  (* fault/reliability bookkeeping *)
  stats : Stats.t;
  c_drops : Stats.Counter.t;
  c_dupes : Stats.Counter.t;
  c_reorders : Stats.Counter.t;
  c_retries : Stats.Counter.t;
  c_dupes_suppressed : Stats.Counter.t;
  c_timeouts : Stats.Counter.t;
  c_acks : Stats.Counter.t;
  c_same_node : Stats.Counter.t;
  c_frames : Stats.Counter.t;
  c_acks_piggybacked : Stats.Counter.t;
  d_lat_wire : Stats.Dist.t;
  d_lat_retransmit : Stats.Dist.t;
  d_batch_fill : Stats.Dist.t;
  d_flush_wait : Stats.Dist.t;
}

let sim t = t.sim
let config t = t.cfg
let virtual_time t = max (Simnet.now t.sim) (Fabric.busy_until t.fab)
let site t name = (Hashtbl.find t.by_name name).Fabric.site
let sites t = Fabric.sites t.fab
let nodes t = Array.to_list t.node_arr
let outputs t = Fabric.outputs t.fab
let output_events t = List.map snd (outputs t)
let packets_sent t = t.packets
let bytes_sent t = t.bytes
let in_flight t = t.in_flight
let name_service_pending t =
  Array.fold_left (fun acc ns -> acc + Nameservice.pending ns) 0 t.replicas
let suspected_failures t = Fabric.suspected t.fab

let log_packet t p =
  (* capacity 0 disables the log: no ring churn and no virtual-clock
     read per packet — only the dropped count is maintained, as the
     push-then-evict sequence it replaces did *)
  if t.cfg.packet_log_capacity = 0 then
    t.plog_dropped <- t.plog_dropped + 1
  else begin
    Dq.push_back t.plog (Simnet.now t.sim, p);
    if Dq.length t.plog > t.cfg.packet_log_capacity then begin
      ignore (Dq.pop_front t.plog);
      t.plog_dropped <- t.plog_dropped + 1
    end
  end

let packet_trace t = Dq.to_list t.plog

let packet_trace_dropped t = t.plog_dropped
let tracer t = t.tracer
let metrics t = t.mx
let stats t = t.stats
let dead_letters t = Fabric.dead_letters t.fab
let same_node_fast t = Stats.Counter.value t.c_same_node
let frames_sent t = Stats.Counter.value t.c_frames
let acks_piggybacked t = Stats.Counter.value t.c_acks_piggybacked

let batch_fill_mean t =
  if Stats.Dist.count t.d_batch_fill = 0 then 0.
  else Stats.Dist.mean t.d_batch_fill

let node_of_ip t ip = t.node_arr.(ip)

let outbox_of t ~src_ip ~dst_ip =
  match Hashtbl.find_opt t.outboxes (src_ip, dst_ip) with
  | Some ob -> ob
  | None ->
      let ob =
        { ob_src_ip = src_ip; ob_dst_ip = dst_ip; ob_pkts = [||];
          ob_ctxs = [||]; ob_sizes = [||]; ob_enq_ts = [||];
          ob_count = 0; ob_bytes = 0; ob_flush_scheduled = false }
      in
      Hashtbl.add t.outboxes (src_ip, dst_ip) ob;
      ob

let ack_state_of t ~at_ip ~peer_ip =
  match Hashtbl.find_opt t.ack_states (at_ip, peer_ip) with
  | Some st -> st
  | None ->
      let st = { ak_need = false; ak_armed = false } in
      Hashtbl.add t.ack_states (at_ip, peer_ip) st;
      st

let pending_of t ~src_ip ~dst_ip =
  match Hashtbl.find_opt t.pending_batches (src_ip, dst_ip) with
  | Some q -> q
  | None ->
      let q = Dq.create () in
      Hashtbl.add t.pending_batches (src_ip, dst_ip) q;
      q

(* One reliable transmission: a frame retransmitted until the peer
   daemon acknowledges it (or attempts are exhausted). *)
type xmit = {
  x_src_ip : int;
  x_dst_ip : int;
  x_seq : int;
  x_packet : Packet.t;
  x_span : Trace.span; (* the packet's causal span, kept across retries *)
  x_bytes : int;
  mutable x_attempts : int;
  mutable x_acked : bool;
}

(* ------------------------------------------------------------------ *)
(* Packet transport (the TyCOd role; dispatch itself is [Fabric]).     *)

(* One physical transmission over the fabric: rolls the fault dice and
   schedules [action] once per surviving copy. *)
let rec transmit t ~src_ip ~dst_ip ~bytes action =
  let base = Simnet.packet_delay t.sim ~src_ip ~dst_ip ~bytes in
  Stats.Dist.add_int t.d_lat_wire base;
  Metrics.observe_int t.m_wire_ns base;
  if not (Simnet.faulted_link t.sim ~src_ip ~dst_ip) then begin
    (* clean link: exactly one copy at the base delay — no verdict
       record, no delay list, no PRNG consumption *)
    t.in_flight <- t.in_flight + 1;
    Simnet.schedule t.sim ~delay:base (fun () ->
        t.in_flight <- t.in_flight - 1;
        action ())
  end
  else begin
    let v = Simnet.fault_verdict t.sim ~src_ip ~dst_ip ~base_delay:base in
    Stats.Counter.add t.c_drops v.Simnet.v_dropped;
    if v.Simnet.v_duplicated then Stats.Counter.incr t.c_dupes;
    Stats.Counter.add t.c_reorders v.Simnet.v_reordered;
    List.iter
      (fun delay ->
        t.in_flight <- t.in_flight + 1;
        Simnet.schedule t.sim ~delay (fun () ->
            t.in_flight <- t.in_flight - 1;
            action ()))
      v.Simnet.v_delays
  end

and route_ip t ~src_ip (p : Packet.t) =
  match (t.cfg.ns_mode, p) with
  (* replicated service: consult the nearest replica — the local one
     when this node hosts a replica, otherwise the node (ip mod
     replicas) that hosts this node's home replica.  Replica indices
     and node ips must not be conflated: replica [r] lives on node ip
     [r], which is only every node when there are as many replicas as
     nodes. *)
  | Replicated, (Packet.Pns_register _ | Packet.Pns_lookup _) ->
      src_ip mod Array.length t.replicas
  | _ -> Packet.dst_ip p ~ns_ip:t.ns_ip

and send_packet t ~src_ip ?(ctx = Trace.null_span) (p : Packet.t) =
  let dst_ip = route_ip t ~src_ip p in
  if dst_ip = src_ip then begin
    (* Same-node fast path (the paper's same-node optimization): both
       endpoints share the node's memory, so the packet is handed to the
       destination inbox as-is — no wire encode/decode, no size
       accounting, and no frame/ack machinery even in reliable mode
       (loopback traffic is exempt from the fault model).  Only the
       shared-memory latency is charged.  [in_flight] is still
       maintained: quiescence detection counts these deliveries.  The
       causal span still travels — by reference, like the packet. *)
    Stats.Counter.incr t.c_same_node;
    Metrics.incr t.m_same_node;
    log_packet t p;
    t.in_flight <- t.in_flight + 1;
    Simnet.schedule t.sim ~delay:t.loopback_delay (fun () ->
        t.in_flight <- t.in_flight - 1;
        deliver t ~at_ip:dst_ip ~ctx ~same_node:true p)
  end
  else begin
    Metrics.incr t.m_packets;
    if t.cfg.batching then enqueue_outbox t ~src_ip ~dst_ip ~ctx p
    else if t.cfg.reliable then send_reliable t ~src_ip ~dst_ip ~ctx p
    else begin
      let bytes = Packet.byte_size p in
      t.packets <- t.packets + 1;
      t.bytes <- t.bytes + bytes;
      Metrics.add t.m_bytes bytes;
      Stats.Counter.incr t.c_frames;
      log_packet t p;
      transmit t ~src_ip ~dst_ip ~bytes (fun () ->
          deliver t ~at_ip:dst_ip ~ctx ~same_node:false p)
    end
  end

(* ------------------------------------------------------------------ *)
(* Batched transmit path.

   Every cross-node packet is counted ([packets], [bytes] of its
   payload contribution, packet log) exactly once, here at enqueue;
   the flush then charges the fabric one frame and one latency sample
   for the whole batch.  [in_flight] covers outbox residency so
   quiescence detection cannot fire between enqueue and flush. *)

and enqueue_outbox t ~src_ip ~dst_ip ~ctx (p : Packet.t) =
  let ob = outbox_of t ~src_ip ~dst_ip in
  let bytes = Packet.byte_size p in
  t.packets <- t.packets + 1;
  Metrics.add t.m_bytes bytes;
  log_packet t p;
  t.in_flight <- t.in_flight + 1;
  let n = ob.ob_count in
  if n = Array.length ob.ob_pkts then begin
    let cap = max 8 (2 * n) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 n;
      b
    in
    ob.ob_pkts <- grow ob.ob_pkts p;
    ob.ob_ctxs <- grow ob.ob_ctxs Trace.null_span;
    ob.ob_sizes <- grow ob.ob_sizes 0;
    ob.ob_enq_ts <- grow ob.ob_enq_ts 0
  end;
  ob.ob_pkts.(n) <- p;
  ob.ob_ctxs.(n) <- ctx;
  ob.ob_sizes.(n) <- bytes;
  ob.ob_enq_ts.(n) <- Simnet.now t.sim;
  ob.ob_count <- n + 1;
  ob.ob_bytes <- ob.ob_bytes + bytes;
  if
    ob.ob_count >= t.cfg.flush_max_packets
    || ob.ob_bytes >= t.cfg.flush_max_bytes
  then flush_outbox t ob
  else if not ob.ob_flush_scheduled then begin
    ob.ob_flush_scheduled <- true;
    Simnet.schedule t.sim ~delay:t.cfg.flush_deadline_ns (fun () ->
        ob.ob_flush_scheduled <- false;
        flush_outbox t ob)
  end

and flush_outbox t ob =
  if ob.ob_count > 0 then begin
    let count = ob.ob_count in
    let payload_bytes = ob.ob_bytes in
    (* snapshot the buffers (the outbox refills while the frame is in
       flight) — two small arrays, the only per-flush allocation *)
    let pkts = Array.sub ob.ob_pkts 0 count in
    let ctxs = Array.sub ob.ob_ctxs 0 count in
    ob.ob_count <- 0;
    ob.ob_bytes <- 0;
    t.in_flight <- t.in_flight - count;
    let now = Simnet.now t.sim in
    let traced = t.tr_on in
    for i = 0 to count - 1 do
      let wait = now - ob.ob_enq_ts.(i) in
      Stats.Dist.add_int t.d_flush_wait wait;
      if traced && wait > 0 then
        Trace.emit t.tracer ~ts:now ~track:Trace.fabric_track
          ~span:ctxs.(i)
          (Trace.Flush_wait { ns = wait })
    done;
    Stats.Dist.add_int t.d_batch_fill count;
    (* the batch consumes one sequence number per packet; they come out
       contiguous because this is the only consumer of the stream *)
    let src = node_of_ip t ob.ob_src_ip in
    let base_seq = Node.fresh_seq src ~dst_ip:ob.ob_dst_ip in
    for _ = 2 to count do
      ignore (Node.fresh_seq src ~dst_ip:ob.ob_dst_ip)
    done;
    if t.cfg.reliable then begin
      let bx =
        { bx_src_ip = ob.ob_src_ip; bx_dst_ip = ob.ob_dst_ip;
          bx_base_seq = base_seq; bx_pkts = pkts; bx_ctxs = ctxs;
          bx_sizes = Array.sub ob.ob_sizes 0 count; bx_lo = 0;
          bx_payload_bytes = payload_bytes;
          bx_span = Trace.fresh_span t.tracer ~parent:Trace.null_span;
          bx_attempts = 0; bx_done = false }
      in
      let pending = pending_of t ~src_ip:ob.ob_src_ip ~dst_ip:ob.ob_dst_ip in
      Dq.push_back pending bx;
      attempt_batch t bx
    end
    else begin
      (* unreliable: one fire-and-forget frame; the fault dice roll once
         for the frame, so a dropped frame loses the whole batch — the
         per-packet path had the same per-transmission loss semantics *)
      let fbytes =
        Packet.batch_byte_size ~src_ip:ob.ob_src_ip ~base_seq ~ack_floor:0
          ~count ~payload_bytes
      in
      t.bytes <- t.bytes + fbytes;
      Stats.Counter.incr t.c_frames;
      let span =
        if traced then begin
          let sp = Trace.fresh_span t.tracer ~parent:Trace.null_span in
          Trace.emit t.tracer ~ts:now ~track:Trace.fabric_track ~span:sp
            (Trace.Send { pk = Trace.Kbatch; bytes = fbytes });
          sp
        end
        else Trace.null_span
      in
      let dst_ip = ob.ob_dst_ip in
      transmit t ~src_ip:ob.ob_src_ip ~dst_ip ~bytes:fbytes (fun () ->
          if t.tr_on then
            Trace.emit t.tracer ~ts:(Simnet.now t.sim)
              ~track:Trace.fabric_track ~span
              (Trace.Deliver { pk = Trace.Kbatch; same_node = false });
          for i = 0 to count - 1 do
            deliver t ~at_ip:dst_ip ~ctx:ctxs.(i) ~same_node:false pkts.(i)
          done)
    end
  end

(* The cumulative-ack floor a batch from [at_ip] to [peer_ip] carries:
   everything below it of [peer_ip]'s inbound stream has been
   delivered.  Carrying it satisfies any pending delayed ack, so the
   timer's standalone [Fcum_ack] is suppressed — a piggybacked ack. *)
and piggyback_floor t ~at_ip ~peer_ip =
  let st = ack_state_of t ~at_ip ~peer_ip in
  if st.ak_need then begin
    st.ak_need <- false;
    Stats.Counter.incr t.c_acks;
    Stats.Counter.incr t.c_acks_piggybacked
  end;
  Node.rx_floor (node_of_ip t at_ip) ~src_ip:peer_ip

and attempt_batch t (bx : bxmit) =
  bx.bx_attempts <- bx.bx_attempts + 1;
  if bx.bx_attempts > 1 then begin
    Stats.Counter.incr t.c_retries;
    if t.tr_on then
      Trace.emit t.tracer ~ts:(Simnet.now t.sim) ~track:Trace.fabric_track
        ~span:bx.bx_span
        (Trace.Retransmit { attempt = bx.bx_attempts })
  end;
  (* snapshot what this attempt puts on the wire ([lo] and [base_seq]
     as of now): a later cumulative ack may trim the batch while copies
     of this frame are in flight *)
  let base_seq = bx.bx_base_seq in
  let lo = bx.bx_lo in
  let count = Array.length bx.bx_pkts - lo in
  let ack_floor =
    piggyback_floor t ~at_ip:bx.bx_src_ip ~peer_ip:bx.bx_dst_ip
  in
  let fbytes =
    Packet.batch_byte_size ~src_ip:bx.bx_src_ip ~base_seq ~ack_floor ~count
      ~payload_bytes:bx.bx_payload_bytes
  in
  t.bytes <- t.bytes + fbytes;
  Stats.Counter.incr t.c_frames;
  if t.tr_on && bx.bx_attempts = 1 then
    Trace.emit t.tracer ~ts:(Simnet.now t.sim) ~track:Trace.fabric_track
      ~span:bx.bx_span
      (Trace.Send { pk = Trace.Kbatch; bytes = fbytes });
  transmit t ~src_ip:bx.bx_src_ip ~dst_ip:bx.bx_dst_ip ~bytes:fbytes
    (fun () ->
      receive_batch t ~src_ip:bx.bx_src_ip ~dst_ip:bx.bx_dst_ip ~base_seq
        ~ack_floor ~span:bx.bx_span ~pkts:bx.bx_pkts ~ctxs:bx.bx_ctxs ~lo);
  let r = t.cfg.retry in
  let backoff =
    int_of_float
      (float_of_int r.rto_ns
      *. (r.rto_backoff ** float_of_int (bx.bx_attempts - 1)))
  in
  let jitter = Prng.int (Simnet.prng t.sim) ((r.rto_ns / 4) + 1) in
  Simnet.schedule t.sim ~delay:(backoff + jitter) (fun () ->
      if not bx.bx_done then
        if bx.bx_attempts >= r.max_attempts then begin
          (* mark in place — a timed-out batch can sit mid-queue, and
             removing it there would cost O(queue); it is popped lazily
             when it reaches the front (here, if it already is) *)
          bx.bx_done <- true;
          let pending =
            pending_of t ~src_ip:bx.bx_src_ip ~dst_ip:bx.bx_dst_ip
          in
          let popping = ref true in
          while !popping do
            match Dq.peek_front pending with
            | Some b when b.bx_done -> ignore (Dq.pop_front_exn pending)
            | _ -> popping := false
          done;
          Stats.Counter.incr t.c_timeouts;
          if t.tr_on then
            Trace.emit t.tracer ~ts:(Simnet.now t.sim)
              ~track:Trace.fabric_track ~span:bx.bx_span Trace.Timeout;
          Fabric.suspect t.fab (Printf.sprintf "ip#%d" bx.bx_dst_ip);
          for i = bx.bx_lo to Array.length bx.bx_pkts - 1 do
            undeliverable t bx.bx_pkts.(i)
          done
        end
        else begin
          Stats.Dist.add_int t.d_lat_retransmit (backoff + jitter);
          attempt_batch t bx
        end)

and receive_batch t ~src_ip ~dst_ip ~base_seq ~ack_floor ~span ~pkts ~ctxs
    ~lo =
  (* the piggybacked floor acknowledges this receiver's own outbound
     stream towards the sender *)
  apply_cum_ack t ~at_ip:dst_ip ~peer_ip:src_ip ~floor:ack_floor;
  if t.tr_on then
    Trace.emit t.tracer ~ts:(Simnet.now t.sim) ~track:Trace.fabric_track
      ~span
      (Trace.Deliver { pk = Trace.Kbatch; same_node = false });
  let dst = node_of_ip t dst_ip in
  for i = lo to Array.length pkts - 1 do
    if Node.admit dst ~src_ip ~seq:(base_seq + i - lo) then
      deliver t ~at_ip:dst_ip ~ctx:ctxs.(i) ~same_node:false pkts.(i)
    else Stats.Counter.incr t.c_dupes_suppressed
  done;
  (* always (re)arm the delayed ack — even a frame of pure duplicates
     must be re-acked, since the sender evidently missed the last ack *)
  let st = ack_state_of t ~at_ip:dst_ip ~peer_ip:src_ip in
  st.ak_need <- true;
  if not st.ak_armed then begin
    st.ak_armed <- true;
    Simnet.schedule t.sim ~delay:t.cfg.ack_delay_ns (fun () ->
        st.ak_armed <- false;
        if st.ak_need then begin
          st.ak_need <- false;
          send_cum_ack t ~src_ip:dst_ip ~dst_ip:src_ip
        end)
  end

and send_cum_ack t ~src_ip ~dst_ip =
  let ack_floor = Node.rx_floor (node_of_ip t src_ip) ~src_ip:dst_ip in
  Stats.Counter.incr t.c_acks;
  Stats.Counter.incr t.c_frames;
  let bytes =
    Packet.frame_byte_size (Packet.Fcum_ack { src_ip; ack_floor })
  in
  t.bytes <- t.bytes + bytes;
  transmit t ~src_ip ~dst_ip ~bytes (fun () ->
      apply_cum_ack t ~at_ip:dst_ip ~peer_ip:src_ip ~floor:ack_floor)

and apply_cum_ack t ~at_ip ~peer_ip ~floor =
  if floor > 0 then
    match Hashtbl.find_opt t.pending_batches (at_ip, peer_ip) with
    | None -> ()
    | Some pending ->
        (* Front-only processing.  The queue holds this connection's
           batches in contiguous sequence order and the floor acks a
           prefix of the stream, so only a front segment can be
           affected: pop fully-acked fronts (and timed-out ones
           surfacing there), trim the single batch that can straddle
           the floor, then stop — every batch behind it starts at or
           above the front's end, hence at or above the floor.  Cost is
           O(batches retired), not O(queue) per ack. *)
        let scanning = ref true in
        while !scanning do
          match Dq.peek_front pending with
          | None -> scanning := false
          | Some bx ->
              if bx.bx_done then ignore (Dq.pop_front_exn pending)
              else begin
                let count = Array.length bx.bx_pkts - bx.bx_lo in
                if floor >= bx.bx_base_seq + count then begin
                  bx.bx_done <- true;
                  if t.tr_on then
                    Trace.emit t.tracer ~ts:(Simnet.now t.sim)
                      ~track:Trace.fabric_track ~span:bx.bx_span Trace.Ack;
                  ignore (Dq.pop_front_exn pending)
                end
                else begin
                  if floor > bx.bx_base_seq then begin
                    (* cumulative partial ack: advance past the acked
                       prefix so retransmissions shrink as the floor
                       advances *)
                    for _ = 1 to floor - bx.bx_base_seq do
                      bx.bx_payload_bytes <-
                        bx.bx_payload_bytes - bx.bx_sizes.(bx.bx_lo);
                      bx.bx_lo <- bx.bx_lo + 1
                    done;
                    bx.bx_base_seq <- floor
                  end;
                  scanning := false
                end
              end
        done

(* ------------------------------------------------------------------ *)
(* Unbatched reliable path (config.batching = false): one Fdata frame
   and one Fack per packet.                                            *)

and send_reliable t ~src_ip ~dst_ip ~ctx (p : Packet.t) =
  let seq = Node.fresh_seq (node_of_ip t src_ip) ~dst_ip in
  let bytes =
    Packet.frame_byte_size (Packet.Fdata { src_ip; seq; payload = p })
  in
  (* the logical packet is counted once; each physical attempt below
     adds only frame bytes and a frame count *)
  t.packets <- t.packets + 1;
  Metrics.add t.m_bytes bytes;
  log_packet t p;
  attempt_xmit t
    { x_src_ip = src_ip; x_dst_ip = dst_ip; x_seq = seq; x_packet = p;
      x_span = ctx; x_bytes = bytes; x_attempts = 0; x_acked = false }

and attempt_xmit t (x : xmit) =
  x.x_attempts <- x.x_attempts + 1;
  if x.x_attempts > 1 then begin
    Stats.Counter.incr t.c_retries;
    if t.tr_on then
      Trace.emit t.tracer ~ts:(Simnet.now t.sim) ~track:Trace.fabric_track
        ~span:x.x_span
        (Trace.Retransmit { attempt = x.x_attempts })
  end;
  t.bytes <- t.bytes + x.x_bytes;
  Stats.Counter.incr t.c_frames;
  transmit t ~src_ip:x.x_src_ip ~dst_ip:x.x_dst_ip ~bytes:x.x_bytes (fun () ->
      receive_frame t x);
  let r = t.cfg.retry in
  let backoff =
    int_of_float
      (float_of_int r.rto_ns
      *. (r.rto_backoff ** float_of_int (x.x_attempts - 1)))
  in
  let jitter = Prng.int (Simnet.prng t.sim) ((r.rto_ns / 4) + 1) in
  Simnet.schedule t.sim ~delay:(backoff + jitter) (fun () ->
      if not x.x_acked then
        if x.x_attempts >= r.max_attempts then begin
          Stats.Counter.incr t.c_timeouts;
          if t.tr_on then
            Trace.emit t.tracer ~ts:(Simnet.now t.sim)
              ~track:Trace.fabric_track ~span:x.x_span Trace.Timeout;
          Fabric.suspect t.fab (Printf.sprintf "ip#%d" x.x_dst_ip);
          undeliverable t x.x_packet
        end
        else begin
          (* the whole wait was retransmission overhead: the packet sat
             unacknowledged for [backoff + jitter] virtual ns *)
          Stats.Dist.add t.d_lat_retransmit
            (float_of_int (backoff + jitter));
          attempt_xmit t x
        end)

and receive_frame t (x : xmit) =
  (* the receiving daemon suppresses replayed (src, seq) pairs, then
     acknowledges — whether or not the addressed site is still alive:
     dead-peer detection is the request-deadline layer's concern *)
  if Node.admit (node_of_ip t x.x_dst_ip) ~src_ip:x.x_src_ip ~seq:x.x_seq then
    deliver t ~at_ip:x.x_dst_ip ~ctx:x.x_span ~same_node:false x.x_packet
  else Stats.Counter.incr t.c_dupes_suppressed;
  send_ack t x

and send_ack t (x : xmit) =
  Stats.Counter.incr t.c_acks;
  Stats.Counter.incr t.c_frames;
  t.bytes <- t.bytes + Latency.ack_bytes;
  transmit t ~src_ip:x.x_dst_ip ~dst_ip:x.x_src_ip ~bytes:Latency.ack_bytes
    (fun () ->
      if t.tr_on then
        Trace.emit t.tracer ~ts:(Simnet.now t.sim) ~track:Trace.fabric_track
          ~span:x.x_span Trace.Ack;
      x.x_acked <- true)

(* A packet given up on after the last retransmission surfaces as an
   output event of the daemon. *)
and undeliverable t p =
  Fabric.output t.fab
    { Output.site = "daemon";
      label = "undeliverable";
      args = [ Output.Ostr (Format.asprintf "%a" Packet.pp p) ] }

and deliver t ~at_ip ~ctx ~same_node (p : Packet.t) =
  Fabric.deliver t.fab ~at_ip ~ctx ~same_node p;
  match p with
  | Packet.Pns_register _ when t.cfg.ns_mode = Replicated ->
      (* replicated mode: propagate the registration to every other
         replica.  Replica [other] is hosted by node ip [other]; each
         copy is a packet in its own right — logged and counted like any
         other, so the packet accounting invariant (packets + same_node
         = log entries) holds in replicated mode too *)
      let home = at_ip mod Array.length t.replicas in
      let bytes = Packet.byte_size p in
      Array.iteri
        (fun other _ ->
          if other <> home then begin
            t.packets <- t.packets + 1;
            t.bytes <- t.bytes + bytes;
            Stats.Counter.incr t.c_frames;
            log_packet t p;
            transmit t ~src_ip:at_ip ~dst_ip:other ~bytes (fun () ->
                Fabric.serve t.fab ~at_ip:other ~ctx p)
          end)
        t.replicas
  | _ -> ()

let create ?(config = default_config) () =
  let sim =
    Simnet.create ~topology:config.topology ~faults:config.faults
      ~seed:config.seed ()
  in
  let stats = Stats.create () in
  let tracer =
    Trace.create ~capacity:config.trace_capacity ~enabled:config.tracing ()
  in
  Trace.register_track tracer ~id:Trace.fabric_track ~name:"fabric" ();
  let mx = if config.metrics then Metrics.create ~enabled:true () else Metrics.disabled in
  let replicas =
    match config.ns_mode with
    | Centralized -> [| Nameservice.create () |]
    | Replicated ->
        (* replica [r] is hosted by node ip [r]; fewer replicas than
           nodes is allowed — nodes without one consult ip mod r *)
        let n =
          if config.ns_replicas <= 0 then config.nodes
          else min config.nodes config.ns_replicas
        in
        Array.init n (fun _ -> Nameservice.create ())
  in
  (* the fabric's [send] closes over the cluster it belongs to *)
  let rec t =
    lazy
      { cfg = config;
        sim;
        replicas;
        (* in centralized mode the service lives on node 0's address, as a
           well-known location every site knows in advance (paper §5) *)
        ns_ip = 0;
        node_arr =
          Array.init config.nodes (fun i ->
              Node.create ~node_id:i ~ip:i ~cores:config.cores_per_node);
        fab =
          Fabric.create ~quantum:config.quantum ~metrics:mx
            ~dead_letters:(Stats.counter stats "dead_letters")
            { Fabric.now = (fun () -> Simnet.now sim);
              sched = (fun ~delay f -> Simnet.schedule sim ~delay f);
              send =
                (fun ~src_ip ~ctx p ->
                  send_packet (Lazy.force t) ~src_ip ~ctx p);
              (* the replica a node consults: its own in Replicated mode *)
              ns = (fun ip -> replicas.(ip mod Array.length replicas));
              forward = (fun _ _ _ -> false);
              pumped = (fun _ _ -> ());
              tracer };
        by_name = Hashtbl.create 16;
        next_site_id = 0;
        packets = 0;
        bytes = 0;
        in_flight = 0;
        plog = Dq.create ();
        plog_dropped = 0;
        tracer;
        tr_on = Trace.enabled tracer;
        mx;
        m_packets = Metrics.counter mx "packets";
        m_bytes = Metrics.counter mx "bytes";
        m_same_node = Metrics.counter mx "same_node_fast";
        m_wire_ns = Metrics.histogram mx "wire_ns";
        loopback_delay = Simnet.packet_delay sim ~src_ip:0 ~dst_ip:0 ~bytes:0;
        outboxes = Hashtbl.create 16;
        pending_batches = Hashtbl.create 16;
        ack_states = Hashtbl.create 16;
        stats;
        c_drops = Stats.counter stats "drops";
        c_dupes = Stats.counter stats "dupes";
        c_reorders = Stats.counter stats "reorders";
        c_retries = Stats.counter stats "retries";
        c_dupes_suppressed = Stats.counter stats "dupes_suppressed";
        c_timeouts = Stats.counter stats "timeouts";
        c_acks = Stats.counter stats "acks";
        c_same_node = Stats.counter stats "same_node_fast";
        c_frames = Stats.counter stats "frames";
        c_acks_piggybacked = Stats.counter stats "acks_piggybacked";
        d_lat_wire = Stats.dist stats "lat_wire";
        d_lat_retransmit = Stats.dist stats "lat_retransmit";
        d_batch_fill = Stats.dist stats "batch_fill";
        d_flush_wait = Stats.dist stats "lat_flush_wait";
      }
  in
  Lazy.force t


(* The per-site lifecycle a config asks for (both engines build their
   sites with it). *)
let site_lifecycle cfg =
  { Site.lc_lease_ns = cfg.lease_ns;
    lc_refresh_ns = cfg.lease_refresh_ns;
    lc_hold_ns = cfg.lease_hold_ns;
    lc_code_cache = cfg.code_cache_capacity;
    lc_done_horizon_ns = Site.default_lifecycle.Site.lc_done_horizon_ns }

(* ------------------------------------------------------------------ *)
(* Program loading.                                                    *)

let load ?placement ?(annotations = fun _ -> None) ?(inputs = fun _ -> [])
    t (units : (string * Tyco_compiler.Block.unit_) list) =
  List.iteri
    (fun i (name, unit_) ->
      if Hashtbl.mem t.by_name name then
        invalid_arg (Printf.sprintf "Cluster.load: duplicate site '%s'" name);
      let node_idx =
        match placement with
        | Some f ->
            let n = f name in
            if n < 0 || n >= Array.length t.node_arr then
              invalid_arg
                (Printf.sprintf "Cluster.load: site '%s' placed on node %d" name n)
            else n
        | None -> i mod Array.length t.node_arr
      in
      let node = t.node_arr.(node_idx) in
      let site_id = t.next_site_id in
      t.next_site_id <- site_id + 1;
      let schedule =
        (* request deadlines need virtual timers; only armed in
           reliable mode so the seed's park-forever semantics (and its
           tests) are untouched by default *)
        if t.cfg.reliable then
          Some (fun ~delay f -> Simnet.schedule t.sim ~delay f)
        else None
      in
      let site =
        Site.create
          ?annotations:(annotations name)
          ~inputs:(inputs name)
          ~retry:t.cfg.site_retry
          ~lifecycle:(site_lifecycle t.cfg)
          ?schedule
          ~on_suspect:(Fabric.suspect t.fab)
          ~trace:t.tracer ~name ~site_id ~ip:(Node.ip node)
          ~send:(fun ctx p -> send_packet t ~src_ip:(Node.ip node) ~ctx p)
          ~on_output:(Fabric.output t.fab)
          ~unit_ ()
      in
      Hashtbl.replace t.by_name name (Fabric.load t.fab ~node site))
    units

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)

let run ?max_events t = ignore (Simnet.run t.sim ?max_events ())

let run_until t ~time =
  let rec go () =
    match Simnet.next_time t.sim with
    | Some ts when ts <= time ->
        ignore (Simnet.step t.sim);
        go ()
    | Some _ | None -> ()
  in
  go ()

let quiescent t = Option.is_none (Simnet.next_time t.sim)

let kill_site t name ~at =
  let w = Hashtbl.find t.by_name name in
  let delay = max 0 (at - Simnet.now t.sim) in
  Simnet.schedule t.sim ~delay (fun () -> Site.kill w.site)

(* Test/experiment hook: push a raw packet into the fabric as if a
   site on [src_ip] had sent it. *)
let inject_packet t ~src_ip p = send_packet t ~src_ip p
