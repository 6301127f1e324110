(** The whole DiTyCO network (paper Fig. 2): nodes in a static IP
    topology, sites placed on nodes, a centralized name service whose
    location every site knows in advance, and the discrete-event engine
    that multiplexes everything onto one deterministic virtual clock.

    Packet routing plays the role of the TyCOd daemons: a packet leaves
    the sending site's node, crosses the link chosen by the topology
    (shared memory when both sites share a node — the paper's same-node
    optimization), and lands in the destination site's incoming queue. *)

type t

(** Name-service deployment: the paper's current implementation is
    [Centralized] ("all sites know its location in advance"); its
    stated future work — one replica per node, lookups served locally,
    registrations broadcast — is [Replicated]. *)
type ns_mode = Centralized | Replicated

(** Daemon-level retransmission (used when [reliable] is on): an
    unacknowledged frame is re-sent under exponential backoff — initial
    timeout [rto_ns], multiplied by [rto_backoff] per attempt, jittered
    by the simulation PRNG — and after [max_attempts] sends the
    destination is suspected and the packet surfaces as an
    ["undeliverable"] output event. *)
type retry_params = {
  rto_ns : int;
  rto_backoff : float;
  max_attempts : int;
}

val default_retry_params : retry_params
(** 300 µs initial timeout, doubling, 12 attempts. *)

type config = {
  nodes : int;            (** cluster size; Fig. 1 uses 4 *)
  cores_per_node : int;   (** Fig. 1 uses dual-processor PCs: 2 *)
  quantum : int;          (** VM instructions per scheduling quantum *)
  topology : Tyco_net.Simnet.topology;
  seed : int;
  ns_mode : ns_mode;
  ns_replicas : int;
      (** Replicated mode: how many name-service replicas ([<= nodes];
          [0] means one per node).  Replica [r] is hosted by node ip
          [r]; nodes without a local replica consult [ip mod replicas]
          over the network. *)
  faults : Tyco_net.Simnet.fault_model;
      (** Link-fault injection (default [Simnet.no_faults]). *)
  reliable : bool;
      (** Turn on at-least-once delivery: sequence-numbered frames,
          receiver-side dedup, ack-driven retransmission per [retry],
          and per-request deadlines at the sites per [site_retry].
          Default [false]: the seed's fire-and-forget transport. *)
  retry : retry_params;
  site_retry : Site.retry;
  tracing : bool;
      (** Turn on causal tracing: every site gets a track in the shared
          {!Tyco_support.Trace} collector, packets carry spans, and the
          run can be exported with {!tracer} (Chrome JSON or binary
          archive).  Default [false] — the collector is the disabled
          singleton and every instrumentation point costs one
          load-and-branch. *)
  trace_capacity : int;
      (** Per-track event-ring bound when [tracing] (default 65536). *)
  metrics : bool;
      (** Turn on the {!Tyco_support.Metrics} registry: transport
          counters (packets/bytes/same-node/deliveries) and a wire-
          latency histogram, exportable via {!metrics} as Prometheus
          text or JSONL.  Default [false] — every bump costs one
          load-and-branch on a shared dummy instrument. *)
  packet_log_capacity : int;
      (** Bound on the {!packet_trace} ring (default 4096); the oldest
          entries are dropped beyond it — see
          {!packet_trace_dropped}. *)
  batching : bool;
      (** Coalesce cross-node packets per destination into [Fbatch]
          frames (default [true]): a burst to one node costs one frame,
          one latency sample and — in reliable mode — one cumulative
          ack instead of N of each.  [false] restores the exact
          per-packet Fdata/Fack transmit path. *)
  flush_max_packets : int;
      (** Flush an outbox once it holds this many packets (default
          16). *)
  flush_max_bytes : int;
      (** ... or this many payload bytes (default 8192). *)
  flush_deadline_ns : int;
      (** ... or this many virtual ns after its first packet (default
          0: the flush still runs as a separate event after the current
          one, so all packets emitted at one virtual instant coalesce
          while a lone packet is never delayed). *)
  ack_delay_ns : int;
      (** Reliable batching: how long a receiver may hold a cumulative
          ack hoping to piggyback it on reverse traffic (default
          30_000 — well under [retry.rto_ns], so delaying acks never
          causes spurious retransmits). *)
  lease_ns : int;
      (** Resource lifecycle: exported channels/classes are reclaimed
          this many virtual ns after their last use, with importers
          refreshing the references they still hold via [Prelease]
          packets.  Default [0]: leases off, exports live forever (the
          seed behaviour).  See {!Site.lifecycle}. *)
  lease_refresh_ns : int;
      (** Refresh/sweep cadence; [0] (default) derives a quarter of
          [lease_ns]. *)
  lease_hold_ns : int;
      (** How long an importer keeps refreshing an unused foreign
          reference; [0] (default) derives [lease_ns]. *)
  code_cache_capacity : int;
      (** Per-site bound on each receiver-side linking cache (LRU,
          default 256); evicted entries re-link from the shipped code
          on the next miss. *)
}

val default_config : config

val create : ?config:config -> unit -> t

val site_lifecycle : config -> Site.lifecycle
(** The lease and code-cache settings of [config] as every site of a
    run gets them (both engines build their sites with it). *)

val load :
  ?placement:(string -> int) ->
  ?annotations:(string -> Site.annotations option) ->
  ?inputs:(string -> int list) ->
  t ->
  (string * Tyco_compiler.Block.unit_) list ->
  unit
(** Install compiled sites.  [placement] maps a site name to a node
    index (default: round-robin); [annotations] supplies each site's
    type descriptors for the dynamic checking of remote interactions
    (paper §7).  Each site's entry thread is scheduled at the current
    virtual time. *)

val site : t -> string -> Site.t
(** Raises [Not_found]. *)

val sites : t -> Site.t list
val nodes : t -> Node.t list

(** {1 Execution} *)

val run : ?max_events:int -> t -> unit
(** Run to quiescence (event queue empty). *)

val run_until : t -> time:int -> unit
(** Process events with timestamps [<= time] only — for perpetual
    programs (the SETI example) and time-bounded experiments. *)

val quiescent : t -> bool
val virtual_time : t -> int

(** {1 Observation} *)

val outputs : t -> (int * Output.event) list
(** All I/O events with their virtual timestamps, chronological. *)

val output_events : t -> Output.event list

val packets_sent : t -> int
val bytes_sent : t -> int

val same_node_fast : t -> int
(** Deliveries that took the same-node shared-memory fast path: source
    and destination share a node, so the packet skipped serialization,
    framing and acknowledgements entirely and paid only the
    shared-memory latency.  These do not count in {!packets_sent} /
    {!bytes_sent} — nothing crossed the fabric. *)

val frames_sent : t -> int
(** Physical frames that crossed the fabric: batch flushes,
    per-packet data frames, retransmissions and ack frames.  With
    batching on, [frames_sent / packets_sent] is the framing overhead
    the coalescing saves (E16's gated metric). *)

val batch_fill_mean : t -> float
(** Mean packets per flushed batch ([0.] before any flush). *)

val acks_piggybacked : t -> int
(** Cumulative acks that rode on a reverse-direction batch instead of
    costing a standalone [Fcum_ack] frame (counted inside the total
    ["acks"] counter as well). *)

val in_flight : t -> int
val name_service_pending : t -> int
(** Unresolved imports (nonzero at quiescence indicates a program
    error: an import of a never-exported identifier). *)

(** {1 Failure injection (paper future work)} *)

val kill_site : t -> string -> at:int -> unit
(** Schedule a site failure at the given virtual time. *)

val suspected_failures : t -> (int * string) list
(** [(time, who)] — failures noticed by the simplified detector: a
    packet addressed to a dead or unknown site, a daemon exhausting its
    retransmissions towards a peer ([ip#n]), or a site abandoning a
    FETCH / import request ([site#n], exporter name). *)

val stats : t -> Tyco_support.Stats.t
(** Fault/reliability counters: ["drops"], ["dupes"], ["reorders"],
    ["retries"], ["dupes_suppressed"], ["timeouts"], ["acks"],
    ["dead_letters"], ["same_node_fast"], ["frames"],
    ["acks_piggybacked"]; distributions ["lat_wire"],
    ["lat_retransmit"], ["batch_fill"], ["lat_flush_wait"]. *)

val dead_letters : t -> int
(** Packets addressed to site ids this cluster never loaded. *)

val inject_packet : t -> src_ip:int -> Tyco_net.Packet.t -> unit
(** Test/experiment hook: push a raw packet into the fabric as if a
    site on [src_ip] had sent it. *)

val packet_trace : t -> (int * Tyco_net.Packet.t) list
(** The most recent packets (up to [packet_log_capacity]) with their
    send timestamps, chronological — the observable migration
    behaviour of a run (shipments, fetches, name-service traffic).
    [tycosh --trace] prints it. *)

val packet_trace_dropped : t -> int
(** Packets evicted from the bounded {!packet_trace} ring.  [0] means
    the log is complete. *)

val tracer : t -> Tyco_support.Trace.t
(** The run's causal-trace collector — the disabled singleton unless
    [config.tracing]; export with {!Tyco_support.Trace.to_chrome_json}
    or {!Tyco_support.Trace.serialize}. *)

val metrics : t -> Tyco_support.Metrics.t
(** The run's metrics registry — the disabled singleton unless
    [config.metrics]; export with {!Tyco_support.Metrics.to_prom} or
    {!Tyco_support.Metrics.to_json}. *)

(** {1 Internals exposed for the experiment harness} *)

val sim : t -> Tyco_net.Simnet.t
val config : t -> config
