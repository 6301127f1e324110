(** The dispatch core of the TyCOd daemon, written once for every
    engine: the site table, the pump scheduler, the packet demux,
    name-service serving (a registration answers its parked lookups; a
    lookup replies or parks), the service's reply path, and delivery
    to a site with dead-letter and suspect accounting.

    An engine owns one {!t} per event loop — {!Cluster} one for the
    whole network, {!Par_runner} one per shard — and Fabric reaches the
    engine only through the {!transport} record, never asking which
    engine it is.  {!Tcp_runner}, which has no virtual clock, uses
    {!dst_site} and {!serve_ns} directly. *)

val ns_processing_cost : int
(** Virtual ns the name service spends on one transaction. *)

val context_switch_cost : int
(** Virtual ns charged after every pump quantum. *)

type wrapper = {
  site : Site.t;
  node : Node.t;
  mutable pump_scheduled : bool;
  mutable retired : bool;  (** left the table; pending pumps do nothing *)
}

type transport = {
  now : unit -> int;  (** the event loop's virtual clock *)
  sched : delay:int -> (unit -> unit) -> unit;
  send : src_ip:int -> ctx:Tyco_support.Trace.span -> Tyco_net.Packet.t -> unit;
      (** a packet leaving node [src_ip] (name-service replies) *)
  ns : int -> Tyco_net.Nameservice.t;
      (** the replica serving traffic delivered at a node ip *)
  forward : int -> Tyco_support.Trace.span -> Tyco_net.Packet.t -> bool;
      (** a packet for a site id missing from the table: [true] when the
          engine took it, [false] for a dead letter *)
  pumped : Node.t -> int -> unit;  (** the cost of every pump quantum *)
  tracer : Tyco_support.Trace.t;
}

type t

val create :
  quantum:int ->
  metrics:Tyco_support.Metrics.t ->
  dead_letters:Tyco_support.Stats.Counter.t ->
  transport ->
  t
(** [quantum]: VM instructions per pump; [metrics] gets a
    ["deliveries"] counter. *)

val load : t -> node:Node.t -> Site.t -> wrapper
(** Place a new site on [node], start it and schedule its first pump. *)

val adopt : t -> node:Node.t -> Site.t -> wrapper
(** Table a running site (a migrated node's); no pump is scheduled. *)

val retire : t -> wrapper -> unit
val wrappers : t -> wrapper list
val sites : t -> Site.t list
(** Both in the order the sites entered the table. *)

val site_count : t -> int
val request_pump : t -> wrapper -> delay:int -> unit

val ns_site : int

val dst_site : Tyco_net.Packet.t -> int
(** The demux: the site id a packet is addressed to, or {!ns_site} for
    [Pns_register] and [Pns_lookup]. *)

val serve_ns :
  Tyco_net.Nameservice.t -> Tyco_net.Packet.t ->
  reply:(Tyco_net.Packet.t -> unit) -> unit
(** Serve a name-service packet, handing each [Pns_reply] to [reply]. *)

val serve :
  t -> at_ip:int -> ctx:Tyco_support.Trace.span -> Tyco_net.Packet.t -> unit
(** {!serve_ns} at node [at_ip]'s replica; each reply leaves [at_ip]
    after {!ns_processing_cost} under a child span of [ctx]. *)

val deliver :
  t -> at_ip:int -> ctx:Tyco_support.Trace.span -> same_node:bool ->
  Tyco_net.Packet.t -> unit
(** A packet arrived at node [at_ip]: {!serve} it, or deliver it to its
    site and schedule a pump.  One for a dead site is a suspicion, one
    for an unknown site that [forward] refuses a dead letter. *)

val output : t -> Output.event -> unit
val suspect : t -> string -> unit
(** Both stamped with the current virtual time. *)

val outputs : t -> (int * Output.event) list
val suspected : t -> (int * string) list
(** Both chronological. *)

val busy_until : t -> int
(** Completion time of the latest pump quantum. *)

val dead_letters : t -> int
