(** A real-network deployment of the DiTyCO runtime.

    The default runtime multiplexes everything into one deterministic
    discrete-event simulation (see DESIGN.md).  This module instead
    realizes the paper's §5 deployment literally, on the loopback
    network: every node is an OCaml 5 domain owning a TCP listening
    socket (its "IP address" is a port), sites run inside their node's
    domain — so nodes execute truly in parallel on a multicore host —
    the TyCOd role — framing packets, routing them to peer nodes,
    delivering to local site queues — is played by each node's event
    loop, and the centralized name service lives on node 0.  The same
    {!Site} machinery runs unchanged, and packets are dispatched by the
    same {!Fabric} demux and name-service code as in the other engines;
    only the transport differs.

    A frame that cannot be a packet — a length prefix over 16 MiB, or
    bytes that do not decode — drops the connection it came on and is
    counted in [result.malformed_frames]; a connection the peer resets
    is dropped too.  Either way the node keeps running.

    A quiet node does not spin: it parks in [select] on its sockets
    under an exponentially growing timeout (50 us doubling to 5 ms,
    reset by any work), so inbound traffic wakes it immediately
    instead of waiting out a fixed sleep.  Parks are counted per node
    and reported in [result.parks].

    Execution is {e not} deterministic (the OS schedules the domains),
    so tests compare output multisets against the simulated runtime.
    Termination uses a coordinator scan: all nodes idle and no packets
    in flight for three consecutive scans.  A node marks itself busy
    before it uncounts a packet it has read, so no scan sees it idle
    while it holds one.

    Limitations (documented, by design): no virtual clock (wall time
    only), no failure injection, and perpetual programs must be
    bounded with [timeout_ms]. *)

type result = {
  outputs : Output.event list;   (** arrival order; racy across sites *)
  packets : int;                 (** TCP packets exchanged *)
  wall_ns : int;                 (** elapsed wall-clock time *)
  timed_out : bool;
  parks : int;                   (** idle [select] parks across nodes *)
  malformed_frames : int;        (** connections dropped for a bad frame *)
  dead_letters : int;
      (** packets addressed to a site that is not alive on their node *)
  metrics : Tyco_support.Metrics.t;
      (** per-node registries (parks, packets, bytes, connect
          retries) merged after the domains join; the disabled
          singleton unless [run ~metrics:true] *)
}

val run :
  ?nodes:int ->
  ?base_port:int ->
  ?inputs:(string -> int list) ->
  ?timeout_ms:int ->
  ?metrics:bool ->
  (string * Tyco_compiler.Block.unit_) list ->
  result
(** Place the compiled sites round-robin on [nodes] (default 4) node
    threads listening on consecutive loopback ports (default base:
    derived from the process id), run until global quiescence or
    [timeout_ms] (default 10_000).  [metrics] (default [false]) gives
    each node a {!Tyco_support.Metrics} registry, merged into
    [result.metrics] after the join. *)

val run_program :
  ?nodes:int -> ?base_port:int -> ?timeout_ms:int -> ?metrics:bool ->
  Tyco_syntax.Ast.program -> result
(** Type-check, compile and {!run}. *)
