module Packet = Tyco_net.Packet
module Nameservice = Tyco_net.Nameservice
module Trace = Tyco_support.Trace
module Wire = Tyco_support.Wire
module Metrics = Tyco_support.Metrics

type result = {
  outputs : Output.event list;
  packets : int;
  wall_ns : int;
  timed_out : bool;
  parks : int;
  malformed_frames : int;
  dead_letters : int;
  metrics : Metrics.t;
}

(* ------------------------------------------------------------------ *)
(* Framing: 4-byte big-endian length prefix per packet.  A peer's
   outgoing frames accumulate in one buffer and leave in a single
   write per loop iteration (a writev of the queued frames, without
   the iovec), so a burst of packets to one peer costs one syscall. *)

(* A per-connection byte buffer (rx reassembly and tx coalescing). *)
type conn_buf = { mutable data : Bytes.t; mutable len : int }

let buf_create () = { data = Bytes.create 4096; len = 0 }

let buf_reserve cb n =
  if cb.len + n > Bytes.length cb.data then begin
    let bigger = Bytes.create (max (2 * Bytes.length cb.data) (cb.len + n)) in
    Bytes.blit cb.data 0 bigger 0 cb.len;
    cb.data <- bigger
  end

let buf_append cb src n =
  buf_reserve cb n;
  Bytes.blit src 0 cb.data cb.len n;
  cb.len <- cb.len + n

(* No packet comes near this: a longer length prefix is a bad frame,
   not a reason to buffer gigabytes. *)
let max_frame_bytes = 16 * 1024 * 1024

(* Hand every complete frame to [f], in order.  Raises
   [Wire.Malformed] at a length prefix over [max_frame_bytes]. *)
let buf_drain cb f =
  let pos = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if cb.len - !pos >= 4 then begin
      let n =
        (Bytes.get_uint8 cb.data !pos lsl 24)
        lor (Bytes.get_uint8 cb.data (!pos + 1) lsl 16)
        lor (Bytes.get_uint8 cb.data (!pos + 2) lsl 8)
        lor Bytes.get_uint8 cb.data (!pos + 3)
      in
      if n > max_frame_bytes then
        raise (Wire.Malformed (Printf.sprintf "frame length %d" n));
      if cb.len - !pos - 4 >= n then begin
        let frame = Bytes.sub_string cb.data (!pos + 4) n in
        pos := !pos + 4 + n;
        f frame
      end
      else continue_ := false
    end
    else continue_ := false
  done;
  if !pos > 0 then begin
    Bytes.blit cb.data !pos cb.data 0 (cb.len - !pos);
    cb.len <- cb.len - !pos
  end

(* ------------------------------------------------------------------ *)
(* Node state.                                                         *)

type node = {
  node_id : int;
  listen : Unix.file_descr;
  (* outgoing connections, by peer node id *)
  peers : (int, Unix.file_descr) Hashtbl.t;
  (* coalesced outgoing frames, by peer node id; flushed once per loop *)
  tx : (int, conn_buf) Hashtbl.t;
  (* node-local encoder, reused across every outgoing packet *)
  enc : Wire.enc;
  (* accepted incoming connections with reassembly buffers *)
  mutable accepted : (Unix.file_descr * conn_buf) list;
  mutable sites : Site.t list;
  (* only touched by this node's thread; packets keep their causal
     span, exactly as they do over the TCP links (trailer) *)
  inbox : (Packet.t * Trace.span) Queue.t;
  ns : Nameservice.t;            (* used by node 0 only *)
  idle : bool Atomic.t;
  (* read buffer, reused across iterations (was a per-iteration 8 KB
     allocation) *)
  scratch : Bytes.t;
  (* idle parks taken by this node's domain, read after join *)
  mutable parks : int;
  mutable malformed : int; (* connections dropped for a bad frame *)
  mutable dead_letters : int; (* packets for no live site of this node *)
  (* node-confined metrics registry (the ad-hoc park/retry counters,
     folded): only this node's domain bumps it; merged after join *)
  mx : Metrics.t;
  m_parks : Metrics.counter;
  m_packets : Metrics.counter;
  m_bytes : Metrics.counter;
  m_retries : Metrics.counter; (* connect_with_retry backoff rounds *)
}

type shared = {
  base_port : int;
  in_flight : int Atomic.t;
  stop : bool Atomic.t;
  total_packets : int Atomic.t;
  outputs_mu : Mutex.t;
  mutable outputs : Output.event list; (* newest first *)
}

let connect_with_retry shared node peer =
  let addr =
    Unix.ADDR_INET (Unix.inet_addr_loopback, shared.base_port + peer)
  in
  (* exponential backoff on refused connections (the peer's listener
     may not be up yet): 1 ms doubling to 50 ms, same ~5 s budget as
     the fixed-sleep loop it replaces but with far fewer wakeups *)
  let rec go tries delay =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
        Unix.set_nonblock fd;
        fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when tries > 0 ->
        Unix.close fd;
        Metrics.incr node.m_retries;
        Unix.sleepf delay;
        go (tries - 1) (Float.min 0.05 (delay *. 2.))
  in
  go 200 0.001

let peer_fd shared node peer =
  match Hashtbl.find_opt node.peers peer with
  | Some fd -> fd
  | None ->
      let fd = connect_with_retry shared node peer in
      Hashtbl.add node.peers peer fd;
      fd

let tx_buf_of node peer =
  match Hashtbl.find_opt node.tx peer with
  | Some tx -> tx
  | None ->
      let tx = buf_create () in
      Hashtbl.add node.tx peer tx;
      tx

(* Queue one packet for [peer]: encode (into the node's reused
   encoder — no per-packet buffer churn) straight into the peer's tx
   buffer behind its length prefix.  The bytes leave in [flush_tx]. *)
let send_to shared node peer ~ctx (p : Packet.t) =
  Atomic.incr shared.in_flight;
  Atomic.incr shared.total_packets;
  let tx = tx_buf_of node peer in
  (* the trace span rides the versioned trailer — an untraced run
     produces bytes identical to [Packet.to_string] *)
  Wire.reset node.enc;
  Packet.encode_traced ~ctx node.enc p;
  let n = Wire.size node.enc in
  buf_reserve tx (4 + n);
  Bytes.set_uint8 tx.data tx.len ((n lsr 24) land 0xff);
  Bytes.set_uint8 tx.data (tx.len + 1) ((n lsr 16) land 0xff);
  Bytes.set_uint8 tx.data (tx.len + 2) ((n lsr 8) land 0xff);
  Bytes.set_uint8 tx.data (tx.len + 3) (n land 0xff);
  Wire.blit_to_bytes node.enc tx.data (tx.len + 4);
  tx.len <- tx.len + 4 + n;
  Metrics.incr node.m_packets;
  Metrics.add node.m_bytes n

let flush_tx shared node =
  Hashtbl.iter
    (fun peer tx ->
      if tx.len > 0 then begin
        let fd = peer_fd shared node peer in
        (* loopback writes of small buffers complete immediately; loop
           for completeness *)
        let rec write_all off =
          if off < tx.len then begin
            match Unix.write fd tx.data off (tx.len - off) with
            | n -> write_all (off + n)
            | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
                Domain.cpu_relax ();
                write_all off
          end
        in
        write_all 0;
        tx.len <- 0
      end)
    node.tx

(* ------------------------------------------------------------------ *)
(* Per-node event loop.                                                *)

let route shared node ~ctx (p : Packet.t) =
  let dst_node = Packet.dst_ip p ~ns_ip:0 in
  if dst_node = node.node_id then Queue.push (p, ctx) node.inbox
  else send_to shared node dst_node ~ctx p

let deliver shared node ~ctx (p : Packet.t) =
  let site_id = Fabric.dst_site p in
  if site_id = Fabric.ns_site then
    Fabric.serve_ns node.ns p ~reply:(route shared node ~ctx)
  else
    match List.find_opt (fun s -> Site.site_id s = site_id) node.sites with
    | Some s when Site.alive s -> Site.deliver ~ctx s p
    | _ -> node.dead_letters <- node.dead_letters + 1

(* A frame's packet.  Decoding is pure, so whatever it raises means the
   bytes are not a packet: a [Wire.Malformed], like a bad length. *)
let decode_frame payload =
  try Packet.of_string_traced payload
  with e -> raise (Wire.Malformed (Printexc.to_string e))

let drop fd =
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Read what one peer sent and deliver its complete frames.  The node
   is marked busy before any packet is uncounted from [in_flight]:
   otherwise the coordinator could see it idle with nothing in flight
   while it still holds the packet.  Returns [false] when the
   connection is to be dropped — the peer closed or reset it, or sent
   a frame that is not a packet (counted in [malformed], rather than
   killing the node's domain). *)
let read_peer shared node ~worked (fd, cb) =
  match Unix.read fd node.scratch 0 (Bytes.length node.scratch) with
  | 0 ->
      drop fd;
      false
  | n -> (
      Atomic.set node.idle false;
      buf_append cb node.scratch n;
      match
        buf_drain cb (fun payload ->
            let p, sp = decode_frame payload in
            Atomic.decr shared.in_flight;
            worked := true;
            deliver shared node
              ~ctx:(Option.value ~default:Trace.null_span sp)
              p)
      with
      | () -> true
      | exception Wire.Malformed _ ->
          node.malformed <- node.malformed + 1;
          drop fd;
          false)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
  | exception Unix.Unix_error _ ->
      drop fd;
      false

(* Idle parking: instead of a fixed 0.5 ms sleep per quiet iteration,
   the loop blocks in [select] on everything that can make work appear
   from outside — the listener (new connections) and the accepted
   sockets (data).  The timeout doubles from [park_min] to [park_max]
   across consecutive quiet iterations and resets on any work, so a
   busy node never parks and a quiet one converges to a few wakeups
   per second; inbound bytes end the park immediately (the wakeup
   half), where the fixed sleep always paid its full latency. *)
let park_min = 5e-5 (* 50 us *)
let park_max = 5e-3 (* 5 ms *)

let park node ~timeout =
  node.parks <- node.parks + 1;
  Metrics.incr node.m_parks;
  let fds = node.listen :: List.map fst node.accepted in
  match Unix.select fds [] [] timeout with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let node_loop shared node () =
  let backoff = ref park_min in
  while not (Atomic.get shared.stop) do
    let worked = ref false in
    (* accept new connections *)
    (match Unix.accept node.listen with
    | fd, _ ->
        Unix.set_nonblock fd;
        node.accepted <- (fd, buf_create ()) :: node.accepted;
        worked := true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    (* read from peers *)
    node.accepted <- List.filter (read_peer shared node ~worked) node.accepted;
    (* locally queued packets (self-routed name-service traffic) *)
    while not (Queue.is_empty node.inbox) do
      worked := true;
      let p, ctx = Queue.pop node.inbox in
      deliver shared node ~ctx p
    done;
    (* run the sites *)
    List.iter
      (fun s ->
        if Site.busy s then begin
          worked := true;
          ignore (Site.pump s ~quantum:2048)
        end)
      node.sites;
    (* everything the sites and the NS queued this iteration leaves
       now, one write per peer *)
    flush_tx shared node;
    let busy =
      List.exists (fun s -> Site.busy s || Site.outstanding s > 0) node.sites
      || not (Queue.is_empty node.inbox)
      || Hashtbl.fold (fun _ tx acc -> acc || tx.len > 0) node.tx false
    in
    Atomic.set node.idle (not busy);
    if !worked then backoff := park_min
    else begin
      park node ~timeout:!backoff;
      backoff := Float.min park_max (!backoff *. 2.)
    end
  done;
  (* teardown *)
  Hashtbl.iter (fun _ fd -> try Unix.close fd with Unix.Unix_error _ -> ()) node.peers;
  List.iter
    (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    node.accepted;
  (try Unix.close node.listen with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Setup and coordination.                                             *)

let run ?(nodes = 4) ?base_port ?(inputs = fun _ -> [])
    ?(timeout_ms = 10_000) ?(metrics = false) units =
  let base_port =
    match base_port with
    | Some p -> p
    | None -> 20000 + (Unix.getpid () mod 20000)
  in
  let shared =
    { base_port;
      in_flight = Atomic.make 0;
      stop = Atomic.make false;
      total_packets = Atomic.make 0;
      outputs_mu = Mutex.create ();
      outputs = [] }
  in
  let mk_node node_id =
    let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt listen Unix.SO_REUSEADDR true;
    Unix.bind listen
      (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + node_id));
    Unix.listen listen 16;
    Unix.set_nonblock listen;
    let mx =
      if metrics then
        Metrics.create ~label:(Printf.sprintf "node%d" node_id) ~enabled:true ()
      else Metrics.disabled
    in
    { node_id;
      listen;
      peers = Hashtbl.create 8;
      tx = Hashtbl.create 8;
      enc = Wire.encoder ~size:256 ();
      accepted = [];
      sites = [];
      inbox = Queue.create ();
      ns = Nameservice.create ();
      idle = Atomic.make true;
      scratch = Bytes.create 8192;
      parks = 0;
      malformed = 0;
      dead_letters = 0;
      mx;
      m_parks = Metrics.counter mx "parks";
      m_packets = Metrics.counter mx "packets";
      m_bytes = Metrics.counter mx "bytes";
      m_retries = Metrics.counter mx "connect_retries" }
  in
  let node_arr = Array.init nodes mk_node in
  (* place sites round-robin, as the simulated cluster does *)
  List.iteri
    (fun i (name, unit_) ->
      let node = node_arr.(i mod nodes) in
      let site_id = i in
      let site =
        Site.create ~name ~site_id ~ip:node.node_id
          ~inputs:(inputs name)
          ~send:(fun ctx p -> route shared node ~ctx p)
          ~on_output:(fun e ->
            Mutex.lock shared.outputs_mu;
            shared.outputs <- e :: shared.outputs;
            Mutex.unlock shared.outputs_mu)
          ~unit_ ();
      in
      node.sites <- site :: node.sites;
      Site.start site;
      Atomic.set node.idle false)
    units;
  let started = Unix.gettimeofday () in
  (* one OCaml domain per node: with more cores than nodes the node
     loops run truly in parallel (the systhread version they replace
     shared one GIL-less runtime but still fought over the single
     domain's minor heap pauses) *)
  let doms =
    Array.to_list
      (Array.map (fun n -> Domain.spawn (node_loop shared n)) node_arr)
  in
  (* coordinator: three consecutive all-idle scans with nothing in flight *)
  let timed_out = ref false in
  let idle_streak = ref 0 in
  while not (Atomic.get shared.stop) do
    Unix.sleepf 0.005;
    let all_idle =
      Array.for_all (fun n -> Atomic.get n.idle) node_arr
      && Atomic.get shared.in_flight = 0
    in
    if all_idle then incr idle_streak else idle_streak := 0;
    if !idle_streak >= 3 then Atomic.set shared.stop true;
    if (Unix.gettimeofday () -. started) *. 1000. > float_of_int timeout_ms
    then begin
      timed_out := true;
      Atomic.set shared.stop true
    end
  done;
  List.iter Domain.join doms;
  let wall_ns =
    int_of_float ((Unix.gettimeofday () -. started) *. 1e9)
  in
  let merged =
    (* Domain.join above is the happens-before edge for the node-
       confined registries *)
    if metrics then begin
      let into = Metrics.create ~enabled:true () in
      Array.iter (fun n -> Metrics.merge_into ~into n.mx) node_arr;
      into
    end
    else Metrics.disabled
  in
  let sum f = Array.fold_left (fun acc n -> acc + f n) 0 node_arr in
  { outputs = List.rev shared.outputs;
    packets = Atomic.get shared.total_packets;
    wall_ns;
    timed_out = !timed_out;
    parks = sum (fun n -> n.parks);
    malformed_frames = sum (fun n -> n.malformed);
    dead_letters = sum (fun n -> n.dead_letters);
    metrics = merged }

let run_program ?nodes ?base_port ?timeout_ms ?metrics prog =
  ignore (Api.typecheck prog);
  run ?nodes ?base_port ?timeout_ms ?metrics (Api.compile prog)
