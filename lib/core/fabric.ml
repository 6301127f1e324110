(* The engine-independent half of the TyCOd daemon (see fabric.mli). *)

module Packet = Tyco_net.Packet
module Nameservice = Tyco_net.Nameservice
module Netref = Tyco_support.Netref
module Stats = Tyco_support.Stats
module Trace = Tyco_support.Trace
module Metrics = Tyco_support.Metrics

(* Cost of a name-service transaction at the service itself. *)
let ns_processing_cost = 1_000

(* Scheduling overhead added after each quantum (context switch). *)
let context_switch_cost = 200

type wrapper = {
  site : Site.t;
  node : Node.t;
  mutable pump_scheduled : bool;
  (* set when the site leaves this table (a migrated node): pump events
     already scheduled for the wrapper become no-ops *)
  mutable retired : bool;
}

type transport = {
  now : unit -> int;
  sched : delay:int -> (unit -> unit) -> unit;
  send : src_ip:int -> ctx:Trace.span -> Packet.t -> unit;
  ns : int -> Nameservice.t;
  forward : int -> Trace.span -> Packet.t -> bool;
  pumped : Node.t -> int -> unit;
  tracer : Trace.t;
}

type t = {
  tp : transport;
  quantum : int;
  tr_on : bool; (* cached [Trace.enabled tp.tracer] *)
  by_id : (int, wrapper) Hashtbl.t;
  mutable wrappers : wrapper list; (* newest first *)
  mutable outs : (int * Output.event) list; (* newest first *)
  mutable suspected : (int * string) list; (* newest first *)
  mutable busy_until : int; (* completion time of the latest quantum *)
  dead_letters : Stats.Counter.t;
  m_deliveries : Metrics.counter;
}

let create ~quantum ~metrics ~dead_letters tp =
  { tp;
    quantum;
    tr_on = Trace.enabled tp.tracer;
    by_id = Hashtbl.create 16;
    wrappers = [];
    outs = [];
    suspected = [];
    busy_until = 0;
    dead_letters;
    m_deliveries = Metrics.counter metrics "deliveries" }

let output t e = t.outs <- (t.tp.now (), e) :: t.outs
let suspect t who = t.suspected <- (t.tp.now (), who) :: t.suspected
let outputs t = List.rev t.outs
let suspected t = List.rev t.suspected
let busy_until t = t.busy_until
let dead_letters t = Stats.Counter.value t.dead_letters
let wrappers t = List.rev t.wrappers
let sites t = List.rev_map (fun w -> w.site) t.wrappers
let site_count t = Hashtbl.length t.by_id

(* ------------------------------------------------------------------ *)
(* The pump scheduler: one pending pump event per site at most; a pump
   waits for a free processor of the site's node (Fig. 1's dual-CPU
   nodes) and re-arms itself while the site stays busy.               *)

let rec request_pump t w ~delay =
  if (not w.pump_scheduled) && (not w.retired) && Site.alive w.site then begin
    w.pump_scheduled <- true;
    t.tp.sched ~delay (fun () -> pump_event t w)
  end

and pump_event t w =
  w.pump_scheduled <- false;
  if (not w.retired) && Site.alive w.site then begin
    let now = t.tp.now () in
    let core, free = Node.earliest_core w.node in
    if free > now then request_pump t w ~delay:(free - now)
    else begin
      let cost = Site.pump ~now w.site ~quantum:t.quantum in
      t.tp.pumped w.node cost;
      let duration = cost + context_switch_cost in
      Node.occupy w.node ~core ~until:(now + duration);
      t.busy_until <- max t.busy_until (now + duration);
      if Site.busy w.site then request_pump t w ~delay:duration
    end
  end

let adopt t ~node site =
  let w = { site; node; pump_scheduled = false; retired = false } in
  Hashtbl.replace t.by_id (Site.site_id site) w;
  t.wrappers <- w :: t.wrappers;
  w

let load t ~node site =
  Node.add_site node site;
  let w = adopt t ~node site in
  Site.start site;
  request_pump t w ~delay:0;
  w

let retire t w =
  w.retired <- true;
  Hashtbl.remove t.by_id (Site.site_id w.site);
  t.wrappers <- List.filter (fun x -> x != w) t.wrappers

(* ------------------------------------------------------------------ *)
(* The demux and name-service serving.                                *)

let ns_site = -1

let dst_site (p : Packet.t) =
  match p with
  | Packet.Pmsg { dst; _ } | Packet.Pobj { dst; _ } -> dst.Netref.site_id
  | Packet.Pfetch_req { cls; _ } -> cls.Netref.site_id
  | Packet.Pfetch_rep { dst_site; _ } | Packet.Pns_reply { dst_site; _ } ->
      dst_site
  | Packet.Prelease { origin_site; _ } -> origin_site
  | Packet.Pns_register _ | Packet.Pns_lookup _ -> ns_site

let answer (w : Nameservice.waiter) nref rtti =
  Packet.Pns_reply
    { req_id = w.Nameservice.w_req_id; dst_site = w.Nameservice.w_site;
      dst_ip = w.Nameservice.w_ip; result = Some nref; rtti }

let serve_ns ns (p : Packet.t) ~reply =
  match p with
  | Packet.Pns_register { site_name; id_name; nref; rtti } ->
      (* a registration answers every lookup parked on it *)
      List.iter
        (fun w -> reply (answer w nref rtti))
        (Nameservice.register_id ns ~site:site_name ~name:id_name ~rtti nref)
  | Packet.Pns_lookup
      { site_name; id_name; req_id; requester_site; requester_ip; _ } -> (
      let w =
        { Nameservice.w_req_id = req_id; w_site = requester_site;
          w_ip = requester_ip }
      in
      match Nameservice.lookup_id ns ~site:site_name ~name:id_name w with
      | Some (nref, rtti) -> reply (answer w nref rtti)
      | None -> (* parked until the registration arrives *) ())
  | _ -> invalid_arg "Fabric.serve_ns: not name-service traffic"

(* The reply travels as a packet after the service's processing cost,
   under a span of its own — a child of the request (or registration)
   that triggered it.  The name service is not a site, so the reply's
   [Send] lands on the fabric track: every packet span must have one
   for the causal tree (and the Perfetto flow arrow) to be complete. *)
let reply_ns t ~from_ip ~ctx p =
  let ctx' =
    if t.tr_on then Trace.fresh_span t.tp.tracer ~parent:ctx
    else Trace.null_span
  in
  t.tp.sched ~delay:ns_processing_cost (fun () ->
      if t.tr_on then
        Trace.emit t.tp.tracer ~ts:(t.tp.now ()) ~track:Trace.fabric_track
          ~span:ctx'
          (Trace.Send { pk = Packet.trace_pk p; bytes = Packet.byte_size p });
      t.tp.send ~src_ip:from_ip ~ctx:ctx' p)

let serve t ~at_ip ~ctx p =
  serve_ns (t.tp.ns at_ip) p ~reply:(reply_ns t ~from_ip:at_ip ~ctx)

let deliver_to_site t site_id ~ctx ~same_node p =
  match Hashtbl.find_opt t.by_id site_id with
  | Some w ->
      if Site.alive w.site then begin
        let now = t.tp.now () in
        Metrics.incr t.m_deliveries;
        if t.tr_on then
          Trace.emit t.tp.tracer ~ts:now ~track:site_id ~span:ctx
            (Trace.Deliver { pk = Packet.trace_pk p; same_node });
        Site.deliver ~ctx ~now w.site p;
        request_pump t w ~delay:0
      end
      else suspect t (Site.name w.site)
  | None ->
      if not (t.tp.forward site_id ctx p) then begin
        (* addressed to a site no engine hosts: count it as a dead
           letter and record the phantom destination rather than
           dropping it silently *)
        Stats.Counter.incr t.dead_letters;
        suspect t (Printf.sprintf "site#%d" site_id)
      end

let deliver t ~at_ip ~ctx ~same_node p =
  let site_id = dst_site p in
  if site_id = ns_site then begin
    if t.tr_on then
      Trace.emit t.tp.tracer ~ts:(t.tp.now ()) ~track:Trace.fabric_track
        ~span:ctx Trace.Ns_serve;
    serve t ~at_ip ~ctx p
  end
  else deliver_to_site t site_id ~ctx ~same_node p
