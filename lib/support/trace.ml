type span = { trace_id : int; span_id : int; parent_id : int }

let null_span = { trace_id = 0; span_id = 0; parent_id = 0 }
let is_null s = s.span_id = 0

type pk =
  | Kmsg
  | Kobj
  | Kfetch_req
  | Kfetch_rep
  | Kns_register
  | Kns_lookup
  | Kns_reply
  | Kbatch  (* a coalesced Fbatch frame on the fabric track *)
  | Kprelease  (* importer-side lease refresh *)

(* What a [Reclaim] event freed. *)
type rc =
  | Rc_chan_export
  | Rc_class_export
  | Rc_done_req
  | Rc_code_cache
  | Rc_import_hold

type kind =
  | Thread_spawn
  | Run_slice of { instrs : int; cost : int }
  | Msg_park
  | Msg_unpark
  | Obj_park
  | Obj_unpark
  | Send of { pk : pk; bytes : int }
  | Deliver of { pk : pk; same_node : bool }
  | Obj_commit
  | Link_code of { bytes : int }
  | Retransmit of { attempt : int }
  | Ack
  | Timeout
  | Ns_serve
  | Flush_wait of { ns : int }
  | Reclaim of { rc : rc; n : int }
  | Lease_refresh of { chans : int; classes : int }
  | Stale_ref of { pk : pk }

type event = {
  ev_ts : int;
  ev_dur : int;
  ev_track : int;
  ev_span : span;
  ev_kind : kind;
}

let fabric_track = -1

let pk_name = function
  | Kmsg -> "msg"
  | Kobj -> "obj"
  | Kfetch_req -> "fetch-req"
  | Kfetch_rep -> "fetch-rep"
  | Kns_register -> "ns-register"
  | Kns_lookup -> "ns-lookup"
  | Kns_reply -> "ns-reply"
  | Kbatch -> "batch"
  | Kprelease -> "lease-refresh"

let rc_name = function
  | Rc_chan_export -> "chan-export"
  | Rc_class_export -> "class-export"
  | Rc_done_req -> "done-req"
  | Rc_code_cache -> "code-cache"
  | Rc_import_hold -> "import-hold"

let kind_name = function
  | Thread_spawn -> "thread-spawn"
  | Run_slice _ -> "run-slice"
  | Msg_park -> "msg-park"
  | Msg_unpark -> "msg-unpark"
  | Obj_park -> "obj-park"
  | Obj_unpark -> "obj-unpark"
  | Send { pk; _ } -> "send-" ^ pk_name pk
  | Deliver { pk; _ } -> "deliver-" ^ pk_name pk
  | Obj_commit -> "obj-commit"
  | Link_code _ -> "link-code"
  | Retransmit _ -> "retransmit"
  | Ack -> "ack"
  | Timeout -> "timeout"
  | Ns_serve -> "ns-serve"
  | Flush_wait _ -> "flush-wait"
  | Reclaim { rc; _ } -> "reclaim-" ^ rc_name rc
  | Lease_refresh _ -> "lease-refresh"
  | Stale_ref { pk } -> "stale-ref-" ^ pk_name pk

(* One bounded ring per track: the oldest entries are overwritten when
   the ring is full, so a long run keeps its recent history instead of
   growing without bound (the failure mode the unbounded packet log
   had).  Entries carry a global sequence number so a multi-track merge
   can restore emission order among equal timestamps. *)
type ring = {
  buf : (int * event) option array;
  mutable head : int; (* index of the oldest entry *)
  mutable len : int;
  mutable rg_dropped : int;
}

type t = {
  en : bool;
  capacity : int;
  span_base : int; (* span ids are [base + k * stride]: shard s of N *)
  span_stride : int; (* passes (s, N) so ids stay globally unique *)
  mutable next_id : int;
  mutable seq : int;
  rings : (int, ring) Hashtbl.t;
  mutable track_names : (int * string) list; (* newest first *)
  track_shards : (int, int) Hashtbl.t; (* track id -> owning shard *)
  mutable base_dropped : int; (* drops recorded by a loaded archive *)
}

let create ?(capacity = 65536) ?(span_base = 0) ?(span_stride = 1) ~enabled ()
    =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  if span_stride <= 0 then invalid_arg "Trace.create: span_stride";
  { en = enabled;
    capacity;
    span_base;
    span_stride;
    next_id = 0;
    seq = 0;
    rings = Hashtbl.create 8;
    track_names = [];
    track_shards = Hashtbl.create 8;
    base_dropped = 0 }

let disabled = create ~capacity:1 ~enabled:false ()
let enabled t = t.en

let fresh_span t ~parent =
  if not t.en then null_span
  else begin
    t.next_id <- t.next_id + 1;
    let id = t.span_base + (t.next_id * t.span_stride) in
    if is_null parent then { trace_id = id; span_id = id; parent_id = 0 }
    else
      { trace_id = parent.trace_id; span_id = id;
        parent_id = parent.span_id }
  end

let register_track t ?shard ~id ~name () =
  if t.en then begin
    t.track_names <- (id, name) :: List.remove_assoc id t.track_names;
    match shard with
    | Some s -> Hashtbl.replace t.track_shards id s
    | None -> Hashtbl.remove t.track_shards id
  end

let track_shard t id = Hashtbl.find_opt t.track_shards id

let ring_of t track =
  match Hashtbl.find_opt t.rings track with
  | Some r -> r
  | None ->
      let r =
        { buf = Array.make t.capacity None; head = 0; len = 0; rg_dropped = 0 }
      in
      Hashtbl.add t.rings track r;
      r

let emit t ~ts ?(dur = 0) ~track ~span kind =
  if t.en then begin
    let r = ring_of t track in
    let ev = { ev_ts = ts; ev_dur = dur; ev_track = track; ev_span = span;
               ev_kind = kind }
    in
    let seq = t.seq in
    t.seq <- seq + 1;
    if r.len < t.capacity then begin
      r.buf.((r.head + r.len) mod t.capacity) <- Some (seq, ev);
      r.len <- r.len + 1
    end
    else begin
      r.buf.(r.head) <- Some (seq, ev);
      r.head <- (r.head + 1) mod t.capacity;
      r.rg_dropped <- r.rg_dropped + 1
    end
  end

let dropped t =
  Hashtbl.fold (fun _ r acc -> acc + r.rg_dropped) t.rings t.base_dropped

let tracks t = List.rev t.track_names

let events t =
  let all = ref [] in
  Hashtbl.iter
    (fun _ r ->
      for i = 0 to r.len - 1 do
        match r.buf.((r.head + i) mod t.capacity) with
        | Some e -> all := e :: !all
        | None -> ()
      done)
    t.rings;
  List.map snd
    (List.sort
       (fun (sa, a) (sb, b) ->
         match compare a.ev_ts b.ev_ts with 0 -> compare sa sb | c -> c)
       !all)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON (Perfetto / chrome://tracing).               *)

let buf_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Chrome timestamps are microseconds; the virtual clock is ns. *)
let buf_ts b ns = Buffer.add_string b (Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000))

let args_of_kind = function
  | Run_slice { instrs; cost } ->
      [ ("instrs", string_of_int instrs); ("cost_ns", string_of_int cost) ]
  | Send { bytes; _ } -> [ ("bytes", string_of_int bytes) ]
  | Deliver { same_node; _ } ->
      [ ("same_node", if same_node then "true" else "false") ]
  | Link_code { bytes } -> [ ("code_bytes", string_of_int bytes) ]
  | Retransmit { attempt } -> [ ("attempt", string_of_int attempt) ]
  | Flush_wait { ns } -> [ ("wait_ns", string_of_int ns) ]
  | Reclaim { n; _ } -> [ ("n", string_of_int n) ]
  | Lease_refresh { chans; classes } ->
      [ ("chans", string_of_int chans); ("classes", string_of_int classes) ]
  | _ -> []

let chrome_record b ~name ~ph ~ts ?dur ~pid ~span ?(extra = []) () =
  Buffer.add_string b "{\"name\":\"";
  buf_escaped b name;
  Buffer.add_string b "\",\"cat\":\"tyco\",\"ph\":\"";
  Buffer.add_string b ph;
  Buffer.add_string b "\",\"ts\":";
  buf_ts b ts;
  (match dur with
  | Some d ->
      Buffer.add_string b ",\"dur\":";
      buf_ts b d
  | None -> ());
  Buffer.add_string b (Printf.sprintf ",\"pid\":%d,\"tid\":0" pid);
  if ph = "i" then Buffer.add_string b ",\"s\":\"t\"";
  if ph = "s" || ph = "f" then begin
    Buffer.add_string b (Printf.sprintf ",\"id\":%d" span.span_id);
    if ph = "f" then Buffer.add_string b ",\"bp\":\"e\""
  end;
  Buffer.add_string b
    (Printf.sprintf ",\"args\":{\"trace\":%d,\"span\":%d,\"parent\":%d"
       span.trace_id span.span_id span.parent_id);
  List.iter
    (fun (k, v) ->
      Buffer.add_string b ",\"";
      Buffer.add_string b k;
      Buffer.add_string b "\":";
      Buffer.add_string b v)
    extra;
  Buffer.add_string b "}}"

let to_chrome_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_char b '\n'
  in
  List.iter
    (fun (id, name) ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":%d,\
            \"tid\":0,\"args\":{\"name\":\"" id);
      (* shard-tagged tracks (parallel runs) render as "shardN/name" *)
      (match Hashtbl.find_opt t.track_shards id with
      | Some s -> buf_escaped b (Printf.sprintf "shard%d/%s" s name)
      | None -> buf_escaped b name);
      Buffer.add_string b "\"}}")
    (tracks t);
  List.iter
    (fun ev ->
      let name = kind_name ev.ev_kind in
      let extra = args_of_kind ev.ev_kind in
      sep ();
      (match ev.ev_kind with
      | Run_slice _ ->
          chrome_record b ~name ~ph:"X" ~ts:ev.ev_ts ~dur:ev.ev_dur
            ~pid:ev.ev_track ~span:ev.ev_span ~extra ()
      | _ ->
          chrome_record b ~name ~ph:"i" ~ts:ev.ev_ts ~pid:ev.ev_track
            ~span:ev.ev_span ~extra ());
      (* cross-track causality: a flow arrow per packet span *)
      match ev.ev_kind with
      | Send _ ->
          sep ();
          chrome_record b ~name:"packet" ~ph:"s" ~ts:ev.ev_ts
            ~pid:ev.ev_track ~span:ev.ev_span ()
      | Deliver _ ->
          sep ();
          chrome_record b ~name:"packet" ~ph:"f" ~ts:ev.ev_ts
            ~pid:ev.ev_track ~span:ev.ev_span ()
      | _ -> ())
    (events t);
  Buffer.add_string b "\n]}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Multi-collector merge (parallel runs).                              *)

(* Merge per-shard collectors into one shard-tagged collector, ordered
   by virtual timestamp (ties: shard id, then the shard's own emission
   order).  Site tracks are disjoint across shards, so the merged
   per-track rings never exceed the largest input capacity; the fabric
   track stays untagged (it belongs to the run, not a shard). *)
let merge parts =
  let parts = List.filter (fun (_, t) -> t.en) parts in
  let capacity =
    List.fold_left (fun acc (_, t) -> Stdlib.max acc t.capacity) 1 parts
  in
  let m = create ~capacity ~enabled:true () in
  List.iter
    (fun (shard, t) ->
      List.iter
        (fun (id, name) ->
          let shard = if id = fabric_track then None else Some shard in
          register_track m ?shard ~id ~name ())
        (tracks t))
    parts;
  let all = ref [] in
  List.iter
    (fun (shard, t) ->
      Hashtbl.iter
        (fun _ r ->
          for i = 0 to r.len - 1 do
            match r.buf.((r.head + i) mod t.capacity) with
            | Some (seq, ev) -> all := (shard, seq, ev) :: !all
            | None -> ()
          done)
        t.rings)
    parts;
  let sorted_evs =
    List.sort
      (fun (sa, qa, a) (sb, qb, b) ->
        match compare a.ev_ts b.ev_ts with
        | 0 -> ( match compare sa sb with 0 -> compare qa qb | c -> c)
        | c -> c)
      !all
  in
  List.iter
    (fun (_, _, ev) ->
      emit m ~ts:ev.ev_ts ~dur:ev.ev_dur ~track:ev.ev_track ~span:ev.ev_span
        ev.ev_kind)
    sorted_evs;
  m.base_dropped <- List.fold_left (fun acc (_, t) -> acc + dropped t) 0 parts;
  m

(* ------------------------------------------------------------------ *)
(* Binary archive (tyco-trace's input).                                 *)

let magic = "TYCT"

(* v2 added the [Kbatch] packet kind and the [Flush_wait] event; v3 the
   [Kprelease] kind and the resource-lifecycle events ([Reclaim],
   [Lease_refresh], [Stale_ref]); v4 adds a per-track shard tag
   (parallel runs tag each site track with its owning domain).  Older
   readers reject newer archives cleanly rather than misparse them;
   this reader still accepts v3 (shardless) archives. *)
let version = 4

let pk_tag = function
  | Kmsg -> 0 | Kobj -> 1 | Kfetch_req -> 2 | Kfetch_rep -> 3
  | Kns_register -> 4 | Kns_lookup -> 5 | Kns_reply -> 6 | Kbatch -> 7
  | Kprelease -> 8

let pk_of_tag = function
  | 0 -> Kmsg | 1 -> Kobj | 2 -> Kfetch_req | 3 -> Kfetch_rep
  | 4 -> Kns_register | 5 -> Kns_lookup | 6 -> Kns_reply | 7 -> Kbatch
  | 8 -> Kprelease
  | n -> raise (Wire.Malformed (Printf.sprintf "trace pk tag %d" n))

let rc_tag = function
  | Rc_chan_export -> 0 | Rc_class_export -> 1 | Rc_done_req -> 2
  | Rc_code_cache -> 3 | Rc_import_hold -> 4

let rc_of_tag = function
  | 0 -> Rc_chan_export | 1 -> Rc_class_export | 2 -> Rc_done_req
  | 3 -> Rc_code_cache | 4 -> Rc_import_hold
  | n -> raise (Wire.Malformed (Printf.sprintf "trace rc tag %d" n))

let encode_kind enc = function
  | Thread_spawn -> Wire.u8 enc 0
  | Run_slice { instrs; cost } ->
      Wire.u8 enc 1;
      Wire.varint enc instrs;
      Wire.varint enc cost
  | Msg_park -> Wire.u8 enc 2
  | Msg_unpark -> Wire.u8 enc 3
  | Obj_park -> Wire.u8 enc 4
  | Obj_unpark -> Wire.u8 enc 5
  | Send { pk; bytes } ->
      Wire.u8 enc 6;
      Wire.u8 enc (pk_tag pk);
      Wire.varint enc bytes
  | Deliver { pk; same_node } ->
      Wire.u8 enc 7;
      Wire.u8 enc (pk_tag pk);
      Wire.bool enc same_node
  | Obj_commit -> Wire.u8 enc 8
  | Link_code { bytes } ->
      Wire.u8 enc 9;
      Wire.varint enc bytes
  | Retransmit { attempt } ->
      Wire.u8 enc 10;
      Wire.varint enc attempt
  | Ack -> Wire.u8 enc 11
  | Timeout -> Wire.u8 enc 12
  | Ns_serve -> Wire.u8 enc 13
  | Flush_wait { ns } ->
      Wire.u8 enc 14;
      Wire.varint enc ns
  | Reclaim { rc; n } ->
      Wire.u8 enc 15;
      Wire.u8 enc (rc_tag rc);
      Wire.varint enc n
  | Lease_refresh { chans; classes } ->
      Wire.u8 enc 16;
      Wire.varint enc chans;
      Wire.varint enc classes
  | Stale_ref { pk } ->
      Wire.u8 enc 17;
      Wire.u8 enc (pk_tag pk)

let decode_kind dec =
  match Wire.read_u8 dec with
  | 0 -> Thread_spawn
  | 1 ->
      let instrs = Wire.read_varint dec in
      let cost = Wire.read_varint dec in
      Run_slice { instrs; cost }
  | 2 -> Msg_park
  | 3 -> Msg_unpark
  | 4 -> Obj_park
  | 5 -> Obj_unpark
  | 6 ->
      let pk = pk_of_tag (Wire.read_u8 dec) in
      let bytes = Wire.read_varint dec in
      Send { pk; bytes }
  | 7 ->
      let pk = pk_of_tag (Wire.read_u8 dec) in
      let same_node = Wire.read_bool dec in
      Deliver { pk; same_node }
  | 8 -> Obj_commit
  | 9 -> Link_code { bytes = Wire.read_varint dec }
  | 10 -> Retransmit { attempt = Wire.read_varint dec }
  | 11 -> Ack
  | 12 -> Timeout
  | 13 -> Ns_serve
  | 14 -> Flush_wait { ns = Wire.read_varint dec }
  | 15 ->
      let rc = rc_of_tag (Wire.read_u8 dec) in
      let n = Wire.read_varint dec in
      Reclaim { rc; n }
  | 16 ->
      let chans = Wire.read_varint dec in
      let classes = Wire.read_varint dec in
      Lease_refresh { chans; classes }
  | 17 -> Stale_ref { pk = pk_of_tag (Wire.read_u8 dec) }
  | n -> raise (Wire.Malformed (Printf.sprintf "trace kind tag %d" n))

type archive = {
  ar_tracks : (int * string) list;
  ar_shards : (int * int) list; (* track id -> shard; absent = untagged *)
  ar_dropped : int;
  ar_events : event list;
}

let serialize t =
  let enc = Wire.encoder () in
  String.iter (fun c -> Wire.u8 enc (Char.code c)) magic;
  Wire.u8 enc version;
  Wire.list enc
    (fun enc (id, name) ->
      Wire.zint enc id;
      Wire.string enc name;
      (* shard tag inline with its track; -1 = untagged *)
      Wire.zint enc
        (match Hashtbl.find_opt t.track_shards id with
        | Some s -> s
        | None -> -1))
    (tracks t);
  Wire.varint enc (dropped t);
  Wire.list enc
    (fun enc ev ->
      Wire.varint enc ev.ev_ts;
      Wire.varint enc ev.ev_dur;
      Wire.zint enc ev.ev_track;
      Wire.varint enc ev.ev_span.trace_id;
      Wire.varint enc ev.ev_span.span_id;
      Wire.varint enc ev.ev_span.parent_id;
      encode_kind enc ev.ev_kind)
    (events t);
  Wire.to_string enc

let deserialize s =
  let dec = Wire.decoder s in
  String.iter
    (fun c ->
      if Wire.read_u8 dec <> Char.code c then
        raise (Wire.Malformed "not a tyco trace archive"))
    magic;
  let v = Wire.read_u8 dec in
  if v <> version && v <> 3 then
    raise (Wire.Malformed (Printf.sprintf "trace archive version %d" v));
  let tagged =
    Wire.read_list dec (fun dec ->
        let id = Wire.read_zint dec in
        let name = Wire.read_string dec in
        let shard = if v >= 4 then Wire.read_zint dec else -1 in
        (id, name, shard))
  in
  let ar_tracks = List.map (fun (id, name, _) -> (id, name)) tagged in
  let ar_shards =
    List.filter_map
      (fun (id, _, s) -> if s < 0 then None else Some (id, s))
      tagged
  in
  let ar_dropped = Wire.read_varint dec in
  let ar_events =
    Wire.read_list dec (fun dec ->
        let ev_ts = Wire.read_varint dec in
        let ev_dur = Wire.read_varint dec in
        let ev_track = Wire.read_zint dec in
        let trace_id = Wire.read_varint dec in
        let span_id = Wire.read_varint dec in
        let parent_id = Wire.read_varint dec in
        let ev_kind = decode_kind dec in
        { ev_ts; ev_dur; ev_track;
          ev_span = { trace_id; span_id; parent_id }; ev_kind })
  in
  (* [serialize] writes each track once and the events in time order;
     anything else did not come from it *)
  let ids = List.map fst ar_tracks in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    raise (Wire.Malformed "trace archive: duplicate track");
  ignore
    (List.fold_left
       (fun prev ev ->
         if ev.ev_ts < prev then
           raise (Wire.Malformed "trace archive: events out of order");
         ev.ev_ts)
       0 ar_events);
  { ar_tracks; ar_shards; ar_dropped; ar_events }

let of_archive ar =
  let t =
    create ~capacity:(max 1 (List.length ar.ar_events)) ~enabled:true ()
  in
  List.iter
    (fun (id, name) ->
      register_track t ?shard:(List.assoc_opt id ar.ar_shards) ~id ~name ())
    ar.ar_tracks;
  List.iter
    (fun ev ->
      emit t ~ts:ev.ev_ts ~dur:ev.ev_dur ~track:ev.ev_track ~span:ev.ev_span
        ev.ev_kind)
    ar.ar_events;
  t.base_dropped <- ar.ar_dropped;
  t
