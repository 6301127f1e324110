module Dq = Tyco_support.Dq
module Stats = Tyco_support.Stats
module Netref = Tyco_support.Netref
module Trace = Tyco_support.Trace
module Ast = Tyco_syntax.Ast
module Block = Tyco_compiler.Block
module Instr = Tyco_compiler.Instr
module Link = Tyco_compiler.Link

type remote_op =
  | Rmsg of Netref.t * string * Value.t array
  | Robj of Netref.t * Value.obj
  | Rfetch of Netref.t * Value.t array
  | Rexport_name of string * Value.chan
  | Rexport_class of string * Value.cls
  | Rimport of {
      site : string;
      name : string;
      is_class : bool;
      cont : int;
      captured : Value.t list;
    }

exception Error of string

let err fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

(* The run queue is three parallel power-of-two rings indexed by
   [(rq_head + i) land (capacity - 1)]: each thread is a block id in an
   [int array] and a frame, plus a span only while tracing.  Spawning a
   thread therefore allocates nothing but its frame, and with tracing
   off [rq_span] stays empty and is never read or written. *)
type t = {
  name : string;
  area : Link.area;
  mutable rq_block : int array;
  mutable rq_env : Value.t array array;
  mutable rq_span : Trace.span array;
  mutable rq_head : int;
  mutable rq_len : int;
  remote : (remote_op * Trace.span) Dq.t;
  mutable chan_uid : int;
  (* Operand stack, shared by all threads of this machine: a thread runs
     to completion and leaves the stack empty, so the arrays are reused
     rather than consed per thread.  Slot [i] is either a boxed value in
     [ostack.(i)] or an int or boolean in the unboxed lane [olane.(i)];
     [otags.[i]] says which.  Literals and the results of arithmetic,
     comparisons and [not] live in the lane, so they are never
     allocated and never stored through the write barrier; a lane value
     is boxed only when it leaves the stack (frames, [Store], messages
     that park, go remote or reach a builtin). *)
  mutable ostack : Value.t array;
  mutable olane : int array;
  mutable otags : Bytes.t;
  mutable osp : int;
  (* Causal tracing (off by default: [tr] is [Trace.disabled], every
     guard is one load-and-branch, and spans stay [null_span]).
     [tr_on] caches [Trace.enabled tr] — fixed at creation — so each
     dispatch branches on one machine-record load instead of chasing
     the trace-state pointer. *)
  tr : Trace.t;
  tr_on : bool;
  track : int;
  mutable clock : int; (* virtual time, maintained by the embedder *)
  mutable cur_span : Trace.span; (* span causing current spawns *)
  (* Result slots of the last [run_thread] (instructions executed and
     summed virtual-time cost): scratch fields instead of a returned
     tuple, which would be a fresh allocation per thread. *)
  mutable last_executed : int;
  mutable last_cost : int;
  stats : Stats.t;
  c_instr : Stats.Counter.t;
  c_threads : Stats.Counter.t;
  c_comm : Stats.Counter.t;
  c_msgs_parked : Stats.Counter.t;
  c_objs_parked : Stats.Counter.t;
  c_insts : Stats.Counter.t;
  c_defgroups : Stats.Counter.t;
  c_remote : Stats.Counter.t;
  h_thread_len : Stats.Hist.t;
  d_runq_depth : Stats.Dist.t;
}

let pad = Value.Vint 0
let no_frame : Value.t array = [||]

(* Operand-stack slot tags. *)
let tag_box = '\000'
let tag_int = '\001'
let tag_bool = '\002'

let create ?(name = "site") ?(trace = Trace.disabled) ?(track = 0) area =
  let stats = Stats.create () in
  let tr_on = Trace.enabled trace in
  { name;
    area;
    rq_block = Array.make 64 0;
    rq_env = Array.make 64 no_frame;
    rq_span = (if tr_on then Array.make 64 Trace.null_span else [||]);
    rq_head = 0;
    rq_len = 0;
    remote = Dq.create ();
    chan_uid = 0;
    ostack = Array.make 64 pad;
    olane = Array.make 64 0;
    otags = Bytes.make 64 tag_box;
    osp = 0;
    tr = trace;
    tr_on;
    track;
    clock = 0;
    cur_span = Trace.null_span;
    last_executed = 0;
    last_cost = 0;
    stats;
    c_instr = Stats.counter stats "instructions";
    c_threads = Stats.counter stats "threads";
    c_comm = Stats.counter stats "comm_local";
    c_msgs_parked = Stats.counter stats "msgs_parked";
    c_objs_parked = Stats.counter stats "objs_parked";
    c_insts = Stats.counter stats "insts";
    c_defgroups = Stats.counter stats "defgroups";
    c_remote = Stats.counter stats "remote_ops";
    h_thread_len = Stats.hist stats "thread_len";
    d_runq_depth = Stats.dist stats "runq_depth" }

let area t = t.area
let stats t = t.stats
let set_clock t ns = t.clock <- ns
let clock t = t.clock
let current_span t = t.cur_span
let set_current_span t sp = t.cur_span <- sp
let trace t = t.tr

let new_chan t name =
  let uid = t.chan_uid in
  t.chan_uid <- uid + 1;
  { Value.ch_uid = uid; ch_name = name; ch_state = Value.Empty }

let builtin_chan t name handler =
  let c = new_chan t name in
  c.Value.ch_state <- Value.Builtin handler;
  c

(* Booleans leave the stack as one of two shared values. *)
let vtrue = Value.Vbool true
let vfalse = Value.Vbool false

(* Make a frame for a block: the given initial values fill the first
   slots, the rest are padded (uninitialized locals). *)
let frame_for t ~block ~init =
  let blk = Link.block t.area block in
  let n = blk.Block.blk_nslots in
  let frame = Array.make (max n (List.length init)) pad in
  List.iteri (fun i v -> frame.(i) <- v) init;
  frame

let grow_runq t =
  let cap = Array.length t.rq_block in
  let mask = cap - 1 in
  let blocks = Array.make (2 * cap) 0 in
  let envs = Array.make (2 * cap) no_frame in
  let spans = if t.tr_on then Array.make (2 * cap) Trace.null_span else [||] in
  for i = 0 to t.rq_len - 1 do
    let k = (t.rq_head + i) land mask in
    blocks.(i) <- t.rq_block.(k);
    envs.(i) <- t.rq_env.(k);
    if t.tr_on then spans.(i) <- t.rq_span.(k)
  done;
  t.rq_block <- blocks;
  t.rq_env <- envs;
  t.rq_span <- spans;
  t.rq_head <- 0

(* All thread creation funnels through here: the new thread's span is a
   child of [parent] (the spawning thread, or the delivery context the
   site installed with [set_current_span]). *)
let enqueue t ~parent ~block frame =
  if t.rq_len = Array.length t.rq_block then grow_runq t;
  let i = (t.rq_head + t.rq_len) land (Array.length t.rq_block - 1) in
  Array.unsafe_set t.rq_block i block;
  Array.unsafe_set t.rq_env i frame;
  if t.tr_on then begin
    let sp = Trace.fresh_span t.tr ~parent in
    Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:sp Trace.Thread_spawn;
    Array.unsafe_set t.rq_span i sp
  end;
  t.rq_len <- t.rq_len + 1

let spawn t ~block ~env =
  enqueue t ~parent:t.cur_span ~block (frame_for t ~block ~init:env)

(* The boxed form of operand-stack slot [j]: a lane value is boxed here,
   as it leaves the stack.  Inlined, so that building a frame calls
   nothing and keeps its values in registers. *)
let[@inline] box_lane t j =
  let n = Array.unsafe_get t.olane j in
  if Bytes.unsafe_get t.otags j = tag_int then Value.Vint n
  else if n <> 0 then vtrue
  else vfalse

let[@inline] stack_value t j =
  if Bytes.unsafe_get t.otags j = tag_box then Array.unsafe_get t.ostack j
  else box_lane t j

(* Frames for method fires and instantiations are [args..][extra..]
   padded to the block's slot count, where the [na] args are the values
   [src.(base) .. src.(base + na - 1)] and [extra] is the closure
   environment.  [src] is either the operand stack itself — read in
   place, boxing lane slots on the way — or a plain argument array (a
   parked message's, or one the embedder handed in).  Frames of up to 8
   slots (nearly all of them) are array literals: one inline
   initializing allocation, with no C call and no write barrier.  Wider
   frames fall back to [Array.make] and copies. *)
let[@inline] slot t on_stack src base na (extra : Value.t array) i =
  if i < na then begin
    let j = base + i in
    if on_stack && Bytes.unsafe_get t.otags j <> tag_box then box_lane t j
    else Array.unsafe_get src j
  end
  else if i - na < Array.length extra then Array.unsafe_get extra (i - na)
  else pad

let make_frame t (src : Value.t array) base na extra size : Value.t array =
  let s = src == t.ostack in
  match size with
  | 0 -> [||]
  | 1 -> [| slot t s src base na extra 0 |]
  | 2 -> [| slot t s src base na extra 0; slot t s src base na extra 1 |]
  | 3 ->
      [| slot t s src base na extra 0; slot t s src base na extra 1;
         slot t s src base na extra 2 |]
  | 4 ->
      [| slot t s src base na extra 0; slot t s src base na extra 1;
         slot t s src base na extra 2; slot t s src base na extra 3 |]
  | 5 ->
      [| slot t s src base na extra 0; slot t s src base na extra 1;
         slot t s src base na extra 2; slot t s src base na extra 3;
         slot t s src base na extra 4 |]
  | 6 ->
      [| slot t s src base na extra 0; slot t s src base na extra 1;
         slot t s src base na extra 2; slot t s src base na extra 3;
         slot t s src base na extra 4; slot t s src base na extra 5 |]
  | 7 ->
      [| slot t s src base na extra 0; slot t s src base na extra 1;
         slot t s src base na extra 2; slot t s src base na extra 3;
         slot t s src base na extra 4; slot t s src base na extra 5;
         slot t s src base na extra 6 |]
  | 8 ->
      [| slot t s src base na extra 0; slot t s src base na extra 1;
         slot t s src base na extra 2; slot t s src base na extra 3;
         slot t s src base na extra 4; slot t s src base na extra 5;
         slot t s src base na extra 6; slot t s src base na extra 7 |]
  | _ ->
      let frame = Array.make size pad in
      if s then
        for i = 0 to na - 1 do
          Array.unsafe_set frame i (stack_value t (base + i))
        done
      else Array.blit src base frame 0 na;
      Array.blit extra 0 frame na (Array.length extra);
      frame

let spawn_call t ~parent ~block src base na ~extra =
  let nslots = (Link.block t.area block).Block.blk_nslots in
  let size = max nslots (na + Array.length extra) in
  enqueue t ~parent ~block (make_frame t src base na extra size)

(* The [na] args at [src.(base)] as an array of their own, for a
   message that parks, goes remote or reaches a builtin.  An argument
   array handed in whole by the embedder is kept as it is; the operand
   stack is never aliased, and its lane values are boxed here. *)
let take_args t src base na =
  if na = 0 then no_frame
  else if src == t.ostack then make_frame t src base na no_frame na
  else if base = 0 && na = Array.length src then src
  else Array.sub src base na

let spawn_entry t ~entry ~io = spawn t ~block:entry ~env:[ Value.Vchan io ]

(* Fire a method: the object's method table entry for interned label
   [lid] runs with frame [args..][closure env..], the args being the
   [na] values at [src.(base)].  The entry is found through the area's
   direct-mapped dispatch table — O(1), no string comparison.
   [parent] is the span of the {e message} half of the rendez-vous:
   the message is what causes the method body to run. *)
let fire_method t (obj : Value.obj) ~parent ~lid src base na =
  let idx = Link.method_entry t.area obj.Value.obj_mtable ~lid in
  if idx < 0 then
    err "%s: no method '%s' at object (protocol error)" t.name
      (if lid >= 0 && lid < Link.n_labels t.area then
         Link.label_name t.area lid
       else "<unknown label>");
  let mt = Link.mtable t.area obj.Value.obj_mtable in
  let entry = mt.Block.mt_entries.(idx) in
  if entry.Block.me_nparams <> na then
    err "%s: method '%s': expected %d argument(s), got %d" t.name
      entry.Block.me_label entry.Block.me_nparams na;
  Stats.Counter.incr t.c_comm;
  spawn_call t ~parent ~block:entry.Block.me_block src base na
    ~extra:obj.Value.obj_env

(* A message about to park: counted and traced here, queued by the
   caller. *)
let parked_msg t ~lid args =
  Stats.Counter.incr t.c_msgs_parked;
  if t.tr_on then
    Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:t.cur_span
      Trace.Msg_park;
  { Value.msg_lid = lid; msg_args = args; msg_span = t.cur_span }

(* Deliver a message whose [na] args are at [src.(base)]: the hot path
   (label already interned — Trmsg operand, parked message).  When an
   object waits, the method frame is built straight from [src]; the
   args become an array of their own only if the message parks or hits
   a builtin.  [Obj1]/[Msg1] are the steady-state cases — a reply
   channel or a re-parked server object holds exactly one value — and
   they must not touch a deque: a queue only materializes when a second
   value parks, and [Objs]/[Msgs] collapse back to the single-value
   state as they drain, so a channel that briefly queued returns to the
   no-queue regime. *)
let send_msg t (chan : Value.chan) ~lid src base na =
  match chan.Value.ch_state with
  | Value.Obj1 obj ->
      chan.Value.ch_state <- Value.Empty;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:t.cur_span
          Trace.Obj_unpark;
      fire_method t obj ~parent:t.cur_span ~lid src base na
  | Value.Objs q ->
      let obj = Dq.pop_front_exn q in
      if Dq.length q = 1 then
        chan.Value.ch_state <- Value.Obj1 (Dq.pop_front_exn q)
      else if Dq.is_empty q then chan.Value.ch_state <- Value.Empty;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:t.cur_span
          Trace.Obj_unpark;
      fire_method t obj ~parent:t.cur_span ~lid src base na
  | Value.Empty ->
      chan.Value.ch_state <-
        Value.Msg1 (parked_msg t ~lid (take_args t src base na))
  | Value.Msg1 m1 ->
      let q = Dq.create ~capacity:4 () in
      Dq.push_back q m1;
      Dq.push_back q (parked_msg t ~lid (take_args t src base na));
      chan.Value.ch_state <- Value.Msgs q
  | Value.Msgs q -> Dq.push_back q (parked_msg t ~lid (take_args t src base na))
  | Value.Builtin handler ->
      handler (Link.label_name t.area lid)
        (Array.to_list (take_args t src base na))

(* Cold entry point for the embedding site (packet delivery, builtin
   replies): labels arrive as strings and are interned here. *)
let inject_msg t chan label args =
  let args = Array.of_list args in
  send_msg t chan ~lid:(Link.intern t.area label) args 0 (Array.length args)

let inject_obj t (chan : Value.chan) (obj : Value.obj) =
  match chan.Value.ch_state with
  | Value.Msg1 m ->
      chan.Value.ch_state <- Value.Empty;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:m.Value.msg_span
          Trace.Msg_unpark;
      fire_method t obj ~parent:m.Value.msg_span ~lid:m.Value.msg_lid
        m.Value.msg_args 0 (Array.length m.Value.msg_args)
  | Value.Empty ->
      Stats.Counter.incr t.c_objs_parked;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:t.cur_span
          Trace.Obj_park;
      chan.Value.ch_state <- Value.Obj1 obj
  | Value.Msgs q ->
      let m = Dq.pop_front_exn q in
      if Dq.length q = 1 then
        chan.Value.ch_state <- Value.Msg1 (Dq.pop_front_exn q)
      else if Dq.is_empty q then chan.Value.ch_state <- Value.Empty;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:m.Value.msg_span
          Trace.Msg_unpark;
      fire_method t obj ~parent:m.Value.msg_span ~lid:m.Value.msg_lid
        m.Value.msg_args 0 (Array.length m.Value.msg_args)
  | Value.Obj1 o1 ->
      Stats.Counter.incr t.c_objs_parked;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:t.cur_span
          Trace.Obj_park;
      let q = Dq.create ~capacity:4 () in
      Dq.push_back q o1;
      Dq.push_back q obj;
      chan.Value.ch_state <- Value.Objs q
  | Value.Objs q ->
      Stats.Counter.incr t.c_objs_parked;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:t.cur_span
          Trace.Obj_park;
      Dq.push_back q obj
  | Value.Builtin _ -> err "object placed at builtin channel '%s'" chan.Value.ch_name

(* Instantiate [cls] with the [na] args at [src.(base)]. *)
let instantiate_from t (cls : Value.cls) src base na =
  let g = Link.group t.area cls.Value.cls_group in
  let sig_ = g.Block.grp_classes.(cls.Value.cls_index) in
  if sig_.Block.cls_nparams <> na then
    err "%s: class '%s': expected %d argument(s), got %d" t.name
      sig_.Block.cls_name sig_.Block.cls_nparams na;
  Stats.Counter.incr t.c_insts;
  spawn_call t ~parent:t.cur_span ~block:sig_.Block.cls_block src base na
    ~extra:cls.Value.cls_env

let instantiate_args t cls (args : Value.t array) =
  instantiate_from t cls args 0 (Array.length args)

let instantiate t cls args = instantiate_args t cls (Array.of_list args)

(* ------------------------------------------------------------------ *)
(* Instruction execution.                                              *)

let value_eq a b =
  match (a, b) with
  | Value.Vint x, Value.Vint y -> Int.equal x y
  | Value.Vbool x, Value.Vbool y -> Bool.equal x y
  | Value.Vstr x, Value.Vstr y -> String.equal x y
  | Value.Vchan x, Value.Vchan y -> Value.same_chan x y
  | Value.Vnetref x, Value.Vnetref y -> Netref.equal x y
  | _, _ -> a == b

(* An object's closure environment [env.(caps.(0)) ..], built like a
   frame: an array literal up to 8 values, so making an object costs no
   closure, no C call and no barriered store. *)
let[@inline] cap (env : Value.t array) caps i = env.(Array.unsafe_get caps i)

let capture env caps : Value.t array =
  match Array.length caps with
  | 0 -> [||]
  | 1 -> [| cap env caps 0 |]
  | 2 -> [| cap env caps 0; cap env caps 1 |]
  | 3 -> [| cap env caps 0; cap env caps 1; cap env caps 2 |]
  | 4 -> [| cap env caps 0; cap env caps 1; cap env caps 2; cap env caps 3 |]
  | 5 ->
      [| cap env caps 0; cap env caps 1; cap env caps 2; cap env caps 3;
         cap env caps 4 |]
  | 6 ->
      [| cap env caps 0; cap env caps 1; cap env caps 2; cap env caps 3;
         cap env caps 4; cap env caps 5 |]
  | 7 ->
      [| cap env caps 0; cap env caps 1; cap env caps 2; cap env caps 3;
         cap env caps 4; cap env caps 5; cap env caps 6 |]
  | 8 ->
      [| cap env caps 0; cap env caps 1; cap env caps 2; cap env caps 3;
         cap env caps 4; cap env caps 5; cap env caps 6; cap env caps 7 |]
  | _ -> Array.map (fun slot -> env.(slot)) caps

(* Operand-stack primitives over the machine-owned arrays.  Pushes
   check capacity and grow the three arrays together; an operator pops
   its operands by lowering [osp] ([pop_index]) and reads them in place,
   so its result can overwrite the first operand's slot. *)

let grow_stack t =
  let n = Array.length t.ostack in
  let ostack = Array.make (2 * n) pad in
  Array.blit t.ostack 0 ostack 0 n;
  let olane = Array.make (2 * n) 0 in
  Array.blit t.olane 0 olane 0 n;
  let otags = Bytes.make (2 * n) tag_box in
  Bytes.blit t.otags 0 otags 0 n;
  t.ostack <- ostack;
  t.olane <- olane;
  t.otags <- otags

let[@inline] push_op t v =
  let sp = t.osp in
  if sp = Array.length t.ostack then grow_stack t;
  Array.unsafe_set t.ostack sp v;
  Bytes.unsafe_set t.otags sp tag_box;
  t.osp <- sp + 1

(* Write lane slot [j] (below the stack's capacity). *)
let[@inline] set_lane t j tag n =
  Array.unsafe_set t.olane j n;
  Bytes.unsafe_set t.otags j tag

let[@inline] push_lane t tag n =
  let sp = t.osp in
  if sp = Array.length t.ostack then grow_stack t;
  set_lane t sp tag n;
  t.osp <- sp + 1

let[@inline] pop_index t =
  if t.osp = 0 then err "operand stack underflow";
  t.osp <- t.osp - 1;
  t.osp

let[@inline] pop_op t = stack_value t (pop_index t)

(* Pop [n] argument values pushed left-to-right and return the index
   of the first: the stack grows upward, so slots [base .. base + n - 1]
   are the args in order, still in place for a frame to be built from
   until the next push. *)
let pop_base t n =
  if t.osp < n then err "operand stack underflow";
  t.osp <- t.osp - n;
  t.osp

(* Typed reads of slot [j]: a lane value of the right kind or a boxed
   one, inline; anything else is a type error, raised out of line with
   the message of the boxed [Value.type_name]. *)
let not_int t j =
  if Bytes.unsafe_get t.otags j = tag_box then
    err "expected int, got %s" (Value.type_name (Array.unsafe_get t.ostack j))
  else err "expected int, got bool"

let not_bool t j =
  if Bytes.unsafe_get t.otags j = tag_box then
    err "expected bool, got %s" (Value.type_name (Array.unsafe_get t.ostack j))
  else err "expected bool, got int"

let[@inline] int_at t j =
  let tag = Bytes.unsafe_get t.otags j in
  if tag = tag_int then Array.unsafe_get t.olane j
  else
    match Array.unsafe_get t.ostack j with
    | Value.Vint n when tag = tag_box -> n
    | _ -> not_int t j

let[@inline] bool_at t j =
  let tag = Bytes.unsafe_get t.otags j in
  if tag = tag_bool then Array.unsafe_get t.olane j <> 0
  else
    match Array.unsafe_get t.ostack j with
    | Value.Vbool b when tag = tag_box -> b
    | _ -> not_bool t j

(* [value_eq] over slots: a lane int equals only an int, a lane boolean
   only a boolean, whichever lane the other side is in. *)
let lane_eq_box tag n (v : Value.t) =
  match v with
  | Value.Vint m -> tag = tag_int && Int.equal n m
  | Value.Vbool b -> tag = tag_bool && Bool.equal (n <> 0) b
  | _ -> false

let slot_eq t ja jb =
  let ta = Bytes.unsafe_get t.otags ja and tb = Bytes.unsafe_get t.otags jb in
  if ta = tag_box then
    if tb = tag_box then
      value_eq (Array.unsafe_get t.ostack ja) (Array.unsafe_get t.ostack jb)
    else
      let n = Array.unsafe_get t.olane jb in
      lane_eq_box tb n (Array.unsafe_get t.ostack ja)
  else if tb = tag_box then
    lane_eq_box ta (Array.unsafe_get t.olane ja) (Array.unsafe_get t.ostack jb)
  else
    ta = tb
    && Int.equal (Array.unsafe_get t.olane ja) (Array.unsafe_get t.olane jb)

(* [a op b] with [a] in slot [ja] and [b] in [jb = ja + 1], the result
   written to slot [ja].  Operands are checked in the order the boxed
   step loop checked them ([b] first, short-circuit for [&&]/[||]), so
   an ill-typed program fails with the same message. *)
let[@inline] set_int t j n = set_lane t j tag_int n
let[@inline] set_bool t j b = set_lane t j tag_bool (Bool.to_int b)

let exec_binop t op ja jb =
  match op with
  | Ast.Add -> let b = int_at t jb in set_int t ja (int_at t ja + b)
  | Ast.Sub -> let b = int_at t jb in set_int t ja (int_at t ja - b)
  | Ast.Mul -> let b = int_at t jb in set_int t ja (int_at t ja * b)
  | Ast.Div ->
      let d = int_at t jb in
      if d = 0 then err "division by zero" else set_int t ja (int_at t ja / d)
  | Ast.Mod ->
      let d = int_at t jb in
      if d = 0 then err "modulo by zero" else set_int t ja (int_at t ja mod d)
  | Ast.Lt -> let b = int_at t jb in set_bool t ja (int_at t ja < b)
  | Ast.Le -> let b = int_at t jb in set_bool t ja (int_at t ja <= b)
  | Ast.Gt -> let b = int_at t jb in set_bool t ja (int_at t ja > b)
  | Ast.Ge -> let b = int_at t jb in set_bool t ja (int_at t ja >= b)
  | Ast.Eq -> set_bool t ja (slot_eq t ja jb)
  | Ast.Neq -> set_bool t ja (not (slot_eq t ja jb))
  | Ast.And -> set_bool t ja (bool_at t ja && bool_at t jb)
  | Ast.Or -> set_bool t ja (bool_at t ja || bool_at t jb)

let push_remote t op =
  Stats.Counter.incr t.c_remote;
  Dq.push_back t.remote (op, t.cur_span)

(* Execute one thread to completion.  The step loop is a top-level
   tail-recursive function threading [executed]/[cost] as parameters:
   an inner [let rec] would allocate its closure (capturing
   code/costs/env) plus two [ref] accumulators per thread — at a few
   tens of instructions per thread (paper §1) that fixed setup cost is
   comparable to the work itself.  Results land in the
   [last_executed]/[last_cost] scratch fields (no per-thread tuple). *)
let rec step t code costs env pc executed cost =
  if pc >= Array.length code then begin
    t.last_executed <- executed;
    t.last_cost <- cost
  end
  else begin
    let executed = executed + 1 in
    let cost = cost + Array.unsafe_get costs pc in
    match Array.unsafe_get code pc with
    | Instr.Push_int n ->
        push_lane t tag_int n;
        step t code costs env (pc + 1) executed cost
    | Instr.Push_bool b ->
        push_lane t tag_bool (Bool.to_int b);
        step t code costs env (pc + 1) executed cost
    | Instr.Push_str s ->
        push_op t (Value.Vstr s);
        step t code costs env (pc + 1) executed cost
    | Instr.Load i ->
        (* the frame's box is pushed as it is: a loaded value that only
           travels on (into a message or a frame) is never reboxed *)
        push_op t env.(i);
        step t code costs env (pc + 1) executed cost
    | Instr.Store i ->
        env.(i) <- pop_op t;
        step t code costs env (pc + 1) executed cost
    | Instr.Binop op ->
        if t.osp < 2 then err "operand stack underflow";
        let ja = t.osp - 2 in
        exec_binop t op ja (ja + 1);
        t.osp <- ja + 1;
        step t code costs env (pc + 1) executed cost
    | Instr.Unop Ast.Neg ->
        let j = pop_index t in
        set_int t j (-int_at t j);
        t.osp <- j + 1;
        step t code costs env (pc + 1) executed cost
    | Instr.Unop Ast.Not ->
        let j = pop_index t in
        set_bool t j (not (bool_at t j));
        t.osp <- j + 1;
        step t code costs env (pc + 1) executed cost
    | Instr.Jump target -> step t code costs env target executed cost
    | Instr.Jump_if_false target ->
        if bool_at t (pop_index t) then
          step t code costs env (pc + 1) executed cost
        else step t code costs env target executed cost
    | Instr.New_chan slot ->
        env.(slot) <- Value.Vchan (new_chan t "c");
        step t code costs env (pc + 1) executed cost
    | Instr.Trmsg { lid; argc; _ } ->
        let target = pop_op t in
        let base = pop_base t argc in
        (match target with
        | Value.Vchan c -> send_msg t c ~lid t.ostack base argc
        | Value.Vnetref r ->
            push_remote t
              (Rmsg (r, Link.label_name t.area lid,
                     take_args t t.ostack base argc))
        | v -> err "trmsg target is %s, not a channel" (Value.type_name v));
        step t code costs env (pc + 1) executed cost
    | Instr.Trobj mt_id -> (
        let mt = Link.mtable t.area mt_id in
        let captured = capture env mt.Block.mt_captures in
        let obj = { Value.obj_mtable = mt_id; obj_env = captured } in
        match pop_op t with
        | Value.Vchan c ->
            inject_obj t c obj;
            step t code costs env (pc + 1) executed cost
        | Value.Vnetref r ->
            push_remote t (Robj (r, obj));
            step t code costs env (pc + 1) executed cost
        | v -> err "trobj target is %s, not a channel" (Value.type_name v))
    | Instr.Defgroup gid ->
        Stats.Counter.incr t.c_defgroups;
        let g = Link.group t.area gid in
        let ncap = Array.length g.Block.grp_captures in
        let nclasses = Array.length g.Block.grp_classes in
        let shared = Array.make (ncap + nclasses) (Value.Vint 0) in
        Array.iteri
          (fun i slot -> shared.(i) <- env.(slot))
          g.Block.grp_captures;
        Array.iteri
          (fun i _ ->
            let v =
              Value.Vclass
                { Value.cls_group = gid; cls_index = i; cls_env = shared }
            in
            shared.(ncap + i) <- v;
            env.(g.Block.grp_slots.(i)) <- v)
          g.Block.grp_classes;
        step t code costs env (pc + 1) executed cost
    | Instr.Instof argc ->
        let target = pop_op t in
        let base = pop_base t argc in
        (match target with
        | Value.Vclass c -> instantiate_from t c t.ostack base argc
        | Value.Vclassref r ->
            push_remote t (Rfetch (r, take_args t t.ostack base argc))
        | v -> err "instof target is %s, not a class" (Value.type_name v));
        step t code costs env (pc + 1) executed cost
    | Instr.Export_name x -> (
        match pop_op t with
        | Value.Vchan c ->
            push_remote t (Rexport_name (x, c));
            step t code costs env (pc + 1) executed cost
        | v -> err "export of %s, not a local channel" (Value.type_name v))
    | Instr.Export_class (x, slot) -> (
        match env.(slot) with
        | Value.Vclass c ->
            push_remote t (Rexport_class (x, c));
            step t code costs env (pc + 1) executed cost
        | v -> err "export of %s, not a local class" (Value.type_name v))
    | Instr.Import_name { site; name; cont; captures } ->
        push_remote t
          (Rimport
             { site; name; is_class = false; cont;
               captured = Array.to_list (Array.map (fun s -> env.(s)) captures) });
        step t code costs env (pc + 1) executed cost
    | Instr.Import_class { site; name; cont; captures } ->
        push_remote t
          (Rimport
             { site; name; is_class = true; cont;
               captured = Array.to_list (Array.map (fun s -> env.(s)) captures) });
        step t code costs env (pc + 1) executed cost
  end

let run_thread t block env =
  let code = (Link.block t.area block).Block.blk_code in
  (* Per-pc costs precomputed at link time: the step loop adds an array
     element instead of re-dispatching on the instruction. *)
  let costs = Link.costs t.area block in
  t.osp <- 0;
  step t code costs env 0 0 0

let runnable t = t.rq_len > 0

let run t ~budget =
  let executed = ref 0 in
  let cost = ref 0 in
  (* run-queue depth at quantum start: the latency-hiding evidence —
     deep queues mean remote waits are being overlapped (paper §5) *)
  Stats.Dist.add_int t.d_runq_depth t.rq_len;
  (* untraced, every thread runs under [null_span]: set once here
     rather than per thread *)
  if not t.tr_on then t.cur_span <- Trace.null_span;
  while t.rq_len > 0 && !executed < budget do
    let h = t.rq_head in
    let block = Array.unsafe_get t.rq_block h in
    let env = Array.unsafe_get t.rq_env h in
    (* drop the queue's reference so a finished frame can be collected *)
    Array.unsafe_set t.rq_env h no_frame;
    t.rq_head <- (h + 1) land (Array.length t.rq_block - 1);
    t.rq_len <- t.rq_len - 1;
    Stats.Counter.incr t.c_threads;
    let start = t.clock in
    let span =
      if t.tr_on then Array.unsafe_get t.rq_span h else Trace.null_span
    in
    if t.tr_on then t.cur_span <- span;
    run_thread t block env;
    let n = t.last_executed and c = t.last_cost in
    t.clock <- start + c;
    if t.tr_on then
      Trace.emit t.tr ~ts:start ~dur:c ~track:t.track ~span
        (Trace.Run_slice { instrs = n; cost = c });
    Stats.Counter.add t.c_instr n;
    Stats.Hist.add t.h_thread_len n;
    executed := !executed + n;
    cost := !cost + c
  done;
  t.cur_span <- Trace.null_span;
  (!executed, !cost)

let pop_remote_op t = Option.map fst (Dq.pop_front t.remote)
let pop_remote_traced t = Dq.pop_front t.remote
let pending_remote_ops t = Dq.length t.remote
