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

type thread = { t_block : int; t_env : Value.t array; t_span : Trace.span }

type t = {
  name : string;
  area : Link.area;
  runq : thread Dq.t;
  remote : (remote_op * Trace.span) Dq.t;
  mutable chan_uid : int;
  (* Operand stack, shared by all threads of this machine: a thread runs
     to completion and leaves the stack empty, so one growable array
     replaces a freshly-consed list per thread. *)
  mutable ostack : Value.t array;
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

let create ?(name = "site") ?(trace = Trace.disabled) ?(track = 0) area =
  let stats = Stats.create () in
  { name;
    area;
    runq = Dq.create ();
    remote = Dq.create ();
    chan_uid = 0;
    ostack = Array.make 64 (Value.Vint 0);
    osp = 0;
    tr = trace;
    tr_on = Trace.enabled trace;
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

(* Make a frame for a block: the given initial values fill the first
   slots, the rest are padded (uninitialized locals). *)
let frame_for t ~block ~init =
  let blk = Link.block t.area block in
  let n = blk.Block.blk_nslots in
  let frame = Array.make (max n (List.length init)) (Value.Vint 0) in
  List.iteri (fun i v -> frame.(i) <- v) init;
  frame

(* All thread creation funnels through here: the new thread's span is a
   child of [parent] (the spawning thread, or the delivery context the
   site installed with [set_current_span]). *)
let enqueue t ~parent ~block frame =
  let sp =
    if t.tr_on then begin
      let sp = Trace.fresh_span t.tr ~parent in
      Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:sp Trace.Thread_spawn;
      sp
    end
    else Trace.null_span
  in
  Dq.push_back t.runq { t_block = block; t_env = frame; t_span = sp }

let spawn t ~block ~env =
  enqueue t ~parent:t.cur_span ~block (frame_for t ~block ~init:env)

(* Frames for method fires and instantiations are [args..][extra..]
   padded to the block's slot count, where the [na] args are the values
   [src.(base) .. src.(base + na - 1)] — the top of the operand stack,
   read in place, or a parked message's argument array — and [extra] is
   the closure environment.  Frames of up to 8 slots (nearly all of
   them) are array literals: one inline initializing allocation, with
   no C call and no write barrier.  Wider frames fall back to
   [Array.make] and two blits. *)
let pad = Value.Vint 0

let[@inline] slot src base na (extra : Value.t array) i =
  if i < na then Array.unsafe_get src (base + i)
  else if i - na < Array.length extra then Array.unsafe_get extra (i - na)
  else pad

let make_frame (src : Value.t array) base na extra size : Value.t array =
  match size with
  | 0 -> [||]
  | 1 -> [| slot src base na extra 0 |]
  | 2 -> [| slot src base na extra 0; slot src base na extra 1 |]
  | 3 ->
      [| slot src base na extra 0; slot src base na extra 1;
         slot src base na extra 2 |]
  | 4 ->
      [| slot src base na extra 0; slot src base na extra 1;
         slot src base na extra 2; slot src base na extra 3 |]
  | 5 ->
      [| slot src base na extra 0; slot src base na extra 1;
         slot src base na extra 2; slot src base na extra 3;
         slot src base na extra 4 |]
  | 6 ->
      [| slot src base na extra 0; slot src base na extra 1;
         slot src base na extra 2; slot src base na extra 3;
         slot src base na extra 4; slot src base na extra 5 |]
  | 7 ->
      [| slot src base na extra 0; slot src base na extra 1;
         slot src base na extra 2; slot src base na extra 3;
         slot src base na extra 4; slot src base na extra 5;
         slot src base na extra 6 |]
  | 8 ->
      [| slot src base na extra 0; slot src base na extra 1;
         slot src base na extra 2; slot src base na extra 3;
         slot src base na extra 4; slot src base na extra 5;
         slot src base na extra 6; slot src base na extra 7 |]
  | _ ->
      let frame = Array.make size pad in
      Array.blit src base frame 0 na;
      Array.blit extra 0 frame na (Array.length extra);
      frame

let spawn_call t ~parent ~block src base na ~extra =
  let nslots = (Link.block t.area block).Block.blk_nslots in
  let size = max nslots (na + Array.length extra) in
  enqueue t ~parent ~block (make_frame src base na extra size)

(* The [na] args at [src.(base)] as an array of their own, for a
   message that parks, goes remote or reaches a builtin.  An argument
   array handed in whole by the embedder is kept as it is; the operand
   stack is never aliased. *)
let no_args : Value.t array = [||]

let take_args t src base na =
  if na = 0 then no_args
  else if base = 0 && na = Array.length src && src != t.ostack then src
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

let as_int = function Value.Vint n -> n | v -> err "expected int, got %s" (Value.type_name v)
let as_bool = function Value.Vbool b -> b | v -> err "expected bool, got %s" (Value.type_name v)

let value_eq a b =
  match (a, b) with
  | Value.Vint x, Value.Vint y -> Int.equal x y
  | Value.Vbool x, Value.Vbool y -> Bool.equal x y
  | Value.Vstr x, Value.Vstr y -> String.equal x y
  | Value.Vchan x, Value.Vchan y -> Value.same_chan x y
  | Value.Vnetref x, Value.Vnetref y -> Netref.equal x y
  | _, _ -> a == b

(* Booleans are two shared values: comparisons, [Not] and [Push_bool]
   allocate nothing. *)
let vtrue = Value.Vbool true
let vfalse = Value.Vbool false
let[@inline] vbool b = if b then vtrue else vfalse

let exec_binop op a b =
  match op with
  | Ast.Add -> Value.Vint (as_int a + as_int b)
  | Ast.Sub -> Value.Vint (as_int a - as_int b)
  | Ast.Mul -> Value.Vint (as_int a * as_int b)
  | Ast.Div ->
      let d = as_int b in
      if d = 0 then err "division by zero" else Value.Vint (as_int a / d)
  | Ast.Mod ->
      let d = as_int b in
      if d = 0 then err "modulo by zero" else Value.Vint (as_int a mod d)
  | Ast.Lt -> vbool (as_int a < as_int b)
  | Ast.Le -> vbool (as_int a <= as_int b)
  | Ast.Gt -> vbool (as_int a > as_int b)
  | Ast.Ge -> vbool (as_int a >= as_int b)
  | Ast.Eq -> vbool (value_eq a b)
  | Ast.Neq -> vbool (not (value_eq a b))
  | Ast.And -> vbool (as_bool a && as_bool b)
  | Ast.Or -> vbool (as_bool a || as_bool b)

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

(* Operand-stack primitives over the machine-owned array. *)

let[@inline] push_op t v =
  (if t.osp = Array.length t.ostack then begin
     let bigger = Array.make (2 * Array.length t.ostack) (Value.Vint 0) in
     Array.blit t.ostack 0 bigger 0 t.osp;
     t.ostack <- bigger
   end);
  Array.unsafe_set t.ostack t.osp v;
  t.osp <- t.osp + 1

let[@inline] pop_op t =
  if t.osp = 0 then err "operand stack underflow";
  t.osp <- t.osp - 1;
  Array.unsafe_get t.ostack t.osp

(* Pop [n] argument values pushed left-to-right and return the index
   of the first: the stack grows upward, so [ostack.(base) ..
   ostack.(base + n - 1)] are the args in order, still in place for a
   frame to be built from until the next push. *)
let pop_base t n =
  if t.osp < n then err "operand stack underflow";
  t.osp <- t.osp - n;
  t.osp

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
        push_op t (Value.Vint n);
        step t code costs env (pc + 1) executed cost
    | Instr.Push_bool b ->
        push_op t (vbool b);
        step t code costs env (pc + 1) executed cost
    | Instr.Push_str s ->
        push_op t (Value.Vstr s);
        step t code costs env (pc + 1) executed cost
    | Instr.Load i ->
        push_op t env.(i);
        step t code costs env (pc + 1) executed cost
    | Instr.Store i ->
        env.(i) <- pop_op t;
        step t code costs env (pc + 1) executed cost
    | Instr.Binop op ->
        let b = pop_op t in
        let a = pop_op t in
        push_op t (exec_binop op a b);
        step t code costs env (pc + 1) executed cost
    | Instr.Unop Ast.Neg ->
        push_op t (Value.Vint (-as_int (pop_op t)));
        step t code costs env (pc + 1) executed cost
    | Instr.Unop Ast.Not ->
        push_op t (vbool (not (as_bool (pop_op t))));
        step t code costs env (pc + 1) executed cost
    | Instr.Jump target -> step t code costs env target executed cost
    | Instr.Jump_if_false target ->
        if as_bool (pop_op t) then step t code costs env (pc + 1) executed cost
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

let run_thread t (th : thread) =
  let code = (Link.block t.area th.t_block).Block.blk_code in
  (* Per-pc costs precomputed at link time: the step loop adds an array
     element instead of re-dispatching on the instruction. *)
  let costs = Link.costs t.area th.t_block in
  t.osp <- 0;
  step t code costs th.t_env 0 0 0

let runnable t = not (Dq.is_empty t.runq)

let run t ~budget =
  let executed = ref 0 in
  let cost = ref 0 in
  let continue_ = ref true in
  (* run-queue depth at quantum start: the latency-hiding evidence —
     deep queues mean remote waits are being overlapped (paper §5) *)
  Stats.Dist.add_int t.d_runq_depth (Dq.length t.runq);
  while !continue_ && !executed < budget do
    if Dq.is_empty t.runq then continue_ := false
    else begin
      let th = Dq.pop_front_exn t.runq in
      Stats.Counter.incr t.c_threads;
      t.cur_span <- th.t_span;
      let start = t.clock in
      run_thread t th;
      let n = t.last_executed and c = t.last_cost in
      t.clock <- start + c;
      if t.tr_on then
        Trace.emit t.tr ~ts:start ~dur:c ~track:t.track ~span:th.t_span
          (Trace.Run_slice { instrs = n; cost = c });
      Stats.Counter.add t.c_instr n;
      Stats.Hist.add t.h_thread_len n;
      executed := !executed + n;
      cost := !cost + c
    end
  done;
  t.cur_span <- Trace.null_span;
  (!executed, !cost)

let pop_remote_op t = Option.map fst (Dq.pop_front t.remote)
let pop_remote_traced t = Dq.pop_front t.remote
let pending_remote_ops t = Dq.length t.remote
