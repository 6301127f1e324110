(* The DiTyCO benchmark: seeded closed-loop workloads.

   One client submits a job (a generated program run to quiescence),
   waits for it, checks its outputs against the generator's oracle and
   submits the next.  With [--trace 0] the run measures the end-to-end
   metrics; with [--trace 1] it runs an untraced half and a traced
   half, and reports per-layer metrics, span self times and the
   tracing overhead.  The last line of standard output is the result
   object; the lines before it, each starting with ['#'], are the run
   header and a table of every metric with its unit.  Timings are
   scaled to a reference host speed measured between jobs (see Probe).

     bench.exe --workload local-objects|remote-mix|par-fanout
               --seed N --seconds S --trace 0|1
               [--spans FILE] [--commit ID] [--show IX] *)

module Api = Dityco.Api
module Cluster = Dityco.Cluster
module Site = Dityco.Site
module Output = Dityco.Output
module Par_runner = Dityco.Par_runner
module Report = Dityco.Report
module Simnet = Tyco_net.Simnet
module Packet = Tyco_net.Packet
module Nameservice = Tyco_net.Nameservice
module Stats = Tyco_support.Stats
module Block = Tyco_compiler.Block
module Bytecode = Tyco_compiler.Bytecode

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms ns = float_of_int ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

type workload = Local_objects | Remote_mix | Par_fanout

let workloads =
  [ ("local-objects", Local_objects); ("remote-mix", Remote_mix);
    ("par-fanout", Par_fanout) ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload local-objects|remote-mix|par-fanout \
     --seed N --seconds S --trace 0|1 [--spans FILE] [--commit ID] [--show IX]";
  exit 2

let wname, wl, seed, seconds, traced, spans_out, commit, show =
  let w = ref None and s = ref None and secs = ref None and t = ref None in
  let spans = ref None and commit = ref "unknown" and show = ref None in
  let int r v = match int_of_string_opt v with Some n -> r := Some n | None -> usage () in
  let rec go = function
    | "--workload" :: v :: rest ->
        (match List.assoc_opt v workloads with Some x -> w := Some (v, x) | None -> usage ());
        go rest
    | "--seed" :: v :: rest -> int s v; go rest
    | "--seconds" :: v :: rest -> int secs v; go rest
    | "--trace" :: (("0" | "1") as v) :: rest -> t := Some (v = "1"); go rest
    | "--spans" :: v :: rest -> spans := Some v; go rest
    | "--commit" :: v :: rest -> commit := v; go rest
    | "--show" :: v :: rest -> int show v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!w, !s, !secs, !t) with
  | Some (n, x), Some s, Some secs, Some t when secs > 0 -> (n, x, s, secs, t, !spans, !commit, !show)
  | Some (n, x), Some s, _, _ when !show <> None -> (n, x, s, 1, false, None, !commit, !show)
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between the closest ranks. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile (sorted xs) 50.

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* job_ms_tail's percentile, fixed per workload so that a faster or
   slower program cannot switch it: p99 where a run has thousands of
   jobs, p90 where it has hundreds.  It is taken over consecutive blocks
   of at least [tail_block] jobs, ten of them beyond it, and the median
   over the blocks is reported, so that a burst of other load on the
   host spoils one block and not the run.  A run shorter than one block
   says in its header that the tail is unresolved. *)
let tail_pct = match wl with Local_objects | Remote_mix -> 99. | Par_fanout -> 90.
let tail_block = int_of_float (Float.round (10. /. (1. -. (tail_pct /. 100.))))

let block_tail times =
  let a = Array.of_list times in
  let n = Array.length a in
  let blocks = max 1 (n / tail_block) in
  let block b =
    let lo = b * n / blocks and hi = (b + 1) * n / blocks in
    percentile (sorted (Array.to_list (Array.sub a lo (hi - lo)))) tail_pct
  in
  (median (List.init blocks block), blocks)

(* ------------------------------------------------------------------ *)
(* Programs and the front end                                          *)

(* Distinct programs per run; job [i] runs program [i mod k]. *)
let k = 8

let gen ?scale ~seed wl =
  match wl with
  | Local_objects -> Gen.local_objects ?scale ~seed ~k ()
  | Remote_mix -> Gen.remote_mix ?scale ~seed ~k ()
  | Par_fanout -> Gen.par_fanout ?scale ~seed ~k ()

let progs = gen ~seed wl

let () =
  Option.iter
    (fun ix ->
      print_string (List.nth progs (ix mod k)).Gen.src;
      exit 0)
    show

type compiled = {
  prog : Gen.program;
  units : (string * Block.unit_) list;
  ast_nodes : int;
  instrs : int;
  code_bytes : int;
}

type frontend = { parse_ns : int; infer_ns : int; compile_ns : int; fe_scale : float }

(* One pass of every program through parse, typecheck and compile.
   Nothing else runs between the timed calls, so the work of one pass
   leaves no garbage for the next to collect. *)
let front_end progs =
  let p = ref 0 and i = ref 0 and c = ref 0 in
  let out =
    List.map
      (fun (prog : Gen.program) ->
        let t0 = now_ns () in
        let ast = Api.parse prog.Gen.src in
        let t1 = now_ns () in
        ignore (Api.typecheck ast);
        let t2 = now_ns () in
        let units = Api.compile ast in
        let t3 = now_ns () in
        p := !p + (t1 - t0);
        i := !i + (t2 - t1);
        c := !c + (t3 - t2);
        (prog, ast, units))
      progs
  in
  (out, { parse_ns = !p; infer_ns = !i; compile_ns = !c; fe_scale = 1.0 })

let sizes (prog, ast, units) =
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
  { prog; units;
    ast_nodes = sum (fun s -> Tyco_syntax.Ast.size s.Tyco_syntax.Ast.s_proc) ast.Tyco_syntax.Ast.sites;
    instrs = sum (fun (_, u) -> Block.instr_count u) units;
    code_bytes = sum (fun (_, u) -> Bytecode.byte_size u) units }

(* ------------------------------------------------------------------ *)
(* Engines and checks                                                  *)

(* The cluster a program runs on; remote-mix adds reliable delivery
   over a lightly faulty fabric, with a fault schedule seeded per
   program. *)
let config ?(ix = 0) (prog : Gen.program) =
  let c = { Cluster.default_config with Cluster.nodes = prog.Gen.nodes; seed = (seed * 131) + ix } in
  if wl <> Remote_mix then c
  else
    { c with
      reliable = true;
      faults =
        { Simnet.drop = 0.002; duplicate = 0.002; reorder = 0.02; reorder_ns = 20_000; partitions = [] } }

let max_events = 50_000_000

exception Job_failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Job_failed m)) fmt

(* A job that raises fails with the message; the run goes on. *)
let guard f =
  try Ok (f ()) with
  | Job_failed m -> Error m
  | Api.Error e -> Error (Api.error_message e)
  | Site.Protocol_error m -> Error ("protocol error: " ^ m)
  | Tyco_vm.Machine.Error m -> Error ("vm error: " ^ m)
  | Par_runner.Shard_failure (s, m) -> Error (Printf.sprintf "shard %d failed: %s" s m)
  | Failure m -> Error ("failure: " ^ m)
  | Invalid_argument m -> Error ("invalid argument: " ^ m)

let sum_sites sites name =
  List.fold_left (fun acc s -> acc + Stats.counter_value (Site.stats s) name) 0 sites

type engine_run = Det of Cluster.t | Par of Par_runner.result

(* Per-step attribution of a traced deterministic job: steps that ran
   VM instructions (a site pump quantum) against the rest (packet
   delivery, batch flush, acks, retransmit timers). *)
type steps = {
  mutable pump_ns : int; mutable pump_n : int;
  mutable net_ns : int; mutable net_n : int;
  mutable first : int; mutable last : int;
}

(* Step durations of the traced half: 10 ns buckets up to 2 ms. *)
let step_hist = Array.make 200_001 0

let drive steps cl =
  let sim = Cluster.sim cl in
  let ctrs = List.map (fun s -> Stats.counter (Site.stats s) "instructions") (Cluster.sites cl) in
  let instr () = List.fold_left (fun a c -> a + Stats.Counter.value c) 0 ctrs in
  steps.first <- now_ns ();
  let rec go n =
    if n > max_events then fail "event budget exhausted";
    let i0 = instr () in
    let s0 = now_ns () in
    let more = Simnet.step sim in
    let s1 = now_ns () in
    if more then begin
      let d = s1 - s0 in
      let b = min (d / 10) (Array.length step_hist - 1) in
      step_hist.(b) <- step_hist.(b) + 1;
      if instr () > i0 then (steps.pump_ns <- steps.pump_ns + d; steps.pump_n <- steps.pump_n + 1)
      else (steps.net_ns <- steps.net_ns + d; steps.net_n <- steps.net_n + 1);
      go (n + 1)
    end
    else steps.last <- s1
  in
  go 0

let det_run ?steps cfg c =
  let cl = Cluster.create ~config:cfg () in
  Cluster.load ~placement:c.prog.Gen.placement cl c.units;
  (match steps with None -> Cluster.run ~max_events cl | Some s -> drive s cl);
  cl

(* The workload's engine; returns the run, its outputs, and the start
   and length of the engine call, which is all that is timed. *)
let run_engine ?steps ~ix c =
  let t0 = now_ns () in
  let run, outputs =
    match wl with
    | Local_objects | Remote_mix ->
        let cl = det_run ?steps (config ~ix c.prog) c in
        (Det cl, Cluster.output_events cl)
    | Par_fanout ->
        let r =
          Par_runner.run ~config:(config c.prog) ~placement:c.prog.Gen.placement ~max_wall_ms:60_000
            ~domains:2 c.units
        in
        (Par r, List.map snd r.Par_runner.outputs)
  in
  (run, outputs, t0, now_ns () - t0)

(* Clean quiescence, no dead letters, balanced rings. *)
let check_engine = function
  | Det cl ->
      if not (Cluster.quiescent cl) then fail "not quiescent";
      if Cluster.in_flight cl <> 0 then fail "%d packets in flight" (Cluster.in_flight cl);
      if Cluster.name_service_pending cl <> 0 then fail "unresolved imports";
      if Cluster.dead_letters cl <> 0 then fail "%d dead letters" (Cluster.dead_letters cl);
      if Cluster.suspected_failures cl <> [] then fail "suspected failures";
      if List.exists Site.busy (Cluster.sites cl) then fail "a site is still busy"
  | Par r ->
      if r.Par_runner.timed_out then fail "timed out";
      if not r.clean then fail "unclean quiescence";
      if r.ring_pushed <> r.ring_popped then fail "ring pushed %d <> popped %d" r.ring_pushed r.ring_popped;
      if r.dead_letters <> 0 then fail "%d dead letters" r.dead_letters

let check_outputs (prog : Gen.program) outputs =
  if not (Output.same_multiset outputs prog.Gen.expected) then
    fail "outputs differ from the oracle: got [%s]"
      (String.concat "; " (List.map (Format.asprintf "%a" Output.pp_event) outputs))

(* ------------------------------------------------------------------ *)
(* Set-up and the per-program cross-runs                               *)

let failures = ref []
let correct = ref true

let note_failure what m =
  correct := false;
  if List.length !failures < 5 then failures := Printf.sprintf "%s: %s" what m :: !failures

(* Set-up: every program through the front end, [setup_reps] timed
   times after [setup_warm] untimed ones.  Each pass starts from a
   collected heap and right after its own host-speed probe, so the
   passes, a few milliseconds each, are timed alike. *)
let setup_reps = 41
let setup_warm = 4

let compiled, fe_runs =
  ignore (Probe.scale now_ns);
  let pass () =
    Gc.full_major ();
    Probe.probe now_ns;
    let fe_scale = !Probe.factor in
    let out, t = front_end progs in
    (out, { t with fe_scale })
  in
  let first, _ = pass () in
  for _ = 2 to setup_warm do ignore (pass ()) done;
  let runs = List.init setup_reps (fun _ -> snd (pass ())) in
  (Array.of_list (List.map sizes first), runs)

(* The deterministic engine's run of each program: its counts must
   repeat exactly in every deterministic job of that program; for
   par-fanout it is a second oracle, and it supplies the modelled
   makespan, which the sharded engine does not. *)
type det_info = {
  d_fp : int * int * int * int;  (* instructions, packets, events, virtual ns *)
  d_makespan_ns : float;  (* virtual time of the last output *)
}

let makespan cl = List.fold_left (fun a (t, _) -> max a t) 0 (Cluster.outputs cl)

(* On remote-mix a program's makespan depends on which of its packets
   the fault schedule drops, duplicates or reorders: one retransmission
   on the critical path adds a whole timeout.  So its modelled makespan
   is the mean over [fault_draws] schedules, the jobs' own and more
   drawn from the run seed, each run checked like a job. *)
let fault_draws = if wl = Remote_mix then 8 else 1

let other_draws ix c =
  List.init (fault_draws - 1) (fun d ->
      let cl = det_run { (config ~ix c.prog) with Cluster.seed = (seed * 131) + ix + (1_000_003 * (d + 1)) } c in
      check_engine (Det cl);
      check_outputs c.prog (Cluster.output_events cl);
      makespan cl)

let fingerprint cl =
  ( sum_sites (Cluster.sites cl) "instructions",
    Cluster.packets_sent cl,
    Simnet.events_processed (Cluster.sim cl),
    Cluster.virtual_time cl )

let det_info =
  Array.mapi
    (fun ix c ->
      match
        guard (fun () ->
            let cl = det_run (config ~ix c.prog) c in
            check_engine (Det cl);
            check_outputs c.prog (Cluster.output_events cl);
            let makespans = makespan cl :: other_draws ix c in
            { d_fp = fingerprint cl; d_makespan_ns = mean (List.map float_of_int makespans) })
      with
      | Ok d -> d
      | Error m ->
          note_failure ("deterministic run of " ^ c.prog.Gen.name) m;
          { d_fp = (0, 0, 0, 0); d_makespan_ns = 0. })
    compiled

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)

type job = {
  prog_ix : int;
  start : int;  (* monotonic ns *)
  wall_ns : int;
  scale : float;  (* host-speed calibration, see Probe *)
  instr : int;
  msgs : int;  (* behind kmsgs_per_s *)
}

let attempted = ref 0
let failed = ref 0

(* Messages: logical packets plus same-node deliveries; on
   local-objects, where no packet exists, the method invocations
   delivered to objects. *)
let summarize ix start wall_ns scale run =
  let instr, _, _, _ = det_info.(ix).d_fp in
  match run with
  | Det cl ->
      let fp = fingerprint cl in
      if fp <> det_info.(ix).d_fp then fail "deterministic counts did not repeat";
      let msgs =
        if wl = Local_objects then sum_sites (Cluster.sites cl) "comm_local"
        else Cluster.packets_sent cl + Cluster.same_node_fast cl
      in
      { prog_ix = ix; start; wall_ns; scale; instr; msgs }
  | Par r ->
      { prog_ix = ix; start; wall_ns; scale; instr = r.Par_runner.instructions;
        msgs = r.packets + r.same_node_fast }

(* One job with every check; a failure is counted and the run goes
   on. *)
let attempt ?steps ?(on_run = fun _ _ -> ()) ~scale ix =
  incr attempted;
  let c = compiled.(ix) in
  match
    guard (fun () ->
        let run, outputs, start, wall = run_engine ?steps ~ix c in
        check_engine run;
        check_outputs c.prog outputs;
        let j = summarize ix start wall scale run in
        on_run j run;
        j)
  with
  | Ok j -> Some j
  | Error m ->
      incr failed;
      note_failure c.prog.Gen.name m;
      None

(* The first job of the process, timed apart from the warm ones. *)
let cold = attempt ~scale:(Probe.scale now_ns) 0

(* Once per run: scaled-down instances of both deterministic-engine
   workloads against the reference interpreter, and the first program
   of the next seed through this workload's engine and the oracle. *)
let reference_ok =
  let reference (prog : Gen.program) =
    match
      guard (fun () ->
          let ast = Api.parse prog.Gen.src in
          if not (Output.same_multiset (Api.run_reference ~max_steps:2_000_000 ast) prog.expected) then
            fail "reference interpreter disagrees with the oracle";
          let r = Api.run_program ~placement:prog.placement ast in
          if not (Output.same_multiset (List.map snd r.Api.outputs) prog.expected) then
            fail "VM disagrees with the oracle")
    with
    | Ok () -> true
    | Error m -> note_failure ("reference check of " ^ prog.Gen.name) m; false
  in
  let next_seed () =
    match
      guard (fun () ->
          let prog = List.hd (gen ~seed:(seed + 1) wl) in
          let c = sizes (List.hd (fst (front_end [ prog ]))) in
          let run, outputs, _, _ = run_engine ~ix:0 c in
          check_engine run;
          check_outputs prog outputs)
    with
    | Ok () -> true
    | Error m -> note_failure "next seed" m; false
  in
  let small w = List.hd (gen ~scale:0.02 ~seed w) in
  let a = reference (small Local_objects) in
  let b = reference (small Remote_mix) in
  let c = next_seed () in
  a && b && c

(* The closed loop: at least one cycle of the programs, then until
   [secs] have passed. *)
let job_counter = ref 0

let loop ?steps ?on_run ?(before = ignore) secs =
  let jobs = ref [] and n = ref 0 in
  let t0 = Unix.gettimeofday () in
  while !n < k || Unix.gettimeofday () -. t0 < secs do
    let ix = !job_counter mod k in
    incr job_counter;
    incr n;
    let scale = Probe.scale now_ns in
    before ();
    Option.iter (fun j -> jobs := j :: !jobs) (attempt ?steps:(Option.map (fun f -> f ()) steps) ?on_run ~scale ix)
  done;
  List.rev !jobs

(* Warm-up, discarded: one cycle of the programs and half a second. *)
let warmup_s = 0.5
let _ = loop warmup_s

let measure_s = if traced then float_of_int seconds /. 2. else float_of_int seconds
let untraced = loop measure_s

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)

let metrics : (string * float * string) list ref = ref []
let metric name v unit = metrics := (name, v, unit) :: !metrics
(* Job times and rates at the reference host speed (see Probe). *)
let job_ms jobs = List.map (fun j -> ms j.wall_ns *. j.scale) jobs
let rate f jobs = median (List.map (fun j -> float_of_int (f j) /. (float_of_int j.wall_ns *. j.scale /. 1e9)) jobs)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    let line = input_line ic in
    try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.) with Scanf.Scan_failure _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let tail_note = ref ""

let end_to_end jobs =
  let times = sorted (job_ms jobs) in
  let n = Array.length times in
  let tail, blocks = block_tail (job_ms jobs) in
  let raw = List.map (fun j -> ms j.wall_ns) jobs in
  tail_note :=
    Printf.sprintf "p%g of %d warm jobs in %d blocks of %d or more, median over the blocks%s; unscaled wall time: p50 %.4f ms, tail %.4f ms"
      tail_pct n blocks tail_block
      (if n < tail_block then ": UNRESOLVED, fewer than 10 jobs beyond it" else "")
      (median raw) (fst (block_tail raw));
  metric "setup_s"
    (median (List.map (fun f -> float_of_int (f.parse_ns + f.infer_ns + f.compile_ns) *. f.fe_scale) fe_runs) /. 1e9)
    "s";
  metric "job_ms_p50" (percentile times 50.) "ms";
  metric "job_ms_tail" tail "ms";
  metric "minstr_per_s" (rate (fun j -> j.instr) jobs /. 1e6) "Minstr/s";
  metric "kmsgs_per_s" (rate (fun j -> j.msgs) jobs /. 1e3) "kmsgs/s";
  (* the modelled makespan is a property of each program: the mean over
     the programs, so it repeats exactly for a seed *)
  metric "virtual_ms" (mean (Array.to_list (Array.map (fun d -> d.d_makespan_ns /. 1e6) det_info))) "ms";
  metric "peak_rss_mb" (peak_rss_mb ()) "MB"

(* ------------------------------------------------------------------ *)
(* Traced half                                                         *)

let packet_replay log =
  let pks = List.map snd log in
  let n = List.length pks in
  let reps = max 1 (20_000 / n) in
  let strs = ref [] in
  let t0 = now_ns () in
  for _ = 1 to reps do strs := List.map Packet.to_string pks done;
  let t1 = now_ns () in
  for _ = 1 to reps do List.iter (fun s -> ignore (Packet.of_string s)) !strs done;
  let t2 = now_ns () in
  List.iter (fun s -> if Packet.to_string (Packet.of_string s) <> s then fail "packet round trip") !strs;
  let per = float_of_int (n * reps) in
  ( float_of_int (t1 - t0) /. per,
    float_of_int (t2 - t1) /. per,
    float_of_int (List.fold_left (fun a s -> a + String.length s) 0 !strs) /. float_of_int n )

(* The log's name-service traffic, replayed into a fresh service. *)
let ns_replay log =
  let ns = Nameservice.create () in
  let ops = ref 0 in
  let t0 = now_ns () in
  List.iter
    (fun (_, p) ->
      match p with
      | Packet.Pns_register { site_name; id_name; nref; rtti } ->
          incr ops;
          ignore (Nameservice.register_id ns ~site:site_name ~name:id_name ~rtti nref)
      | Packet.Pns_lookup { site_name; id_name; req_id; requester_site; requester_ip; _ } ->
          incr ops;
          ignore
            (Nameservice.lookup_id ns ~site:site_name ~name:id_name
               { Nameservice.w_req_id = req_id; w_site = requester_site; w_ip = requester_ip })
      | _ -> ())
    log;
  let t1 = now_ns () in
  if Nameservice.pending ns <> 0 then fail "name-service replay left lookups parked";
  (!ops, t1 - t0)

let pooled_p50 sites name =
  let samples s =
    List.concat_map
      (fun d -> if Stats.Dist.name d = name then Array.to_list (Stats.Dist.samples d) else [])
      (Stats.dists (Site.stats s))
  in
  match List.concat_map samples sites with [] -> 0.0 | xs -> median xs

let site_counters sites =
  let f n = float_of_int (sum_sites sites n) in
  let instr = f "instructions" and threads = f "threads" in
  [ ("machine.instructions", instr); ("machine.threads", threads);
    ("machine.thread_len_mean", if threads > 0. then instr /. threads else 0.);
    ("machine.msgs_parked", f "msgs_parked"); ("machine.objs_parked", f "objs_parked");
    ("machine.remote_ops", f "remote_ops"); ("site.fetches", f "fetches"); ("site.links", f "links");
    ("site.ships_in", f "ships_in"); ("site.queue_wait_ns_p50", pooled_p50 sites "queue_wait_ns") ]

let ratio a b = if b > 0. then a /. b else 0.

let layer_counters = function
  | Det cl ->
      let st = Cluster.stats cl in
      let c n = float_of_int (Stats.counter_value st n) in
      let packets = float_of_int (Cluster.packets_sent cl) in
      let frames = float_of_int (Cluster.frames_sent cl) in
      let mem = (Report.of_cluster cl).Report.memory in
      site_counters (Cluster.sites cl)
      @ [ ("simnet.events", float_of_int (Simnet.events_processed (Cluster.sim cl)));
          ("cluster.packets", packets); ("cluster.frames", frames);
          ("cluster.frames_per_packet", ratio frames packets);
          ("cluster.batch_fill_mean", Cluster.batch_fill_mean cl); ("cluster.acks", c "acks");
          ("cluster.acks_piggybacked", float_of_int (Cluster.acks_piggybacked cl));
          ("cluster.retries", c "retries"); ("cluster.dupes_suppressed", c "dupes_suppressed");
          ("cluster.same_node_fast", float_of_int (Cluster.same_node_fast cl));
          ("cluster.dead_letters", float_of_int (Cluster.dead_letters cl));
          ("cluster.bytes", float_of_int (Cluster.bytes_sent cl));
          ("export_table.live_end", float_of_int (mem.Report.mem_chan_live + mem.mem_class_live));
          ("export_table.allocated", float_of_int (mem.Report.mem_chan_allocated + mem.mem_class_allocated)) ]
  | Par r ->
      let ss = Array.to_list r.Par_runner.shard_stats in
      let events = List.map (fun s -> float_of_int s.Par_runner.ss_events) ss in
      site_counters r.sites
      @ [ ("par_runner.handoffs", float_of_int r.handoffs);
          ("par_runner.ring_pushed", float_of_int r.ring_pushed);
          ("par_runner.ring_batch_fill_mean", r.ring_batch_fill_mean);
          ("par_runner.parks", float_of_int r.parks);
          ("par_runner.drains", float_of_int (List.fold_left (fun a s -> a + s.Par_runner.ss_drains) 0 ss));
          ("par_runner.ring_hiwater",
           float_of_int (List.fold_left (fun a s -> max a s.Par_runner.ss_ring_hiwater) 0 ss));
          ("par_runner.events_imbalance", ratio (List.fold_left max 0. events) (mean events)) ]

(* Per-program medians of each counter, then their mean over the
   programs: every deterministic job of a program has the same counts,
   so the figure repeats exactly for a seed. *)
let per_program_mean rows =
  let names = match rows with [] -> [] | (_, r) :: _ -> List.map fst r in
  List.map
    (fun name ->
      let per_prog ix =
        match List.filter_map (fun (i, r) -> if i = ix then List.assoc_opt name r else None) rows with
        | [] -> None
        | xs -> Some (median xs)
      in
      (name, mean (List.filter_map per_prog (List.init k Fun.id))))
    names

(* Throughput of each program at one domain, for par_runner.efficiency:
   through the deterministic engine ([--domains 1]) or one shard of the
   sharded engine. *)
let one_domain_minstr ~shard =
  median
    (List.filter_map
       (fun c ->
         match
           guard (fun () ->
               let scale = Probe.scale now_ns in
               let t0 = now_ns () in
               let instr, outputs =
                 if shard then
                   let r =
                     Par_runner.run ~config:(config c.prog) ~placement:c.prog.Gen.placement ~max_wall_ms:60_000
                       ~domains:1 c.units
                   in
                   (r.Par_runner.instructions, List.map snd r.outputs)
                 else
                   let cl = det_run (config c.prog) c in
                   (sum_sites (Cluster.sites cl) "instructions", Cluster.output_events cl)
               in
               let t1 = now_ns () in
               check_outputs c.prog outputs;
               float_of_int instr /. (float_of_int (t1 - t0) *. scale) *. 1e3)
         with
         | Ok v -> Some v
         | Error m -> note_failure "one-domain run" m; None)
       (Array.to_list compiled))

let traced_half () =
  let out = ref [] in
  let layer name v = out := (name, v) :: !out in
  let fe f = median (List.map (fun r -> ms (f r) *. r.fe_scale) fe_runs) in
  layer "parser.ms" (fe (fun r -> r.parse_ns));
  layer "infer.ms" (fe (fun r -> r.infer_ns));
  layer "compile.ms" (fe (fun r -> r.compile_ns));
  let sumc f = float_of_int (Array.fold_left (fun a c -> a + f c) 0 compiled) in
  layer "parser.ast_nodes" (sumc (fun c -> c.ast_nodes));
  layer "compile.instrs" (sumc (fun c -> c.instrs));
  layer "compile.code_bytes" (sumc (fun c -> c.code_bytes));
  Gcev.start ();
  let rows = ref [] and load_ms = ref [] and run_ms = ref [] in
  let enc = ref [] and dec = ref [] and pbytes = ref [] and ns_ops = ref [] and ns_ns = ref [] in
  let traced_jobs = ref 0 in
  (* GC inside job windows only: from just before the job (after the
     host-speed probe) to the end of its checks *)
  let gc = Array.init Gcev.max_rings (fun _ -> Gcev.zero ()) in
  let gc_mark = ref (Gcev.snapshot ()) in
  let cur_steps = ref None in
  let new_steps () =
    let s = { pump_ns = 0; pump_n = 0; net_ns = 0; net_n = 0; first = 0; last = 0 } in
    cur_steps := Some s;
    s
  in
  let on_run j run =
    incr traced_jobs;
    let trace = !traced_jobs in
    let t_start = j.start in
    let t_end = t_start + j.wall_ns in
    let span = Spans.record ~trace in
    let job_gc = Gcev.diff (Gcev.snapshot ()) !gc_mark in
    Gcev.add gc job_gc;
    Array.iteri
      (fun i r ->
        if r.Gcev.minors > 0 then
          ignore (span ~parent:0 ~name:(Printf.sprintf "gc.ring%d.minor" i) ~start:t_start ~stop:t_end
                    ~dur:r.Gcev.minor_ns ~count:r.Gcev.minors ()))
      job_gc;
    let root = span ~parent:0 ~name:"job" ~start:t_start ~stop:t_end () in
    (match (run, !cur_steps) with
     | Det _, Some s ->
         load_ms := ms (s.first - t_start) :: !load_ms;
         ignore (span ~parent:root ~name:"cluster.load" ~start:t_start ~stop:s.first ());
         ignore (span ~parent:root ~name:"simnet.step[site.pump]" ~start:s.first ~stop:s.last ~dur:s.pump_ns
                   ~count:s.pump_n ());
         ignore (span ~parent:root ~name:"simnet.step[transport]" ~start:s.first ~stop:s.last ~dur:s.net_ns
                   ~count:s.net_n ())
     | Par r, _ ->
         run_ms := ms j.wall_ns :: !run_ms;
         let id = span ~parent:root ~name:"par_runner.run" ~start:t_start ~stop:t_end () in
         ignore (span ~parent:id ~name:"par_runner.domains" ~start:(t_end - r.Par_runner.wall_ns) ~stop:t_end ())
     | Det _, None -> ());
    (* replays of the job's packet log, outside the job tree *)
    let log = match run with Det cl -> Cluster.packet_trace cl | Par _ -> [] in
    if log <> [] && wl = Remote_mix then begin
      let r0 = now_ns () in
      let e, d, b = packet_replay log in
      let r1 = now_ns () in
      let ops, dt = ns_replay log in
      let r2 = now_ns () in
      ignore (span ~parent:0 ~name:"packet.replay" ~start:r0 ~stop:r1 ());
      ignore (span ~parent:0 ~name:"nameservice.replay" ~start:r1 ~stop:r2 ());
      enc := e :: !enc;
      dec := d :: !dec;
      pbytes := b :: !pbytes;
      ns_ops := float_of_int ops :: !ns_ops;
      if ops > 0 then ns_ns := (float_of_int dt /. float_of_int ops) :: !ns_ns
    end;
    rows := (j.prog_ix, layer_counters run) :: !rows
  in
  let steps = match wl with Local_objects | Remote_mix -> Some new_steps | _ -> None in
  let jobs = loop ?steps ~on_run ~before:(fun () -> gc_mark := Gcev.snapshot ()) measure_s in
  let n_jobs = float_of_int (max 1 !traced_jobs) in
  (* self times over the job trees; they add up to job time *)
  let self = Hashtbl.create 16 in
  List.iter
    (fun (s, self_ns) ->
      if self_ns < 0 then note_failure "span accounting" (s.Spans.name ^ ": children exceed their parent");
      let add key = Hashtbl.replace self key (self_ns + Option.value ~default:0 (Hashtbl.find_opt self key)) in
      match s.Spans.name with
      | "job" -> add "self.remainder_ms"
      | "cluster.load" -> add "self.cluster_load_ms"
      | "simnet.step[site.pump]" -> add "self.site_pump_ms"
      | "simnet.step[transport]" -> add "self.transport_ms"
      | "par_runner.run" -> add "self.par_runner_setup_ms"
      | "par_runner.domains" -> add "self.par_runner_domains_ms"
      | _ -> ())
    (Spans.self_times ());
  Hashtbl.iter (fun key v -> layer key (ms v /. n_jobs)) self;
  (* unscaled, like the spans it is the sum of *)
  layer "self.job_ms_mean" (mean (List.map (fun j -> ms j.wall_ns) jobs));
  let traced_p50 = median (job_ms jobs) and untraced_p50 = median (job_ms untraced) in
  layer "trace.job_ms_p50" traced_p50;
  layer "trace.untraced_job_ms_p50" untraced_p50;
  layer "trace.overhead_ms" (traced_p50 -. untraced_p50);
  layer "trace.spans" (float_of_int (Spans.count ()));
  List.iter (fun (n, v) -> layer n v) (per_program_mean !rows);
  layer "machine.ns_per_instr"
    (median (List.filter_map (fun j -> if j.instr > 0 then Some (float_of_int j.wall_ns *. j.scale /. float_of_int j.instr) else None) untraced));
  let med = function [] -> 0. | xs -> median xs in
  layer "cluster.load_ms" (med !load_ms);
  let steps_n = Array.fold_left ( + ) 0 step_hist in
  let step_pct p =
    let want = int_of_float (Float.ceil (p /. 100. *. float_of_int steps_n)) in
    let rec go i acc =
      if i >= Array.length step_hist - 1 || acc + step_hist.(i) >= want then i else go (i + 1) (acc + step_hist.(i))
    in
    if steps_n = 0 then 0. else float_of_int (go 0 0 * 10)
  in
  layer "simnet.step_ns_p50" (step_pct 50.);
  layer "simnet.step_ns_tail" (step_pct 99.);
  layer "packet.encode_ns" (med !enc);
  layer "packet.decode_ns" (med !dec);
  layer "packet.bytes_mean" (med !pbytes);
  layer "nameservice.ops" (med !ns_ops);
  layer "nameservice.op_ns" (med !ns_ns);
  layer "par_runner.run_ms" (med !run_ms);
  (* GC, per domain ring *)
  let rings = gc in
  let tot f = Array.fold_left (fun a r -> a + f r) 0 rings in
  let per_job v = float_of_int v /. n_jobs in
  layer "gc.minor_words_per_instr"
    (ratio (float_of_int (tot (fun r -> r.Gcev.minor_words)))
       (float_of_int (List.fold_left (fun a j -> a + j.instr) 0 jobs)));
  layer "gc.minor_collections" (per_job (tot (fun r -> r.Gcev.minors)));
  layer "gc.major_slices" (per_job (tot (fun r -> r.Gcev.major_slices)));
  layer "gc.minor_pause_ms" (per_job (tot (fun r -> r.Gcev.minor_ns)) /. 1e6);
  layer "gc.major_pause_ms" (per_job (tot (fun r -> r.Gcev.major_ns)) /. 1e6);
  (* minor collections stop every domain: the ring that spent longest in
     them bounds the share of job time lost to stop-the-world pauses *)
  layer "gc.stw_share"
    (ratio (float_of_int (Array.fold_left (fun a r -> max a r.Gcev.minor_ns) 0 rings))
       (float_of_int (List.fold_left (fun a j -> a + j.wall_ns) 0 jobs)));
  layer "gc.lost_events" (float_of_int !Gcev.lost);
  Array.iteri
    (fun i r ->
      let p = Printf.sprintf "gc.ring%d." i in
      layer (p ^ "minor_collections") (per_job r.Gcev.minors);
      layer (p ^ "minor_pause_ms") (per_job r.Gcev.minor_ns /. 1e6);
      layer (p ^ "major_pause_ms") (per_job r.Gcev.major_ns /. 1e6);
      layer (p ^ "minor_words") (per_job r.Gcev.minor_words))
    rings;
  if wl = Par_fanout then begin
    let d2 = rate (fun j -> j.instr) jobs /. 1e6 in
    let d1 = one_domain_minstr ~shard:false and s1 = one_domain_minstr ~shard:true in
    layer "par_runner.minstr_per_s_d1" d1;
    layer "par_runner.minstr_per_s_d2" d2;
    layer "par_runner.efficiency" (ratio d2 (2. *. d1));
    layer "par_runner.efficiency_same_engine" (ratio d2 (2. *. s1))
  end;
  Option.iter Spans.write spans_out;
  !out

(* The per-layer metrics every traced run reports, with units; one the
   workload does not exercise reads 0. *)
let per_layer_units =
  [ ("parser.ms", "ms"); ("parser.ast_nodes", "count"); ("infer.ms", "ms"); ("compile.ms", "ms");
    ("compile.instrs", "count"); ("compile.code_bytes", "bytes"); ("cluster.load_ms", "ms");
    ("site.fetches", "count"); ("site.links", "count"); ("site.ships_in", "count");
    ("site.queue_wait_ns_p50", "ns"); ("machine.instructions", "count"); ("machine.threads", "count");
    ("machine.thread_len_mean", "instr"); ("machine.msgs_parked", "count");
    ("machine.objs_parked", "count"); ("machine.remote_ops", "count"); ("machine.ns_per_instr", "ns");
    ("simnet.events", "count"); ("simnet.step_ns_p50", "ns"); ("simnet.step_ns_tail", "ns");
    ("cluster.packets", "count"); ("cluster.frames", "count"); ("cluster.frames_per_packet", "ratio");
    ("cluster.batch_fill_mean", "count"); ("cluster.acks", "count"); ("cluster.acks_piggybacked", "count");
    ("cluster.retries", "count"); ("cluster.dupes_suppressed", "count"); ("cluster.same_node_fast", "count");
    ("cluster.dead_letters", "count"); ("cluster.bytes", "bytes"); ("packet.encode_ns", "ns");
    ("packet.decode_ns", "ns"); ("packet.bytes_mean", "bytes"); ("nameservice.ops", "count");
    ("nameservice.op_ns", "ns"); ("export_table.live_end", "count"); ("export_table.allocated", "count");
    ("par_runner.run_ms", "ms"); ("par_runner.handoffs", "count"); ("par_runner.ring_pushed", "count");
    ("par_runner.ring_batch_fill_mean", "count"); ("par_runner.parks", "count");
    ("par_runner.drains", "count"); ("par_runner.ring_hiwater", "count");
    ("par_runner.events_imbalance", "ratio"); ("par_runner.efficiency", "ratio");
    ("par_runner.efficiency_same_engine", "ratio"); ("par_runner.minstr_per_s_d1", "Minstr/s");
    ("par_runner.minstr_per_s_d2", "Minstr/s"); ("gc.minor_words_per_instr", "words");
    ("gc.minor_collections", "count"); ("gc.major_slices", "count"); ("gc.minor_pause_ms", "ms");
    ("gc.major_pause_ms", "ms"); ("gc.stw_share", "ratio"); ("gc.lost_events", "count") ]
  @ List.concat_map
      (fun i ->
        let p = Printf.sprintf "gc.ring%d." i in
        [ (p ^ "minor_collections", "count"); (p ^ "minor_pause_ms", "ms"); (p ^ "major_pause_ms", "ms");
          (p ^ "minor_words", "words") ])
      (List.init Gcev.max_rings Fun.id)
  @ [ ("self.cluster_load_ms", "ms"); ("self.site_pump_ms", "ms"); ("self.transport_ms", "ms");
      ("self.par_runner_setup_ms", "ms"); ("self.par_runner_domains_ms", "ms"); ("self.remainder_ms", "ms");
      ("self.job_ms_mean", "ms"); ("trace.job_ms_p50", "ms"); ("trace.untraced_job_ms_p50", "ms");
      ("trace.overhead_ms", "ms"); ("trace.spans", "count") ]

(* ------------------------------------------------------------------ *)
(* Report                                                              *)

let fnum v = if Float.is_finite v then Printf.sprintf "%.12g" v else "0"

let () =
  if traced then begin
    let layers = traced_half () in
    List.iter
      (fun (name, unit) -> metric name (Option.value ~default:0. (List.assoc_opt name layers)) unit)
      per_layer_units
  end
  else end_to_end untraced;
  let line k v = Printf.printf "# %-16s %s\n" k v in
  let params =
    String.concat ", "
      (List.map
         (fun (n, _) ->
           let xs = sorted (List.map (fun p -> float_of_int (List.assoc n p.Gen.params)) progs) in
           Printf.sprintf "%s %g..%g" n xs.(0) xs.(Array.length xs - 1))
         (List.hd progs).Gen.params)
  in
  line "workload" wname;
  line "seed" (string_of_int seed);
  line "mode" (if traced then "traced: an untraced half, then a traced half" else "untraced");
  line "host_cores" (string_of_int (Domain.recommended_domain_count ()));
  line "ocaml" Sys.ocaml_version;
  line "commit" commit;
  line "programs" (Printf.sprintf "%d distinct, cycled in a closed loop by one client; %s" k params);
  line "setup"
    (Printf.sprintf "front end over the %d programs, median of %d passes after %d untimed; unscaled %.3f ms" k
       setup_reps setup_warm
       (median (List.map (fun f -> ms (f.parse_ns + f.infer_ns + f.compile_ns)) fe_runs)));
  line "warmup"
    (Printf.sprintf "first job timed apart as cold; then %.1f s and at least one cycle discarded" warmup_s);
  line "cold_job_ms" (match cold with Some j -> Printf.sprintf "%.3f" (ms j.wall_ns) | None -> "failed");
  line "warm_jobs" (string_of_int (List.length untraced));
  line "probe"
    (Printf.sprintf "median %.4f ms over %d probes; timings are scaled to a %.2f ms probe" (median !Probe.all)
       (List.length !Probe.all) Probe.reference_ms);
  if !tail_note <> "" then line "job_ms_tail" !tail_note;
  line "reference_check" (if reference_ok then "ok" else "FAILED");
  (* the deterministic engine's counts over the programs: equal in every
     run of a seed (the self-check compares them across processes) *)
  let i, p, e, v =
    Array.fold_left
      (fun (i, p, e, v) d -> let i', p', e', v' = d.d_fp in (i + i', p + p', e + e', v + v'))
      (0, 0, 0, 0) det_info
  in
  line "fingerprint" (Printf.sprintf "instructions %d, packets %d, events %d, virtual_ns %d" i p e v);
  List.iter (line "failure") (List.rev !failures);
  line "failed_ratio"
    (Printf.sprintf "%g ratio (%d of %d jobs)" (float_of_int !failed /. float_of_int (max 1 !attempted)) !failed
       !attempted);
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "# metric %-34s %16s %s\n" n (fnum v) u) ms;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!correct && !failed = 0) !attempted !failed
    (String.concat ", "
       (List.map (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (fnum v) u) ms))
