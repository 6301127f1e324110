(* Stress and scale tests: deeper pipelines, wider fan-in, longer
   perpetual runs, program-area growth bounds.  These exercise the
   runtime well beyond the paper examples' sizes while still finishing
   quickly enough for the default test run. *)

open Dityco

let check = Alcotest.check

let run ?config ?placement ?until src =
  Api.run_program ?config ?placement ?until (Api.parse src)

(* A linear pipeline of [n] forwarder sites; token visits every site. *)
let deep_pipeline_src n =
  let buf = Buffer.create 4096 in
  for i = 0 to n - 1 do
    let me = Printf.sprintf "f%d" i in
    let piece =
      if i = n - 1 then
        Printf.sprintf
          "export new %s def L(me) = me?(v) = (io!printi[v] | L[me]) in L[%s]"
          me me
      else
        Printf.sprintf
          "export new %s import f%d from p%d in def L(me, next) = me?(v) = (next![v + 1] | L[me, next]) in L[%s, f%d]"
          me (i + 1) (i + 1) me (i + 1)
    in
    Buffer.add_string buf (Printf.sprintf "site p%d { %s }\n" i piece)
  done;
  Buffer.add_string buf
    (Printf.sprintf "site src { import f0 from p0 in (f0![0] | f0![100]) }\n");
  Buffer.contents buf

let deep_pipeline () =
  let n = 20 in
  let r = run (deep_pipeline_src n) in
  let values =
    List.filter_map
      (fun (_, e) ->
        match e.Output.args with [ Output.Oint v ] -> Some v | _ -> None)
      r.Api.outputs
  in
  check (Alcotest.list Alcotest.int) "both tokens crossed 19 hops"
    [ 19; 119 ] (List.sort compare values);
  check Alcotest.bool "agrees with reference" true
    (Api.agree_with_reference (Api.parse (deep_pipeline_src n)))

let wide_fan_in () =
  (* 30 clients on one server channel; the server counts to 30 *)
  let clients = 30 in
  let src =
    Printf.sprintf
      {| site server {
           def Acc(self, n) =
             self?(k) = (if n == %d then io!printi[n] else Acc[self, n + 1])
           in export new svc (Acc[svc, 1] | nil) }
         %s |}
      clients
      (String.concat "\n"
         (List.init clients (fun i ->
              Printf.sprintf
                "site c%d { import svc from server in new me (svc![me]) }" i)))
  in
  let r = run src in
  check Alcotest.int "one output" 1 (List.length r.Api.outputs);
  (match r.Api.outputs with
  | [ (_, { Output.args = [ Output.Oint n ]; _ }) ] ->
      check Alcotest.int "all arrived" clients n
  | _ -> Alcotest.fail "unexpected outputs");
  check Alcotest.bool "hundreds of packets routed" true (r.Api.packets > 60)

(* the server object must be re-armed per message; check under a tiny
   quantum, which maximizes interleaving *)
let wide_fan_in_tiny_quantum () =
  let src =
    Printf.sprintf
      {| site server {
           def Acc(self, n) =
             self?(k) = (if n == 10 then io!printi[n] else Acc[self, n + 1])
           in export new svc Acc[svc, 1] }
         %s |}
      (String.concat "\n"
         (List.init 10 (fun i ->
              Printf.sprintf
                "site c%d { import svc from server in new me (svc![me]) }" i)))
  in
  let r = run ~config:{ Cluster.default_config with Cluster.quantum = 4 } src in
  check Alcotest.int "one output" 1 (List.length r.Api.outputs)

let long_seti_run () =
  let src =
    {| site seti {
         new database
         def DB(self, n) = self?{ chunk(k) = k![n] | DB[self, n + 1] }
         in export def Install(cl) = Go[cl]
            and Go(cl) = let d = database!chunk[] in (cl![d] | Go[cl])
         in DB[database, 0] }
       site client {
         def L(me) = me?(d) = (io!printi[d] | L[me])
         in new me (L[me] | import Install from seti in Install[me]) } |}
  in
  let r = run ~until:50_000_000 src in
  let n = List.length r.Api.outputs in
  check Alcotest.bool "thousands of chunks" true (n > 500);
  (* the perpetual Go loop must not grow the client's program area:
     the fetched code is linked exactly once *)
  let client = Cluster.site r.Api.cluster "client" in
  let links =
    Tyco_support.Stats.Counter.value
      (Tyco_support.Stats.counter (Site.stats client) "links")
  in
  check Alcotest.int "linked once despite perpetual use" 1 links

let repeated_shipping_bounded_area () =
  (* ship 50 objects carrying the same code: the receiving area links
     once, so program size is bounded *)
  let src =
    {| site server {
         def Feed(slot, n) = if n == 0 then nil
                             else (slot!feed[n] | Feed[slot, n - 1])
         in export new slot Feed[slot, 50] }
       site client {
         import slot from server in
         def Put(n) =
           if n == 0 then nil
           else ((slot?{ feed(v) = (if v == 1 then io!printi[v] else nil) })
                 | Put[n - 1])
         in Put[50] } |}
  in
  let r = run src in
  let server = Cluster.site r.Api.cluster "server" in
  let links =
    Tyco_support.Stats.Counter.value
      (Tyco_support.Stats.counter (Site.stats server) "links")
  in
  let ships =
    Tyco_support.Stats.Counter.value
      (Tyco_support.Stats.counter (Site.stats server) "ships_in")
  in
  check Alcotest.bool "many ships" true (ships >= 50);
  check Alcotest.int "area growth bounded" 1 links;
  check Alcotest.int "one output" 1 (List.length r.Api.outputs)

let large_messages () =
  (* a message with many arguments, across sites *)
  let src =
    {| site a { export new p
         p?(a1, a2, a3, a4, a5, a6, a7, a8) =
           io!printi[a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8] }
       site b { import p from a in p![1, 2, 3, 4, 5, 6, 7, 8] } |}
  in
  let r = run src in
  match r.Api.outputs with
  | [ (_, { Output.args = [ Output.Oint 36 ]; _ }) ] -> ()
  | _ -> Alcotest.fail "8-ary remote message failed"

let deep_recursion_classes () =
  (* 50k instantiations: the run-queue and frame allocation hold up *)
  let src =
    {| def Loop(n) = if n == 0 then io!printi[0] else Loop[n - 1]
       in Loop[50000] |}
  in
  let r = run src in
  check Alcotest.int "terminated" 1 (List.length r.Api.outputs)

let many_channels () =
  (* create 2000 channels in a recursive cascade *)
  let src =
    {| def Mk(n, last) =
         if n == 0 then (last![7] | last?(v) = io!printi[v])
         else new c Mk[n - 1, c]
       in new c0 Mk[2000, c0] |}
  in
  let r = run src in
  check Alcotest.int "heap survived" 1 (List.length r.Api.outputs)

(* Synchronous RPCs between two node domains on loopback, run many
   times: every run must quiesce with every output.  Each side computes
   for most of a pump quantum per message, so a node spends much of the
   run holding a packet it has just read — the window in which a node
   that marked itself busy only at the end of its loop iteration looked
   idle to the coordinator, which then stopped runs with an RPC half
   answered (with that order, one of the first few runs here failed). *)
let tcp_rpc_every_output () =
  let src =
    {| site server {
         def S(self) = self?{ add(a, b, k) = (W[300, k, a + b] | S[self]) }
         and W(n, k, v) = if n == 0 then k![v] else W[n - 1, k, v]
         in export new svc S[svc] }
       site client { import svc from server in
         def Loop(i) =
           if i == 0 then io!printi[0]
           else new k (svc!add[i, 1, k] | k?(v) = (io!printi[v] | D[300, i]))
         and D(n, i) = if n == 0 then Loop[i - 1] else D[n - 1, i]
         in Loop[300] } |}
  in
  let prog = Api.parse src in
  let expected = List.map snd (Api.run_program prog).Api.outputs in
  for run = 1 to 20 do
    let r = Tcp_runner.run_program ~nodes:2 ~timeout_ms:20_000 prog in
    if r.Tcp_runner.timed_out then Alcotest.failf "run %d timed out" run;
    if not (Output.same_multiset expected r.Tcp_runner.outputs) then
      Alcotest.failf "run %d: %d of %d outputs" run
        (List.length r.Tcp_runner.outputs)
        (List.length expected)
  done

let tests =
  [ ("deep pipeline (20 sites)", `Quick, deep_pipeline);
    ("wide fan-in (30 clients)", `Quick, wide_fan_in);
    ("fan-in under tiny quantum", `Quick, wide_fan_in_tiny_quantum);
    ("long SETI run", `Slow, long_seti_run);
    ("repeated shipping bounded area", `Quick, repeated_shipping_bounded_area);
    ("8-ary remote message", `Quick, large_messages);
    ("50k instantiations", `Quick, deep_recursion_classes);
    ("2000-channel cascade", `Quick, many_channels);
    ("tcp rpc: every output, every run", `Slow, tcp_rpc_every_output) ]
