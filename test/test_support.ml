(* Unit and property tests for the support substrate. *)

open Tyco_support

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Fqueue                                                              *)

let fqueue_fifo () =
  let q = List.fold_left (fun q x -> Fqueue.push x q) Fqueue.empty [ 1; 2; 3 ] in
  check (Alcotest.list Alcotest.int) "order" [ 1; 2; 3 ] (Fqueue.to_list q);
  match Fqueue.pop q with
  | Some (1, q') ->
      check (Alcotest.list Alcotest.int) "tail" [ 2; 3 ] (Fqueue.to_list q')
  | _ -> Alcotest.fail "expected pop of 1"

let fqueue_empty () =
  check Alcotest.bool "is_empty" true (Fqueue.is_empty Fqueue.empty);
  check Alcotest.bool "pop" true (Fqueue.pop Fqueue.empty = None);
  check Alcotest.bool "peek" true (Fqueue.peek Fqueue.empty = None)

let fqueue_snapshot () =
  (* pushing onto a snapshot must not disturb the original *)
  let q = Fqueue.of_list [ 1; 2 ] in
  let q2 = Fqueue.push 3 q in
  check (Alcotest.list Alcotest.int) "orig" [ 1; 2 ] (Fqueue.to_list q);
  check (Alcotest.list Alcotest.int) "new" [ 1; 2; 3 ] (Fqueue.to_list q2)

let fqueue_model_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"fqueue = list model" ~count:500
       QCheck2.Gen.(list (pair bool small_nat))
       (fun ops ->
         let q = ref Fqueue.empty and model = ref [] in
         List.for_all
           (fun (is_push, x) ->
             if is_push then begin
               q := Fqueue.push x !q;
               model := !model @ [ x ];
               true
             end
             else
               match (Fqueue.pop !q, !model) with
               | None, [] -> true
               | Some (v, q'), m :: rest ->
                   q := q';
                   model := rest;
                   v = m
               | _ -> false)
           ops
         && Fqueue.to_list !q = !model))

(* ------------------------------------------------------------------ *)
(* Dq                                                                  *)

let dq_ring_wrap () =
  let d = Dq.create ~capacity:2 () in
  for i = 1 to 5 do
    Dq.push_back d i
  done;
  check (Alcotest.list Alcotest.int) "grown" [ 1; 2; 3; 4; 5 ] (Dq.to_list d);
  check (Alcotest.option Alcotest.int) "front" (Some 1) (Dq.pop_front d);
  check (Alcotest.option Alcotest.int) "back" (Some 5) (Dq.pop_back d);
  Dq.push_front d 0;
  check (Alcotest.list Alcotest.int) "push_front" [ 0; 2; 3; 4 ] (Dq.to_list d)

let dq_clear () =
  let d = Dq.of_list [ 1; 2; 3 ] in
  Dq.clear d;
  check Alcotest.bool "empty" true (Dq.is_empty d);
  Dq.push_back d 7;
  check (Alcotest.list Alcotest.int) "reusable" [ 7 ] (Dq.to_list d)

let dq_model_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"dq = list deque model" ~count:500
       QCheck2.Gen.(list (pair (int_range 0 3) small_nat))
       (fun ops ->
         let d = Dq.create () and model = ref [] in
         List.for_all
           (fun (op, x) ->
             match op with
             | 0 ->
                 Dq.push_back d x;
                 model := !model @ [ x ];
                 true
             | 1 ->
                 Dq.push_front d x;
                 model := x :: !model;
                 true
             | 2 -> (
                 match (Dq.pop_front d, !model) with
                 | None, [] -> true
                 | Some v, m :: rest ->
                     model := rest;
                     v = m
                 | _ -> false)
             | _ -> (
                 match (Dq.pop_back d, List.rev !model) with
                 | None, [] -> true
                 | Some v, m :: rest ->
                     model := List.rev rest;
                     v = m
                 | _ -> false))
           ops
         && Dq.to_list d = !model && Dq.length d = List.length !model))

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)

let wire_roundtrip_ints =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wire zint roundtrip" ~count:1000 QCheck2.Gen.int
       (fun n ->
         let enc = Wire.encoder () in
         Wire.zint enc n;
         let dec = Wire.decoder (Wire.to_string enc) in
         Wire.read_zint dec = n && Wire.at_end dec))

let wire_roundtrip_varint =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wire varint roundtrip" ~count:1000
       QCheck2.Gen.(map abs int)
       (fun n ->
         let enc = Wire.encoder () in
         Wire.varint enc n;
         Wire.read_varint (Wire.decoder (Wire.to_string enc)) = n))

let wire_roundtrip_string =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wire string roundtrip" ~count:500
       QCheck2.Gen.string (fun s ->
         let enc = Wire.encoder () in
         Wire.string enc s;
         Wire.read_string (Wire.decoder (Wire.to_string enc)) = s))

let wire_roundtrip_float =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wire float roundtrip" ~count:500
       QCheck2.Gen.float (fun f ->
         let enc = Wire.encoder () in
         Wire.float enc f;
         let f' = Wire.read_float (Wire.decoder (Wire.to_string enc)) in
         Int64.bits_of_float f = Int64.bits_of_float f'))

let wire_roundtrip_list =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wire list+option+pair roundtrip" ~count:300
       QCheck2.Gen.(list (pair (option small_nat) bool))
       (fun xs ->
         let enc = Wire.encoder () in
         Wire.list enc
           (fun enc v -> Wire.pair enc (fun e o -> Wire.option e Wire.varint o) Wire.bool v)
           xs;
         let dec = Wire.decoder (Wire.to_string enc) in
         let xs' =
           Wire.read_list dec (fun d ->
               Wire.read_pair d
                 (fun d -> Wire.read_option d Wire.read_varint)
                 Wire.read_bool)
         in
         xs = xs'))

let wire_malformed () =
  let raises f =
    match f () with
    | exception Wire.Malformed _ -> true
    | _ -> false
  in
  check Alcotest.bool "truncated string" true
    (raises (fun () -> Wire.read_string (Wire.decoder "\x05ab")));
  check Alcotest.bool "truncated varint" true
    (raises (fun () -> Wire.read_varint (Wire.decoder "\x80")));
  check Alcotest.bool "bad bool" true
    (raises (fun () -> Wire.read_bool (Wire.decoder "\x07")));
  check Alcotest.bool "list length lies" true
    (raises (fun () -> Wire.read_list (Wire.decoder "\xff\x01") Wire.read_u8));
  (* nine varint bytes decode to -1 *)
  let minus_one = String.make 8 '\xff' ^ "\x7f" in
  check Alcotest.bool "negative string length" true
    (raises (fun () -> Wire.read_string (Wire.decoder minus_one)));
  check Alcotest.bool "negative list length" true
    (raises (fun () -> Wire.read_list (Wire.decoder minus_one) Wire.read_u8))

let wire_varint_negative () =
  check Alcotest.bool "negative rejected" true
    (match Wire.varint (Wire.encoder ()) (-1) with
    | exception Invalid_argument _ -> true
    | () -> false)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)

let prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let prng_bounds =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"prng int within bounds" ~count:500
       QCheck2.Gen.(pair int (int_range 1 10_000))
       (fun (seed, bound) ->
         let g = Prng.create seed in
         let v = Prng.int g bound in
         v >= 0 && v < bound))

let prng_shuffle_permutation =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"shuffle is a permutation" ~count:300
       QCheck2.Gen.(pair int (small_list small_nat))
       (fun (seed, xs) ->
         let g = Prng.create seed in
         List.sort compare (Prng.shuffle g xs) = List.sort compare xs))

let prng_split_independent () =
  let g = Prng.create 3 in
  let h = Prng.split g in
  let a = Prng.int g 1000 and b = Prng.int h 1000 in
  (* the two streams should not track each other *)
  let diffs = ref (if a <> b then 1 else 0) in
  for _ = 1 to 50 do
    if Prng.int g 1000 <> Prng.int h 1000 then incr diffs
  done;
  check Alcotest.bool "streams diverge" true (!diffs > 10)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let stats_counters () =
  let s = Stats.create () in
  let c = Stats.counter s "x" in
  Stats.Counter.incr c;
  Stats.Counter.add c 4;
  check Alcotest.int "value" 5 (Stats.Counter.value c);
  check Alcotest.bool "idempotent name" true (Stats.counter s "x" == c);
  Stats.reset s;
  check Alcotest.int "reset" 0 (Stats.Counter.value c)

let stats_percentiles () =
  let s = Stats.create () in
  let d = Stats.dist s "lat" in
  for i = 1 to 100 do
    Stats.Dist.add d (float_of_int i)
  done;
  (* linear interpolation between closest ranks: p50 of 1..100 sits
     halfway between the 50th and 51st samples *)
  check (Alcotest.float 0.01) "p50" 50.5 (Stats.Dist.percentile d 0.5);
  check (Alcotest.float 0.01) "p95" 95.05 (Stats.Dist.percentile d 0.95);
  check (Alcotest.float 0.01) "p99" 99.01 (Stats.Dist.percentile d 0.99);
  check (Alcotest.float 0.01) "p999" 99.901 (Stats.Dist.percentile d 0.999);
  check (Alcotest.float 0.01) "p0 is min" 1.0 (Stats.Dist.percentile d 0.);
  check (Alcotest.float 0.01) "p100 is max" 100.0 (Stats.Dist.percentile d 1.);
  check (Alcotest.float 0.01) "mean" 50.5 (Stats.Dist.mean d);
  check (Alcotest.float 0.01) "min" 1.0 (Stats.Dist.min d);
  check (Alcotest.float 0.01) "max" 100.0 (Stats.Dist.max d)

let stats_absorb () =
  let s = Stats.create () in
  let a = Stats.dist s "a" and b = Stats.dist s "b" in
  for i = 1 to 50 do
    Stats.Dist.add a (float_of_int i)
  done;
  for i = 51 to 100 do
    Stats.Dist.add b (float_of_int i)
  done;
  Stats.Dist.absorb a b;
  check Alcotest.int "merged count" 100 (Stats.Dist.count a);
  check (Alcotest.float 0.01) "merged mean" 50.5 (Stats.Dist.mean a);
  check (Alcotest.float 0.01) "merged min" 1.0 (Stats.Dist.min a);
  check (Alcotest.float 0.01) "merged max" 100.0 (Stats.Dist.max a);
  check (Alcotest.float 0.01) "merged p50" 50.5 (Stats.Dist.percentile a 0.5);
  (* the absorbed side is unchanged *)
  check Alcotest.int "source count" 50 (Stats.Dist.count b);
  check (Alcotest.float 0.01) "source min" 51.0 (Stats.Dist.min b)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let metrics_registry () =
  let mx = Metrics.create ~label:"shard0" ~enabled:true () in
  let c = Metrics.counter mx "packets" in
  let g = Metrics.gauge mx "ring_occ" in
  let h = Metrics.histogram mx "lat_ns" in
  Metrics.incr c;
  Metrics.add c 4;
  Metrics.set g 3;
  Metrics.set g 7;
  Metrics.set g 2;
  Metrics.observe_int h 100;
  Metrics.observe_int h 200;
  check Alcotest.int "counter" 5 (Metrics.counter_value c);
  check Alcotest.int "gauge last value" 2 (Metrics.gauge_value g);
  check Alcotest.int "gauge hiwater" 7 (Metrics.gauge_hiwater g);
  check Alcotest.int "histogram count" 2
    (Stats.Dist.count (Metrics.histogram_dist h));
  (* idempotent by name *)
  Metrics.incr (Metrics.counter mx "packets");
  check Alcotest.int "same counter by name" 6 (Metrics.value mx "packets");
  (* merge: counters sum, gauges sum with max'd hiwater, histos absorb *)
  let my = Metrics.create ~label:"shard1" ~enabled:true () in
  Metrics.add (Metrics.counter my "packets") 10;
  Metrics.set (Metrics.gauge my "ring_occ") 5;
  Metrics.observe_int (Metrics.histogram my "lat_ns") 300;
  let into = Metrics.create ~enabled:true () in
  Metrics.merge_into ~into mx;
  Metrics.merge_into ~into my;
  check Alcotest.int "merged counter" 16 (Metrics.value into "packets");
  let mg = Metrics.gauge into "ring_occ" in
  check Alcotest.int "merged gauge value" 7 (Metrics.gauge_value mg);
  check Alcotest.int "merged gauge hiwater" 7 (Metrics.gauge_hiwater mg);
  check Alcotest.int "merged histogram count" 3
    (Stats.Dist.count (Metrics.histogram_dist (Metrics.histogram into "lat_ns")));
  (* sources unchanged by the merge *)
  check Alcotest.int "source counter unchanged" 6 (Metrics.value mx "packets");
  (* exposition *)
  let prom = Metrics.to_prom into in
  let has hay sub =
    let nh = String.length hay and nn = String.length sub in
    let rec go i = i + nn <= nh && (String.sub hay i nn = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "prom counter" true (has prom "tyco_packets 16");
  check Alcotest.bool "prom gauge hiwater" true
    (has prom "tyco_ring_occ_hiwater 7");
  check Alcotest.bool "prom quantile" true (has prom "quantile=\"0.999\"");
  let json = Metrics.to_json ~extra:[ ("kind", "\"final\"") ] into in
  check Alcotest.bool "json extra leads" true
    (String.length json > 16 && String.sub json 0 16 = "{\"kind\":\"final\",");
  check Alcotest.bool "json counter" true (has json "\"packets\":16");
  check Alcotest.bool "json percentile" true (has json "\"p999\":")

let metrics_disabled_dummies () =
  check Alcotest.bool "disabled" false (Metrics.enabled Metrics.disabled);
  let c = Metrics.counter Metrics.disabled "x" in
  Metrics.incr c;
  Metrics.add c 100;
  check Alcotest.int "dummy counter never moves" 0 (Metrics.counter_value c);
  let g = Metrics.gauge Metrics.disabled "y" in
  Metrics.set g 9;
  check Alcotest.int "dummy gauge never moves" 0 (Metrics.gauge_value g);
  let h = Metrics.histogram Metrics.disabled "z" in
  Metrics.observe h 1.0;
  check Alcotest.int "dummy histogram never fills" 0
    (Stats.Dist.count (Metrics.histogram_dist h));
  check Alcotest.bool "nothing registered" true
    (Metrics.counters Metrics.disabled = []
    && Metrics.gauges Metrics.disabled = []
    && Metrics.histograms Metrics.disabled = []);
  (* merging into/from the disabled registry is a no-op *)
  let live = Metrics.create ~enabled:true () in
  Metrics.add (Metrics.counter live "n") 3;
  Metrics.merge_into ~into:live Metrics.disabled;
  Metrics.merge_into ~into:Metrics.disabled live;
  check Alcotest.int "live unchanged" 3 (Metrics.value live "n");
  check Alcotest.int "disabled unchanged" 0 (Metrics.value Metrics.disabled "n")

let stats_empty_percentile () =
  let s = Stats.create () in
  let d = Stats.dist s "empty" in
  check Alcotest.bool "raises" true
    (match Stats.Dist.percentile d 0.5 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check Alcotest.bool "summary_opt total" true
    (Stats.Dist.summary_opt d = None)

(* Past the reservoir cap: n/sum/min/max stay exact (streamed), the
   retained sample set is bounded, and percentiles remain sane
   estimates. *)
let stats_reservoir () =
  let s = Stats.create () in
  let d = Stats.dist s "big" in
  let n = 100_000 in
  for i = 1 to n do
    Stats.Dist.add d (float_of_int i)
  done;
  check Alcotest.int "exact count" n (Stats.Dist.count d);
  check (Alcotest.float 0.01) "exact mean"
    (float_of_int (n + 1) /. 2.)
    (Stats.Dist.mean d);
  check (Alcotest.float 0.01) "exact min" 1.0 (Stats.Dist.min d);
  check (Alcotest.float 0.01) "exact max" (float_of_int n) (Stats.Dist.max d);
  check Alcotest.bool "retention bounded" true
    (Array.length (Stats.Dist.samples d) <= 8192);
  let p50 = Stats.Dist.percentile d 0.5 in
  check Alcotest.bool "p50 estimated from reservoir" true
    (p50 > float_of_int n *. 0.4 && p50 < float_of_int n *. 0.6)

let stats_reservoir_deterministic () =
  let fill () =
    let s = Stats.create () in
    let d = Stats.dist s "big" in
    for i = 1 to 50_000 do
      Stats.Dist.add d (float_of_int i)
    done;
    Stats.Dist.samples d
  in
  check Alcotest.bool "same retained samples across runs" true
    (fill () = fill ())

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let heap_sorted_drain =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"heap drains sorted" ~count:300
       QCheck2.Gen.(list small_nat)
       (fun keys ->
         let h = Heap.create () in
         List.iter (fun k -> Heap.push h k k) keys;
         let rec drain acc =
           match Heap.pop h with
           | None -> List.rev acc
           | Some (k, _) -> drain (k :: acc)
         in
         drain [] = List.sort compare keys))

let heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 5 v) [ "a"; "b"; "c" ];
  Heap.push h 1 "first";
  let order = List.init 4 (fun _ -> snd (Option.get (Heap.pop h))) in
  check (Alcotest.list Alcotest.string) "stable ties"
    [ "first"; "a"; "b"; "c" ] order

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)

let vec_basic () =
  let v = Vec.create () in
  check Alcotest.int "idx0" 0 (Vec.push v "a");
  check Alcotest.int "idx1" 1 (Vec.push v "b");
  check Alcotest.string "get" "b" (Vec.get v 1);
  Vec.set v 0 "z";
  check (Alcotest.list Alcotest.string) "list" [ "z"; "b" ] (Vec.to_list v);
  check Alcotest.bool "oob" true
    (match Vec.get v 5 with exception Invalid_argument _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Ids / Netref                                                        *)

module SiteId = Ids.Make (struct let name = "site" end)

let ids_fresh () =
  let g = SiteId.generator () in
  let a = SiteId.fresh g and b = SiteId.fresh g in
  check Alcotest.bool "distinct" false (SiteId.equal a b);
  check Alcotest.int "roundtrip" (SiteId.to_int a)
    (SiteId.to_int (SiteId.of_int (SiteId.to_int a)))

let netref_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"netref wire roundtrip" ~count:300
       QCheck2.Gen.(triple small_nat small_nat bool)
       (fun (h, s, is_class) ->
         let r =
           Netref.make
             ~kind:(if is_class then Netref.Class else Netref.Channel)
             ~heap_id:h ~site_id:s ~ip:(h + s)
         in
         let enc = Wire.encoder () in
         Netref.encode enc r;
         Netref.equal r (Netref.decode (Wire.decoder (Wire.to_string enc)))))

let tests =
  [ ("fqueue fifo", `Quick, fqueue_fifo);
    ("fqueue empty", `Quick, fqueue_empty);
    ("fqueue snapshot", `Quick, fqueue_snapshot);
    fqueue_model_test;
    ("dq ring wrap+grow", `Quick, dq_ring_wrap);
    ("dq clear", `Quick, dq_clear);
    dq_model_test;
    wire_roundtrip_ints;
    wire_roundtrip_varint;
    wire_roundtrip_string;
    wire_roundtrip_float;
    wire_roundtrip_list;
    ("wire malformed inputs", `Quick, wire_malformed);
    ("wire varint negative", `Quick, wire_varint_negative);
    ("prng deterministic", `Quick, prng_deterministic);
    prng_bounds;
    prng_shuffle_permutation;
    ("prng split independence", `Quick, prng_split_independent);
    ("stats counters", `Quick, stats_counters);
    ("stats percentiles", `Quick, stats_percentiles);
    ("stats absorb", `Quick, stats_absorb);
    ("metrics registry", `Quick, metrics_registry);
    ("metrics disabled dummies", `Quick, metrics_disabled_dummies);
    ("stats empty percentile", `Quick, stats_empty_percentile);
    ("stats reservoir bounded+exact", `Quick, stats_reservoir);
    ("stats reservoir deterministic", `Quick, stats_reservoir_deterministic);
    heap_sorted_drain;
    ("heap fifo ties", `Quick, heap_fifo_ties);
    ("vec basic", `Quick, vec_basic);
    ("ids fresh/roundtrip", `Quick, ids_fresh);
    netref_roundtrip ]
