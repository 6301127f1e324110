(* The multi-domain engine (Par_runner) against the deterministic
   scheduler.

   Three contracts from DESIGN.md §12:
   - [--domains 1] is the deterministic single-domain scheduler,
     bit-identical to a plain run (timestamps included) — pinned here;
   - [--domains N] (N > 1) preserves output {e multisets} but not
     timestamps (domain interleaving);
   - no shared mutable state crosses domains outside the SPSC rings
     and the end-of-run merge — observable as [clean = true] with
     [ring_pushed = ring_popped] and per-shard site ownership by the
     placement map ([ip mod domains] under the default [Mod] policy;
     [Greedy]/[Profile] sweeps pinned below).

   TYCO_TEST_DOMAINS=N overrides the domain counts the equivalence
   tests sweep (CI runs the suite a second time with it set to 4). *)

open Dityco
module Spsc = Tyco_support.Spsc_ring

let check = Alcotest.check

let domain_counts =
  match Sys.getenv_opt "TYCO_TEST_DOMAINS" with
  | Some s -> [ int_of_string s ]
  | None -> [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Spsc_ring                                                           *)

let ring_fifo () =
  let r = Spsc.create ~capacity:8 in
  for i = 1 to 5 do
    check Alcotest.bool "push" true (Spsc.try_push r i)
  done;
  check Alcotest.int "length" 5 (Spsc.length r);
  for i = 1 to 5 do
    check Alcotest.(option int) "fifo" (Some i) (Spsc.try_pop r)
  done;
  check Alcotest.(option int) "empty" None (Spsc.try_pop r);
  check Alcotest.bool "is_empty" true (Spsc.is_empty r)

let ring_bounded () =
  let r = Spsc.create ~capacity:4 in
  for i = 1 to 4 do
    check Alcotest.bool "fills" true (Spsc.try_push r i)
  done;
  check Alcotest.bool "full rejects" false (Spsc.try_push r 5);
  check Alcotest.(option int) "pop" (Some 1) (Spsc.try_pop r);
  check Alcotest.bool "slot freed" true (Spsc.try_push r 5)

let ring_wraparound () =
  (* capacity rounds up to a power of two; drive several times around *)
  let r = Spsc.create ~capacity:3 in
  check Alcotest.int "rounded capacity" 4 (Spsc.capacity r);
  for round = 0 to 9 do
    for i = 0 to 2 do
      check Alcotest.bool "push" true (Spsc.try_push r ((round * 3) + i))
    done;
    for i = 0 to 2 do
      check Alcotest.(option int) "pop" (Some ((round * 3) + i))
        (Spsc.try_pop r)
    done
  done;
  check Alcotest.int "pushed" 30 (Spsc.pushed r);
  check Alcotest.int "popped" 30 (Spsc.popped r)

let ring_two_domains () =
  (* one producer domain, one consumer domain, 10k items through a
     16-slot ring: everything arrives, in order *)
  let n = 10_000 in
  let r = Spsc.create ~capacity:16 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          while not (Spsc.try_push r i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let received = ref 0 in
  let ordered = ref true in
  while !received < n do
    match Spsc.try_pop r with
    | Some v ->
        if v <> !received + 1 then ordered := false;
        received := v
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check Alcotest.bool "in order" true !ordered;
  check Alcotest.bool "drained" true (Spsc.is_empty r)

(* ------------------------------------------------------------------ *)
(* Engine equivalence                                                  *)

(* Multi-site programs with deterministic output multisets; the
   placement spreads sites so every domain count exercises handoffs. *)
let corpus =
  [ ( "rpc",
      {| site server {
           def Serve(svc) = svc?{ add(a, b, k) = (k![a + b] | Serve[svc]) }
           in export new svc Serve[svc] }
         site c1 { import svc from server in
                   new k (svc!add[1, 2, k] | k?(v) = io!printi[v]) }
         site c2 { import svc from server in
                   new k (svc!add[10, 20, k] | k?(v) = io!printi[v]) }
         site c3 { import svc from server in
                   new k (svc!add[100, 200, k] | k?(v) = io!printi[v]) } |} );
    ( "pipeline",
      {| site a { import mid from b in export new left
           def L() = left?(v) = (mid![v * 2] | L[])
           in L[] }
         site b { import right from c in export new mid
           def M() = mid?(v) = (right![v + 1] | M[])
           in M[] }
         site c { export new right
           def R() = right?(v) = (io!printi[v] | R[])
           in R[] }
         site feeder { import left from a in
                       (left![1] | left![2] | left![3]) } |} );
    ( "fanout",
      {| site hub {
           def Pool(self, left) =
             self?{ take(k) = (if left == 0 then (k!stop[] | Pool[self, left])
                               else (k!item[left] | Pool[self, left - 1])) }
           in export new pool Pool[pool, 12] }
         site w0 { import pool from hub in
           def Work() = new k (pool!take[k]
             | k?{ item(v) = Work[], stop() = io!printi[0] })
           in Work[] }
         site w1 { import pool from hub in
           def Work() = new k (pool!take[k]
             | k?{ item(v) = Work[], stop() = io!printi[1] })
           in Work[] }
         site w2 { import pool from hub in
           def Work() = new k (pool!take[k]
             | k?{ item(v) = Work[], stop() = io!printi[2] })
           in Work[] } |} ) ]

let placement_spread name =
  (* fixed placement spreading each program's sites over nodes 0-3, so
     every domain count in [domain_counts] sees cross-shard traffic *)
  match name with
  | "hub" | "server" | "a" -> 0
  | "w0" | "c1" | "b" -> 1
  | "w1" | "c2" | "c" -> 2
  | "w2" | "c3" | "feeder" -> 3
  | other -> Hashtbl.hash other mod 8

let config = { Cluster.default_config with Cluster.nodes = 8 }

let event_multiset outputs =
  List.sort compare
    (List.map (fun (_ts, e) -> Format.asprintf "%a" Output.pp_event e) outputs)

let domains1_bit_identical () =
  List.iter
    (fun (name, src) ->
      let prog = Api.parse src in
      let det =
        Api.run_program ~config ~placement:placement_spread prog
      in
      let par =
        Api.run_parallel ~config ~placement:placement_spread ~domains:1 prog
      in
      if det.Api.outputs <> par.Par_runner.outputs then
        Alcotest.failf "%s: --domains 1 diverged from the plain run" name;
      check Alcotest.int
        (name ^ " virtual time identical")
        det.Api.virtual_ns par.Par_runner.virtual_ns)
    corpus

let multiset_equivalence () =
  List.iter
    (fun (name, src) ->
      let prog = Api.parse src in
      let det =
        Api.run_program ~config ~placement:placement_spread prog
      in
      let reference = event_multiset det.Api.outputs in
      List.iter
        (fun d ->
          let par =
            Api.run_parallel ~config ~placement:placement_spread ~domains:d
              prog
          in
          check
            Alcotest.(list string)
            (Printf.sprintf "%s at %d domains" name d)
            reference
            (event_multiset par.Par_runner.outputs);
          if par.Par_runner.timed_out then
            Alcotest.failf "%s: timed out at %d domains" name d)
        domain_counts)
    corpus

let shipped_samples_equivalence () =
  (* the examples corpus, minus seti.tyco (perpetual: it exhausts any
     event budget by design, on either engine) *)
  let dir = "../examples/programs" in
  match Sys.readdir dir with
  | exception Sys_error _ -> Alcotest.skip ()
  | entries ->
      Array.to_list entries
      |> List.filter (fun f ->
             Filename.check_suffix f ".tyco" && f <> "seti.tyco")
      |> List.iter (fun f ->
             let path = Filename.concat dir f in
             let ic = open_in_bin path in
             let src =
               Fun.protect
                 ~finally:(fun () -> close_in_noerr ic)
                 (fun () -> really_input_string ic (in_channel_length ic))
             in
             let prog = Api.parse ~file:path src in
             let det = Api.run_program prog in
             let reference = event_multiset det.Api.outputs in
             List.iter
               (fun d ->
                 let par = Api.run_parallel ~domains:d prog in
                 check
                   Alcotest.(list string)
                   (Printf.sprintf "%s at %d domains" f d)
                   reference
                   (event_multiset par.Par_runner.outputs))
               domain_counts)

(* ------------------------------------------------------------------ *)
(* Placement maps                                                      *)

let placement_map_properties () =
  let check_map ~domains ~label map nnodes =
    check Alcotest.int (label ^ ": total") nnodes (Array.length map);
    Array.iteri
      (fun i s ->
        if s < 0 || s >= domains then
          Alcotest.failf "%s: node %d mapped to shard %d (domains=%d)" label
            i s domains)
      map;
    if nnodes > 0 then
      check Alcotest.int (label ^ ": node 0 pinned to shard 0") 0 map.(0)
  in
  (* every policy, across nodes < domains, = domains, >> domains *)
  List.iter
    (fun (nnodes, domains) ->
      let site_counts = Array.init nnodes (fun i -> 1 + (i * 7 mod 5)) in
      List.iter
        (fun (pname, policy) ->
          let label = Printf.sprintf "%s n=%d d=%d" pname nnodes domains in
          let map = Placement.assign ~domains ~site_counts policy in
          check_map ~domains ~label map nnodes;
          (* deterministic: same inputs, same map *)
          check
            Alcotest.(array int)
            (label ^ ": deterministic") map
            (Placement.assign ~domains ~site_counts policy))
        [ ("mod", Placement.Mod);
          ("greedy", Placement.Greedy);
          ( "profile",
            Placement.Profile
              (Array.init nnodes (fun i -> float_of_int (1 + (i mod 3)))) ) ])
    [ (2, 8); (4, 4); (8, 4); (32, 4); (64, 2) ];
  (* greedy actually balances a skew that mod packs badly: heavy nodes
     0 and 4 collide at ip mod 4 *)
  let site_counts = [| 12; 3; 2; 2; 6; 2; 1; 4 |] in
  let weights = Array.map float_of_int site_counts in
  let imb policy =
    let map = Placement.assign ~domains:4 ~site_counts policy in
    Placement.imbalance (Placement.shard_weights ~domains:4 ~map weights)
  in
  if imb Placement.Greedy >= imb Placement.Mod then
    Alcotest.failf "greedy imbalance %.3f not below mod %.3f"
      (imb Placement.Greedy) (imb Placement.Mod);
  (* profile length mismatch is loud *)
  (match
     Placement.assign ~domains:2 ~site_counts:[| 1; 1 |]
       (Placement.Profile [| 1.0 |])
   with
  | _ -> Alcotest.fail "short profile accepted"
  | exception Invalid_argument _ -> ());
  match Placement.assign ~domains:0 ~site_counts:[| 1 |] Placement.Mod with
  | _ -> Alcotest.fail "domains=0 accepted"
  | exception Invalid_argument _ -> ()

(* Output-multiset equivalence under the load-aware policies, across
   node counts below, equal to, and far above the domain count. *)
let policy_equivalence () =
  List.iter
    (fun (shape, nnodes, ds) ->
      let config = { Cluster.default_config with Cluster.nodes = nnodes } in
      let spread name =
        (* reuse the 0-3 spread, scaled into [0, nnodes): distinct
           sites stay on distinct nodes whenever nnodes >= 4 *)
        placement_spread name * max 1 (nnodes / 4) mod nnodes
      in
      let profile = Array.init nnodes (fun i -> float_of_int (1 + (i mod 7))) in
      List.iter
        (fun (name, src) ->
          let prog = Api.parse src in
          let det = Api.run_program ~config ~placement:spread prog in
          let reference = event_multiset det.Api.outputs in
          List.iter
            (fun d ->
              List.iter
                (fun (pname, policy) ->
                  let par =
                    Api.run_parallel ~config ~placement:spread ~policy
                      ~domains:d prog
                  in
                  let label =
                    Printf.sprintf "%s %s %s at %d domains" name shape pname d
                  in
                  check
                    Alcotest.(list string)
                    label reference
                    (event_multiset par.Par_runner.outputs);
                  if par.Par_runner.timed_out then
                    Alcotest.failf "%s: timed out" label;
                  check Alcotest.bool (label ^ " clean") true
                    par.Par_runner.clean)
                [ ("greedy", Placement.Greedy);
                  ("profile", Placement.Profile profile) ])
            ds)
        corpus)
    [ ("nodes=8", 8, [ 2; 4; 8 ]);
      ("nodes<domains", 3, [ 4; 8 ]);
      ("nodes>>domains", 32, [ 2; 4 ]) ]

(* ------------------------------------------------------------------ *)
(* Sharding invariants                                                 *)

let sharding_smoke () =
  let _, src = List.nth corpus 2 in
  let prog = Api.parse src in
  let d = 4 in
  let par =
    Api.run_parallel ~config ~placement:placement_spread ~domains:d prog
  in
  check Alcotest.bool "clean quiescence" true par.Par_runner.clean;
  check Alcotest.bool "not timed out" false par.Par_runner.timed_out;
  check Alcotest.int "rings fully drained" par.Par_runner.ring_pushed
    par.Par_runner.ring_popped;
  check Alcotest.int "every shard accounted" d
    (Array.length par.Par_runner.sites_per_shard);
  (* every site lives on the shard its node ip maps to: the per-shard
     totals must agree with recomputing ip mod d over the placement *)
  let expected = Array.make d 0 in
  List.iter
    (fun name ->
      let ip = placement_spread name in
      expected.(ip mod d) <- expected.(ip mod d) + 1)
    [ "hub"; "w0"; "w1"; "w2" ];
  check
    Alcotest.(array int)
    "sites confined by ip mod domains" expected par.Par_runner.sites_per_shard;
  check Alcotest.bool "cross-shard traffic happened" true
    (par.Par_runner.handoffs > 0)

(* Observability merge: shard stats account for the whole run, the
   metrics registry folds every shard's instruments, and the snapshot
   hook fires from the coordinator (interval 0 = every poll). *)
let shard_stats_and_metrics () =
  let _, src = List.nth corpus 2 in
  let prog = Api.parse src in
  let d = 4 in
  let snapshots = ref [] in
  let par =
    Api.run_parallel
      ~config:{ config with Cluster.metrics = true }
      ~placement:placement_spread ~domains:d
      ~on_snapshot:(fun s -> snapshots := s :: !snapshots)
      ~snapshot_every_ms:0 prog
  in
  check Alcotest.bool "clean quiescence" true par.Par_runner.clean;
  let st = par.Par_runner.shard_stats in
  check Alcotest.int "one stat per shard" d (Array.length st);
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 st in
  check Alcotest.int "events accounted" par.Par_runner.events
    (sum (fun s -> s.Par_runner.ss_events));
  check Alcotest.int "packets accounted" par.Par_runner.packets
    (sum (fun s -> s.Par_runner.ss_packets));
  check Alcotest.int "ring pushes accounted" par.Par_runner.ring_pushed
    (sum (fun s -> s.Par_runner.ss_ring_pushed));
  check Alcotest.int "ring pops accounted" par.Par_runner.ring_popped
    (sum (fun s -> s.Par_runner.ss_ring_popped));
  check Alcotest.int "parks accounted" par.Par_runner.parks
    (sum (fun s -> s.Par_runner.ss_parks));
  check Alcotest.bool "hiwater seen on some shard" true
    (Array.exists (fun s -> s.Par_runner.ss_ring_hiwater > 0) st);
  (* the merged registry agrees with the summed shard stats *)
  let mx = par.Par_runner.metrics in
  check Alcotest.bool "registry enabled" true
    (Tyco_support.Metrics.enabled mx);
  check Alcotest.int "merged packets counter" par.Par_runner.packets
    (Tyco_support.Metrics.value mx "packets");
  check Alcotest.int "merged handoffs counter" par.Par_runner.handoffs
    (Tyco_support.Metrics.value mx "handoffs_in");
  check Alcotest.int "merged parks counter" par.Par_runner.parks
    (Tyco_support.Metrics.value mx "parks");
  check Alcotest.bool "snapshots fired" true (!snapshots <> []);
  List.iter
    (fun (s : Par_runner.snapshot) ->
      check Alcotest.int "snapshot sees every shard" d
        (Array.length s.Par_runner.sn_executed))
    !snapshots;
  (* the sites list spans every shard's sites, post-join *)
  check Alcotest.int "all sites surfaced" 4
    (List.length par.Par_runner.sites);
  (* the par report renders it all as one valid JSON object *)
  let json = Report.par_json par in
  let has hay sub =
    let nh = String.length hay and nn = String.length sub in
    let rec go i = i + nn <= nh && (String.sub hay i nn = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "per-shard section" true (has json "\"shards\":[");
  check Alcotest.bool "ring hiwater key" true (has json "\"ring_hiwater\":");
  check Alcotest.bool "latency breakdown" true
    (has json "\"latency_breakdown\"");
  check Alcotest.bool "p999 key" true (has json "\"p999\":")

(* Handoff batching: ring counters count batches, handoffs count the
   envelopes they carried, and the reported fill mean ties the two
   together; placement weights surface in both the result and the
   JSON report. *)
let handoff_batching_invariants () =
  let _, src = List.nth corpus 0 in
  let prog = Api.parse src in
  let d = 4 in
  let par =
    Api.run_parallel
      ~config:{ config with Cluster.metrics = true }
      ~placement:placement_spread ~domains:d prog
  in
  check Alcotest.bool "clean quiescence" true par.Par_runner.clean;
  check Alcotest.int "batches balanced" par.Par_runner.ring_pushed
    par.Par_runner.ring_popped;
  check Alcotest.bool "cross-shard traffic happened" true
    (par.Par_runner.handoffs > 0);
  (* every batch carries at least one envelope, so pushes can never
     exceed envelopes; the fill mean reconciles the two exactly *)
  check Alcotest.bool "batches never exceed envelopes" true
    (par.Par_runner.ring_pushed <= par.Par_runner.handoffs);
  check Alcotest.bool "fill mean at least 1" true
    (par.Par_runner.ring_batch_fill_mean >= 1.0);
  check Alcotest.int "fill mean reconciles batches with envelopes"
    par.Par_runner.handoffs
    (int_of_float
       (par.Par_runner.ring_batch_fill_mean
        *. float_of_int par.Par_runner.ring_pushed
       +. 0.5));
  (* placement weights: one per shard, summing to the site count (the
     static weight under the default Mod policy), mirrored per shard *)
  check Alcotest.int "one weight per shard" d
    (Array.length par.Par_runner.placement_weights);
  let wsum = Array.fold_left ( +. ) 0. par.Par_runner.placement_weights in
  check Alcotest.int "weights sum to the site count" 4
    (int_of_float (wsum +. 0.5));
  Array.iteri
    (fun i st ->
      check
        Alcotest.(float 1e-9)
        (Printf.sprintf "shard %d weight mirrored" i)
        par.Par_runner.placement_weights.(i)
        st.Par_runner.ss_weight)
    par.Par_runner.shard_stats;
  (* measured node weights: one per node, positive in total *)
  check Alcotest.int "one measured weight per node" config.Cluster.nodes
    (Array.length par.Par_runner.node_weights);
  check Alcotest.bool "instructions attributed to nodes" true
    (Array.fold_left ( +. ) 0. par.Par_runner.node_weights > 0.);
  (* and it all surfaces in the JSON report *)
  let json = Report.par_json par in
  let has hay sub =
    let nh = String.length hay and nn = String.length sub in
    let rec go i = i + nn <= nh && (String.sub hay i nn = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "fill mean key" true
    (has json "\"ring_batch_fill_mean\":");
  check Alcotest.bool "placement weights key" true
    (has json "\"placement_weights\":[");
  check Alcotest.bool "node weights key" true (has json "\"node_weights\":[");
  check Alcotest.bool "per-shard weight key" true (has json "\"weight\":")

(* ------------------------------------------------------------------ *)
(* Dynamic rebalancing (PR 10)                                         *)

let choose_migration_properties () =
  (* balanced loads: never migrates *)
  check
    Alcotest.(option (pair int int))
    "balanced -> None" None
    (Placement.choose_migration ~domains:2 ~map:[| 0; 1; 0; 1 |]
       ~loads:[| 2.; 2.; 2.; 2. |] ~threshold:1.2);
  (* a hot shard with a movable node: the node nearest half the
     hot-cold gap goes to the coldest shard *)
  let map = [| 0; 0; 0; 1 |] and loads = [| 0.; 6.; 2.; 1. |] in
  check
    Alcotest.(option (pair int int))
    "skew -> best-fit node to coldest shard"
    (Some (2, 1))
    (Placement.choose_migration ~domains:2 ~map ~loads ~threshold:1.2);
  (* hysteresis: the same skew under a high threshold stays put *)
  check
    Alcotest.(option (pair int int))
    "high threshold -> None" None
    (Placement.choose_migration ~domains:2 ~map ~loads ~threshold:3.0);
  (* node 0 (name-service host) is pinned: a hot shard whose only
     loaded node is node 0 yields no move *)
  check
    Alcotest.(option (pair int int))
    "node 0 never migrates" None
    (Placement.choose_migration ~domains:2 ~map:[| 0; 1 |]
       ~loads:[| 10.; 1. |] ~threshold:1.2);
  (* a node whose load exceeds the whole gap would just swap the
     imbalance around: not proposed *)
  check
    Alcotest.(option (pair int int))
    "oversized node stays" None
    (Placement.choose_migration ~domains:2 ~map:[| 0; 0; 1 |]
       ~loads:[| 0.; 10.; 1. |] ~threshold:1.2);
  match
    Placement.choose_migration ~domains:2 ~map:[| 0; 1 |] ~loads:[| 1. |]
      ~threshold:1.2
  with
  | _ -> Alcotest.fail "length mismatch accepted"
  | exception Invalid_argument _ -> ()

(* Output multisets are preserved with the rebalancer armed (aggressive
   interval and threshold), across the domain sweep plus 8. *)
let rebalance_equivalence () =
  let rb = { Par_runner.rb_interval_ms = 1; rb_threshold = 1.01 } in
  let ds = List.sort_uniq compare (8 :: domain_counts) in
  List.iter
    (fun (name, src) ->
      let prog = Api.parse src in
      let det = Api.run_program ~config ~placement:placement_spread prog in
      let reference = event_multiset det.Api.outputs in
      List.iter
        (fun d ->
          let par =
            Api.run_parallel ~config ~placement:placement_spread ~domains:d
              ~rebalance:rb prog
          in
          let label = Printf.sprintf "%s rebalancing at %d domains" name d in
          check
            Alcotest.(list string)
            label reference
            (event_multiset par.Par_runner.outputs);
          check Alcotest.bool (label ^ " clean") true par.Par_runner.clean;
          check Alcotest.int (label ^ " rings drained")
            par.Par_runner.ring_pushed par.Par_runner.ring_popped;
          check Alcotest.int (label ^ " no dead letters") 0
            par.Par_runner.dead_letters)
        ds)
    corpus

(* The deterministic migration hook: both forced moves must install
   (each holds a quiescence unit from ship to install, so a clean run
   cannot terminate around them), with no envelope lost or duplicated
   anywhere — the multiset survives a node changing shards mid-run. *)
let forced_migration_accounting () =
  List.iter
    (fun (name, src) ->
      let prog = Api.parse src in
      let det = Api.run_program ~config ~placement:placement_spread prog in
      let reference = event_multiset det.Api.outputs in
      (* nodes 1 and 2 start on shards 1 and 2 under Mod at 4 domains,
         so both commands post before the domains spawn *)
      let par =
        Api.run_parallel ~config ~placement:placement_spread ~domains:4
          ~force_migrations:[ (1, 3); (2, 0) ]
          prog
      in
      let label = Printf.sprintf "%s forced migration" name in
      check Alcotest.int (label ^ ": both moves installed") 2
        par.Par_runner.migrations;
      check Alcotest.bool (label ^ ": clean") true par.Par_runner.clean;
      check Alcotest.bool (label ^ ": not timed out") false
        par.Par_runner.timed_out;
      check Alcotest.int (label ^ ": rings drained")
        par.Par_runner.ring_pushed par.Par_runner.ring_popped;
      check Alcotest.int (label ^ ": no dead letters") 0
        par.Par_runner.dead_letters;
      check Alcotest.bool (label ^ ": migration time measured") true
        (par.Par_runner.migration_ns > 0);
      check Alcotest.bool (label ^ ": forwarded counter sane") true
        (par.Par_runner.forwarded_envelopes >= 0);
      check
        Alcotest.(list string)
        (label ^ ": multiset preserved")
        reference
        (event_multiset par.Par_runner.outputs);
      (* the counters surface in the JSON report *)
      let json = Report.par_json par in
      let has hay sub =
        let nh = String.length hay and nn = String.length sub in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = sub || go (i + 1))
        in
        go 0
      in
      check Alcotest.bool (label ^ ": migrations key") true
        (has json "\"migrations\":2");
      check Alcotest.bool (label ^ ": forwarded key") true
        (has json "\"forwarded_envelopes\":"))
    corpus;
  (* out-of-range entries are loud: node 0 is pinned, shards bounded *)
  let prog = Api.parse (snd (List.hd corpus)) in
  List.iter
    (fun bad ->
      match
        Api.run_parallel ~config ~placement:placement_spread ~domains:2
          ~force_migrations:[ bad ] prog
      with
      | _ -> Alcotest.fail "bad force_migrations accepted"
      | exception Api.Error (Api.Runtime_error _) -> ())
    [ (0, 1); (-1, 1); (999, 1); (1, 2); (1, -1) ]

(* PR 10 budget fix: [max_events] bounds the event count summed over
   all shards, not each shard separately.  A cap set between the
   per-shard maximum and the whole-run total must now trip — under the
   old per-shard check it silently admitted up to domains * max_events
   events. *)
let global_event_budget () =
  let _, src = List.nth corpus 2 in
  let prog = Api.parse src in
  let free =
    Api.run_parallel ~config ~placement:placement_spread ~domains:4 prog
  in
  let total = free.Par_runner.events in
  let per_shard_max =
    Array.fold_left
      (fun acc s -> max acc s.Par_runner.ss_events)
      0 free.Par_runner.shard_stats
  in
  let cap = total * 2 / 3 in
  (* the regression is only pinned if the cap sits strictly between the
     two semantics *)
  check Alcotest.bool "cap above any single shard" true (per_shard_max < cap);
  check Alcotest.bool "cap below the global total" true (cap < total);
  (match
     Api.run_parallel ~config ~placement:placement_spread ~domains:4
       ~max_events:cap prog
   with
  | _ -> Alcotest.fail "global budget not enforced"
  | exception Api.Error (Api.Runtime_error m) ->
      let has sub =
        let nh = String.length m and nn = String.length sub in
        let rec go i = i + nn <= nh && (String.sub m i nn = sub || go (i + 1)) in
        go 0
      in
      (* satellite 2 rides along: the failure crossed the domain
         boundary and the join names the shard that raised it *)
      check Alcotest.bool "names the failing shard" true (has "shard ");
      check Alcotest.bool "mirrors the Simnet livelock guard" true
        (has "exceeded"));
  (* a cap at the measured total passes: the bound is not off by one
     shard's worth *)
  let again =
    Api.run_parallel ~config ~placement:placement_spread ~domains:4
      ~max_events:(total * 2) prog
  in
  check Alcotest.bool "generous cap still quiesces" true
    again.Par_runner.clean;
  (* and --domains 1 keeps the Simnet semantics for the same cap *)
  match
    Api.run_parallel ~config ~placement:placement_spread ~domains:1
      ~max_events:1 prog
  with
  | _ -> Alcotest.fail "domains 1 budget not enforced"
  | exception Api.Error (Api.Runtime_error _) -> ()

let rebalance_rejects_tracing () =
  let prog = Api.parse (snd (List.hd corpus)) in
  let traced = { config with Cluster.tracing = true } in
  (match
     Api.run_parallel ~config:traced ~placement:placement_spread ~domains:2
       ~rebalance:{ Par_runner.rb_interval_ms = 10; rb_threshold = 1.5 }
       prog
   with
  | _ -> Alcotest.fail "tracing + rebalance accepted"
  | exception Api.Error (Api.Runtime_error _) -> ());
  match
    Api.run_parallel ~config:traced ~placement:placement_spread ~domains:2
      ~force_migrations:[ (1, 0) ] prog
  with
  | _ -> Alcotest.fail "tracing + forced migration accepted"
  | exception Api.Error (Api.Runtime_error _) -> ()

let rejects_deterministic_only_modes () =
  (* the Par_runner contract is Invalid_argument; Api.run_parallel
     re-wraps it as Api.Error like every other runtime failure *)
  let units = Api.compile (Api.parse "io!printi[1]") in
  List.iter
    (fun (what, config) ->
      (match Par_runner.run ~config ~domains:2 units with
      | _ -> Alcotest.failf "%s: expected Invalid_argument" what
      | exception Invalid_argument _ -> ());
      match Api.run_parallel ~config ~domains:2 (Api.parse "io!printi[1]") with
      | _ -> Alcotest.failf "%s: expected Api.Error" what
      | exception Api.Error _ -> ())
    [ ( "replicated ns",
        { Cluster.default_config with Cluster.ns_mode = Cluster.Replicated } );
      ( "faults",
        { Cluster.default_config with
          Cluster.faults =
            { Tyco_net.Simnet.no_faults with Tyco_net.Simnet.drop = 0.1 } } ) ]

(* ------------------------------------------------------------------ *)
(* Engine agreement over every packet kind                             *)

(* One program whose traffic covers every packet kind the dispatch core
   routes: name-service registrations, lookups and replies (Applet's
   lookup reaches the service before [late] registers it — [late]
   first waits on an import of its own — so it parks), method messages,
   a FETCH request/reply and an object shipment. *)
let every_kind_src =
  {| site server {
       def S(self) = self?{ applet(p) = (p?(x) = io!printi[x + 100] | S[self]) }
       in export new srv S[srv] }
     site late { import srv from server in
                 export def Applet(p) = p![42] in nil }
     site client {
       import Applet from late in
       import srv from server in
       ( new p (srv!applet[p] | p![5])
       | new q (Applet[q] | q?(v) = io!printi[v])) } |}

let engine_agreement_every_kind () =
  let prog = Api.parse every_kind_src in
  (* the deterministic run, stepped so the name service's parked
     lookups can be watched *)
  let c = Cluster.create () in
  Cluster.load c (Api.compile prog);
  let parked = ref 0 and time = ref 0 in
  while not (Cluster.quiescent c) do
    time := !time + 500;
    Cluster.run_until c ~time:!time;
    parked := max !parked (Cluster.name_service_pending c)
  done;
  check Alcotest.bool "a lookup parked in the name service" true (!parked > 0);
  let kinds = List.map snd (Cluster.packet_trace c) in
  let has what f =
    if not (List.exists f kinds) then
      Alcotest.failf "no %s packet on the deterministic engine" what
  in
  has "Pmsg" (function Tyco_net.Packet.Pmsg _ -> true | _ -> false);
  has "Pobj" (function Tyco_net.Packet.Pobj _ -> true | _ -> false);
  has "Pfetch_req" (function Tyco_net.Packet.Pfetch_req _ -> true | _ -> false);
  has "Pfetch_rep" (function Tyco_net.Packet.Pfetch_rep _ -> true | _ -> false);
  has "Pns_register"
    (function Tyco_net.Packet.Pns_register _ -> true | _ -> false);
  has "Pns_lookup" (function Tyco_net.Packet.Pns_lookup _ -> true | _ -> false);
  has "Pns_reply" (function Tyco_net.Packet.Pns_reply _ -> true | _ -> false);
  check Alcotest.int "deterministic: dead letters" 0 (Cluster.dead_letters c);
  let reference = event_multiset (Cluster.outputs c) in
  check Alcotest.int "two outputs" 2 (List.length reference);
  List.iter
    (fun d ->
      let par = Api.run_parallel ~domains:d prog in
      let what = Printf.sprintf "%d domains" d in
      check Alcotest.(list string) what reference
        (event_multiset par.Par_runner.outputs);
      check Alcotest.bool (what ^ ": clean") true par.Par_runner.clean;
      check Alcotest.int (what ^ ": dead letters") 0
        par.Par_runner.dead_letters)
    [ 2; 4 ];
  let tcp = Tcp_runner.run_program ~timeout_ms:20_000 prog in
  check Alcotest.bool "tcp: finished" false tcp.Tcp_runner.timed_out;
  check Alcotest.(list string) "tcp" reference
    (event_multiset (List.map (fun e -> (0, e)) tcp.Tcp_runner.outputs));
  check Alcotest.int "tcp: dead letters" 0 tcp.Tcp_runner.dead_letters

let tests =
  [ ("spsc ring fifo", `Quick, ring_fifo);
    ("spsc ring bounded", `Quick, ring_bounded);
    ("spsc ring wraparound", `Quick, ring_wraparound);
    ("spsc ring two domains", `Quick, ring_two_domains);
    ("domains 1 bit-identical", `Quick, domains1_bit_identical);
    ("multiset equivalence", `Quick, multiset_equivalence);
    ("shipped samples equivalence", `Slow, shipped_samples_equivalence);
    ("placement map properties", `Quick, placement_map_properties);
    ("policy equivalence sweeps", `Slow, policy_equivalence);
    ("sharding smoke at 4 domains", `Quick, sharding_smoke);
    ("handoff batching invariants", `Quick, handoff_batching_invariants);
    ("shard stats and metrics merge", `Quick, shard_stats_and_metrics);
    ("rejects deterministic-only modes", `Quick,
     rejects_deterministic_only_modes);
    ("choose migration properties", `Quick, choose_migration_properties);
    ("rebalance equivalence", `Quick, rebalance_equivalence);
    ("forced migration accounting", `Quick, forced_migration_accounting);
    ("global event budget", `Quick, global_event_budget);
    ("rebalance rejects tracing", `Quick, rebalance_rejects_tracing);
    ("engine agreement: every packet kind", `Quick,
     engine_agreement_every_kind) ]
