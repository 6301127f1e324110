(* Seeded program generators for the three workloads.

   Every generator returns DiTyCO source together with the output
   multiset the program must produce, computed here from the generated
   parameters alone: the compiler and the engines under test are never
   the reference for what a job should print.

   Parameters that set a job's size or shape are drawn by stratified
   sampling across the [k] programs of one run: each of [k] equal
   slices of a parameter's range gets exactly one program, in an order
   the seed shuffles for each parameter on its own (a Latin hypercube).
   Two seeds therefore give different programs with the same spread of
   sizes and shapes. *)

module Output = Dityco.Output

type program = {
  name : string;
  src : string;
  expected : Output.event list;
  placement : string -> int;  (* site name -> node index *)
  nodes : int;
  params : (string * int) list;  (* size parameters, for the run header *)
}

let printi site v = { Output.site; label = "printi"; args = [ Output.Oint v ] }

let rng ~seed ~salt = Random.State.make [| seed; salt; 0x7e11 |]

(* [k] values in [lo, hi], one per equal-width slice, in seeded order. *)
let stratified st k ~lo ~hi =
  let perm = Array.init k Fun.id in
  for i = k - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  Array.map
    (fun slot ->
      let u = (float_of_int slot +. Random.State.float st 1.0) /. float_of_int k in
      lo + int_of_float (u *. float_of_int (hi - lo)))
    perm

(* Integer levels [lo..hi], both included, stratified the same way. *)
let levels st k ~lo ~hi = stratified st k ~lo ~hi:(hi + 1)

let between st lo hi = lo + Random.State.int st (hi - lo + 1)

(* Split [total] into [parts] positive shares with seeded proportions. *)
let split st total parts =
  let w = Array.init parts (fun _ -> 1.0 +. Random.State.float st 1.0) in
  let sum = Array.fold_left ( +. ) 0.0 w in
  let shares = Array.map (fun x -> max 1 (int_of_float (x /. sum *. float_of_int total))) w in
  shares

let comma f n = String.concat ", " (List.init n f)
let site_index prefix name =
  int_of_string (String.sub name (String.length prefix) (String.length name - String.length prefix))

(* ------------------------------------------------------------------ *)
(* local-objects: one node; each site drives a counter object through
   synchronous bumps (the E1 counter, scaled up and seeded). *)

let local_objects ?(scale = 1.0) ~seed ~k () =
  let st = rng ~seed ~salt:1 in
  let totals = stratified st k ~lo:2800 ~hi:4000 in
  let sites = levels st k ~lo:4 ~hi:8 in
  Array.to_list
    (Array.mapi
       (fun p total ->
         let total = max 8 (int_of_float (float_of_int total *. scale)) in
         let nsites = sites.(p) in
         let bumps = split st total nsites in
         let sites =
           List.init nsites (fun i ->
               let step = between st 1 9 and start = between st 0 99 in
               let n = bumps.(i) in
               let src =
                 Printf.sprintf
                   {|site s%d {
  def Counter(self, acc) =
    self?{ bump(d, k) = (k![acc + d] | Counter[self, acc + d]),
           read(k) = (k![acc] | Counter[self, acc]) }
  in def Driver(c, n, last) =
    if n == 0 then (let v = c!read[] in io!printi[v])
    else new k (c!bump[%d, k] | k?(v) = Driver[c, n - 1, v])
  in new c (Counter[c, %d] | Driver[c, %d, %d])
}
|}
                   i step start n start
               in
               (src, printi (Printf.sprintf "s%d" i) (start + (n * step))))
         in
         { name = Printf.sprintf "local-objects#%d" p;
           src = String.concat "" (List.map fst sites);
           expected = List.map snd sites;
           placement = (fun _ -> 0);
           nodes = 1;
           params = [ ("sites", nsites); ("bumps", Array.fold_left ( + ) 0 bumps) ] })
       totals)

(* ------------------------------------------------------------------ *)
(* remote-mix: the Fig. 1 cluster (4 nodes).  A server exports an RPC
   service, one put/flush sink per client, a landing channel for
   shipped objects and a class.  Each client fetches the class
   (FETCH), ships one object to the server (SHIPO), then runs a seeded
   sequence of operations: synchronous RPCs, each with a freshly
   exported reply channel, and asynchronous put bursts closed by one
   synchronous flush.  The program computes each operation from its
   index with seeded constants, and [client_oracle] replays the same
   arithmetic.  The sink answers a flush only once it has counted
   every put of the client so far, so no reply depends on delivery
   order. *)

type client = {
  ops : int;
  width : int;  (* int arguments per put *)
  rpc_pct : int;
      (* the share of ops that are RPCs, spread evenly: op [i] is one when
         (i + b) * rpc_pct / 100 steps up at i + 1 *)
  b : int;  (* the phase of that spread *)
  c : int; d : int;  (* RPC argument: (i * c + d) mod 1000 *)
  e : int; f : int;  (* burst length: 2 + (i * e + f) mod 15, e prime to 15 *)
  tag : int;  (* what the client's shipped object answers *)
}

(* The client's final tally, and its RPC and burst counts. *)
let client_oracle cl =
  let tally = ref 0 and paid = ref 0 and rpcs = ref 0 in
  for i = 0 to cl.ops - 1 do
    if (i + cl.b + 1) * cl.rpc_pct / 100 > (i + cl.b) * cl.rpc_pct / 100 then begin
      incr rpcs;
      tally := !tally + ((((i * cl.c) + cl.d) mod 1000) * 3) + 1
    end
    else begin
      let len = 2 + (((i * cl.e) + cl.f) mod 15) in
      for j = 0 to len - 1 do
        for m = 1 to cl.width do paid := !paid + (i mod 50) + (j * m) done
      done;
      tally := !tally + !paid
    end
  done;
  (!tally, !rpcs, cl.ops - !rpcs)

let remote_mix ?(scale = 1.0) ~seed ~k () =
  let st = rng ~seed ~salt:2 in
  let op_counts = stratified st k ~lo:45 ~hi:65 in
  let rpc_pcts = stratified st k ~lo:40 ~hi:70 in
  let widths = levels st k ~lo:1 ~hi:6 in
  (* one client on each node but the server's; the clients of a program
     run the same number of operations, so its modelled makespan is set
     by that count, not by an uneven split *)
  let nclients = 3 in
  Array.to_list
    (Array.mapi
       (fun p ops ->
         let ops = max 1 (int_of_float (float_of_int ops *. scale)) in
         let clients =
           List.init nclients (fun _ ->
               { ops; width = widths.(p); rpc_pct = rpc_pcts.(p); b = between st 0 99;
                 c = (2 * between st 0 48) + 1; d = between st 0 999;
                 e = List.nth [ 1; 2; 4; 7; 8; 11; 13; 14 ] (between st 0 7); f = between st 0 14;
                 tag = between st 1 99 })
         in
         let width = widths.(p) in
         let xs = comma (Printf.sprintf "x%d") width in
         let sum = String.concat " + " ("sum" :: List.init width (Printf.sprintf "x%d")) in
         let sink_def i =
           Printf.sprintf
             {|  def Sink%d(self, got, sum, want, kk) =
    self?{ put(%s) =
             if got + 1 == want then (kk![%s] | Sink%d[self, got + 1, %s, 0 - 1, kk])
             else Sink%d[self, got + 1, %s, want, kk],
           flush(n, k) =
             if got == n then (k![sum] | Sink%d[self, got, sum, 0 - 1, kk])
             else Sink%d[self, got, sum, n, k] }
  in
|}
             i xs sum i sum i sum i i
         in
         let server =
           Printf.sprintf
             {|site server {
  export def Tally(self, acc) =
    self?{ add(x, k) = (k![acc + x] | Tally[self, acc + x]) }
  in
  def Svc(self) = self?{ call(x, k) = (k![x * 3 + 1] | Svc[self]) }
  in
%s  def Sum(k, n, acc) = if n == 0 then io!printi[acc] else k?(v) = Sum[k, n - 1, acc + v]
  in
  export new svc, pad, %s (
    Svc[svc]
  | %s
  | new k (%s | Sum[k, %d, 0]))
}
|}
             (String.concat "" (List.init nclients sink_def))
             (comma (Printf.sprintf "sink%d") nclients)
             (String.concat "\n  | "
                (List.init nclients (fun i ->
                     Printf.sprintf "new z%d Sink%d[sink%d, 0, 0, 0 - 1, z%d]" i i i i)))
             (String.concat " | " (List.init nclients (fun _ -> "pad!ping[k]")))
             nclients
         in
         let client i cl =
           let put_args = comma (fun m -> Printf.sprintf "x + j * %d" (m + 1)) cl.width in
           let src =
             Printf.sprintf
               {|site c%d {
  import svc from server in
  import sink%d from server in
  import pad from server in
  import Tally from server in
  new t (
    Tally[t, 0]
  | pad?{ ping(k) = k![%d] }
  | def Puts(j, n, x) = if j == n then nil else (sink%d!put[%s] | Puts[j + 1, n, x])
    and Burst(i, sent, len) =
      (Puts[0, len, i %% 50]
      | let s = sink%d!flush[sent + len] in let a = t!add[s] in Step[i + 1, sent + len, a])
    and Step(i, sent, last) =
      if i == %d then io!printi[last]
      else if (i + %d + 1) * %d / 100 > (i + %d) * %d / 100
      then (let v = svc!call[(i * %d + %d) %% 1000] in let a = t!add[v] in Step[i + 1, sent, a])
      else Burst[i, sent, 2 + (i * %d + %d) %% 15]
    in Step[0, 0, 0])
}
|}
               i i cl.tag i put_args i cl.ops cl.b cl.rpc_pct cl.b cl.rpc_pct cl.c cl.d cl.e cl.f
           in
           let tally, _, _ = client_oracle cl in
           (src, printi (Printf.sprintf "c%d" i) tally)
         in
         let cs = List.mapi client clients in
         let count f = List.fold_left (fun acc cl -> acc + f (client_oracle cl)) 0 clients in
         { name = Printf.sprintf "remote-mix#%d" p;
           src = server ^ String.concat "" (List.map fst cs);
           expected =
             printi "server" (List.fold_left (fun acc cl -> acc + cl.tag) 0 clients)
             :: List.map snd cs;
           placement =
             (fun name -> if name = "server" then 0 else 1 + (site_index "c" name mod 3));
           nodes = 4;
           params =
             [ ("ops_per_client", ops); ("width", width);
               ("rpcs", count (fun (_, r, _) -> r)); ("bursts", count (fun (_, _, b) -> b)) ] })
       op_counts)

(* ------------------------------------------------------------------ *)
(* par-fanout: the E19 master/worker pool on 8 nodes, with seeded item
   sizes.  Each item is a long arithmetic loop; workers report their
   sums to the master, which prints the grand total. *)

let crunch v =
  let acc = ref 0 in
  for n = 1 to v do acc := !acc + (n mod 7) done;
  !acc

let workers = 8

let par_fanout ?(scale = 1.0) ~seed ~k () =
  let st = rng ~seed ~salt:3 in
  let means = stratified st k ~lo:5600 ~hi:7200 in
  Array.to_list
    (Array.mapi
       (fun p mean_size ->
         let items = max 2 (int_of_float (40.0 *. scale)) in
         let a = between st 3 97 and b = between st 0 99 and m = between st 800 1600 in
         (* item sizes spread over [base, base + m) around the drawn mean *)
         let m = max 2 (int_of_float (float_of_int m *. scale)) in
         let base = max 1 (int_of_float (float_of_int mean_size *. scale) - (m / 2)) in
         let size left = base + (((left * a) + b) mod m) in
         let total = ref 0 and work = ref 0 in
         for left = 1 to items do
           total := !total + crunch (size left);
           work := !work + size left
         done;
         let master =
           Printf.sprintf
             {|site master {
  def Pool(self, left, done, total) =
    self?{ take(k) = if left == 0 then (k!stop[] | Pool[self, left, done, total])
                     else (k!item[%d + ((left * %d + %d) %% %d)] | Pool[self, left - 1, done, total]),
           report(x) = if done + 1 == %d then io!printi[total + x]
                       else Pool[self, left, done + 1, total + x] }
  in export new pool Pool[pool, %d, 0, 0]
}
|}
             base a b m workers items
         in
         let worker i =
           Printf.sprintf
             {|site w%d {
  import pool from master in
  def Crunch(n, acc, k) = if n == 0 then k![acc] else Crunch[n - 1, acc + n %% 7, k]
  and Work(sum) = new k (
    pool!take[k]
  | k?{ item(v) = new d (Crunch[v, 0, d] | d?(x) = Work[sum + x]),
        stop() = (pool!report[sum] | io!printi[%d]) })
  in Work[0]
}
|}
             i i
         in
         { name = Printf.sprintf "par-fanout#%d" p;
           src = master ^ String.concat "" (List.init workers worker);
           expected =
             printi "master" !total
             :: List.init workers (fun i -> printi (Printf.sprintf "w%d" i) i);
           placement =
             (fun name -> if name = "master" then 0 else (site_index "w" name + 1) mod 8);
           nodes = 8;
           params = [ ("items", items); ("iterations", !work) ] })
       means)
