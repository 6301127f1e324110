(* Randomized model checking for the hot-path containers.

   Dq (the VM run-queue deque) and Lru (the bounded receiver caches)
   both carry correctness weight the unit tests only spot-check: Dq's
   ring buffer wraps and regrows under mixed front/back traffic, Lru's
   intrusive recency list must agree with an obvious model under any
   interleaving of find/add/remove.  Here each structure is driven
   with long random operation sequences — from {!Tyco_support.Prng},
   seeded per owner so the sweeps are reproducible — and compared
   against a naive list-based reference after every step. *)

module Dq = Tyco_support.Dq
module Lru = Tyco_support.Lru
module Prng = Tyco_support.Prng

let seeds = [ 1; 7; 42; 1001; 424242 ]
let steps = 3_000

(* ------------------------------------------------------------------ *)
(* Dq vs a plain list used as a sequence (front = head).               *)

let dq_model_agrees ?(capacity = 2) seed =
  let rng = Prng.for_owner ~seed ~owner:0 in
  let dq = Dq.create ~capacity () in
  let model = ref [] in
  for step = 1 to steps do
    (match Prng.int rng 6 with
    | 0 ->
        let v = Prng.int rng 1000 in
        Dq.push_back dq v;
        model := !model @ [ v ]
    | 1 ->
        let v = Prng.int rng 1000 in
        Dq.push_front dq v;
        model := v :: !model
    | 2 -> (
        let got = Dq.pop_front dq in
        match !model with
        | [] -> Alcotest.(check (option int)) "pop_front empty" None got
        | x :: rest ->
            model := rest;
            Alcotest.(check (option int)) "pop_front" (Some x) got)
    | 3 -> (
        let got = Dq.pop_back dq in
        match List.rev !model with
        | [] -> Alcotest.(check (option int)) "pop_back empty" None got
        | x :: rev_rest ->
            model := List.rev rev_rest;
            Alcotest.(check (option int)) "pop_back" (Some x) got)
    | 4 ->
        Alcotest.(check (option int))
          "peek_front"
          (match !model with [] -> None | x :: _ -> Some x)
          (Dq.peek_front dq)
    | _ ->
        if step mod 97 = 0 then begin
          Dq.clear dq;
          model := []
        end
        else begin
          (* exercise the non-allocating pops on the same schedule *)
          match !model with
          | [] -> ()
          | x :: rest ->
              model := rest;
              Alcotest.(check int) "pop_front_exn" x (Dq.pop_front_exn dq)
        end);
    Alcotest.(check int) "length" (List.length !model) (Dq.length dq);
    Alcotest.(check bool) "is_empty" (!model = []) (Dq.is_empty dq);
    if step mod 251 = 0 then
      Alcotest.(check (list int)) "to_list" !model (Dq.to_list dq)
  done

let dq_random () = List.iter (fun seed -> dq_model_agrees seed) seeds

(* Capacities are rounded up to a power of two and indices masked; any
   requested capacity, power of two or not, must give the same
   sequence. *)
let dq_capacities () =
  List.iter
    (fun capacity -> List.iter (dq_model_agrees ~capacity) [ 3; 1001 ])
    [ 0; 1; 3; 5; 6; 7; 9; 12; 33; 100 ]

(* A ring whose contents wrap past the end of the buffer when it grows:
   advance the head, fill until full, then push past capacity at both
   ends.  The order must survive every [grow]. *)
let dq_wraparound_grow () =
  List.iter
    (fun capacity ->
      List.iter
        (fun shift ->
          let dq = Dq.create ~capacity () in
          let model = ref [] in
          for i = 1 to shift do
            Dq.push_back dq (-i);
            ignore (Dq.pop_front_exn dq)
          done;
          for i = 0 to (4 * capacity) + 5 do
            if i mod 3 = 2 then begin
              Dq.push_front dq i;
              model := i :: !model
            end
            else begin
              Dq.push_back dq i;
              model := !model @ [ i ]
            end;
            Alcotest.(check (list int))
              (Printf.sprintf "capacity %d, shift %d, push %d" capacity shift i)
              !model (Dq.to_list dq)
          done;
          List.iter
            (fun x -> Alcotest.(check int) "drain" x (Dq.pop_front_exn dq))
            !model;
          Alcotest.(check bool) "drained" true (Dq.is_empty dq))
        [ 0; 1; 2; 3; 5; 8; 13 ])
    [ 1; 2; 3; 4; 5; 7; 8; 12 ]

let dq_of_list_roundtrip () =
  List.iter
    (fun seed ->
      let rng = Prng.for_owner ~seed ~owner:1 in
      let xs = List.init (Prng.int rng 64) (fun _ -> Prng.int rng 1000) in
      let dq = Dq.of_list xs in
      Alcotest.(check (list int)) "of_list/to_list" xs (Dq.to_list dq);
      (* an exactly-full ring of a non-power-of-two length still grows *)
      Dq.push_back dq 1000;
      Dq.push_front dq (-1);
      Alcotest.(check (list int)) "of_list then push"
        ((-1 :: xs) @ [ 1000 ]) (Dq.to_list dq))
    seeds

(* ------------------------------------------------------------------ *)
(* Lru vs an assoc list kept in most-recently-used-first order.        *)

(* model: (key, value) list, MRU first, never longer than capacity *)
let lru_model_agrees seed =
  let rng = Prng.for_owner ~seed ~owner:2 in
  let capacity = 1 + Prng.int rng 8 in
  let lru = Lru.create ~capacity in
  let model = ref [] in
  let keys = 2 * capacity (* enough collisions to keep evicting *) in
  for _step = 1 to steps do
    (match Prng.int rng 4 with
    | 0 | 1 ->
        let k = Prng.int rng keys and v = Prng.int rng 1000 in
        let evicted = Lru.add lru k v in
        let without = List.remove_assoc k !model in
        model := (k, v) :: without;
        let expect_evicted =
          if List.length !model > capacity then begin
            let rec split_last acc = function
              | [] -> assert false
              | [ last ] -> (List.rev acc, last)
              | x :: rest -> split_last (x :: acc) rest
            in
            let kept, last = split_last [] !model in
            model := kept;
            Some last
          end
          else None
        in
        Alcotest.(check (option (pair int int))) "eviction" expect_evicted
          evicted
    | 2 -> (
        let k = Prng.int rng keys in
        let got = Lru.find lru k in
        match List.assoc_opt k !model with
        | None -> Alcotest.(check (option int)) "miss" None got
        | Some v ->
            (* a hit refreshes recency in both worlds *)
            model := (k, v) :: List.remove_assoc k !model;
            Alcotest.(check (option int)) "hit" (Some v) got)
    | _ ->
        let k = Prng.int rng keys in
        let present = List.mem_assoc k !model in
        model := List.remove_assoc k !model;
        Alcotest.(check bool) "remove" present (Lru.remove lru k));
    Alcotest.(check int) "length" (List.length !model) (Lru.length lru);
    Alcotest.(check int) "capacity stable" capacity (Lru.capacity lru);
    List.iter
      (fun (k, _) ->
        Alcotest.(check bool) (Printf.sprintf "mem %d" k) true (Lru.mem lru k))
      !model
  done

let lru_random () = List.iter lru_model_agrees seeds

let tests =
  [ ("dq random ops vs model", `Quick, dq_random);
    ("dq non-power-of-two capacities", `Quick, dq_capacities);
    ("dq wraparound across grow", `Quick, dq_wraparound_grow);
    ("dq of_list round-trip", `Quick, dq_of_list_roundtrip);
    ("lru random ops vs model", `Quick, lru_random) ]
