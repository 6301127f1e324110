(* Virtual machine tests: channel rendez-vous semantics, builtins,
   dynamic errors, closures and mutual recursion, remote-operation
   surfacing, and metrics. *)

open Tyco_vm
module Parser = Tyco_syntax.Parser
module Compile = Tyco_compiler.Compile
module Link = Tyco_compiler.Link
module Netref = Tyco_support.Netref
module Stats = Tyco_support.Stats

let check = Alcotest.check

(* Run a single-site program and collect io events. *)
let run_vm ?(budget = 1_000_000) src =
  let unit_ = Compile.compile_proc (Parser.parse_proc src) in
  let area, entry = Link.of_unit unit_ in
  let vm = Machine.create area in
  let outs = ref [] in
  let io =
    Machine.builtin_chan vm "io" (fun label args ->
        outs := (label, args) :: !outs)
  in
  Machine.spawn_entry vm ~entry ~io;
  let _instrs, _cost = Machine.run vm ~budget in
  (vm, List.rev !outs)

let out_testable =
  let pp ppf (l, args) =
    Fmt.pf ppf "%s[%a]" l (Fmt.list ~sep:Fmt.comma Value.pp) args
  in
  Alcotest.testable pp (fun (l1, a1) (l2, a2) ->
      l1 = l2
      && List.length a1 = List.length a2
      && List.for_all2
           (fun x y ->
             match (x, y) with
             | Value.Vint a, Value.Vint b -> a = b
             | Value.Vbool a, Value.Vbool b -> a = b
             | Value.Vstr a, Value.Vstr b -> a = b
             | _ -> false)
           a1 a2)

let ints label xs = List.map (fun n -> (label, [ Value.Vint n ])) xs

(* ------------------------------------------------------------------ *)
(* Rendez-vous semantics                                                *)

let msg_then_obj () =
  let _, outs = run_vm "new x (x![5] | x?(v) = io!printi[v])" in
  check (Alcotest.list out_testable) "fires" (ints "printi" [ 5 ]) outs

let obj_then_msg () =
  let _, outs = run_vm "new x ((x?(v) = io!printi[v]) | x![6])" in
  check (Alcotest.list out_testable) "fires" (ints "printi" [ 6 ]) outs

let fifo_messages () =
  let _, outs =
    run_vm
      "new x (x![1] | x![2] | x![3] | x?(v) = io!printi[v] | x?(v) = io!printi[v] | x?(v) = io!printi[v])"
  in
  check (Alcotest.list out_testable) "fifo" (ints "printi" [ 1; 2; 3 ]) outs

let fifo_objects () =
  let _, outs =
    run_vm
      {| new x ((x?(v) = io!printi[v * 10]) | (x?(v) = io!printi[v * 100])
         | x![1] | x![1]) |}
  in
  check (Alcotest.list out_testable) "object order" (ints "printi" [ 10; 100 ]) outs

let label_dispatch () =
  let _, outs =
    run_vm
      {| new x (x?{ inc(v, k) = k![v + 1], dec(v, k) = k![v - 1] }
         | new k (x!dec[10, k] | k?(r) = io!printi[r])) |}
  in
  check (Alcotest.list out_testable) "dec selected" (ints "printi" [ 9 ]) outs

let unmatched_message_parks () =
  let vm, outs = run_vm "new x x![1]" in
  check (Alcotest.list out_testable) "no output" [] outs;
  check Alcotest.bool "not runnable" false (Machine.runnable vm);
  let parked =
    Stats.Counter.value (Stats.counter (Machine.stats vm) "msgs_parked")
  in
  check Alcotest.int "parked" 1 parked

(* ------------------------------------------------------------------ *)
(* Closures                                                            *)

let closure_captures_environment () =
  let _, outs =
    run_vm
      {| new x, y (y![7] | (x?(v) = y?(w) = io!printi[v + w]) | x![35]) |}
  in
  check (Alcotest.list out_testable) "captured v" (ints "printi" [ 42 ]) outs

let class_env_mutual_recursion () =
  let _, outs =
    run_vm
      {| new base (base![3] |
         def Even(n) = if n == 0 then (base?(b) = io!printi[b]) else Odd[n - 1]
         and Odd(n) = Even[n - 1]
         in Even[8]) |}
  in
  check (Alcotest.list out_testable) "group shares env" (ints "printi" [ 3 ]) outs

let nested_defs () =
  let _, outs =
    run_vm
      {| def Outer(k) = (def Inner(v) = k![v * 2] in Inner[21])
         in new k (Outer[k] | k?(v) = io!printi[v]) |}
  in
  check (Alcotest.list out_testable) "nested groups" (ints "printi" [ 42 ]) outs

(* ------------------------------------------------------------------ *)
(* Expressions and control                                             *)

let expression_ops () =
  let _, outs =
    run_vm
      {| io!printi[2 * 3 + 10 / 2 - 7 % 4]
       | io!printb[1 < 2 && 2 <= 2 && 3 > 2 && 3 >= 3]
       | io!printb[not (1 == 2) && (1 != 2 || false)]
       | io!printi[-5] |}
  in
  check Alcotest.int "four outputs" 4 (List.length outs);
  check (Alcotest.list out_testable) "values"
    [ ("printi", [ Value.Vint 8 ]);
      ("printb", [ Value.Vbool true ]);
      ("printb", [ Value.Vbool true ]);
      ("printi", [ Value.Vint (-5) ]) ]
    outs

let if_branches () =
  let _, outs =
    run_vm
      {| if 1 < 2 then io!printi[1] else io!printi[2]
       | if false then io!printi[3] else io!printi[4] |}
  in
  check (Alcotest.list out_testable) "branches" (ints "printi" [ 1; 4 ]) outs

let string_values () =
  let _, outs = run_vm {| io!print["hello"] |} in
  check (Alcotest.list out_testable) "string"
    [ ("print", [ Value.Vstr "hello" ]) ]
    outs

(* ------------------------------------------------------------------ *)
(* Dynamic errors                                                      *)

let vm_errors () =
  let fails src =
    match run_vm src with exception Machine.Error _ -> true | _ -> false
  in
  check Alcotest.bool "div zero" true (fails "io!printi[1 / 0]");
  check Alcotest.bool "mod zero" true (fails "io!printi[1 % 0]");
  check Alcotest.bool "no such method" true
    (fails "new x (x?{ a() = nil } | x!b[])");
  check Alcotest.bool "arity" true (fails "new x (x?{ a(u) = nil } | x!a[])");
  check Alcotest.bool "object at builtin" true (fails "io?(v) = nil")

(* ------------------------------------------------------------------ *)
(* The spawn path: frames built from the operand stack                 *)

(* Frames of up to 8 slots are array literals; wider ones take the
   [Array.make]+blit fallback.  A 10-parameter class and a method whose
   captures push its frame past 8 slots must see every value in
   place. *)
let wide_frames () =
  let _, outs =
    run_vm
      {| def Wide(a, b, c, d, e, f, g, h, i, j) =
           io!printi[a + 2 * b + 3 * c + 4 * d + 5 * e + 6 * f + 7 * g
                     + 8 * h + 9 * i + 10 * j]
         in Wide[1, 2, 3, 4, 5, 6, 7, 8, 9, 10] |}
  in
  check (Alcotest.list out_testable) "10-param class"
    (ints "printi" [ 385 ]) outs;
  let _, outs =
    run_vm
      {| def Mk(a, b, c, d, e, f, g, x) =
           x?{ go(p, q) = io!printi[a + b + c + d + e + f + g + 100 * p
                                    + 1000 * q] }
         in new x (Mk[1, 2, 3, 4, 5, 6, 7, x] | x!go[1, 2]) |}
  in
  check (Alcotest.list out_testable) "2 args + 7 captures"
    (ints "printi" [ 2128 ]) outs;
  (* every size from 0 to 12 slots, instantiation and method fire *)
  for n = 0 to 12 do
    let params = List.init n (Printf.sprintf "p%d") in
    let sum = String.concat " + " ("0" :: params) in
    let args = String.concat ", " (List.init n string_of_int) in
    let expected = n * (n - 1) / 2 in
    let _, outs =
      run_vm
        (Printf.sprintf "def C(%s) = io!printi[%s] in C[%s]"
           (String.concat ", " params) sum args)
    in
    check (Alcotest.list out_testable)
      (Printf.sprintf "class of %d params" n)
      (ints "printi" [ expected ]) outs;
    let _, outs =
      run_vm
        (Printf.sprintf "new x (x?{ m(%s) = io!printi[%s] } | x!m[%s])"
           (String.concat ", " params) sum args)
    in
    check (Alcotest.list out_testable)
      (Printf.sprintf "method of %d params" n)
      (ints "printi" [ expected ]) outs
  done

(* Arity errors keep their exact messages on both spawn paths (reached
   with the type checker out of the way). *)
let spawn_arity_messages () =
  let message src =
    match run_vm src with
    | exception Machine.Error m -> m
    | _ -> "no error"
  in
  check Alcotest.string "instantiation"
    "site: class 'C': expected 2 argument(s), got 1"
    (message "def C(a, b) = nil in C[1]");
  check Alcotest.string "method fire from the stack"
    "site: method 'a': expected 1 argument(s), got 3"
    (message "new x (x?{ a(u) = nil } | x!a[1, 2, 3])");
  check Alcotest.string "method fire from a parked message"
    "site: method 'a': expected 1 argument(s), got 0"
    (message "new x (x!a[] | x?{ a(u) = nil })")

(* A message that finds its object waiting fires straight from the
   operand stack; one that parks keeps an argument array of its own.
   Both orders must give the same outputs, wide frames included. *)
let fire_and_park_agree () =
  let obj k =
    Printf.sprintf
      {| x?{ m(a, b, c) = io!printi[a + 10 * b + 100 * c + %d],
            w(a, b, c, d, e, f, g, h, i) =
              io!printi[a + b + c + d + e + f + g + h + i + %d] } |}
      k k
  in
  let objs = obj 1000 ^ " | " ^ obj 2000 in
  let msgs = "x!m[1, 2, 3] | x!w[1, 2, 3, 4, 5, 6, 7, 8, 9]" in
  let obj_first = snd (run_vm (Printf.sprintf "new x (%s | %s)" objs msgs)) in
  let msg_first = snd (run_vm (Printf.sprintf "new x (%s | %s)" msgs objs)) in
  check (Alcotest.list out_testable) "objects waiting"
    (ints "printi" [ 1321; 2045 ]) obj_first;
  check (Alcotest.list out_testable) "messages parked"
    (ints "printi" [ 1321; 2045 ]) msg_first

(* Allocation budget of the VM step loop on a fixed Crunch-style loop
   (threads of 15 instructions, each instantiating the next).  What is
   left per iteration is the frame and the two computed integers that
   escape into it boxed: literals, intermediate results and the branch
   condition stay in the operand stack's unboxed lane, and the run queue
   keeps no per-thread record.  0.60 minor words per instruction
   measured in this (unoptimized test) build; the bound is the measured
   value plus 20%. *)
let minor_words_per_instruction_bound = 0.72

let crunch_allocation_budget () =
  let src =
    {| def Crunch(n, acc, k) =
         if n == 0 then k![acc] else Crunch[n - 1, acc + n % 7, k]
       in new k (Crunch[20000, 0, k] | k?(v) = io!printi[v]) |}
  in
  let unit_ = Compile.compile_proc (Parser.parse_proc src) in
  let area, entry = Link.of_unit unit_ in
  let vm = Machine.create area in
  let outs = ref [] in
  let io = Machine.builtin_chan vm "io" (fun _ args -> outs := args) in
  Machine.spawn_entry vm ~entry ~io;
  let before = Gc.minor_words () in
  let instrs, _ = Machine.run vm ~budget:max_int in
  let words = Gc.minor_words () -. before in
  let per_instr = words /. float_of_int instrs in
  let expected = ref 0 in
  for n = 1 to 20000 do
    expected := !expected + (n mod 7)
  done;
  check Alcotest.bool "ran to the end" true (!outs = [ Value.Vint !expected ]);
  if per_instr > minor_words_per_instruction_bound then
    Alcotest.failf "%.2f minor words per instruction over %d instructions \
                    (bound %.2f)" per_instr instrs
      minor_words_per_instruction_bound

(* ------------------------------------------------------------------ *)
(* Remote operation surfacing                                          *)

let run_site_program site_name src =
  let units = Compile.compile_program (Parser.parse_program src) in
  let unit_ = List.assoc site_name units in
  let area, entry = Link.of_unit unit_ in
  let vm = Machine.create area in
  let io = Machine.builtin_chan vm "io" (fun _ _ -> ()) in
  Machine.spawn_entry vm ~entry ~io;
  ignore (Machine.run vm ~budget:100_000);
  vm

let export_surfaces () =
  let vm =
    run_site_program "a" {| site a { export new p p?(x) = nil } |}
  in
  match Machine.pop_remote_op vm with
  | Some (Machine.Rexport_name ("p", _)) -> ()
  | _ -> Alcotest.fail "expected Rexport_name"

let import_surfaces () =
  let vm = run_site_program "b" {| site b { import p from a in p![1] } |} in
  match Machine.pop_remote_op vm with
  | Some (Machine.Rimport { site = "a"; name = "p"; is_class = false; _ }) -> ()
  | _ -> Alcotest.fail "expected Rimport"

let remote_msg_surfaces () =
  let vm = run_site_program "b" {| site b { import p from a in p![1] } |} in
  ignore (Machine.pop_remote_op vm);
  (* feed the name-service reply by spawning the continuation with a
     remote reference, as the site would *)
  let r = Netref.make ~kind:Netref.Channel ~heap_id:0 ~site_id:9 ~ip:9 in
  (match Machine.pop_remote_op vm with
  | None -> ()
  | Some _ -> Alcotest.fail "only one op expected");
  Machine.spawn vm ~block:1 ~env:[ Value.Vnetref r ];
  ignore (Machine.run vm ~budget:1000);
  match Machine.pop_remote_op vm with
  | Some (Machine.Rmsg (r', "val", [| Value.Vint 1 |])) ->
      check Alcotest.bool "same ref" true (Netref.equal r r')
  | _ -> Alcotest.fail "expected Rmsg"

let fetch_surfaces () =
  let vm = run_site_program "b" {| site b { import K from a in K[5] } |} in
  (match Machine.pop_remote_op vm with
  | Some (Machine.Rimport { is_class = true; _ }) -> ()
  | _ -> Alcotest.fail "expected class import");
  let r = Netref.make ~kind:Netref.Class ~heap_id:0 ~site_id:9 ~ip:9 in
  Machine.spawn vm ~block:1 ~env:[ Value.Vclassref r ];
  ignore (Machine.run vm ~budget:1000);
  match Machine.pop_remote_op vm with
  | Some (Machine.Rfetch (r', [| Value.Vint 5 |])) ->
      check Alcotest.bool "same ref" true (Netref.equal r r')
  | _ -> Alcotest.fail "expected Rfetch"

(* ------------------------------------------------------------------ *)
(* The operand stack's unboxed lane                                    *)

(* Literals and arithmetic/comparison results live unboxed on the
   operand stack; loaded values keep their frame's box.  [==]/[!=] must
   mean the same whichever side is in which lane: ints equal ints,
   booleans equal booleans, and an int never equals a boolean or a
   string (no type checker here, so the mixed cases reach the VM). *)
let bools label xs = List.map (fun b -> (label, [ Value.Vbool b ])) xs

let lane_equality () =
  let cases =
    [ (* literal / computed / loaded ints *)
      ("3 == 3", true); ("3 != 3", false); ("3 == 4", false);
      ("1 + 2 == 3", true); ("3 == 6 / 2", true); ("1 + 2 != 6 / 2", false);
      ("a == 3", true); ("3 == a", true); ("a == 1 + 2", true);
      ("2 * 2 == a", false); ("a != 2 + 2", true); ("a == a", true);
      ("a == b", true); ("a != b", false); ("a == c", false);
      ("0 - 3 == -3", true);
      (* booleans *)
      ("true == true", true); ("true == (1 < 2)", true);
      ("(1 > 2) == false", true); ("not t == false", true);
      ("t == true", true); ("t == (2 > 1)", true); ("(2 > 1) != t", false);
      ("t == f", false); ("f == (1 == 2)", true); ("t == t", true);
      (* int against bool: false whatever the lanes *)
      ("1 == true", false); ("0 == false", false); ("1 != true", true);
      ("(1 < 2) == 1", false); ("a == true", false); ("t == 1", false);
      ("t == 1 + 0", false); ("c == (0 == 1)", false); ("t != 3", true);
      (* int against string *)
      ("1 == \"1\"", false); ("a == s", false); ("1 + 2 == s", false);
      ("s == 3", false); ("s != a + 0", true); ("s == s", true) ]
  in
  let body =
    String.concat " | "
      (List.map (fun (e, _) -> Printf.sprintf "io!printb[%s]" e) cases)
  in
  let _, outs =
    run_vm
      (Printf.sprintf
         {| new x (x![3, 3, 0, true, false, "3"]
            | x?(a, b, c, t, f, s) = (%s)) |}
         body)
  in
  check (Alcotest.list out_testable) "equalities"
    (bools "printb" (List.map snd cases)) outs

let vm_error src =
  match run_vm src with exception Machine.Error m -> m | _ -> "no error"

(* Type errors from the lane or from a loaded box give the messages the
   boxed step loop gave, operand order included ([b] of [a op b] is
   checked first, [&&]/[||] short-circuit). *)
let lane_error_messages () =
  let expect msg src = check Alcotest.string src msg (vm_error src) in
  let loaded e =
    Printf.sprintf
      "new x (x![1, true, \"s\", 0] | x?(i, b, s, z) = io!print[%s])" e
  in
  expect "expected int, got bool" "io!printi[1 + true]";
  expect "expected int, got bool" "io!printi[true - 1]";
  expect "expected int, got bool" "io!printi[(1 < 2) * 3]";
  expect "expected int, got bool" "io!printi[-true]";
  expect "expected int, got bool" "io!printb[1 < (2 == 2)]";
  expect "expected int, got bool" (loaded "i + b");
  expect "expected int, got bool" (loaded "b >= 1");
  expect "expected int, got string" "io!printi[\"a\" + 1]";
  expect "expected int, got string" "io!printi[true + \"a\"]";
  expect "expected int, got bool" "io!printi[\"a\" + true]";
  expect "expected int, got string" (loaded "b * s");
  expect "expected bool, got int" "io!printb[not 1]";
  expect "expected bool, got int" "io!printb[not (1 + 1)]";
  expect "expected bool, got int" "io!printb[1 && true]";
  expect "expected bool, got int" "io!printb[true && 1]";
  expect "expected bool, got int" "io!printb[false || 2 * 2]";
  expect "expected bool, got int" (loaded "not i");
  expect "expected bool, got int" (loaded "b && i");
  expect "expected bool, got string" (loaded "s || b");
  expect "expected bool, got int"
    "if 1 + 1 then io!printi[1] else io!printi[2]";
  expect "expected bool, got int"
    "new x (x![0] | x?(v) = if v then nil else nil)";
  expect "no error" "io!printb[false && 1]";
  expect "no error" "io!printb[true || 1]";
  expect "division by zero" "io!printi[1 / 0]";
  expect "division by zero" "io!printi[7 / (2 - 2)]";
  expect "division by zero" (loaded "i / z");
  expect "division by zero" "io!printi[true / 0]";
  expect "modulo by zero" "io!printi[1 % 0]";
  expect "modulo by zero" "io!printi[7 % (3 * 0)]";
  expect "modulo by zero" (loaded "s % z");
  expect "expected int, got bool" "io!printi[1 / true]";
  expect "expected int, got bool" "io!printi[true % 2]"

(* Computed values escape the lane boxed: into frames of every size
   (instantiation and method fire), into a message that parks alone
   ([Msg1]) or queued ([Msgs]), into a builtin and into a remote
   message. *)
let lane_escapes () =
  for n = 1 to 12 do
    (* argument i is loaded (a) for odd i, computed (a * i + i) for even *)
    let arg i = if i mod 2 = 1 then "a" else Printf.sprintf "a * %d + %d" i i in
    let value i = if i mod 2 = 1 then 5 else (5 * i) + i in
    let params = List.init n (Printf.sprintf "p%d") in
    let weighted =
      String.concat " + "
        (List.mapi (fun i p -> Printf.sprintf "%d * %s" (i + 1) p) params)
    in
    let expected =
      List.fold_left ( + ) 0 (List.init n (fun i -> (i + 1) * value i))
    in
    let args = String.concat ", " (List.init n arg) in
    let params = String.concat ", " params in
    let run src = snd (run_vm src) in
    check (Alcotest.list out_testable)
      (Printf.sprintf "instantiation, %d computed/loaded args" n)
      (ints "printi" [ expected ])
      (run (Printf.sprintf
              "def C(%s) = io!printi[%s] in def D(a) = C[%s] in D[5]"
              params weighted args));
    check (Alcotest.list out_testable)
      (Printf.sprintf "method fire, %d computed/loaded args" n)
      (ints "printi" [ expected ])
      (run (Printf.sprintf
              "new x (x?{ m(%s) = io!printi[%s] } | def D(a) = x!m[%s] in D[5])"
              params weighted args));
    check (Alcotest.list out_testable)
      (Printf.sprintf "parked Msg1 then Msgs, %d computed/loaded args" n)
      (ints "printi" [ expected; expected + 1 ])
      (run (Printf.sprintf
              "new x (def D(a) = (x!m[%s] | x!m[%s]) in D[5] \
               | def O(k) = x?{ m(%s) = (io!printi[%s + k] | O[k + 1]) } \
               in O[0])"
              args args params weighted))
  done;
  let _, outs =
    run_vm
      "io!printi[6 * 7] | io!printb[2 < 1] \
       | new x (x![40] | x?(v) = io!printi[v + 2])"
  in
  check (Alcotest.list out_testable) "builtin"
    [ ("printi", [ Value.Vint 42 ]); ("printb", [ Value.Vbool false ]);
      ("printi", [ Value.Vint 42 ]) ]
    outs;
  let vm =
    run_site_program "b"
      {| site b { import p from a in p![20 + 22, 1 < 2, -7, "s"] } |}
  in
  ignore (Machine.pop_remote_op vm);
  let r = Netref.make ~kind:Netref.Channel ~heap_id:0 ~site_id:9 ~ip:9 in
  Machine.spawn vm ~block:1 ~env:[ Value.Vnetref r ];
  ignore (Machine.run vm ~budget:1000);
  match Machine.pop_remote_op vm with
  | Some
      (Machine.Rmsg
        (_, "val",
         [| Value.Vint 42; Value.Vbool true; Value.Vint (-7);
            Value.Vstr "s" |])) -> ()
  | _ -> Alcotest.fail "expected Rmsg with boxed computed args"

(* [Store] boxes a computed value into the frame; loading it back and
   comparing it against the lane gives the value it had. *)
let store_computed () =
  let u =
    Tyco_compiler.Asm.parse
      {|unit entry=b0
block b0 "entry" params=1 slots=3 {
  pushi 20
  pushi 22
  add
  store 1
  pushb true
  not
  store 2
  load 1
  load 0
  trmsg printi/1
  load 2
  load 0
  trmsg printb/1
  load 1
  pushi 42
  eq
  load 0
  trmsg printb/1
}
|}
  in
  let area, entry = Link.of_unit u in
  let vm = Machine.create area in
  let outs = ref [] in
  let io =
    Machine.builtin_chan vm "io" (fun l args -> outs := (l, args) :: !outs)
  in
  Machine.spawn_entry vm ~entry ~io;
  ignore (Machine.run vm ~budget:1000);
  check (Alcotest.list out_testable) "stored values"
    [ ("printi", [ Value.Vint 42 ]); ("printb", [ Value.Vbool false ]);
      ("printb", [ Value.Vbool true ]) ]
    (List.rev !outs)

(* ------------------------------------------------------------------ *)
(* Metrics and scheduling                                              *)

let budget_respected () =
  let unit_ =
    Compile.compile_proc
      (Parser.parse_proc "def Loop() = Loop[] in Loop[]")
  in
  let area, entry = Link.of_unit unit_ in
  let vm = Machine.create area in
  let io = Machine.builtin_chan vm "io" (fun _ _ -> ()) in
  Machine.spawn_entry vm ~entry ~io;
  let executed, cost = Machine.run vm ~budget:500 in
  check Alcotest.bool "stopped near budget" true
    (executed >= 500 && executed < 600);
  check Alcotest.bool "cost positive" true (cost > 0);
  check Alcotest.bool "still runnable" true (Machine.runnable vm)

let thread_granularity () =
  let vm, _ =
    run_vm
      {| def Cell(self, v) =
           self?{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
         in new c (Cell[c, 0] | new r (c!read[r] | r?(v) = io!printi[v])) |}
  in
  let d = Stats.hist (Machine.stats vm) "thread_len" in
  check Alcotest.bool "threads are tens of instructions" true
    (Stats.Hist.count d > 0 && Stats.Hist.mean d < 100.0);
  let threads =
    Stats.Counter.value (Stats.counter (Machine.stats vm) "threads")
  in
  check Alcotest.bool "several threads ran" true (threads >= 4)

let tests =
  [ ("msg then obj", `Quick, msg_then_obj);
    ("obj then msg", `Quick, obj_then_msg);
    ("fifo messages", `Quick, fifo_messages);
    ("fifo objects", `Quick, fifo_objects);
    ("label dispatch", `Quick, label_dispatch);
    ("unmatched message parks", `Quick, unmatched_message_parks);
    ("closure captures env", `Quick, closure_captures_environment);
    ("class group mutual recursion", `Quick, class_env_mutual_recursion);
    ("nested defs", `Quick, nested_defs);
    ("expression ops", `Quick, expression_ops);
    ("if branches", `Quick, if_branches);
    ("string values", `Quick, string_values);
    ("vm dynamic errors", `Quick, vm_errors);
    ("export surfaces remote op", `Quick, export_surfaces);
    ("import surfaces remote op", `Quick, import_surfaces);
    ("remote message surfaces", `Quick, remote_msg_surfaces);
    ("fetch surfaces", `Quick, fetch_surfaces);
    ("run budget respected", `Quick, budget_respected);
    ("thread granularity", `Quick, thread_granularity);
    ("wide frames", `Quick, wide_frames);
    ("spawn arity messages", `Quick, spawn_arity_messages);
    ("fire and park agree", `Quick, fire_and_park_agree);
    ("crunch allocation budget", `Quick, crunch_allocation_budget);
    ("lane equality", `Quick, lane_equality);
    ("lane error messages", `Quick, lane_error_messages);
    ("lane escapes", `Quick, lane_escapes);
    ("store of a computed value", `Quick, store_computed) ]
