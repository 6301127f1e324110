(* Write-barrier microbenchmark: the cost of one store into an array
   that lives in the major heap, as the VM's operand stack and run queue
   do.

     dune exec bench/barrier.exe

   Three rows: a [Value.t array] written through [caml_modify] (the
   OCaml 5 write barrier) with a freshly allocated (young) value, the
   same array written with a static value such as the VM's shared
   [Vbool]s, and a plain [int array] store, which has no barrier.  Each
   row is the best of 7 timed passes of [rounds] sweeps over the array;
   the loop overhead is the same in every row. *)

module Value = Tyco_vm.Value

let n = 1024
let rounds = 20_000
let static_v = Value.Vbool true

let time name f =
  let best = ref infinity in
  for _ = 1 to 7 do
    let t0 = Unix.gettimeofday () in
    f ();
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  Printf.printf "%-46s %5.2f ns/store\n%!" name
    (!best *. 1e9 /. float_of_int (n * rounds))

let () =
  let boxed = Array.make n static_v in
  let ints = Array.make n 0 in
  (* promote both arrays, as a long-lived machine's arrays are *)
  Gc.full_major ();
  time "Value.t array <- young value (caml_modify)" (fun () ->
      for r = 1 to rounds do
        let v = Value.Vint r in
        for i = 0 to n - 1 do
          Array.unsafe_set boxed i (Sys.opaque_identity v)
        done
      done);
  time "Value.t array <- static value (caml_modify)" (fun () ->
      for _ = 1 to rounds do
        for i = 0 to n - 1 do
          Array.unsafe_set boxed i (Sys.opaque_identity static_v)
        done
      done);
  time "int array <- int (plain store)" (fun () ->
      for r = 1 to rounds do
        for i = 0 to n - 1 do
          Array.unsafe_set ints i (Sys.opaque_identity (r + i))
        done
      done)
