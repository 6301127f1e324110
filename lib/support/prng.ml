(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable
   state : int64] field would box a fresh Int64 on every draw (6 words
   per [int], 8 per [float]).  [next_bits] is inlined into every
   drawing function, so the int64 arithmetic stays in registers and a
   draw allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)
let copy t = Bytes.copy t

let[@inline] next_bits t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let next t = next_bits t

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* keep 62 bits so the OCaml int is non-negative *)
  let v = Int64.to_int (Int64.logand (next_bits t) 0x3FFFFFFFFFFFFFFFL) in
  v mod bound

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_bits t) 11) in
  (* 53 significant bits, as in the standard doubles trick *)
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_bits t) 1L = 1L

let pick t = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let shuffle t xs =
  let arr = Array.of_list xs in
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let split t = of_state (mix64 (next_bits t))

(* Pure derivation: no generator is consumed, so every owner can
   compute its own stream from the run seed independently — the
   per-owner discipline the parallel runtime relies on (each shard
   seeds its simulator with [for_owner ~seed ~owner:shard] before its
   domain starts; no [t] is ever shared across domains). *)
let for_owner ~seed ~owner =
  of_state
    (mix64
       (Int64.add (Int64.of_int seed)
          (Int64.mul golden_gamma (Int64.of_int (owner + 1)))))
