(* Host-speed calibration for the timing metrics.

   The benchmark shares its host with other load, and the host's speed
   shifts with it: on the 2-core host the bounds were set on, job times
   of one program moved by up to 60% between stretches of seconds to
   minutes.  So a fixed probe -- an allocating loop written here,
   calling nothing in lib/, so no change to the system under test can
   change it -- is timed between jobs, at most every [every_ns], and
   every timing is multiplied by [reference_ms] over the median of the
   last [window] probes: the result is milliseconds at the speed the
   probe ran at in a quiet stretch on that host.  A change that slows
   the program slows its jobs and not the probe, so it shows in full.
   Of the probes tried, this one tracked job times best; loops that only
   walk memory did not follow them. *)

let reference_ms = 0.25
let every_ns = 20_000_000
let window = 9

type v = Int of int | Pair of v * v | List of v list

(* About 0.25 ms of allocation, pattern matching and hashing.  It starts
   on an empty minor heap and allocates less than one, so no collection
   runs inside it and the garbage the benchmark leaves behind cannot
   change its cost. *)
let probe_ms now_ns =
  Gc.minor ();
  let t0 = now_ns () in
  let h = Hashtbl.create 256 in
  let stack = ref [] and acc = ref 0 in
  for i = 1 to 30_000 do
    match i land 7 with
    | 0 | 3 -> stack := Int i :: !stack
    | 1 | 6 -> (match !stack with a :: b :: r -> stack := Pair (a, b) :: r | _ -> ())
    | 2 -> Hashtbl.replace h (i land 255) (List !stack)
    | 4 -> (
        match Hashtbl.find_opt h ((i * 7) land 255) with
        | Some (List l) -> acc := !acc + List.length l
        | _ -> ())
    | _ -> if List.length !stack > 64 then stack := []
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (now_ns () - t0) /. 1e6

let recent = ref []
let last = ref 0
let factor = ref 1.0
let all = ref []

let probe now_ns =
  let p = probe_ms now_ns in
  all := p :: !all;
  recent := List.filteri (fun i _ -> i < window) (p :: !recent);
  let s = List.sort compare !recent in
  factor := reference_ms /. List.nth s (List.length s / 2);
  last := now_ns ()

(* The scale for work measured now; probes first when the last probe
   is older than [every_ns].  The first call warms the probe up (its
   first runs pay for page faults and cold caches), then fills the
   window. *)
let scale now_ns =
  if !recent = [] then begin
    for _ = 1 to window do ignore (probe_ms now_ns) done;
    for _ = 1 to window do probe now_ns done
  end
  else if now_ns () - !last > every_ns then probe now_ns;
  !factor
