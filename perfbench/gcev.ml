(* Per-domain GC attribution from [Runtime_events].

   Started only for the traced half.  Each domain writes to its own
   ring; ring 0 is the main domain, and the domains an engine spawns
   for a job take the next rings (a ring is reused once its domain has
   ended).  Rings from [max_rings - 1] up are folded into the last
   slot.  Counts are cumulative; {!snapshot} and {!diff} cut them into
   windows. *)

module RE = Runtime_events

let max_rings = 3

type ring = {
  mutable minors : int;
  mutable minor_ns : int;
  mutable minor_words : int;
  mutable major_slices : int;
  mutable major_ns : int;
}

let zero () = { minors = 0; minor_ns = 0; minor_words = 0; major_slices = 0; major_ns = 0 }
let rings = Array.init max_rings (fun _ -> zero ())
let minor_t0 = Array.make max_rings (-1)
let major_t0 = Array.make max_rings (-1)
let lost = ref 0
let cursor = ref None

let slot r = min r (max_rings - 1)
let ns ts = Int64.to_int (RE.Timestamp.to_int64 ts)

let callbacks =
  RE.Callbacks.create
    ~runtime_begin:(fun r ts phase ->
      match phase with
      | RE.EV_MINOR -> minor_t0.(slot r) <- ns ts
      | RE.EV_MAJOR_SLICE -> major_t0.(slot r) <- ns ts
      | _ -> ())
    ~runtime_end:(fun r ts phase ->
      let i = slot r in
      let s = rings.(i) in
      match phase with
      | RE.EV_MINOR when minor_t0.(i) >= 0 ->
          s.minors <- s.minors + 1;
          s.minor_ns <- s.minor_ns + (ns ts - minor_t0.(i));
          minor_t0.(i) <- -1
      | RE.EV_MAJOR_SLICE when major_t0.(i) >= 0 ->
          s.major_slices <- s.major_slices + 1;
          s.major_ns <- s.major_ns + (ns ts - major_t0.(i));
          major_t0.(i) <- -1
      | _ -> ())
    ~runtime_counter:(fun r _ c v ->
      match c with
      (* the counter is in bytes *)
      | RE.EV_C_MINOR_ALLOCATED -> rings.(slot r).minor_words <- rings.(slot r).minor_words + (v / 8)
      | _ -> ())
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let start () =
  RE.start ();
  cursor := Some (RE.create_cursor None)

(* Every event so far, read; then a copy of the cumulative counts. *)
let snapshot () =
  Option.iter (fun c -> ignore (RE.read_poll c callbacks None)) !cursor;
  Array.map (fun r -> { r with minors = r.minors }) rings

let diff a b =
  Array.map2
    (fun a b ->
      { minors = a.minors - b.minors; minor_ns = a.minor_ns - b.minor_ns;
        minor_words = a.minor_words - b.minor_words; major_slices = a.major_slices - b.major_slices;
        major_ns = a.major_ns - b.major_ns })
    a b

let add into d =
  Array.iteri
    (fun i d ->
      let s = into.(i) in
      s.minors <- s.minors + d.minors;
      s.minor_ns <- s.minor_ns + d.minor_ns;
      s.minor_words <- s.minor_words + d.minor_words;
      s.major_slices <- s.major_slices + d.major_slices;
      s.major_ns <- s.major_ns + d.major_ns)
    d
