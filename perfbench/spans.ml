(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its own calls into each
   layer; nothing inside the program is instrumented.  A span's [dur]
   is the time it accounts for: [stop - start] for an ordinary span, or
   the sum of the covered calls for an aggregated one (every
   [Simnet.step] of one job of one kind is one aggregated span, with
   [count] calls between [start] and [stop]).  Spans of one job share
   the job id as their trace id.  They stay in memory until the run
   ends and {!write} puts them out as JSON lines. *)

type span = {
  trace : int;
  id : int;
  parent : int;  (* 0: a root *)
  name : string;
  start : int;  (* monotonic ns *)
  stop : int;
  dur : int;
  count : int;
}

let spans : span list ref = ref []
let next_id = ref 0

let record ~trace ~parent ~name ~start ~stop ?(dur = stop - start) ?(count = 1) () =
  incr next_id;
  spans := { trace; id = !next_id; parent; name; start; stop; dur; count } :: !spans;
  !next_id

let count () = List.length !spans

(* Self time of every span that has children: its [dur] minus the
   [dur] of its children. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (s.dur + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s -> (s, s.dur - Option.value ~default:0 (Hashtbl.find_opt child s.id)))
    !spans

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"trace\":%d,\"span\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"dur_ns\":%d,\"count\":%d}\n"
        s.trace s.id s.parent s.name s.start s.stop s.dur s.count)
    (List.rev !spans);
  close_out oc
