(** Binary min-heap keyed by integer priority, with FIFO tie-breaking —
    the event queue of the discrete-event simulator needs stable order
    for equal timestamps to keep runs reproducible. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> int -> 'a -> unit

val pop : 'a t -> (int * 'a) option
(** Smallest key; among equal keys, insertion order. *)

val peek_key : 'a t -> int option
val peek : 'a t -> (int * 'a) option
