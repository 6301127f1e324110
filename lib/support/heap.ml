(* Entries carry a sequence number so that equal keys pop FIFO. *)
type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = {
  mutable buf : 'a entry array;
  mutable len : int;
  mutable seq : int;
}

let create () = { buf = [||]; len = 0; seq = 0 }
let length t = t.len
let is_empty t = t.len = 0

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let swap t i j =
  let tmp = t.buf.(i) in
  t.buf.(i) <- t.buf.(j);
  t.buf.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.buf.(i) t.buf.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && less t.buf.(l) t.buf.(!smallest) then smallest := l;
  if r < t.len && less t.buf.(r) t.buf.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t key value =
  let entry = { key; seq = t.seq; value } in
  t.seq <- t.seq + 1;
  if t.len = Array.length t.buf then begin
    let cap = max 16 (2 * Array.length t.buf) in
    let buf = Array.make cap entry in
    Array.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end;
  t.buf.(t.len) <- entry;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.buf.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.buf.(0) <- t.buf.(t.len);
      sift_down t 0
    end;
    Some (top.key, top.value)
  end

let peek_key t = if t.len = 0 then None else Some t.buf.(0).key

let peek t =
  if t.len = 0 then None else Some (t.buf.(0).key, t.buf.(0).value)
