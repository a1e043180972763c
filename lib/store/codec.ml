(* Binary record (de)serialization helpers used by the WAL and snapshots.
   Integers are fixed 8-byte little-endian; strings are length-prefixed. *)

let put_int buf i = Buffer.add_int64_le buf (Int64.of_int i)

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let put_list buf put items =
  put_int buf (List.length items);
  List.iter (put buf) items

(* A reader never looks at [src] past [limit]: a WAL record is decoded
   where it sits in the file buffer, bounded to its own bytes. *)
type reader = { src : string; mutable pos : int; limit : int }

exception Decode_error of string

let reader src = { src; pos = 0; limit = String.length src }

let sub_reader src off len =
  if off < 0 || len < 0 || off > String.length src - len then
    invalid_arg "Codec.sub_reader";
  { src; pos = off; limit = off + len }

let get_int r =
  if r.pos > r.limit - 8 then raise (Decode_error "truncated int");
  let v = Int64.to_int (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let get_string r =
  let n = get_int r in
  if n < 0 || n > r.limit - r.pos then raise (Decode_error "truncated string");
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let get_char r =
  if r.pos >= r.limit then raise (Decode_error "truncated char");
  let c = String.unsafe_get r.src r.pos in
  r.pos <- r.pos + 1;
  c

let get_bool r = get_char r <> '\000'

let get_list r get =
  let n = get_int r in
  (* every element takes at least one byte: a count beyond the bytes left
     is corrupt, and rejecting it here bounds the work a bad count costs *)
  if n < 0 || n > r.limit - r.pos then raise (Decode_error "list count out of bounds");
  List.init n (fun _ -> get r)

let at_end r = r.pos >= r.limit
