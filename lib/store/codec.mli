(** Binary record (de)serialization helpers used by the WAL and snapshots.

    Integers are fixed 8-byte little-endian; strings are length-prefixed;
    lists are count-prefixed. Decoding is bounds-checked and raises
    {!Decode_error} on truncation, never reads out of range. *)

val put_int : Buffer.t -> int -> unit
val put_string : Buffer.t -> string -> unit
val put_bool : Buffer.t -> bool -> unit
val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

type reader = private { src : string; mutable pos : int; limit : int }
(** Decoding reads [src] from [pos] up to, not including, [limit]. *)

exception Decode_error of string

val reader : string -> reader
(** A reader over the whole string. *)

val sub_reader : string -> int -> int -> reader
(** [sub_reader s off len] reads [String.sub s off len] in place.

    @raise Invalid_argument if the range is not within [s]. *)

val get_int : reader -> int
val get_string : reader -> string
val get_char : reader -> char
val get_bool : reader -> bool
val get_list : reader -> (reader -> 'a) -> 'a list
val at_end : reader -> bool
