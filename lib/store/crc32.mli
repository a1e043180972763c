(** CRC-32 (IEEE 802.3 polynomial), slicing-by-8.

    Used to detect torn or corrupted records in the write-ahead log.
    [string "123456789"] is [0xCBF43926], the standard check value. The
    values are those of the classic bytewise table-driven CRC; this
    implementation folds eight bytes per step. *)

val string : ?init:int -> string -> int
(** [string s = sub s 0 (String.length s)]. *)

val sub : ?init:int -> string -> int -> int -> int
(** [sub s off len] is the CRC of [String.sub s off len], computed in
    place without copying. [init] is a 32-bit CRC register value
    (default [0xFFFFFFFF]).

    @raise Invalid_argument if [off] and [len] do not designate a valid
    range of [s]. *)
