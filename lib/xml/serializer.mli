(** XML serialization.

    Produces well-formed XML with correct escaping. Names in non-empty
    namespaces are emitted with generated prefixes ([ns1], [ns2], ...) and
    matching [xmlns:*] declarations on each element that uses them where
    no ancestor has declared them. *)

val escape_text : string -> string
(** Escape [&], [<] and [>] for character data. *)

val escape_attr : string -> string
(** Escape ampersand, angle brackets and double quotes for double-quoted
    attribute values. *)

val to_string : ?decl:bool -> Tree.tree -> string
(** Compact (single-line) serialization. [decl] prepends an XML declaration
    (default [false]). *)

val to_string_pretty : ?indent:int -> Tree.tree -> string
(** Indented serialization for human consumption. Elements with only text
    content stay on one line. [indent] is the per-level indent width
    (default 2). *)
