(** Compact binary XML encoding — the stored payload representation.

    A [Bxml] payload is a self-contained byte string:

    {v
    magic   4 bytes   0x00 'B' 'X' version(0x01)
    header  varint name_count, then per name:
              flag byte   bit0 = used as an element name
                          bit1 = has a namespace URI
              varint len, local bytes
              [varint len, uri bytes]        (only when bit1 is set)
    body    varint byte length, then a pre-order token stream:
              0x01 element: varint name_idx, varint attr_count,
                            attr_count x (varint name_idx,
                                          varint len, value bytes),
                            u32-LE content length, then the children's
                            tokens (exactly that many bytes)
              0x02 text:    varint len, bytes
              0x03 comment: varint len, bytes
              0x04 pi:      varint len, target bytes,
                            varint len, data bytes
    v}

    The design gives three cheap operations that never build a tree:
    {!synopsis} reads only the header (the element-name set is computed
    once, at encode time); {!iter_names} is a single linear SAX-style
    pass over the tokens; and the fixed-width content length lets a
    scanner skip a whole subtree in O(1) ({!root_children}).

    The first magic byte is [0x00], which can never begin a textual XML
    document, so {!is_binary} distinguishes the two stored formats and
    {!decode_any} transparently accepts legacy text payloads.

    Encoding reuses a per-domain scratch arena (token buffer, name
    table, output buffer), so steady-state encoding allocates only the
    result string. *)

exception Decode_error of string

val magic : string
(** The 4-byte format prefix, version byte included. *)

val is_binary : string -> bool
(** [is_binary s] is true iff [s] starts with the binary magic (any
    version). Textual XML payloads always answer [false]. *)

val encode : Tree.tree -> string
(** Encode a tree. The per-domain scratch arena is reused across calls;
    only the returned string is freshly allocated. *)

val decode : string -> Tree.tree
(** Decode a binary payload. Names are resolved through {!Name.intern};
    text contents borrow nothing (OCaml strings are immutable, so
    substrings are copies, but no intermediate tokens are allocated).

    @raise Decode_error on a payload that is not well-formed binary XML. *)

val decode_any : string -> Tree.tree
(** [decode_any s] decodes [s] as binary XML when {!is_binary}, and
    otherwise parses it as textual XML — the compatibility seam that
    lets stores written before the binary format replay unchanged.

    @raise Decode_error on corrupt binary input.
    @raise Parser.Parse_error on malformed textual input. *)

val synopsis : string -> string list
(** [synopsis s] returns the distinct local names used as element names
    in the payload, read from the header alone — O(header), no token
    scan, no tree.

    @raise Decode_error if [s] is not a binary payload or the header is
    corrupt. *)

val iter_synopsis : string -> (int -> int -> unit) -> unit
(** [iter_synopsis s f] reads the same header as {!synopsis} and calls
    [f off len] for each of its element names, whose local part is
    [String.sub s off len]. No name is copied. A name is reported once
    its whole header entry has been read.

    @raise Decode_error as {!synopsis} does; calls made before the
    failure are then void. *)

val iter_names : string -> (string -> unit) -> unit
(** [iter_names s f] calls [f] with the local name of every element
    start token, in document order, in one linear pass over the tokens.
    Duplicates are repeated; no tree is built.

    @raise Decode_error on corrupt input. *)

val root_children : string -> string list
(** Local names of the root element's child elements, in order, using
    the content-length field to skip each child's subtree in O(1) —
    the skip-scan the format exists for.

    @raise Decode_error on corrupt input or a non-element root. *)

val check : string -> (unit, string) result
(** Full structural validation in one streaming pass: magic/version,
    name-index bounds, token framing, and subtree lengths that nest
    exactly. Never builds a tree, never copies a name and never raises;
    its only allocations are the reader and a small nesting stack. *)

val validate : string -> bool
(** [validate s = Result.is_ok (check s)]. *)
