(* Compact binary XML: tokenized pre-order stream with an interned-name
   dictionary and fixed-width subtree lengths. See bxml.mli for the
   format layout. *)

exception Decode_error of string

let fail msg = raise (Decode_error msg)
let failf fmt = Printf.ksprintf fail fmt
let version = '\x01'
let magic = Printf.sprintf "\x00BX%c" version

(* Flag bits in the per-name header byte. *)
let flag_element = 0x01
let flag_has_uri = 0x02

let is_binary s =
  String.length s >= 3 && s.[0] = '\x00' && s.[1] = 'B' && s.[2] = 'X'

(* ------------------------------------------------------------------ *)
(* Encoder: per-domain scratch arena                                   *)
(* ------------------------------------------------------------------ *)

(* The token stream is built in a growable [Bytes.t] rather than a
   [Buffer.t] because element content lengths are backpatched: we
   reserve 4 bytes at the element header, encode the children, then
   write the length into the reservation. *)
type enc = {
  mutable tok : Bytes.t;
  mutable tlen : int;
  out : Buffer.t;
  tbl : (Name.t, int) Hashtbl.t;
  mutable names : Name.t array;
  mutable elem_used : Bytes.t; (* one flag byte per interned name *)
  mutable ncount : int;
}

let initial_tok = 1024
let initial_names = 64
let scratch_cap = 1 lsl 20 (* shrink arenas bigger than 1 MiB after use *)
let no_name = Name.make ""

let make_enc () =
  {
    tok = Bytes.create initial_tok;
    tlen = 0;
    out = Buffer.create 256;
    tbl = Hashtbl.create initial_names;
    names = Array.make 16 no_name;
    elem_used = Bytes.make 16 '\x00';
    ncount = 0;
  }

let scratch_key = Domain.DLS.new_key make_enc

(* [Hashtbl.clear] keeps the bucket array, so the common small message
   allocates none; a table grown past its initial size is shrunk. *)
let reset e =
  e.tlen <- 0;
  Buffer.clear e.out;
  if e.ncount > 0 then begin
    if e.ncount > 2 * initial_names then Hashtbl.reset e.tbl else Hashtbl.clear e.tbl;
    Bytes.fill e.elem_used 0 e.ncount '\x00';
    e.ncount <- 0
  end

(* Release oversized scratch after an unusually large message so one
   outlier doesn't pin memory for the domain's lifetime. *)
let shrink e =
  if Bytes.length e.tok > scratch_cap then e.tok <- Bytes.create initial_tok;
  if Buffer.length e.out > scratch_cap then Buffer.reset e.out

let ensure e n =
  if e.tlen + n > Bytes.length e.tok then begin
    let cap = ref (Bytes.length e.tok * 2) in
    while e.tlen + n > !cap do
      cap := !cap * 2
    done;
    let tok = Bytes.create !cap in
    Bytes.blit e.tok 0 tok 0 e.tlen;
    e.tok <- tok
  end

let put_u8 e b =
  ensure e 1;
  Bytes.unsafe_set e.tok e.tlen (Char.unsafe_chr (b land 0xff));
  e.tlen <- e.tlen + 1

let rec put_varint e v =
  if v < 0x80 then put_u8 e v
  else begin
    put_u8 e (0x80 lor (v land 0x7f));
    put_varint e (v lsr 7)
  end

let put_string e s =
  let n = String.length s in
  put_varint e n;
  ensure e n;
  Bytes.blit_string s 0 e.tok e.tlen n;
  e.tlen <- e.tlen + n

let reserve_u32 e =
  ensure e 4;
  let at = e.tlen in
  e.tlen <- e.tlen + 4;
  at

let patch_u32 e at v =
  if v > 0xFFFFFFFF then fail "subtree too large for u32 content length";
  Bytes.set_int32_le e.tok at (Int32.of_int v)

let name_id e ~elem name =
  let idx =
    match Hashtbl.find e.tbl name with
    | i -> i
    | exception Not_found ->
      let i = e.ncount in
      if i = Array.length e.names then begin
        let names = Array.make (2 * i) no_name in
        Array.blit e.names 0 names 0 i;
        e.names <- names;
        let elem_used = Bytes.make (2 * i) '\x00' in
        Bytes.blit e.elem_used 0 elem_used 0 i;
        e.elem_used <- elem_used
      end;
      e.names.(i) <- name;
      Hashtbl.add e.tbl name i;
      e.ncount <- i + 1;
      i
  in
  if elem then Bytes.set e.elem_used idx '\x01';
  idx

let tok_element = 0x01
let tok_text = 0x02
let tok_comment = 0x03
let tok_pi = 0x04

let rec encode_tree e t =
  match t with
  | Tree.Text s ->
    put_u8 e tok_text;
    put_string e s
  | Tree.Comment s ->
    put_u8 e tok_comment;
    put_string e s
  | Tree.Pi { target; data } ->
    put_u8 e tok_pi;
    put_string e target;
    put_string e data
  | Tree.Element { name; attrs; children } ->
    put_u8 e tok_element;
    put_varint e (name_id e ~elem:true name);
    put_varint e (List.length attrs);
    encode_attrs e attrs;
    let at = reserve_u32 e in
    let start = e.tlen in
    encode_children e children;
    patch_u32 e at (e.tlen - start)

(* Loops, not [List.iter] over a closure: one closure per element adds up
   on every enqueue. *)
and encode_attrs e = function
  | [] -> ()
  | { Tree.attr_name; attr_value } :: rest ->
    put_varint e (name_id e ~elem:false attr_name);
    put_string e attr_value;
    encode_attrs e rest

and encode_children e = function
  | [] -> ()
  | t :: rest ->
    encode_tree e t;
    encode_children e rest

let buf_varint b v =
  let rec go v =
    if v < 0x80 then Buffer.add_char b (Char.unsafe_chr v)
    else begin
      Buffer.add_char b (Char.unsafe_chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

let encode t =
  let e = Domain.DLS.get scratch_key in
  reset e;
  encode_tree e t;
  Buffer.add_string e.out magic;
  buf_varint e.out e.ncount;
  for i = 0 to e.ncount - 1 do
    let n = e.names.(i) in
    let local = Name.local n and uri = Name.uri n in
    let flags =
      (if Bytes.get e.elem_used i <> '\x00' then flag_element else 0)
      lor if uri <> "" then flag_has_uri else 0
    in
    Buffer.add_char e.out (Char.unsafe_chr flags);
    buf_varint e.out (String.length local);
    Buffer.add_string e.out local;
    if uri <> "" then begin
      buf_varint e.out (String.length uri);
      Buffer.add_string e.out uri
    end
  done;
  buf_varint e.out e.tlen;
  Buffer.add_subbytes e.out e.tok 0 e.tlen;
  let s = Buffer.contents e.out in
  shrink e;
  s

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)
(* ------------------------------------------------------------------ *)

type rd = { s : string; mutable pos : int }

let u8 r limit =
  if r.pos >= limit then fail "truncated payload";
  let b = Char.code (String.unsafe_get r.s r.pos) in
  r.pos <- r.pos + 1;
  b

(* A loop: a local recursive function would allocate a closure per call. *)
let varint r limit =
  let acc = ref 0 in
  let shift = ref 0 in
  let more = ref true in
  while !more do
    if !shift > 56 then fail "varint too long";
    let b = u8 r limit in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    if b < 0x80 then more := false else shift := !shift + 7
  done;
  !acc

let read_str r limit =
  let n = varint r limit in
  if n < 0 || n > limit - r.pos then fail "string length out of bounds";
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let skip_str r limit =
  let n = varint r limit in
  if n < 0 || n > limit - r.pos then fail "string length out of bounds";
  r.pos <- r.pos + n

(* in bounds for every caller: the range is checked against a limit that
   lies within [s] *)
let u32_at s p =
  Char.code (String.unsafe_get s p)
  lor (Char.code (String.unsafe_get s (p + 1)) lsl 8)
  lor (Char.code (String.unsafe_get s (p + 2)) lsl 16)
  lor (Char.code (String.unsafe_get s (p + 3)) lsl 24)

let u32 r limit =
  if limit - r.pos < 4 then fail "truncated u32";
  let v = u32_at r.s r.pos in
  r.pos <- r.pos + 4;
  v

let check_magic s =
  if not (is_binary s) then fail "not a binary XML payload";
  if String.length s < 4 then fail "truncated magic";
  if s.[3] <> version then failf "unsupported binary XML version %d" (Char.code s.[3])

(* Header pass shared by the decoders: [on_name index local uri_opt]. *)
let read_header r limit on_name =
  let count = varint r limit in
  if count > limit - r.pos then fail "name count out of bounds";
  for i = 0 to count - 1 do
    let flags = u8 r limit in
    let local = read_str r limit in
    let uri = if flags land flag_has_uri <> 0 then Some (read_str r limit) else None in
    on_name i local uri
  done;
  count

let body_limit r =
  let total = String.length r.s in
  let blen = varint r total in
  if blen > total - r.pos then fail "truncated token stream";
  if r.pos + blen <> total then fail "trailing bytes after token stream";
  total

let name_table r limit =
  let names = ref [||] in
  let n =
    read_header r limit (fun i local uri ->
        if i = 0 then names := Array.make (max 1 16) no_name;
        if i >= Array.length !names then begin
          let bigger = Array.make (2 * Array.length !names) no_name in
          Array.blit !names 0 bigger 0 (Array.length !names);
          names := bigger
        end;
        !names.(i) <- (match uri with Some uri -> Name.intern ~uri local | None -> Name.intern local))
  in
  (!names, n)

let name_at names n idx =
  if idx < 0 || idx >= n then failf "name index %d out of range" idx;
  names.(idx)

let rec decode_seq r names n limit acc =
  if r.pos >= limit then List.rev acc
  else begin
    let t = decode_tree r names n limit in
    decode_seq r names n limit (t :: acc)
  end

and decode_tree r names n limit =
  match u8 r limit with
  | 0x01 ->
    let name = name_at names n (varint r limit) in
    let nattrs = varint r limit in
    if nattrs > limit - r.pos then fail "attribute count out of bounds";
    let attrs = decode_attrs r names n limit nattrs [] in
    let clen = u32 r limit in
    let cend = r.pos + clen in
    if cend > limit then fail "subtree length out of bounds";
    let children = decode_seq r names n cend [] in
    if r.pos <> cend then fail "subtree underrun";
    Tree.Element { name; attrs; children }
  | 0x02 -> Tree.Text (read_str r limit)
  | 0x03 -> Tree.Comment (read_str r limit)
  | 0x04 ->
    let target = read_str r limit in
    let data = read_str r limit in
    Tree.Pi { target; data }
  | t -> failf "unknown token 0x%02x" t

and decode_attrs r names n limit k acc =
  if k = 0 then List.rev acc
  else begin
    let attr_name = name_at names n (varint r limit) in
    let attr_value = read_str r limit in
    decode_attrs r names n limit (k - 1) ({ Tree.attr_name; attr_value } :: acc)
  end

let decode s =
  check_magic s;
  let r = { s; pos = 4 } in
  let names, n = name_table r (String.length s) in
  let limit = body_limit r in
  let t = decode_tree r names n limit in
  if r.pos <> limit then fail "trailing tokens after root";
  t

let decode_any s = if is_binary s then decode s else Parser.parse s

(* ------------------------------------------------------------------ *)
(* Streaming accessors: no tree construction                           *)
(* ------------------------------------------------------------------ *)

(* The header's element names, in place: [f off len] for each name used
   as an element, whose local part is [String.sub s off len]. Nothing is
   copied; a name is reported only once its whole header entry (URI
   included) has been read. *)
let iter_synopsis s f =
  check_magic s;
  let r = { s; pos = 4 } in
  let limit = String.length s in
  let count = varint r limit in
  if count > limit - r.pos then fail "name count out of bounds";
  for _ = 1 to count do
    let flags = u8 r limit in
    let len = varint r limit in
    if len < 0 || len > limit - r.pos then fail "string length out of bounds";
    let off = r.pos in
    r.pos <- r.pos + len;
    if flags land flag_has_uri <> 0 then skip_str r limit;
    if flags land flag_element <> 0 then f off len
  done

let synopsis s =
  let acc = ref [] in
  iter_synopsis s (fun off len -> acc := String.sub s off len :: !acc);
  List.rev !acc

(* Header pass that keeps only local names (no interning): the table an
   element-token scan needs. *)
let local_table r limit =
  let locals = ref [||] in
  let n =
    read_header r limit (fun i local _ ->
        if i = 0 then locals := Array.make 16 "";
        if i >= Array.length !locals then begin
          let bigger = Array.make (2 * Array.length !locals) "" in
          Array.blit !locals 0 bigger 0 (Array.length !locals);
          locals := bigger
        end;
        !locals.(i) <- local)
  in
  (!locals, n)

(* Validation has always accepted a negative index (an overlong varint);
   [check] keeps that verdict, and the scans that use the index guard it
   with [local_at]. *)
let name_index r n limit =
  let idx = varint r limit in
  if idx >= n then failf "name index %d out of range" idx;
  idx

let local_at locals idx =
  if idx < 0 then failf "name index %d out of range" idx;
  locals.(idx)

(* After an element's name index: skip its attribute block and read its
   content length, checked against [limit]. *)
let content_length r n limit =
  let nattrs = varint r limit in
  if nattrs > limit - r.pos then fail "attribute count out of bounds";
  for _ = 1 to nattrs do
    ignore (name_index r n limit);
    skip_str r limit
  done;
  let clen = u32 r limit in
  if clen > limit - r.pos then fail "subtree length out of bounds";
  clen

(* The token stream is self-describing pre-order: a full scan just reads
   tokens linearly, never recursing — content lengths are only needed
   to *skip*. *)
let iter_names s f =
  check_magic s;
  let r = { s; pos = 4 } in
  let locals, n = local_table r (String.length s) in
  let limit = body_limit r in
  while r.pos < limit do
    match u8 r limit with
    | 0x01 ->
      f (local_at locals (name_index r n limit));
      let nattrs = varint r limit in
      if nattrs > limit - r.pos then fail "attribute count out of bounds";
      for _ = 1 to nattrs do
        ignore (name_index r n limit);
        skip_str r limit
      done;
      ignore (u32 r limit)
    | 0x02 | 0x03 -> skip_str r limit
    | 0x04 ->
      skip_str r limit;
      skip_str r limit
    | t -> failf "unknown token 0x%02x" t
  done

let root_children s =
  check_magic s;
  let r = { s; pos = 4 } in
  let locals, n = local_table r (String.length s) in
  let limit = body_limit r in
  if u8 r limit <> tok_element then fail "root token is not an element";
  ignore (name_index r n limit);
  let clen = content_length r n limit in
  let cend = r.pos + clen in
  let acc = ref [] in
  while r.pos < cend do
    match u8 r cend with
    | 0x01 ->
      (* O(1) child skip: the content length jumps the whole subtree. *)
      let idx = name_index r n cend in
      let clen = content_length r n cend in
      acc := local_at locals idx :: !acc;
      r.pos <- r.pos + clen
    | 0x02 | 0x03 -> skip_str r cend
    | 0x04 ->
      skip_str r cend;
      skip_str r cend
    | t -> failf "unknown token 0x%02x" t
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

(* Validation is the restart path's per-record cost, so it threads the
   read position through its helpers as an int instead of mutating a
   reader: the position stays in a register, and each helper returns the
   position after what it read. It fails with the same messages, in the
   same order, as the reader-based passes above. It copies nothing: the
   header is skipped, not tabled, and the end offsets of the enclosing
   non-empty subtrees live in an int array used as a stack, so lengths are
   checked to nest exactly. *)

(* Position after the varint at [p]; fails where [varint] would. *)
let[@inline] varint_end s p limit =
  let q = ref p in
  while
    if !q - p > 8 then fail "varint too long";
    if !q >= limit then fail "truncated payload";
    Char.code (String.unsafe_get s !q) >= 0x80
  do
    incr q
  done;
  !q + 1

(* Value of the varint at [p], which [varint_end] has accepted. *)
let[@inline] varint_at s p =
  let acc = ref 0 and q = ref p in
  while Char.code (String.unsafe_get s !q) >= 0x80 do
    acc := !acc lor ((Char.code (String.unsafe_get s !q) land 0x7f) lsl (7 * (!q - p)));
    incr q
  done;
  !acc lor (Char.code (String.unsafe_get s !q) lsl (7 * (!q - p)))

(* Position after the length-prefixed string at [p]. *)
let[@inline] str_end s p limit =
  let q = varint_end s p limit in
  let n = varint_at s p in
  if n < 0 || n > limit - q then fail "string length out of bounds";
  q + n

let check s =
  match
    check_magic s;
    let limit = String.length s in
    let pos = ref (varint_end s 4 limit) in
    let n = varint_at s 4 in
    if n > limit - !pos then fail "name count out of bounds";
    for _ = 1 to n do
      if !pos >= limit then fail "truncated payload";
      let flags = Char.code (String.unsafe_get s !pos) in
      pos := str_end s (!pos + 1) limit;
      if flags land flag_has_uri <> 0 then pos := str_end s !pos limit
    done;
    let e = varint_end s !pos limit in
    let blen = varint_at s !pos in
    pos := e;
    if blen > limit - !pos then fail "truncated token stream";
    if !pos + blen <> limit then fail "trailing bytes after token stream";
    let stack = ref (Array.make 16 0) in
    let depth = ref 0 in
    let roots = ref 0 in
    while !pos < limit do
      if !depth = 0 then incr roots;
      let tok = Char.code (String.unsafe_get s !pos) in
      incr pos;
      (match tok with
      | 0x01 ->
        let e = varint_end s !pos limit in
        let idx = varint_at s !pos in
        if idx >= n then failf "name index %d out of range" idx;
        pos := varint_end s e limit;
        let nattrs = varint_at s e in
        if nattrs > limit - !pos then fail "attribute count out of bounds";
        for _ = 1 to nattrs do
          let e = varint_end s !pos limit in
          let aidx = varint_at s !pos in
          if aidx >= n then failf "name index %d out of range" aidx;
          pos := str_end s e limit
        done;
        if limit - !pos < 4 then fail "truncated u32";
        let clen = u32_at s !pos in
        pos := !pos + 4;
        if clen > limit - !pos then fail "subtree length out of bounds";
        let cend = !pos + clen in
        let enclosing = if !depth = 0 then limit else !stack.(!depth - 1) in
        if cend > enclosing then fail "subtree length out of bounds";
        if clen > 0 then begin
          if !depth = Array.length !stack then begin
            let bigger = Array.make (2 * !depth) 0 in
            Array.blit !stack 0 bigger 0 !depth;
            stack := bigger
          end;
          !stack.(!depth) <- cend;
          incr depth
        end
      | 0x02 | 0x03 -> pos := str_end s !pos limit
      | 0x04 -> pos := str_end s (str_end s !pos limit) limit
      | t -> failf "unknown token 0x%02x" t);
      while !depth > 0 && !stack.(!depth - 1) = !pos do
        decr depth
      done;
      if !depth > 0 && !pos > !stack.(!depth - 1) then
        fail "token overruns enclosing subtree"
    done;
    if !depth > 0 then fail "truncated subtree";
    if !roots <> 1 then failf "expected one root token, found %d" !roots
  with
  | () -> Ok ()
  | exception Decode_error msg -> Error msg

let validate s = match check s with Ok () -> true | Error _ -> false
