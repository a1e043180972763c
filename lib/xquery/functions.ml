(* The built-in function library: the fn: functions used by Demaq rules
   plus the qs: queue access functions (dispatched to the host hooks).

   Deviations from XQuery 1.0 F&O, documented here once:
   - [fn:current-dateTime] returns the engine's virtual-clock tick as an
     integer rather than an xs:dateTime.
   - [fn:tokenize] splits on a literal separator string, not a regex. *)

module Tree = Demaq_xml.Tree
open Value
open Context

let err = eval_error

let one_string args_name v =
  match atomize v with
  | [] -> ""
  | [ a ] -> string_of_atomic a
  | _ -> err "%s: expected at most one item" args_name

let one_number name v =
  match atomize v with
  | [ a ] -> number_of_atomic a
  | _ -> err "%s: expected exactly one item" name

let opt_node name v =
  match v with
  | [] -> None
  | [ Node n ] -> Some n
  | _ -> err "%s: expected a single node" name

let bool_value b = [ Atom (Boolean b) ]
let str_value s = [ Atom (String s) ]
let int_value i = [ Atom (Integer i) ]

let numeric_result f = if Float.is_integer f then Integer (int_of_float f) else Decimal f

let ctx_or_arg env name args =
  match args with
  | [] -> [ context_item env ]
  | [ v ] -> v
  | _ -> err "%s: too many arguments" name

(* [fn:round]: the nearest integer, halves toward positive infinity
   ([round(-2.5)] is -2). [x - floor x] is exact, so no sum rounds early. *)
let round_half_up x =
  if Float.is_integer x || Float.is_nan x then x
  else
    let r = Float.floor x in
    let r = if x -. r >= 0.5 then r +. 1. else r in
    if r = 0. && x < 0. then -0. else r

(* [fn:substring] and [fn:subsequence] keep the 1-based positions p with
   [lo <= p < hi], where [lo = round start] and [hi = lo + round length];
   the comparisons are on numbers, so a NaN bound keeps nothing. *)
let position_bounds start length =
  let lo = round_half_up start in
  (lo, match length with None -> Float.infinity | Some l -> lo +. round_half_up l)

let in_bounds (lo, hi) p = lo <= float_of_int p && float_of_int p < hi

let substring s start len_opt =
  let lo, hi = position_bounds start len_opt in
  let n = String.length s in
  if not (lo < hi) then ""
  else
    let clamp x = if x < 1. then 1 else if x > float_of_int (n + 1) then n + 1 else int_of_float x in
    String.sub s (clamp lo - 1) (clamp hi - clamp lo)

let normalize_space s =
  let words =
    String.split_on_char ' ' (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s)
  in
  String.concat " " (List.filter (fun w -> w <> "") words)

let split_on_string ~sep s =
  if sep = "" then err "fn:tokenize: empty separator"
  else begin
    let parts = ref [] in
    let buf = Buffer.create 16 in
    let slen = String.length sep in
    let i = ref 0 in
    while !i < String.length s do
      if !i + slen <= String.length s && String.sub s !i slen = sep then begin
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf;
        i := !i + slen
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    parts := Buffer.contents buf :: !parts;
    List.rev !parts
  end

let aggregate name fold init args =
  match args with
  | [ v ] -> (
    match atomize v with
    | [] -> []
    | atoms ->
      let nums = List.map number_of_atomic atoms in
      if List.exists Float.is_nan nums then err "%s: non-numeric input" name
      else [ Atom (numeric_result (List.fold_left fold init nums)) ])
  | _ -> err "%s: expected one argument" name

let distinct_values v =
  let atoms = atomize v in
  let rec dedup seen = function
    | [] -> []
    | a :: rest ->
      if List.exists (fun b -> compare_atomic a b = 0) seen then dedup seen rest
      else a :: dedup (a :: seen) rest
  in
  List.map (fun a -> Atom a) (dedup [] atoms)

(* Names are matched whole, an unprefixed name standing for its [fn:]
   form, so a call splits no string. The one-argument forms of not,
   boolean, exists, empty and string are not here: the evaluator defines
   them, so that they can stop at a path's first hit. *)
let call env name (args : Value.t list) : Value.t =
  match name, args with
  (* ---- qs: queue library (host hooks) ---- *)
  | "qs:message", [] -> (host env).h_message ()
  | "qs:queue", [] -> (host env).h_queue None
  | "qs:queue", [ v ] -> (host env).h_queue (Some (one_string "qs:queue" v))
  | "qs:property", [ v ] -> (host env).h_property (one_string "qs:property" v)
  | "qs:slice", [] -> (host env).h_slice ()
  | "qs:slicekey", [] -> (host env).h_slicekey ()
  (* ---- booleans ---- *)
  | ("true" | "fn:true"), [] -> bool_value true
  | ("false" | "fn:false"), [] -> bool_value false
  (* ---- sequences ---- *)
  | ("count" | "fn:count"), [ v ] -> int_value (List.length v)
  | ("data" | "fn:data"), [ v ] -> List.map (fun a -> Atom a) (atomize v)
  | ("distinct-values" | "fn:distinct-values"), [ v ] -> distinct_values v
  | ("reverse" | "fn:reverse"), [ v ] -> List.rev v
  | ("index-of" | "fn:index-of"), [ v; x ] -> (
    match atomize x with
    | [ target ] ->
      List.concat
        (List.mapi
           (fun i item ->
             if compare_atomic (atomize_item item) target = 0 then
               [ Atom (Integer (i + 1)) ]
             else [])
           v)
    | _ -> err "fn:index-of: second argument must be a single atomic")
  | ("subsequence" | "fn:subsequence"), [ v; s ] ->
    let bounds = position_bounds (one_number "fn:subsequence" s) None in
    List.filteri (fun i _ -> in_bounds bounds (i + 1)) v
  | ("subsequence" | "fn:subsequence"), [ v; s; l ] ->
    let bounds =
      position_bounds (one_number "fn:subsequence" s)
        (Some (one_number "fn:subsequence" l))
    in
    List.filteri (fun i _ -> in_bounds bounds (i + 1)) v
  | ("insert-before" | "fn:insert-before"), [ v; p; ins ] ->
    let p = max 1 (int_of_float (one_number "fn:insert-before" p)) in
    let rec go i = function
      | [] -> ins
      | x :: rest -> if i = p then ins @ (x :: rest) else x :: go (i + 1) rest
    in
    go 1 v
  | ("remove" | "fn:remove"), [ v; p ] ->
    let p = int_of_float (one_number "fn:remove" p) in
    List.filteri (fun i _ -> i + 1 <> p) v
  (* ---- context ---- *)
  | ("position" | "fn:position"), [] -> int_value env.pos
  | ("last" | "fn:last"), [] -> int_value env.size
  | ("root" | "fn:root"), args ->
    (match opt_node "fn:root" (ctx_or_arg env "fn:root" args) with
     | None -> []
     | Some n -> [ Node (Tree.root_node (Tree.node_document n)) ])
  | ("name" | "local-name" | "fn:name" | "fn:local-name"), args ->
    (match opt_node "fn:name" (ctx_or_arg env "fn:name" args) with
     | None -> str_value ""
     | Some n ->
       str_value
         (match Tree.node_name n with
          | Some nm -> Demaq_xml.Name.local nm
          | None -> ""))
  (* ---- strings ---- *)
  | ("string" | "fn:string"), [] -> str_value (string_value [ context_item env ])
  | ("concat" | "fn:concat"), args when List.length args >= 2 ->
    str_value (String.concat "" (List.map (one_string "fn:concat") args))
  | ("string-join" | "fn:string-join"), [ v; sep ] ->
    let sep = one_string "fn:string-join" sep in
    str_value (String.concat sep (List.map string_of_atomic (atomize v)))
  | ("string-length" | "fn:string-length"), args ->
    int_value (String.length (string_value (ctx_or_arg env "fn:string-length" args)))
  | ("contains" | "fn:contains"), [ a; b ] ->
    let s = one_string "fn:contains" a and sub = one_string "fn:contains" b in
    let n = String.length sub in
    let rec find i =
      i + n <= String.length s && (String.sub s i n = sub || find (i + 1))
    in
    bool_value (n = 0 || find 0)
  | ("starts-with" | "fn:starts-with"), [ a; b ] ->
    let s = one_string "fn:starts-with" a and p = one_string "fn:starts-with" b in
    bool_value
      (String.length p <= String.length s
      && String.sub s 0 (String.length p) = p)
  | ("ends-with" | "fn:ends-with"), [ a; b ] ->
    let s = one_string "fn:ends-with" a and p = one_string "fn:ends-with" b in
    bool_value
      (String.length p <= String.length s
      && String.sub s (String.length s - String.length p) (String.length p) = p)
  | ("substring" | "fn:substring"), [ a; b ] ->
    str_value
      (substring (one_string "fn:substring" a) (one_number "fn:substring" b) None)
  | ("substring" | "fn:substring"), [ a; b; c ] ->
    str_value
      (substring (one_string "fn:substring" a) (one_number "fn:substring" b)
         (Some (one_number "fn:substring" c)))
  | ("substring-before" | "fn:substring-before"), [ a; b ] ->
    let s = one_string "fn:substring-before" a
    and sep = one_string "fn:substring-before" b in
    (match split_on_string ~sep s with
     | first :: _ :: _ -> str_value first
     | _ -> str_value "")
  | ("substring-after" | "fn:substring-after"), [ a; b ] ->
    let s = one_string "fn:substring-after" a
    and sep = one_string "fn:substring-after" b in
    (match split_on_string ~sep s with
     | _ :: (_ :: _ as rest) -> str_value (String.concat sep rest)
     | _ -> str_value "")
  | ("normalize-space" | "fn:normalize-space"), args ->
    str_value (normalize_space (string_value (ctx_or_arg env "fn:normalize-space" args)))
  | ("upper-case" | "fn:upper-case"), [ v ] ->
    str_value (String.uppercase_ascii (one_string "fn:upper-case" v))
  | ("lower-case" | "fn:lower-case"), [ v ] ->
    str_value (String.lowercase_ascii (one_string "fn:lower-case" v))
  | ("tokenize" | "fn:tokenize"), [ v; sep ] ->
    let s = one_string "fn:tokenize" v and sep = one_string "fn:tokenize" sep in
    List.map (fun part -> Atom (String part)) (split_on_string ~sep s)
  | ("translate" | "fn:translate"), [ v; from_; to_ ] ->
    let s = one_string "fn:translate" v in
    let from_ = one_string "fn:translate" from_
    and to_ = one_string "fn:translate" to_ in
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match String.index_opt from_ c with
        | Some i -> if i < String.length to_ then Buffer.add_char buf to_.[i]
        | None -> Buffer.add_char buf c)
      s;
    str_value (Buffer.contents buf)
  | ("replace" | "fn:replace"), [ v; pat; rep ] ->
    (* Deviation from F&O: [pat] is a literal substring, not a regex. *)
    let s = one_string "fn:replace" v in
    let pat = one_string "fn:replace" pat and rep = one_string "fn:replace" rep in
    str_value (String.concat rep (split_on_string ~sep:pat s))
  | ("matches" | "fn:matches"), [ v; pat ] ->
    (* Deviation from F&O: substring containment, not a regex. *)
    let s = one_string "fn:matches" v and pat = one_string "fn:matches" pat in
    bool_value (pat = "" || List.length (split_on_string ~sep:pat s) > 1)
  | ("compare" | "fn:compare"), [ a; b ] ->
    int_value (String.compare (one_string "fn:compare" a) (one_string "fn:compare" b))
  (* ---- numbers ---- *)
  | ("number" | "fn:number"), args -> (
    match atomize (ctx_or_arg env "fn:number" args) with
    | [ a ] -> [ Atom (Decimal (number_of_atomic a)) ]
    | _ -> [ Atom (Decimal Float.nan) ])
  | ("sum" | "fn:sum"), _ -> aggregate "fn:sum" ( +. ) 0.0 args
  | ("avg" | "fn:avg"), [ v ] -> (
    match atomize v with
    | [] -> []
    | atoms ->
      let nums = List.map number_of_atomic atoms in
      if List.exists Float.is_nan nums then err "fn:avg: non-numeric input"
      else
        [ Atom
            (Decimal (List.fold_left ( +. ) 0.0 nums /. float_of_int (List.length nums)))
        ])
  | ("max" | "fn:max"), [ v ] -> (
    match atomize v with
    | [] -> []
    | a :: rest ->
      [ Atom (List.fold_left (fun m x -> if compare_atomic x m > 0 then x else m) a rest) ])
  | ("min" | "fn:min"), [ v ] -> (
    match atomize v with
    | [] -> []
    | a :: rest ->
      [ Atom (List.fold_left (fun m x -> if compare_atomic x m < 0 then x else m) a rest) ])
  | ("abs" | "fn:abs"), [ v ] -> [ Atom (numeric_result (Float.abs (one_number "fn:abs" v))) ]
  | ("floor" | "fn:floor"), [ v ] ->
    [ Atom (numeric_result (Float.floor (one_number "fn:floor" v))) ]
  | ("ceiling" | "fn:ceiling"), [ v ] ->
    [ Atom (numeric_result (Float.ceil (one_number "fn:ceiling" v))) ]
  | ("round" | "fn:round"), [ v ] ->
    [ Atom (numeric_result (round_half_up (one_number "fn:round" v))) ]
  | ("deep-equal" | "fn:deep-equal"), [ a; b ] ->
    let item_eq x y =
      match x, y with
      | Atom p, Atom q -> compare_atomic p q = 0
      | Node p, Node q -> (
        match Tree.node_tree p, Tree.node_tree q with
        | Some tp, Some tq -> Tree.equal_tree tp tq
        | None, None -> Tree.string_value p = Tree.string_value q
        | _ -> false)
      | (Atom _ | Node _), _ -> false
    in
    bool_value (List.length a = List.length b && List.for_all2 item_eq a b)
  | ("zero-or-one" | "fn:zero-or-one"), [ v ] ->
    if List.length v <= 1 then v else err "fn:zero-or-one: more than one item"
  | ("one-or-more" | "fn:one-or-more"), [ v ] ->
    if v <> [] then v else err "fn:one-or-more: empty sequence"
  | ("exactly-one" | "fn:exactly-one"), [ v ] ->
    if List.length v = 1 then v else err "fn:exactly-one: not a singleton"
  (* ---- environment ---- *)
  | ("current-dateTime" | "fn:current-dateTime"), [] -> int_value ((host env).h_now ())
  | ("collection" | "fn:collection"), [ v ] ->
    (host env).h_collection (one_string "fn:collection" v)
  | ("trace" | "fn:trace"), [ v; label ] ->
    (* identity with a side-channel: the classic F&O debugging hook *)
    Logs.debug (fun f ->
        f "fn:trace %s: %s" (one_string "fn:trace" label)
          (String.concat ", " (List.map string_of_atomic (atomize v))));
    v
  | ("error" | "fn:error"), [] -> err "fn:error()"
  | ("error" | "fn:error"), [ v ] -> err "%s" (one_string "fn:error" v)
  | _ ->
    if String.starts_with ~prefix:"qs:" name then err "unknown qs: function %s" name
    else err "unknown function %s#%d" name (List.length args)
