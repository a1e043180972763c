type attribute = { attr_name : Name.t; attr_value : string }

type tree =
  | Element of element
  | Text of string
  | Comment of string
  | Pi of { target : string; data : string }

and element = { name : Name.t; attrs : attribute list; children : tree list }

let elem ?(attrs = []) name children =
  let attrs =
    List.map (fun (k, v) -> { attr_name = Name.of_string k; attr_value = v }) attrs
  in
  Element { name = Name.make name; attrs; children }

let elem_ns ?(attrs = []) name children = Element { name; attrs; children }
let text s = Text s
let attr k v = { attr_name = Name.of_string k; attr_value = v }

let element_name = function Element e -> Some e.name | _ -> None

let attribute_value t name =
  match t with
  | Element e ->
    List.find_map
      (fun a -> if Name.local a.attr_name = name then Some a.attr_value else None)
      e.attrs
  | _ -> None

let child_elements = function
  | Element e -> List.filter (function Element _ -> true | _ -> false) e.children
  | _ -> []

let find_child t name =
  match t with
  | Element e ->
    List.find_opt
      (function Element c -> Name.local c.name = name | _ -> false)
      e.children
  | _ -> None

let rec add_string_value buf = function
  | Text s -> Buffer.add_string buf s
  | Element e -> List.iter (add_string_value buf) e.children
  | Comment _ | Pi _ -> ()

(* A lone text child, the common leaf shape, is returned as is. *)
let rec tree_string_value t =
  match t with
  | Text s -> s
  | Element { children = [ t ]; _ } -> tree_string_value t
  | Element { children = []; _ } | Comment _ | Pi _ -> ""
  | Element e ->
    let buf = Buffer.create 64 in
    List.iter (add_string_value buf) e.children;
    Buffer.contents buf

let rec equal_tree a b =
  match a, b with
  | Text x, Text y -> String.equal x y
  | Comment x, Comment y -> String.equal x y
  | Pi x, Pi y -> String.equal x.target y.target && String.equal x.data y.data
  | Element x, Element y ->
    Name.equal x.name y.name
    && List.length x.attrs = List.length y.attrs
    && List.for_all
         (fun a ->
           List.exists
             (fun b ->
               Name.equal a.attr_name b.attr_name
               && String.equal a.attr_value b.attr_value)
             y.attrs)
         x.attrs
    && List.length x.children = List.length y.children
    && List.for_all2 equal_tree x.children y.children
  | (Text _ | Comment _ | Pi _ | Element _), _ -> false

type document = { id : int; roots : tree list }

(* Documents are created concurrently by workers' evaluation phases
   (constructors, [qs:message()]), so the id counter must be atomic: two
   documents sharing an id would compare as the same node. *)
let doc_counter = Atomic.make 1

let doc_of_forest roots = { id = Atomic.fetch_and_add doc_counter 1; roots }

let doc t = doc_of_forest [ t ]
let doc_id d = d.id
let doc_roots d = d.roots

let document_element d =
  List.find_opt (function Element _ -> true | _ -> false) d.roots

(* A node is identified by the reversed path of steps from the document
   node. [Child i] selects the i-th child (or i-th root for the document
   node); [Attr i] selects the i-th attribute of an element. The focused
   subtree is cached so navigation downwards never re-walks the tree. *)
type step = Child of int | Attr of int

type focus =
  | Fdocument
  | Ftree of tree
  | Fattribute of attribute

type node = { ndoc : document; rpath : step list; nfocus : focus }

let focus n = n.nfocus
let node_document n = n.ndoc
let root_node d = { ndoc = d; rpath = []; nfocus = Fdocument }

let child_trees n =
  match n.nfocus with
  | Fdocument -> n.ndoc.roots
  | Ftree (Element e) -> e.children
  | Ftree (Text _ | Comment _ | Pi _) | Fattribute _ -> []

let children_where keep wrap n =
  let rec go i = function
    | [] -> []
    | t :: rest ->
      if keep t then
        wrap { ndoc = n.ndoc; rpath = Child i :: n.rpath; nfocus = Ftree t }
        :: go (i + 1) rest
      else go (i + 1) rest
  in
  go 0 (child_trees n)

let children n = children_where (fun _ -> true) Fun.id n

let attributes n =
  match n.nfocus with
  | Ftree (Element e) ->
    List.mapi
      (fun i a -> { ndoc = n.ndoc; rpath = Attr i :: n.rpath; nfocus = Fattribute a })
      e.attrs
  | Fdocument | Ftree (Text _ | Comment _ | Pi _) | Fattribute _ -> []

(* Re-resolve a path from the root; used only by [parent]. *)
let resolve_path d rpath =
  let steps = List.rev rpath in
  let rec go focus = function
    | [] -> focus
    | Child i :: rest ->
      let kids =
        match focus with
        | Fdocument -> d.roots
        | Ftree (Element e) -> e.children
        | Ftree _ | Fattribute _ -> []
      in
      go (Ftree (List.nth kids i)) rest
    | Attr i :: rest ->
      (match focus with
       | Ftree (Element e) -> go (Fattribute (List.nth e.attrs i)) rest
       | Fdocument | Ftree _ | Fattribute _ -> invalid_arg "resolve_path")
  in
  go Fdocument steps

let parent n =
  match n.rpath with
  | [] -> None
  | _ :: up ->
    let nfocus = resolve_path n.ndoc up in
    Some { ndoc = n.ndoc; rpath = up; nfocus }

(* Chain walks. [n//t1/t2/.../tk] (child steps without predicates) holds
   the nodes x strictly below [n] whose name path ends in t1..tk: x passes
   tk, its parent t(k-1), ..., its (k-1)-th ancestor t1. A pre-order walk
   decides that per node from its parent's mask alone: bit j of a node's
   mask is set when the node passes t(j+1) and its parent's bit j-1 is
   set (bit 0 needs no parent). A node is a hit when bit k-1 is set.
   Each node has one parent, so every hit is found once, in document
   order, with no intermediate node lists. *)
let max_chain = Sys.int_size - 1

let rec chain_mask test tests parent_mask t j mask =
  if j = Array.length tests then mask
  else if (j = 0 || parent_mask land (1 lsl (j - 1)) <> 0) && test tests.(j) t then
    chain_mask test tests parent_mask t (j + 1) (mask lor (1 lsl j))
  else chain_mask test tests parent_mask t (j + 1) mask

let check_chain tests =
  let k = Array.length tests in
  if k = 0 || k > max_chain then invalid_arg "Tree.chain_where: chain length"

(* A node handle is built only for a hit; the path of an element only when
   the walk descends into its children. *)
let chain_where test tests wrap n =
  check_chain tests;
  let last = 1 lsl (Array.length tests - 1) in
  let ndoc = n.ndoc in
  let rec walk rpath parent_mask trees i acc =
    match trees with
    | [] -> acc
    | t :: rest ->
      let mask = chain_mask test tests parent_mask t 0 0 in
      let kids =
        match t with Element e -> e.children | Text _ | Comment _ | Pi _ -> []
      in
      let hit = mask land last <> 0 in
      let acc =
        if hit || kids <> [] then begin
          let rpath' = Child i :: rpath in
          let acc =
            if hit then wrap { ndoc; rpath = rpath'; nfocus = Ftree t } :: acc else acc
          in
          walk rpath' mask kids 0 acc
        end
        else acc
      in
      walk rpath parent_mask rest (i + 1) acc
  in
  List.rev (walk n.rpath 0 (child_trees n) 0 [])

let chain_first test tests n =
  check_chain tests;
  let last = 1 lsl (Array.length tests - 1) in
  let rec walk parent_mask = function
    | [] -> None
    | t :: rest -> (
      let mask = chain_mask test tests parent_mask t 0 0 in
      if mask land last <> 0 then Some t
      else
        match t with
        | Element e -> (
          match walk mask e.children with
          | Some _ as hit -> hit
          | None -> walk parent_mask rest)
        | Text _ | Comment _ | Pi _ -> walk parent_mask rest)
  in
  walk 0 (child_trees n)

(* Every node below [n]: a one-step chain whose step accepts anything. *)
let descendants n = chain_where (fun () _ -> true) [| () |] Fun.id n
let descendant_or_self n = n :: descendants n

let node_name n =
  match n.nfocus with
  | Ftree (Element e) -> Some e.name
  | Fattribute a -> Some a.attr_name
  | Ftree (Pi p) -> Some (Name.make p.target)
  | Fdocument | Ftree (Text _ | Comment _) -> None

let string_value n =
  match n.nfocus with
  | Fdocument -> (
    match n.ndoc.roots with
    | [ t ] -> tree_string_value t
    | roots ->
      let buf = Buffer.create 64 in
      List.iter (add_string_value buf) roots;
      Buffer.contents buf)
  | Ftree t -> tree_string_value t
  | Fattribute a -> a.attr_value

let is_element n = match n.nfocus with Ftree (Element _) -> true | _ -> false
let is_text n = match n.nfocus with Ftree (Text _) -> true | _ -> false

(* A node's forward path from the document node as integer keys, where an
   element's attributes ([min_int + i]) sort before its children ([i]). *)
let path_key n =
  let len = List.length n.rpath in
  let key = Array.make len 0 in
  List.iteri
    (fun k s -> key.(len - 1 - k) <- (match s with Attr i -> min_int + i | Child i -> i))
    n.rpath;
  key

(* Lexicographic; a prefix (an ancestor) sorts first. *)
let compare_keys ka kb =
  let la = Array.length ka and lb = Array.length kb in
  let rec go k =
    if k = la then if k = lb then 0 else -1
    else if k = lb then 1
    else
      let c = Int.compare ka.(k) kb.(k) in
      if c <> 0 then c else go (k + 1)
  in
  go 0

let doc_order a b =
  let c = Int.compare a.ndoc.id b.ndoc.id in
  if c <> 0 then c else compare_keys (path_key a) (path_key b)

let same_node a b = doc_order a b = 0

(* Each node's key is built once, not once per comparison. *)
let doc_order_uniq = function
  | ([] | [ _ ]) as l -> l
  | nodes ->
    let cmp (ka, a) (kb, b) =
      let c = Int.compare a.ndoc.id b.ndoc.id in
      if c <> 0 then c else compare_keys ka kb
    in
    let rec dedup = function
      | x :: (y :: _ as rest) when cmp x y = 0 -> dedup rest
      | (_, n) :: rest -> n :: dedup rest
      | [] -> []
    in
    dedup (List.stable_sort cmp (List.map (fun n -> (path_key n, n)) nodes))

let node_tree n =
  match n.nfocus with
  | Ftree t -> Some t
  | Fdocument -> document_element n.ndoc
  | Fattribute _ -> None

let rec pp_tree fmt = function
  | Text s -> Format.pp_print_string fmt s
  | Comment s -> Format.fprintf fmt "<!--%s-->" s
  | Pi { target; data } -> Format.fprintf fmt "<?%s %s?>" target data
  | Element e ->
    Format.fprintf fmt "<%s" (Name.to_string e.name);
    List.iter
      (fun a ->
        Format.fprintf fmt " %s=\"%s\"" (Name.to_string a.attr_name) a.attr_value)
      e.attrs;
    if e.children = [] then Format.fprintf fmt "/>"
    else begin
      Format.fprintf fmt ">";
      List.iter (pp_tree fmt) e.children;
      Format.fprintf fmt "</%s>" (Name.to_string e.name)
    end
