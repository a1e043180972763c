module Tree = Demaq_xml.Tree
module Name = Demaq_xml.Name
open Ast
open Value
open Context

exception Eval_error = Context.Eval_error

let err = eval_error

let node_of_tree tree =
  match Tree.children (Tree.root_node (Tree.doc tree)) with
  | [ n ] -> n
  | _ -> assert false

let doc_node_of_tree tree = Tree.root_node (Tree.doc tree)

(* A standalone attribute node (result of a computed attribute
   constructor): materialized as the sole attribute of a hidden holder
   element so it has a position in a document. *)
let attribute_node name value =
  let holder =
    Tree.Element
      {
        name = Name.make "#attribute-holder";
        attrs = [ { Tree.attr_name = Name.make name; attr_value = value } ];
        children = [];
      }
  in
  match Tree.attributes (node_of_tree holder) with
  | [ a ] -> a
  | _ -> assert false

let is_attribute_node n =
  match Tree.focus n with Tree.Fattribute _ -> true | _ -> false

(* [instance of] item matching. xs:integer is derived from xs:decimal in
   the XDM type hierarchy, so integers match both. *)
let item_matches item (it : Ast.item_type) =
  match it, item with
  | Ast.It_item, _ -> true
  | Ast.It_anyatomic, Atom _ -> true
  | Ast.It_untyped, Atom a -> (match a with Untyped _ -> true | _ -> false)
  | Ast.It_atomic ty, Atom a -> (
    match ty, a with
    | Value.T_string, String _ -> true
    | Value.T_integer, Integer _ -> true
    | Value.T_decimal, (Decimal _ | Integer _) -> true
    | Value.T_boolean, Boolean _ -> true
    | (Value.T_string | Value.T_integer | Value.T_decimal | Value.T_boolean), _ ->
      false)
  | (Ast.It_atomic _ | Ast.It_untyped | Ast.It_anyatomic), Node _ -> false
  | Ast.It_node, Node _ -> true
  | Ast.It_text, Node n -> Tree.is_text n
  | Ast.It_document, Node n ->
    (match Tree.focus n with Tree.Fdocument -> true | _ -> false)
  | Ast.It_element name, Node n -> (
    match Tree.focus n with
    | Tree.Ftree (Tree.Element e) ->
      (match name with Some nm -> Name.local e.Tree.name = nm | None -> true)
    | _ -> false)
  | Ast.It_attribute name, Node n -> (
    match Tree.focus n with
    | Tree.Fattribute a ->
      (match name with Some nm -> Name.local a.Tree.attr_name = nm | None -> true)
    | _ -> false)
  | (Ast.It_node | Ast.It_text | Ast.It_document | Ast.It_element _
    | Ast.It_attribute _), Atom _ -> false

let seq_matches v (st : Ast.seq_type) =
  match st with
  | Ast.St_empty -> v = []
  | Ast.St (it, occ) ->
    let n = List.length v in
    let count_ok =
      match occ with
      | `One -> n = 1
      | `Optional -> n <= 1
      | `Star -> true
      | `Plus -> n >= 1
    in
    count_ok && List.for_all (fun item -> item_matches item it) v

(* Deep copy of a node into a standalone tree (XQuery constructors copy
   their content). *)
let tree_of_node n =
  match Tree.node_tree n with
  | Some t -> t
  | None -> Tree.Text (Tree.string_value n)

let test_tree test (t : Tree.tree) =
  match test, t with
  | Node_kind_test, _ -> true
  | Wildcard, Tree.Element _ -> true
  | Text_test, Tree.Text _ -> true
  | Comment_test, Tree.Comment _ -> true
  | Name_test local, Tree.Element e -> String.equal (Name.local e.Tree.name) local
  | (Wildcard | Text_test | Comment_test | Name_test _), _ -> false

let test_node test n =
  match Tree.focus n with
  | Tree.Ftree t -> test_tree test t
  | Tree.Fattribute a -> (
    match test with
    | Node_kind_test | Wildcard -> true
    | Name_test local -> String.equal (Name.local a.Tree.attr_name) local
    | Text_test | Comment_test -> false)
  | Tree.Fdocument -> (match test with Node_kind_test -> true | _ -> false)

(* A predicate is statically non-positional when it is a comparison or an
   and/or whose subexpressions never call position() or last(): it yields
   a boolean (never a number, which would select by position) and cannot
   observe the focus position or size. *)
let non_positional pred =
  let has_local name local =
    let n = String.length name and l = String.length local in
    String.ends_with ~suffix:local name && (n = l || name.[n - l - 1] = ':')
  in
  let positional acc e =
    acc
    ||
    match e with
    | Call (name, _) -> has_local name "position" || has_local name "last"
    | _ -> false
  in
  match pred with
  | Binary ((Gen_cmp _ | Val_cmp _ | Node_cmp _ | And | Or), _, _) ->
    not (Ast.fold_expr positional false pred)
  | _ -> false

(* ---- chains: [E//t1/t2/.../tk], every child step without predicates ----

   Such a path selects the nodes below E whose name path ends in t1..tk;
   {!Tree.chain_where} finds them in one walk, in document order, and
   {!Tree.chain_first} stops at the first. *)

(* The chain's length k, or 0 when [e] is not a chain. *)
let rec chain_length = function
  | Path
      ( Path (_, Axis_step (Descendant_or_self, Node_kind_test, [])),
        Axis_step (Child, _, []) ) -> 1
  | Path (inner, Axis_step (Child, _, [])) ->
    let k = chain_length inner in
    if k = 0 || k >= Tree.max_chain then 0 else k + 1
  | _ -> 0

(* Fill [tests] with t1..tk from a chain of length k = j + 1; return E. *)
let rec chain_split tests j = function
  | Path (inner, Axis_step (Child, test, [])) -> (
    tests.(j) <- test;
    if j > 0 then chain_split tests (j - 1) inner
    else match inner with Path (base, _) -> base | _ -> invalid_arg "chain_split")
  | _ -> invalid_arg "chain_split"

let node_item n = Node n
let true_v = [ Atom (Boolean true) ]
let false_v = [ Atom (Boolean false) ]
let bool_v b = if b then true_v else false_v

(* The fn: functions whose result depends only on whether their argument
   is empty, on its effective boolean value or on its first item. *)
let short_call = function
  | "not" | "fn:not" -> `Not
  | "boolean" | "fn:boolean" -> `Boolean
  | "exists" | "fn:exists" -> `Exists
  | "empty" | "fn:empty" -> `Empty
  | "string" | "fn:string" -> `String
  | _ -> `Other

(* Cons a child onto a reversed child list, merging adjacent text nodes
   as constructors must. *)
let push_kid t rev =
  match t, rev with
  | Tree.Text b, Tree.Text a :: rest -> Tree.Text (a ^ b) :: rest
  | _ -> t :: rev

let forward = function ([] | [ _ ]) as l -> l | rev -> List.rev rev

let local_name tag =
  match String.index_opt tag ':' with
  | Some i -> String.sub tag (i + 1) (String.length tag - i - 1)
  | None -> tag

let join_atoms = function
  | [] -> ""
  | [ a ] -> string_of_atomic a
  | atoms -> String.concat " " (List.map string_of_atomic atoms)

let root_of env = Tree.root_node (Tree.node_document (context_node env))

let rec eval env expr : Value.t =
  match expr with
  | Literal a -> [ Atom a ]
  | Empty_seq -> []
  | Var v -> lookup env v
  | Context_item -> [ context_item env ]
  | Root -> [ Node (root_of env) ]
  | Sequence es -> List.concat_map (eval env) es
  | Path (a, (Axis_step (Child, _, []) as b)) ->
    let k = chain_length expr in
    if k = 0 then eval_path env a b
    else
      let tests = Array.make k Node_kind_test in
      let base = chain_split tests (k - 1) expr in
      eval_chain env base tests
  | Path
      ( Path (a, Axis_step (Descendant_or_self, Node_kind_test, [])),
        Axis_step (Child, test, preds) )
    when List.for_all non_positional preds ->
    (* [a//test[preds]] selects what [a/descendant::test[preds]] does when
       no predicate can observe positions: one walk per base node *)
    eval_path env a (Axis_step (Descendant, test, preds))
  | Path (a, b) -> eval_path env a b
  | Axis_step (axis, test, preds) ->
    apply_predicates env preds (axis_items axis test (context_node env))
  | Filter (e, preds) -> apply_predicates env preds (eval env e)
  | Call (name, [ a ]) -> (
    match short_call name with
    | `Not -> bool_v (not (ebv_of env a))
    | `Boolean -> bool_v (ebv_of env a)
    | `Exists -> bool_v (exists_of env a)
    | `Empty -> bool_v (not (exists_of env a))
    | `String -> [ Atom (String (string_of env a)) ]
    | `Other -> Functions.call env name [ eval env a ])
  | Call (name, args) -> Functions.call env name (List.map (eval env) args)
  | If (c, t, e) -> if ebv_of env c then eval env t else eval env e
  | Flwor (clauses, ret) ->
    let tuples = eval_clauses env [ env ] clauses in
    List.concat_map (fun env' -> eval env' ret) tuples
  | Quantified (q, binds, sat) ->
    let rec go env = function
      | [] -> ebv_of env sat
      | (v, e) :: rest ->
        let items = eval env e in
        let test item = go (bind env v [ item ]) rest in
        (match q with
         | `Some -> List.exists test items
         | `Every -> List.for_all test items)
    in
    [ Atom (Boolean (go env binds)) ]
  | Binary (op, a, b) -> eval_binary env op a b
  | Neg a -> (
    match atomize (eval env a) with
    | [] -> []
    | [ x ] -> (
      match x with
      | Integer i -> [ Atom (Integer (-i)) ]
      | _ ->
        let f = number_of_atomic x in
        if Float.is_nan f then err "unary minus on non-numeric value"
        else [ Atom (Decimal (-.f)) ])
    | _ -> err "unary minus on multi-item sequence")
  | Range (a, b) -> (
    match atomize (eval env a), atomize (eval env b) with
    | [], _ | _, [] -> []
    | [ x ], [ y ] ->
      let lo = int_of_float (number_of_atomic x)
      and hi = int_of_float (number_of_atomic y) in
      if lo > hi then []
      else List.init (hi - lo + 1) (fun i -> Atom (Integer (lo + i)))
    | _ -> err "'to' over multi-item sequence")
  | Direct_elem d -> [ Node (node_of_tree (construct env d)) ]
  | Computed_elem (name_expr, content_expr) ->
    [ Node (node_of_tree (computed_elem env name_expr content_expr)) ]
  | Computed_attr (name_expr, value_expr) ->
    let name = constructor_name env name_expr in
    [ Node (attribute_node name (atoms_string env value_expr)) ]
  | Computed_text content_expr -> (
    match atomize (eval env content_expr) with
    | [] -> []
    | atoms -> [ Node (node_of_tree_text (join_atoms atoms)) ])
  | Cast (e, ty, kind) -> (
    match atomize (eval env e), kind with
    | [], `Cast -> []
    | [], `Castable -> [ Atom (Boolean true) ]
    | [ a ], `Cast -> (
      match Value.cast ty a with
      | Ok a -> [ Atom a ]
      | Error msg -> err "%s" msg)
    | [ a ], `Castable -> [ Atom (Boolean (Result.is_ok (Value.cast ty a))) ]
    | _, `Cast -> err "cast of a multi-item sequence"
    | _, `Castable -> [ Atom (Boolean false) ])
  | Instance_of (e, st) -> [ Atom (Boolean (seq_matches (eval env e) st)) ]
  | Treat_as (e, st) ->
    let v = eval env e in
    if seq_matches v st then v
    else err "treat as: value does not match %s" (Pp.seq_type_name st)
  | Enqueue { payload; queue; props } ->
    let tree =
      match payload with
      | Direct_elem d -> construct env d
      | Computed_elem (name_expr, content_expr) ->
        computed_elem env name_expr content_expr
      | _ -> payload_tree (eval env payload)
    in
    let props =
      List.map
        (fun (name, e) ->
          match atomize (eval env e) with
          | [ a ] -> (name, a)
          | [] -> err "property %s: value expression returned empty sequence" name
          | _ -> err "property %s: value expression returned multiple items" name)
        props
    in
    emit env (Update.Enqueue { payload = tree; queue; props });
    []
  | Reset None ->
    emit env (Update.Reset { slicing = None; key = None });
    []
  | Reset (Some (slicing, key_expr)) ->
    let key =
      match atomize (eval env key_expr) with
      | [ a ] -> a
      | _ -> err "do reset: slice key must be a single atomic value"
    in
    emit env (Update.Reset { slicing = Some slicing; key = Some key });
    []

and eval_path env a b =
  match eval env a, b with
  | [ Node n ], Axis_step (axis, test, []) -> axis_items axis test n
  | [ item ], Axis_step _ ->
    (* any axis from one node yields distinct nodes in document order *)
    eval (with_item env item 1 1) b
  | base, _ ->
    let size = List.length base in
    let results =
      List.concat
        (List.mapi (fun i item -> eval (with_item env item (i + 1) size) b) base)
    in
    if all_nodes results then doc_order_dedup results else results

and axis_items axis test n : Value.t =
  match axis with
  | Child -> Tree.children_where (test_tree test) node_item n
  | Descendant -> Tree.chain_where test_tree [| test |] node_item n
  | Descendant_or_self ->
    List.filter_map
      (fun n -> if test_node test n then Some (Node n) else None)
      (Tree.descendant_or_self n)
  | Self -> if test_node test n then [ Node n ] else []
  | Parent -> (
    match Tree.parent n with Some p when test_node test p -> [ Node p ] | _ -> [])
  | Attribute ->
    List.filter_map
      (fun n -> if test_node test n then Some (Node n) else None)
      (Tree.attributes n)

(* A chain's base items become walk roots; a non-node base item fails as
   the literal [E/descendant-or-self::node()] step would. *)
and chain_root env item =
  match item with Node n -> n | Atom _ -> context_node (with_item env item 1 1)

and eval_chain env base tests =
  match base with
  | Root -> Tree.chain_where test_tree tests node_item (root_of env)
  | _ -> chain_items env (eval env base) tests

and chain_items env items tests =
  match items with
  | [] -> []
  | [ item ] -> Tree.chain_where test_tree tests node_item (chain_root env item)
  | items ->
    doc_order_dedup
      (List.concat_map
         (fun item -> Tree.chain_where test_tree tests node_item (chain_root env item))
         items)

(* The subtree of the chain's first hit in document order. *)
and chain_first env e k =
  let tests = Array.make k Node_kind_test in
  match chain_split tests (k - 1) e with
  | Root -> Tree.chain_first test_tree tests (root_of env)
  | base -> (
    match eval env base with
    | [] -> None
    | [ item ] -> Tree.chain_first test_tree tests (chain_root env item)
    | items -> (
      match chain_items env items tests with
      | Node n :: _ -> Tree.node_tree n
      | _ -> None))

(* Consumers that need less than the whole sequence: an effective boolean
   value, emptiness, or the string value of the first item. A chain
   stops at its first hit; anything else is evaluated in full. *)
and ebv_of env e =
  let k = chain_length e in
  if k > 0 then Option.is_some (chain_first env e k) else ebv (eval env e)

and exists_of env e =
  let k = chain_length e in
  if k > 0 then Option.is_some (chain_first env e k)
  else match eval env e with [] -> false | _ :: _ -> true

and string_of env e =
  let k = chain_length e in
  if k > 0 then
    match chain_first env e k with Some t -> Tree.tree_string_value t | None -> ""
  else string_value (eval env e)

and constructor_name env name_expr =
  match atomize (eval env name_expr) with
  | [ a ] ->
    let name = string_of_atomic a in
    if name = "" then err "constructor: empty element/attribute name" else name
  | _ -> err "constructor: name expression must be a single atomic value"

and node_of_tree_text text =
  match Tree.children (Tree.root_node (Tree.doc_of_forest [ Tree.Text text ])) with
  | [ n ] -> n
  | _ -> assert false

and payload_tree v =
  match v with
  | [ Node n ] -> (
    match Tree.focus n with
    | Tree.Ftree (Tree.Element _ as t) -> t
    | Tree.Fdocument -> (
      match Tree.document_element (Tree.node_document n) with
      | Some t -> t
      | None -> err "do enqueue: document has no element")
    | _ -> err "do enqueue: payload must be an element node")
  | [ Atom _ ] -> err "do enqueue: payload must be an element node, not an atomic value"
  | [] -> err "do enqueue: payload expression returned the empty sequence"
  | _ -> err "do enqueue: payload expression returned multiple items"

and apply_predicates env preds items =
  List.fold_left
    (fun items pred ->
      let size = List.length items in
      List.concat
        (List.mapi
           (fun i item ->
             let env' = with_item env item (i + 1) size in
             let r = eval env' pred in
             let keep =
               match r with
               | [ Atom ((Integer _ | Decimal _) as a) ] ->
                 number_of_atomic a = float_of_int (i + 1)
               | _ -> ebv r
             in
             if keep then [ item ] else [])
           items))
    items preds

and eval_clauses env tuples clauses =
  match clauses with
  | [] -> tuples
  | For binds :: rest ->
    let expand_bind tuples (v, pos_var, e) =
      List.concat_map
        (fun env' ->
          List.mapi
            (fun i item ->
              let env'' = bind env' v [ item ] in
              match pos_var with
              | Some p -> bind env'' p [ Atom (Integer (i + 1)) ]
              | None -> env'')
            (eval env' e))
        tuples
    in
    eval_clauses env (List.fold_left expand_bind tuples binds) rest
  | Let binds :: rest ->
    let tuples =
      List.map
        (fun env' ->
          List.fold_left (fun env'' (v, e) -> bind env'' v (eval env'' e)) env' binds)
        tuples
    in
    eval_clauses env tuples rest
  | Where e :: rest ->
    eval_clauses env (List.filter (fun env' -> ebv_of env' e) tuples) rest
  | Order_by keys :: rest ->
    let decorated =
      List.map
        (fun env' ->
          let ks =
            List.map
              (fun (e, dir, empty_policy) ->
                let k = match atomize (eval env' e) with [ a ] -> Some a | _ -> None in
                (k, dir, empty_policy))
              keys
          in
          (ks, env'))
        tuples
    in
    let cmp (ka, _) (kb, _) =
      let rec go = function
        | [] -> 0
        | ((a, dir, empty_policy), (b, _, _)) :: rest ->
          let empty_c = match empty_policy with `Empty_least -> -1 | `Empty_greatest -> 1 in
          let c =
            match a, b with
            | None, None -> 0
            | None, Some _ -> empty_c
            | Some _, None -> -empty_c
            | Some a, Some b -> compare_atomic a b
          in
          let c = match dir with `Asc -> c | `Desc -> -c in
          if c <> 0 then c else go rest
      in
      go (List.combine ka kb)
    in
    eval_clauses env (List.map snd (List.stable_sort cmp decorated)) rest

and eval_binary env op a b =
  match op with
  | Or -> bool_v (ebv_of env a || ebv_of env b)
  | And -> bool_v (ebv_of env a && ebv_of env b)
  | Gen_cmp c -> [ Atom (Boolean (general_compare c (eval env a) (eval env b))) ]
  | Val_cmp c -> value_compare c (eval env a) (eval env b)
  | Add -> arith `Add (eval env a) (eval env b)
  | Sub -> arith `Sub (eval env a) (eval env b)
  | Mul -> arith `Mul (eval env a) (eval env b)
  | Div -> arith `Div (eval env a) (eval env b)
  | Idiv -> arith `Idiv (eval env a) (eval env b)
  | Mod -> arith `Mod (eval env a) (eval env b)
  | Union ->
    let l = eval env a and r = eval env b in
    if all_nodes l && all_nodes r then doc_order_dedup (l @ r)
    else err "union over non-node sequences"
  | Intersect | Except ->
    let l = eval env a and r = eval env b in
    if not (all_nodes l && all_nodes r) then
      err "intersect/except over non-node sequences"
    else begin
      let rnodes = List.filter_map (function Node n -> Some n | Atom _ -> None) r in
      let in_r n = List.exists (Tree.same_node n) rnodes in
      let keep = match op with Intersect -> in_r | _ -> fun n -> not (in_r n) in
      doc_order_dedup
        (List.filter (function Node n -> keep n | Atom _ -> false) l)
    end
  | Node_cmp cmp -> (
    let single side v =
      match v with
      | [] -> None
      | [ Node n ] -> Some n
      | _ -> err "%s operand of a node comparison must be a single node" side
    in
    match single "left" (eval env a), single "right" (eval env b) with
    | None, _ | _, None -> []
    | Some x, Some y ->
      let result =
        match cmp with
        | `Is -> Tree.same_node x y
        | `Precedes -> Tree.doc_order x y < 0
        | `Follows -> Tree.doc_order x y > 0
      in
      [ Atom (Boolean result) ])

(* ---- constructors ----

   A constructed element is built as a bare tree. Only a consumer that
   needs a node wraps it in a document ([node_of_tree]); an enclosing
   constructor or [do enqueue] takes the tree as is. *)

and construct env d : Tree.tree =
  let attrs =
    List.map
      (fun (name, pieces) ->
        { Tree.attr_name = Name.make (local_name name); attr_value = attr_value env pieces })
      d.dattrs
  in
  let extra = ref [] in
  let rev = construct_content env extra [] d.dcontent in
  Tree.Element
    {
      name = Name.make (local_name d.tag);
      attrs = (match !extra with [] -> attrs | extra -> attrs @ List.rev extra);
      children = forward rev;
    }

(* Children accumulate in reverse in [rev]; attribute nodes of the
   content go to [extra], also reversed. *)
and construct_content env extra rev = function
  | [] -> rev
  | C_text s :: rest -> construct_content env extra (push_kid (Tree.Text s) rev) rest
  | C_expr e :: rest -> construct_content env extra (content_of env e extra rev) rest

and computed_elem env name_expr content_expr =
  let name = constructor_name env name_expr in
  let extra = ref [] in
  let rev = content_of env content_expr extra [] in
  Tree.Element { name = Name.make name; attrs = List.rev !extra; children = forward rev }

and content_of env e extra rev =
  match e with
  | Direct_elem d -> construct env d :: rev
  | Computed_elem (name_expr, content_expr) ->
    computed_elem env name_expr content_expr :: rev
  | Call (name, [ a ]) when (match short_call name with `String -> true | _ -> false) ->
    push_kid (Tree.Text (string_of env a)) rev
  | _ -> content_items (eval env e) extra rev

and attr_value env = function
  | [] -> ""
  | [ A_text s ] -> s
  | [ A_expr e ] -> atoms_string env e
  | pieces ->
    String.concat ""
      (List.map (function A_text s -> s | A_expr e -> atoms_string env e) pieces)

and atoms_string env e = join_atoms (atomize (eval env e))

(* Per XQuery: node items are copied (attribute nodes become attributes
   of the constructed element); consecutive atomic items are joined with
   single spaces into one text node. *)
and content_items items extra rev =
  match items with
  | [] -> rev
  | Node n :: rest when is_attribute_node n ->
    let name =
      match Tree.node_name n with Some nm -> nm | None -> Name.make "attr"
    in
    extra := { Tree.attr_name = name; attr_value = Tree.string_value n } :: !extra;
    content_items rest extra rev
  | Node n :: rest -> content_items rest extra (push_kid (tree_of_node n) rev)
  | [ Atom a ] -> push_kid (Tree.Text (string_of_atomic a)) rev
  | Atom a :: rest ->
    let rec run acc = function
      | Atom b :: rest -> run (b :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let atoms, rest = run [ a ] rest in
    content_items rest extra (push_kid (Tree.Text (join_atoms atoms)) rev)

(* Dynamic type errors from the value model surface as evaluation errors. *)
let eval env expr =
  try eval env expr with Value.Type_error msg -> err "%s" msg

let eval_with_updates env expr =
  let env = { env with updates = ref [] } in
  let v = eval env expr in
  (v, pending env)

let run ?host ?(vars = []) ?context src =
  let expr = Parser.parse src in
  let env = Context.make ?host:(Option.map Lazy.from_val host) () in
  let env =
    match context with
    | Some tree -> { env with item = Some (Node (node_of_tree tree)) }
    | None -> env
  in
  let env = List.fold_left (fun e (v, value) -> bind e v value) env vars in
  eval_with_updates env expr
