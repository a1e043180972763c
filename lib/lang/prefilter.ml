(* Condition pre-filtering (§4.4.1: "a variety of existing techniques can
   be leveraged to improve processing performance, including XML filtering
   [Diao & Franklin, VLDB'03]").

   A conservative static analysis extracts, for each rule, a set of element
   local names that MUST occur in the triggering message for the rule's
   condition to possibly hold. At runtime the engine intersects this with
   the message's element-name set (computed once per message) and skips the
   full XQuery evaluation when a required name is missing — the common case
   in brokering workloads where each message type triggers few of many
   rules.

   Soundness argument: a name is required only when derived from a path
   rooted at the triggering message (context item, [/], [qs:message()])
   whose effective boolean value or comparison operand must be non-empty
   for the condition to be true. [and] unions requirements, [or]
   intersects them; anything else contributes nothing (conservative). *)

module Ast = Demaq_xquery.Ast

(* Does a path expression start at the triggering message? *)
let rec rooted_at_message = function
  | Ast.Root | Ast.Context_item -> true
  | Ast.Call (("qs:message" | "message"), []) -> true
  | Ast.Axis_step _ -> true  (* relative step: context = the message *)
  | Ast.Path (base, _) -> rooted_at_message base
  | Ast.Filter (e, _) -> rooted_at_message e
  | _ -> false

(* Names required for [path] (rooted at the message) to be non-empty.
   Every child/descendant name-test step along the spine is required. *)
let rec path_names = function
  | Ast.Path (base, step) -> path_names base @ path_names step
  | Ast.Axis_step ((Ast.Child | Ast.Descendant | Ast.Descendant_or_self), Ast.Name_test n, _) ->
    [ n ]
  | Ast.Filter (e, _) -> path_names e
  | _ -> []

let inter a b = List.filter (fun x -> List.mem x b) a

(* Names that must occur in the message for [expr]'s EBV to be true. *)
let rec required_names expr =
  match expr with
  | Ast.Path _ | Ast.Axis_step _ | Ast.Filter _ ->
    if rooted_at_message expr then path_names expr else []
  | Ast.Binary (Ast.And, a, b) -> required_names a @ required_names b
  | Ast.Binary (Ast.Or, a, b) -> inter (required_names a) (required_names b)
  | Ast.Binary ((Ast.Gen_cmp _ | Ast.Val_cmp _), a, b) ->
    (* both operands must be non-empty for the comparison to hold *)
    operand_names a @ operand_names b
  | Ast.Call (("fn:exists" | "exists" | "fn:boolean" | "boolean"), [ e ]) ->
    required_names e
  | _ -> []

(* Names required for an expression used as a comparison operand to be
   non-empty; literals and anything non-path require nothing. *)
and operand_names expr =
  match expr with
  | Ast.Path _ | Ast.Axis_step _ | Ast.Filter _ ->
    if rooted_at_message expr then path_names expr else []
  | Ast.Call (("fn:string" | "string" | "fn:number" | "number" | "fn:data" | "data"), [ e ]) ->
    operand_names e
  | _ -> []

(* The names a whole rule body requires. Only the guard of a top-level
   conditional can be used, and only when the else-branch performs no
   updates (otherwise the rule does work even when the guard fails). *)
let rule_requirements body =
  match body with
  | Ast.If (cond, _, else_branch) when not (Ast.contains_update else_branch) ->
    List.sort_uniq compare (required_names cond)
  | _ -> []

(* ---- runtime side ---- *)

module Names = Set.Make (String)

(* All element local names occurring in a message body: the document
   synopsis of a payload without a readable header. *)
let element_names tree =
  let rec go acc = function
    | Demaq_xml.Tree.Element e ->
      List.fold_left go
        (Names.add (Demaq_xml.Name.local e.Demaq_xml.Tree.name) acc)
        e.Demaq_xml.Tree.children
    | _ -> acc
  in
  go Names.empty tree

let may_match ~requirements ~names =
  List.for_all (fun n -> Names.mem n names) requirements

(* ---- admission on the payload's bytes ----

   A plan's rules are decided together: [index] gathers their
   requirements into one sorted array of distinct names, and a message is
   reduced to the subset of those names it contains. For a binary payload
   that subset comes from one pass over the header's element names, each
   compared in place against the array by binary search — no name is
   copied and no set is built. *)

type index = {
  req_names : string array;  (* every rule's requirements, sorted, distinct *)
  rule_reqs : int array array;  (* per rule: indices into [req_names] *)
}

type present = Bytes.t  (* one flag byte per name of the index *)

let index requirements =
  let req_names =
    Array.of_list (List.sort_uniq String.compare (List.concat requirements))
  in
  let slot name =
    let rec go i = if String.equal req_names.(i) name then i else go (i + 1) in
    go 0
  in
  let rule_reqs reqs = Array.of_list (List.map slot reqs) in
  { req_names; rule_reqs = Array.of_list (List.map rule_reqs requirements) }

let needs_names ix = Array.length ix.req_names > 0

(* [String.compare (String.sub s off len) name] without the copy; the
   caller guarantees [off + len <= String.length s]. *)
let compare_sub s off len name =
  let n = String.length name in
  let m = if len < n then len else n in
  let i = ref 0 in
  while !i < m && String.unsafe_get s (off + !i) = String.unsafe_get name !i do
    incr i
  done;
  if !i < m then
    Char.code (String.unsafe_get s (off + !i)) - Char.code (String.unsafe_get name !i)
  else len - n

let find_sub names s off len =
  let lo = ref 0 and hi = ref (Array.length names) and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = compare_sub s off len names.(mid) in
    if c = 0 then found := mid else if c < 0 then hi := mid else lo := mid + 1
  done;
  !found

let present_of_payload ix payload =
  if not (Demaq_xml.Bxml.is_binary payload) then None
  else begin
    let present = Bytes.make (Array.length ix.req_names) '\000' in
    match
      Demaq_xml.Bxml.iter_synopsis payload (fun off len ->
          let k = find_sub ix.req_names payload off len in
          if k >= 0 then Bytes.unsafe_set present k '\001')
    with
    | () -> Some present
    | exception Demaq_xml.Bxml.Decode_error _ -> None
  end

let present_of_names ix names =
  Bytes.init (Array.length ix.req_names) (fun k ->
      if Names.mem ix.req_names.(k) names then '\001' else '\000')

let admits ix present rule =
  let reqs = ix.rule_reqs.(rule) in
  let ok = ref true and j = ref 0 in
  while !ok && !j < Array.length reqs do
    ok := Bytes.get present reqs.(!j) <> '\000';
    incr j
  done;
  !ok

(* ---- static entailment against a queue schema ----

   [rule_requirements] gives the element names a message must contain for
   a rule to fire; a queue's schema (when present) bounds the element
   names any admitted message CAN contain. When the schema's vocabulary is
   closed and a required name falls outside it, the rule is statically
   unsatisfiable on that queue: the compiler prunes it from the plan and
   [Analysis] reports it as a dead rule.

   The vocabulary is closed only when every declared element has a closed
   content model (text, empty, or a sequence whose particles are all
   themselves declared). [mixed]/[any] content — or an undeclared particle,
   which validation treats as open — admits arbitrary descendants, and an
   empty schema places no restriction on the root, so both yield ⊤ (open)
   and suppress pruning. Admission ([Queue_manager.enqueue]) validates the
   payload with the root restricted to declared names, which is what makes
   the closed reading sound. *)

module Schema = Demaq_xml.Schema

type vocabulary = Open_vocabulary | Closed_vocabulary of Names.t

let schema_vocabulary schema =
  let declared = Schema.declared_names schema in
  if declared = [] then Open_vocabulary
  else
    let closed =
      List.for_all
        (fun name ->
          match Schema.declared schema name with
          | Some (Schema.Text_only | Schema.Empty) -> true
          | Some (Schema.Any | Schema.Mixed) | None -> false
          | Some (Schema.Sequence particles) ->
            List.for_all
              (fun p -> Schema.declared schema p.Schema.pname <> None)
              particles)
        declared
    in
    if closed then
      Closed_vocabulary (List.fold_left (fun acc n -> Names.add n acc) Names.empty declared)
    else Open_vocabulary

let unsatisfiable vocabulary requirements =
  match vocabulary with
  | Open_vocabulary -> None
  | Closed_vocabulary names -> (
    match List.filter (fun n -> not (Names.mem n names)) requirements with
    | [] -> None
    | missing ->
      Some
        (Printf.sprintf
           "condition requires element%s <%s> which the queue schema cannot produce"
           (if List.length missing = 1 then "" else "s")
           (String.concat ">, <" missing)))
