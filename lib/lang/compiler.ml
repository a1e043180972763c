(* The rule compiler (§4.2/§4.4.1): deployment is a multi-pass
   compilation, not a registration.

   Per-rule rewrites (pass 0, unchanged from the original compiler):

   - fixed-property inlining: a call [qs:property("p")] where [p] is a
     fixed property with a value expression for the rule's queue is
     replaced by that expression (the paper: "similar to conventional view
     merging, fixed properties are inlined");
   - default-parameter supply: [qs:queue()] becomes
     [qs:queue("<this queue>")] so the plan no longer depends on implicit
     rule context;
   - constant folding of literal boolean/arithmetic subexpressions.

   Plan passes, per target:

   1. unsatisfiability pruning — a rule whose condition requires an
      element name the target queue's schema can never admit
      ({!Prefilter.schema_vocabulary}) is dropped from the plan, with the
      reason kept for explain output;
   2. conflict footprints — the set of queues/slices each rule's
      [do enqueue]/[qs:] calls can touch, with a ⊤ fallback for
      dynamically computed queue names; lowered to the dispatcher's
      conflict-resource strings and cached on the plan so the executor
      never recomputes them per dispatch.

   A plan's execution artifact is its surviving rules, which the executor
   interprets one at a time in declaration order; the plan adds the
   admission index that decides all of them in one pass over a payload's
   header. *)

module Ast = Demaq_xquery.Ast
module Value = Demaq_xquery.Value
module Defs = Demaq_mq.Defs
module Message = Demaq_mq.Message

type compiled_rule = {
  cr_name : string;
  cr_error_queue : string option;
  cr_body : Ast.expr;  (* rewritten *)
  cr_requirements : string list;
      (* element names the triggering message must contain for the rule to
         possibly fire (condition pre-filtering, §4.4.1); empty = always
         evaluate *)
}

(* The statically derived set of shared resources a rule's execution can
   touch. [fp_top] is the ⊤ element of the lattice: a dynamically computed
   queue name makes the rule conflict with everything. *)
type footprint = {
  fp_top : bool;
  fp_queues : string list;  (* statically known queues read or written *)
  fp_slices : (string * string) list;  (* slice resets with literal keys *)
  fp_dynamic_reset : string list;  (* slicings reset with a computed key *)
  fp_own_queue : bool;  (* reads the triggering message's own queue *)
}

type conflict =
  | Conflict_top  (* ⊤: conflicts with every queue *)
  | Conflict_resources of { res : string list; own_queue : bool }
      (* dispatcher resource strings; [own_queue] adds ["q:" ^ message
         queue] at schedule time (only dynamic for slicing rules) *)

type plan = {
  target : string;
  on_slicing : bool;
  rules : compiled_rule array;  (* surviving rules, declaration order *)
  pruned : (string * string) list;  (* statically dead: name, reason *)
  footprints : footprint list;  (* aligned with [rules] *)
  conflicts : (string list * conflict) array;
      (* per rule: (pre-filter requirements, conflict resources) —
         the dispatch template, cached here so the executor derives a
         message's resources by admission filtering alone *)
  conflict_union : conflict;  (* union over all rules (no-synopsis case) *)
  admission : Prefilter.index;  (* aligned with [rules] *)
  queue_resource : string;  (* "q:" ^ target, interned once *)
}

type t = {
  plans : (string, plan) Hashtbl.t;  (* by target *)
  program : Qdl.program;
  all_queue_resources : string list;
      (* "q:" per declared queue: the ⊤ footprint expands to these *)
}

(* ---- rewrites ---- *)

let literal_of_value = function
  | [ Value.Atom a ] -> Some (Ast.Literal a)
  | [] -> Some Ast.Empty_seq
  | _ -> None

let fold_constants expr =
  Ast.map_expr
    (fun e ->
      match e with
      | Ast.Binary (op, Ast.Literal a, Ast.Literal b) -> (
        let la = [ Value.Atom a ] and lb = [ Value.Atom b ] in
        match op with
        | Ast.And -> Ast.Literal (Value.Boolean (Value.ebv la && Value.ebv lb))
        | Ast.Or -> Ast.Literal (Value.Boolean (Value.ebv la || Value.ebv lb))
        | Ast.Gen_cmp c -> Ast.Literal (Value.Boolean (Value.general_compare c la lb))
        | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Idiv | Ast.Mod -> (
          let aop =
            match op with
            | Ast.Add -> `Add | Ast.Sub -> `Sub | Ast.Mul -> `Mul
            | Ast.Div -> `Div | Ast.Idiv -> `Idiv | _ -> `Mod
          in
          match Value.arith aop la lb with
          | v -> Option.value ~default:e (literal_of_value v)
          | exception Value.Type_error _ -> e)
        | _ -> e)
      | Ast.If (Ast.Literal (Value.Boolean true), t, _) -> t
      | Ast.If (Ast.Literal (Value.Boolean false), _, el) -> el
      | Ast.Call ("fn:not", [ Ast.Literal (Value.Boolean b) ])
      | Ast.Call ("not", [ Ast.Literal (Value.Boolean b) ]) ->
        Ast.Literal (Value.Boolean (not b))
      | e -> e)
    expr

(* Inline fixed properties: only safe for rules on a physical queue (the
   property expression for that specific queue is known statically). *)
let inline_fixed_properties properties queue expr =
  Ast.map_expr
    (fun e ->
      match e with
      | Ast.Call (("qs:property" | "property"), [ Ast.Literal (Value.String pname) ]) -> (
        match
          List.find_opt
            (fun p -> p.Defs.pname = pname && p.Defs.disposition = Defs.Fixed)
            properties
        with
        | Some p -> (
          match Defs.property_expr_for p queue with
          | Some value_expr ->
            (* The property value is the expression evaluated against the
               message body, atomized and cast; inline the expression and
               keep the cast via fn:string/number as appropriate. *)
            (match p.Defs.ptype with
             | Value.T_string -> Ast.Call ("fn:string", [ value_expr ])
             | Value.T_integer | Value.T_decimal -> Ast.Call ("fn:number", [ value_expr ])
             | Value.T_boolean -> Ast.Call ("fn:boolean", [ value_expr ]))
          | None -> e)
        | None -> e)
      | e -> e)
    expr

let supply_queue_default queue expr =
  Ast.map_expr
    (fun e ->
      match e with
      | Ast.Call (("qs:queue" | "queue") as f, []) ->
        Ast.Call (f, [ Ast.Literal (Value.String queue) ])
      | e -> e)
    expr

(* ---- compilation ---- *)

let compile_rule ~properties ~on_slicing ~target (r : Qdl.rule_def) =
  let body = r.Qdl.body in
  let body = if on_slicing then body else supply_queue_default target body in
  let body = if on_slicing then body else inline_fixed_properties properties target body in
  let body = fold_constants body in
  {
    cr_name = r.Qdl.rname;
    cr_error_queue = r.Qdl.rule_error_queue;
    cr_body = body;
    (* slicing rules see messages of many queues: no pre-filtering *)
    cr_requirements = (if on_slicing then [] else Prefilter.rule_requirements body);
  }

(* Pass 2: the conflict footprint of one rewritten rule body. *)
let footprint_of body =
  let top = ref false
  and queues = ref []
  and slices = ref []
  and dyn = ref []
  and own = ref false in
  Ast.fold_expr
    (fun () e ->
      match e with
      | Ast.Enqueue { queue; _ } -> queues := queue :: !queues
      | Ast.Call (("qs:queue" | "queue"), args) -> (
        match args with
        | [] -> own := true  (* slicing rule: the trigger's queue *)
        | [ Ast.Literal (Value.String q) ] -> queues := q :: !queues
        | _ -> top := true  (* dynamically computed queue name: ⊤ *))
      | Ast.Reset (Some (s, Ast.Literal key)) ->
        slices := (s, Message.key_string key) :: !slices
      | Ast.Reset (Some (s, _)) -> dyn := s :: !dyn
      | Ast.Reset None -> ()  (* the current slice; membership resources cover it *)
      | _ -> ())
    () body;
  {
    fp_top = !top;
    fp_queues = List.sort_uniq compare !queues;
    fp_slices = List.sort_uniq compare !slices;
    fp_dynamic_reset = List.sort_uniq compare !dyn;
    fp_own_queue = !own;
  }

let conflict_of fp =
  if fp.fp_top then Conflict_top
  else
    Conflict_resources
      {
        res =
          List.sort_uniq compare
            (List.map (fun q -> "q:" ^ q) fp.fp_queues
            @ List.map (fun (s, k) -> Printf.sprintf "s:%s/%s" s k) fp.fp_slices);
        (* a dynamic-key reset falls back to the legacy discipline: the
           message's own queue (plus its memberships, which the executor
           always includes under footprint dispatch) *)
        own_queue = fp.fp_own_queue || fp.fp_dynamic_reset <> [];
      }

let union_conflicts conflicts =
  if List.mem Conflict_top conflicts then Conflict_top
  else
    Conflict_resources
      {
        res =
          List.sort_uniq compare
            (List.concat_map
               (function
                 | Conflict_resources { res; _ } -> res
                 | Conflict_top -> [])
               conflicts);
        own_queue =
          List.exists
            (function
              | Conflict_resources { own_queue; _ } -> own_queue
              | Conflict_top -> false)
            conflicts;
      }

let finish_plan ~queues ~on_slicing target rules =
  (* pass 1: unsatisfiability pruning against the target queue's schema *)
  let vocabulary =
    if on_slicing then Prefilter.Open_vocabulary
    else
      match List.find_opt (fun q -> q.Defs.qname = target) queues with
      | Some { Defs.schema = Some schema; _ } -> Prefilter.schema_vocabulary schema
      | _ -> Prefilter.Open_vocabulary
  in
  let kept, pruned =
    List.partition_map
      (fun cr ->
        match Prefilter.unsatisfiable vocabulary cr.cr_requirements with
        | None -> Left cr
        | Some reason -> Right (cr.cr_name, reason))
      rules
  in
  let footprints = List.map (fun cr -> footprint_of cr.cr_body) kept in
  let conflicts =
    Array.of_list
      (List.map2 (fun cr fp -> (cr.cr_requirements, conflict_of fp)) kept footprints)
  in
  {
    target;
    on_slicing;
    rules = Array.of_list kept;
    pruned;
    footprints;
    conflicts;
    conflict_union =
      union_conflicts (Array.to_list (Array.map snd conflicts));
    admission = Prefilter.index (List.map (fun cr -> cr.cr_requirements) kept);
    queue_resource = "q:" ^ target;
  }

let compile ?(optimize = true) (program : Qdl.program) : t =
  let slicing_names = List.map (fun s -> s.Defs.sname) (Qdl.slicings program) in
  let properties = Qdl.properties program in
  let queues = Qdl.queues program in
  (* target -> its compiled rules, newest first *)
  let by_target = Hashtbl.create 16 in
  List.iter
    (fun (r : Qdl.rule_def) ->
      let target = r.Qdl.target in
      let on_slicing = List.mem target slicing_names in
      let compiled =
        if optimize then compile_rule ~properties ~on_slicing ~target r
        else
          {
            cr_name = r.Qdl.rname;
            cr_error_queue = r.Qdl.rule_error_queue;
            cr_body = r.Qdl.body;
            cr_requirements = [];
          }
      in
      let earlier = Option.value ~default:[] (Hashtbl.find_opt by_target target) in
      Hashtbl.replace by_target target (compiled :: earlier))
    (Qdl.rules program);
  (* Plan passes per target. Unoptimized rules carry no pre-filter
     requirements, so pruning keeps them all. *)
  let plans = Hashtbl.create 16 in
  Hashtbl.iter
    (fun target rules ->
      let on_slicing = List.mem target slicing_names in
      Hashtbl.replace plans target
        (finish_plan ~queues ~on_slicing target (List.rev rules)))
    by_target;
  {
    plans;
    program;
    all_queue_resources =
      List.sort_uniq compare (List.map (fun q -> "q:" ^ q.Defs.qname) queues);
  }

let plan_for t target = Hashtbl.find_opt t.plans target
let source_program t = t.program
let all_queue_resources t = t.all_queue_resources

let plans t =
  List.sort
    (fun a b -> compare a.target b.target)
    (Hashtbl.fold (fun _ p acc -> p :: acc) t.plans [])

(* ---- explain ---- *)

let footprint_to_string fp =
  if fp.fp_top then "⊤ (dynamic queue name)"
  else
    let parts =
      (match fp.fp_queues with
       | [] -> []
       | qs -> [ "queues: " ^ String.concat ", " qs ])
      @ (match fp.fp_slices with
         | [] -> []
         | ss ->
           [ "slices: "
             ^ String.concat ", " (List.map (fun (s, k) -> s ^ "/" ^ k) ss) ])
      @ (match fp.fp_dynamic_reset with
         | [] -> []
         | ss -> [ "dynamic resets: " ^ String.concat ", " ss ])
      @ (if fp.fp_own_queue then [ "own queue" ] else [])
    in
    if parts = [] then "∅" else "{" ^ String.concat "; " parts ^ "}"

let conflict_to_string = function
  | Conflict_top -> "⊤ (all queues)"
  | Conflict_resources { res; own_queue } ->
    let res = if own_queue then res @ [ "q:<own>" ] else res in
    (match res with [] -> "∅" | res -> String.concat ", " res)

let explain t =
  let buf = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun p ->
      pr "plan for %s%s (%d rule%s%s):\n" p.target
        (if p.on_slicing then " [slicing]" else "")
        (Array.length p.rules)
        (if Array.length p.rules = 1 then "" else "s")
        (match List.length p.pruned with
         | 0 -> ""
         | n -> Printf.sprintf ", %d pruned" n);
      List.iter2
        (fun cr fp ->
          pr "  rule %s%s%s:\n" cr.cr_name
            (match cr.cr_error_queue with
             | Some q -> " (errors -> " ^ q ^ ")"
             | None -> "")
            (match cr.cr_requirements with
             | [] -> ""
             | names -> " [requires <" ^ String.concat ">, <" names ^ ">]");
          pr "    body: %s\n" (Demaq_xquery.Pp.to_string cr.cr_body);
          pr "    footprint: %s\n" (footprint_to_string fp))
        (Array.to_list p.rules) p.footprints;
      List.iter
        (fun (name, reason) -> pr "  pruned rule %s: %s\n" name reason)
        p.pruned;
      pr "  conflict resources: %s\n" (conflict_to_string p.conflict_union))
    (plans t);
  Buffer.contents buf
