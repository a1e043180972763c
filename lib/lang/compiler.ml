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
   2. guard splitting — every rule body of the conditional shape the
      paper mandates in §3.3 is decomposed into guard/then/else, the
      per-rule guard preserved inside the fused plan so §3.6 error
      attribution survives the merge;
   3. common-subexpression hoisting — pure, stable expressions occurring
      in several rule bodies become plan-level bindings (an {!Ast.Bind}
      when lowered back to an expression), evaluated once per message;
   4. guard sharing — structurally identical stable guards get one guard
      id, hence one evaluation per message;
   5. conflict footprints — the set of queues/slices each rule's
      [do enqueue]/[qs:] calls can touch, with a ⊤ fallback for
      dynamically computed queue names; lowered to the dispatcher's
      conflict-resource strings and cached on the plan so the executor
      never recomputes them per dispatch.

   The execution artifact is the guarded {!Demaq_xquery.Plan.t}. Without
   [merged] (or without [optimize]) passes 2-4 are skipped and each rule
   becomes one unguarded plan entry: per-rule interpretation, the
   reference semantics the guarded plan is tested against. *)

module Ast = Demaq_xquery.Ast
module Value = Demaq_xquery.Value
module Plan_ir = Demaq_xquery.Plan
module Defs = Demaq_mq.Defs
module Message = Demaq_mq.Message

type compiled_rule = {
  cr_name : string;
  cr_error_queue : string option;
  cr_body : Ast.expr;  (* rewritten *)
  cr_original : Ast.expr;
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
  rules : compiled_rule list;  (* surviving rules, declaration order *)
  pruned : (string * string) list;  (* statically dead: name, reason *)
  exec : Plan_ir.t;  (* the execution plan: guarded, or one entry per rule *)
  footprints : footprint list;  (* aligned with [exec.p_guarded] *)
  conflicts : (string list * conflict) array;
      (* per guarded rule: (pre-filter requirements, conflict resources) —
         the dispatch template, cached here so the executor derives a
         message's resources by admission filtering alone *)
  conflict_union : conflict;  (* union over all rules (no-synopsis case) *)
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

(* ---- expression classification for hoisting and guard sharing ---- *)

let expr_size e = Ast.fold_expr (fun n _ -> n + 1) 0 e

(* Functions whose result depends on engine state or evaluation focus:
   sharing one evaluation across rules could observe a different state
   than per-rule interpretation would (error routing between rules
   changes queue contents; the virtual clock ticks concurrently). *)
let unstable_functions =
  [ "qs:queue"; "queue"; "qs:slice"; "slice"; "fn:collection"; "collection";
    "fn:current-dateTime"; "current-dateTime"; "fn:position"; "position";
    "fn:last"; "last" ]

let stable_expr e =
  not
    (List.exists
       (fun f -> List.mem f unstable_functions)
       (Ast.called_functions e))

let contains_constructor e =
  Ast.fold_expr
    (fun acc e ->
      acc
      ||
      match e with
      | Ast.Direct_elem _ | Ast.Computed_elem _ | Ast.Computed_attr _
      | Ast.Computed_text _ ->
        true
      | _ -> false)
    false e

(* Hoisting candidates must be closed (no free variables), pure (no
   updates), stable, constructor-free (constructed nodes have identity),
   and big enough to be worth a binding. *)
let hoist_candidate e =
  expr_size e >= 3
  && (not (Ast.contains_update e))
  && stable_expr e
  && (not (contains_constructor e))
  && Analysis.free_variables e = []

(* Walk only the positions that evaluate in the SAME dynamic environment
   as the whole expression: no focus changes (right of a path, predicate),
   no variable scopes (FLWOR, quantifier, Bind). A hoisted binding
   substituted in such a position is guaranteed to denote the same value
   the inline expression would. *)
let rec scope_fold f acc e =
  let acc = f acc e in
  let go = scope_fold f in
  match e with
  | Ast.If (c, t, el) -> go (go (go acc c) t) el
  | Ast.Binary (_, a, b) | Ast.Range (a, b)
  | Ast.Computed_elem (a, b) | Ast.Computed_attr (a, b) ->
    go (go acc a) b
  | Ast.Sequence es | Ast.Call (_, es) -> List.fold_left go acc es
  | Ast.Neg a | Ast.Cast (a, _, _) | Ast.Instance_of (a, _)
  | Ast.Treat_as (a, _) | Ast.Computed_text a ->
    go acc a
  | Ast.Path (a, _) -> go acc a  (* the right side runs in a new focus *)
  | Ast.Filter (p, _) -> go acc p  (* predicates run in a new focus *)
  | Ast.Direct_elem d ->
    let acc =
      List.fold_left
        (fun acc (_, pieces) ->
          List.fold_left
            (fun acc p ->
              match p with Ast.A_text _ -> acc | Ast.A_expr e -> go acc e)
            acc pieces)
        acc d.Ast.dattrs
    in
    List.fold_left
      (fun acc p ->
        match p with Ast.C_text _ -> acc | Ast.C_expr e -> go acc e)
      acc d.Ast.dcontent
  | Ast.Enqueue { payload; props; _ } ->
    List.fold_left (fun acc (_, e) -> go acc e) (go acc payload) props
  | Ast.Reset (Some (_, key)) -> go acc key
  | Ast.Reset None | Ast.Literal _ | Ast.Empty_seq | Ast.Var _
  | Ast.Context_item | Ast.Root | Ast.Axis_step _ | Ast.Flwor _
  | Ast.Quantified _ | Ast.Bind _ ->
    acc

(* Replace every same-environment occurrence of [cand] with [Var name];
   same descent discipline as {!scope_fold}. *)
let rec scope_replace cand name e =
  if e = cand then Ast.Var name
  else
    let r = scope_replace cand name in
    match e with
    | Ast.If (c, t, el) -> Ast.If (r c, r t, r el)
    | Ast.Binary (op, a, b) -> Ast.Binary (op, r a, r b)
    | Ast.Range (a, b) -> Ast.Range (r a, r b)
    | Ast.Computed_elem (a, b) -> Ast.Computed_elem (r a, r b)
    | Ast.Computed_attr (a, b) -> Ast.Computed_attr (r a, r b)
    | Ast.Sequence es -> Ast.Sequence (List.map r es)
    | Ast.Call (f, es) -> Ast.Call (f, List.map r es)
    | Ast.Neg a -> Ast.Neg (r a)
    | Ast.Cast (a, ty, k) -> Ast.Cast (r a, ty, k)
    | Ast.Instance_of (a, st) -> Ast.Instance_of (r a, st)
    | Ast.Treat_as (a, st) -> Ast.Treat_as (r a, st)
    | Ast.Computed_text a -> Ast.Computed_text (r a)
    | Ast.Path (a, b) -> Ast.Path (r a, b)
    | Ast.Filter (p, preds) -> Ast.Filter (r p, preds)
    | Ast.Direct_elem d ->
      Ast.Direct_elem
        { d with
          Ast.dattrs =
            List.map
              (fun (n, pieces) ->
                ( n,
                  List.map
                    (function
                      | Ast.A_text _ as t -> t
                      | Ast.A_expr e -> Ast.A_expr (r e))
                    pieces ))
              d.Ast.dattrs;
          dcontent =
            List.map
              (function
                | Ast.C_text _ as t -> t
                | Ast.C_expr e -> Ast.C_expr (r e))
              d.Ast.dcontent }
    | Ast.Enqueue { payload; queue; props } ->
      Ast.Enqueue
        { payload = r payload;
          queue;
          props = List.map (fun (n, e) -> (n, r e)) props }
    | Ast.Reset (Some (s, key)) -> Ast.Reset (Some (s, r key))
    | Ast.Reset None | Ast.Literal _ | Ast.Empty_seq | Ast.Var _
    | Ast.Context_item | Ast.Root | Ast.Axis_step _ | Ast.Flwor _
    | Ast.Quantified _ | Ast.Bind _ ->
      e

let binding_prefix = "__plan"

let uses_reserved_vars e =
  Ast.fold_expr
    (fun acc e ->
      acc
      ||
      match e with
      | Ast.Var v -> String.length v >= 6 && String.sub v 0 6 = binding_prefix
      | _ -> false)
    false e

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
    cr_original = r.Qdl.body;
    cr_requirements = Prefilter.rule_requirements body;
  }

(* Pass 5: the conflict footprint of one rewritten rule body. *)
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

(* Pass 3: hoist common subexpressions across the rules of one plan.
   Returns the bindings (dependency order) and each rule's rewritten
   (guard, then, else). *)
let hoist_common decomposed =
  let skip =
    List.exists
      (fun (_, guard, then_, else_) ->
        List.exists
          (fun e -> match e with Some e -> uses_reserved_vars e | None -> false)
          [ guard; Some then_; Some else_ ])
      decomposed
  in
  if skip then ([], decomposed)
  else begin
    (* candidate -> number of distinct rules it occurs in *)
    let counts = Hashtbl.create 32 in
    List.iter
      (fun (_, guard, then_, else_) ->
        let occs =
          List.fold_left
            (fun acc e ->
              match e with
              | None -> acc
              | Some e -> scope_fold (fun acc e -> e :: acc) acc e)
            []
            [ guard; Some then_; Some else_ ]
        in
        List.iter
          (fun e ->
            Hashtbl.replace counts e (1 + Option.value ~default:0 (Hashtbl.find_opt counts e)))
          (List.sort_uniq compare (List.filter hoist_candidate occs)))
      decomposed;
    let cands =
      Hashtbl.fold (fun e n acc -> if n >= 2 then e :: acc else acc) counts []
    in
    (* dependency order: smaller expressions first (a larger candidate can
       only reference a smaller one); replacement runs largest-first so
       nested candidates survive inside the bindings of their hosts *)
    let cands =
      List.sort
        (fun a b ->
          match compare (expr_size a) (expr_size b) with
          | 0 -> compare a b
          | c -> c)
        cands
    in
    let n = List.length cands in
    let arr = Array.of_list cands in
    let names = Array.init n (fun i -> Printf.sprintf "%s%d" binding_prefix i) in
    let bind_exprs = Array.copy arr in
    let rewritten = ref decomposed in
    for j = n - 1 downto 0 do
      let cand = arr.(j) and name = names.(j) in
      rewritten :=
        List.map
          (fun (meta, guard, then_, else_) ->
            ( meta,
              Option.map (scope_replace cand name) guard,
              scope_replace cand name then_,
              scope_replace cand name else_ ))
          !rewritten;
      for i = 0 to n - 1 do
        if i <> j then bind_exprs.(i) <- scope_replace cand name bind_exprs.(i)
      done
    done;
    (List.map2 (fun name e -> (name, e)) (Array.to_list names) (Array.to_list bind_exprs),
     !rewritten)
  end

(* Indices of the bindings an expression references, transitively closed
   over the bindings' own references; ascending, so evaluation order is a
   valid dependency order. *)
let binding_indices bindings exprs =
  let n = List.length bindings in
  let name_index =
    List.mapi (fun i (name, _) -> (name, i)) bindings
  in
  let direct e =
    Ast.fold_expr
      (fun acc e ->
        match e with
        | Ast.Var v -> (
          match List.assoc_opt v name_index with Some i -> i :: acc | None -> acc)
        | _ -> acc)
      [] e
  in
  let bind_refs =
    Array.of_list (List.map (fun (_, e) -> direct e) bindings)
  in
  let needed = Array.make (max 1 n) false in
  let rec mark i =
    if not needed.(i) then begin
      needed.(i) <- true;
      List.iter mark bind_refs.(i)
    end
  in
  List.iter (fun e -> List.iter mark (direct e)) exprs;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if needed.(i) then out := i :: !out
  done;
  !out

(* Passes 1-5 for one target's surviving rules. *)
let build_exec ~on_slicing rules =
  (* pass 2: guard splitting (opaque when the guard itself updates) *)
  let decomposed =
    List.map
      (fun cr ->
        match cr.cr_body with
        | Ast.If (c, t, e) when not (Ast.contains_update c) ->
          (cr, Some c, t, e)
        | body -> (cr, None, body, Ast.Empty_seq))
      rules
  in
  (* pass 3: hoisting *)
  let bindings, decomposed = hoist_common decomposed in
  (* pass 4: guard sharing (stable guards only; sharing an unstable guard
     could observe state a per-rule evaluation at this rule's turn would
     not) *)
  let guard_ids = Hashtbl.create 8 in
  let next_id = ref 0 in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let guarded =
    List.map
      (fun (cr, guard, then_, else_) ->
        let g_guard_id =
          match guard with
          | Some g when stable_expr g -> (
            match Hashtbl.find_opt guard_ids g with
            | Some id -> id
            | None ->
              let id = fresh () in
              Hashtbl.replace guard_ids g id;
              id)
          | _ -> fresh ()
        in
        let exprs =
          (match guard with Some g -> [ g ] | None -> []) @ [ then_; else_ ]
        in
        {
          Plan_ir.g_name = cr.cr_name;
          g_error_queue = cr.cr_error_queue;
          g_guard = guard;
          g_guard_id;
          g_then = then_;
          g_else = else_;
          g_bindings = binding_indices bindings exprs;
          g_fallback = cr.cr_body;
          g_requirements = (if on_slicing then [] else cr.cr_requirements);
        })
      decomposed
  in
  { Plan_ir.p_bindings = bindings; p_guarded = guarded; p_n_guards = !next_id }

(* One unguarded entry per rule, in declaration order: per-rule
   interpretation expressed as a plan. *)
let per_rule_exec ~on_slicing rules =
  Plan_ir.of_rules
    (List.map
       (fun cr ->
         ( cr.cr_name,
           cr.cr_error_queue,
           cr.cr_body,
           if on_slicing then [] else cr.cr_requirements ))
       rules)

let finish_plan ~queues ~merged target plan =
  (* pass 1: unsatisfiability pruning against the target queue's schema *)
  let vocabulary =
    if plan.on_slicing then Prefilter.Open_vocabulary
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
      plan.rules
  in
  let exec =
    if merged then build_exec ~on_slicing:plan.on_slicing kept
    else per_rule_exec ~on_slicing:plan.on_slicing kept
  in
  let footprints = List.map (fun cr -> footprint_of cr.cr_body) kept in
  let conflicts =
    Array.of_list
      (List.map2
         (fun (g : Plan_ir.guarded) fp -> (g.Plan_ir.g_requirements, conflict_of fp))
         exec.Plan_ir.p_guarded footprints)
  in
  {
    plan with
    rules = kept;
    pruned;
    exec;
    footprints;
    conflicts;
    conflict_union =
      union_conflicts (Array.to_list (Array.map snd conflicts));
    queue_resource = "q:" ^ target;
  }

let empty_plan target on_slicing =
  {
    target;
    on_slicing;
    rules = [];
    pruned = [];
    exec = Plan_ir.of_rules [];
    footprints = [];
    conflicts = [||];
    conflict_union = Conflict_resources { res = []; own_queue = false };
    queue_resource = "q:" ^ target;
  }

let compile ?(optimize = true) ?(merged = true) (program : Qdl.program) : t =
  let slicing_names = List.map (fun s -> s.Defs.sname) (Qdl.slicings program) in
  let properties = Qdl.properties program in
  let queues = Qdl.queues program in
  let plans = Hashtbl.create 16 in
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
            cr_original = r.Qdl.body;
            cr_requirements = [];
          }
      in
      let plan =
        match Hashtbl.find_opt plans target with
        | Some p -> { p with rules = p.rules @ [ compiled ] }
        | None -> { (empty_plan target on_slicing) with rules = [ compiled ] }
      in
      Hashtbl.replace plans target plan)
    (Qdl.rules program);
  (* Plan passes per target. Unoptimized rules carry no pre-filter
     requirements, so pruning keeps them all. *)
  let merged = optimize && merged in
  Hashtbl.filter_map_inplace
    (fun target plan -> Some (finish_plan ~queues ~merged target plan))
    plans;
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
        (List.length p.rules)
        (if List.length p.rules = 1 then "" else "s")
        (match List.length p.pruned with
         | 0 -> ""
         | n -> Printf.sprintf ", %d pruned" n);
      List.iter
        (fun (name, expr) ->
          pr "  binding $%s := %s\n" name (Demaq_xquery.Pp.to_string expr))
        p.exec.Demaq_xquery.Plan.p_bindings;
      List.iteri
        (fun i (g : Demaq_xquery.Plan.guarded) ->
          let fp = List.nth p.footprints i in
          pr "  rule %s%s%s:\n" g.Demaq_xquery.Plan.g_name
            (match g.Demaq_xquery.Plan.g_error_queue with
             | Some q -> " (errors -> " ^ q ^ ")"
             | None -> "")
            (match g.Demaq_xquery.Plan.g_requirements with
             | [] -> ""
             | names -> " [requires <" ^ String.concat ">, <" names ^ ">]");
          (match g.Demaq_xquery.Plan.g_guard with
           | Some guard ->
             pr "    guard[%d]: %s\n" g.Demaq_xquery.Plan.g_guard_id
               (Demaq_xquery.Pp.to_string guard);
             pr "    then: %s\n"
               (Demaq_xquery.Pp.to_string g.Demaq_xquery.Plan.g_then);
             if g.Demaq_xquery.Plan.g_else <> Demaq_xquery.Ast.Empty_seq then
               pr "    else: %s\n"
                 (Demaq_xquery.Pp.to_string g.Demaq_xquery.Plan.g_else)
           | None ->
             pr "    body: %s\n"
               (Demaq_xquery.Pp.to_string g.Demaq_xquery.Plan.g_then));
          pr "    footprint: %s\n" (footprint_to_string fp))
        p.exec.Demaq_xquery.Plan.p_guarded;
      List.iter
        (fun (name, reason) -> pr "  pruned rule %s: %s\n" name reason)
        p.pruned;
      pr "  conflict resources: %s\n" (conflict_to_string p.conflict_union))
    (plans t);
  Buffer.contents buf
