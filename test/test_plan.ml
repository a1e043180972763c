(* Tests for the compile-on-deploy rule plans: static unsatisfiability
   pruning, conflict footprints, footprint-driven dispatch, and the
   compiled plans against the unoptimized reference run. *)

module Qdl = Demaq.Lang.Qdl
module Analysis = Demaq.Lang.Analysis
module Compiler = Demaq.Lang.Compiler
module Message = Demaq.Message
module S = Demaq.Server

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let compile src = Compiler.compile (Qdl.parse_program src)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---- static unsatisfiability pruning ---- *)

let pruning_program =
  {|create queue a kind basic mode persistent
      schema { element m { text } }
    create queue b kind basic mode persistent
    create rule live for a if (//m) then do enqueue <hit/> into b
    create rule dead for a if (//ghost) then do enqueue <miss/> into b|}

let test_pruning () =
  let c = compile pruning_program in
  let plan = Option.get (Compiler.plan_for c "a") in
  check int_ "one surviving rule" 1 (Array.length plan.Compiler.rules);
  check bool_ "live survived" true (plan.Compiler.rules.(0).Compiler.cr_name = "live");
  (match plan.Compiler.pruned with
   | [ (name, reason) ] ->
     check bool_ "dead pruned" true (name = "dead");
     check bool_ "reason names the element" true (contains reason "ghost")
   | l -> Alcotest.failf "expected one pruned rule, got %d" (List.length l));
  check int_ "conflict template dropped it too" 1 (Array.length plan.Compiler.conflicts);
  check bool_ "explain reports the pruning" true
    (contains (Compiler.explain c) "pruned rule dead")

let test_pruned_rule_never_runs () =
  let srv = S.deploy pruning_program in
  ignore (S.inject srv ~queue:"a" (Demaq.xml "<m>x</m>"));
  ignore (S.run srv);
  let bodies q =
    List.map (fun m -> Demaq.xml_to_string (Message.body m)) (S.queue_contents srv q)
  in
  check bool_ "live fired" true (bodies "b" = [ "<hit/>" ]);
  check int_ "exactly one rule evaluation" 1 (S.stats srv).S.rule_evaluations

let test_no_pruning_under_open_vocabulary () =
  (* no schema: the vocabulary is open, nothing may be pruned *)
  let c =
    compile
      {|create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create rule dead for a if (//ghost) then do enqueue <miss/> into b|}
  in
  let plan = Option.get (Compiler.plan_for c "a") in
  check int_ "nothing pruned" 0 (List.length plan.Compiler.pruned);
  check int_ "rule kept" 1 (Array.length plan.Compiler.rules)

let test_analysis_warns_on_dead_rule () =
  let r = Analysis.analyze (Qdl.parse_program pruning_program) in
  check bool_ "still deployable" true r.Analysis.ok;
  let warnings =
    List.filter (fun d -> d.Analysis.severity = Analysis.Warning) r.Analysis.diagnostics
  in
  check bool_ "warns that the rule is statically dead" true
    (List.exists (fun d -> contains d.Analysis.message "statically dead") warnings)

(* ---- conflict footprints ---- *)

let test_footprints () =
  let c =
    compile
      {|create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create queue c kind basic mode persistent
        create property p as xs:string queue a value //id
        create slicing sl on p
        create rule stat for a if (//x) then do enqueue <y/> into b
        create rule dyn for a
          if (qs:queue(string(//target))//x) then do enqueue <y/> into c
        create rule cut for a if (//z) then do reset slicing sl key "k1"|}
  in
  let plan = Option.get (Compiler.plan_for c "a") in
  (match plan.Compiler.footprints with
   | [ f_stat; f_dyn; f_cut ] ->
     check bool_ "static enqueue -> its queue" true
       ((not f_stat.Compiler.fp_top) && f_stat.Compiler.fp_queues = [ "b" ]);
     check bool_ "dynamic queue name -> top" true f_dyn.Compiler.fp_top;
     check bool_ "literal-key reset -> slice" true
       (f_cut.Compiler.fp_slices = [ ("sl", "k1") ] && f_cut.Compiler.fp_queues = [ "c" ]
       || f_cut.Compiler.fp_slices = [ ("sl", "k1") ])
   | l -> Alcotest.failf "expected three footprints, got %d" (List.length l));
  (match plan.Compiler.conflicts.(0) with
   | reqs, Compiler.Conflict_resources { res; own_queue } ->
     check bool_ "requirements cached" true (reqs = [ "x" ]);
     check bool_ "resource string" true (res = [ "q:b" ]);
     check bool_ "no own-queue read" false own_queue
   | _, Compiler.Conflict_top -> Alcotest.fail "static rule must not be top");
  (match plan.Compiler.conflicts.(1) with
   | _, Compiler.Conflict_top -> ()
   | _ -> Alcotest.fail "dynamic rule must be top");
  check bool_ "union is top" true (plan.Compiler.conflict_union = Compiler.Conflict_top);
  check bool_ "queue resource cached" true (plan.Compiler.queue_resource = "q:a");
  check bool_ "top prints as such" true
    (contains (Compiler.footprint_to_string (List.nth plan.Compiler.footprints 1)) "⊤");
  check bool_ "every queue becomes a resource" true
    (List.sort compare (Compiler.all_queue_resources c) = [ "q:a"; "q:b"; "q:c" ])

(* ---- compiled plans == the reference run (qcheck) ----

   Programs are drawn from pools of conditions and bodies chosen to
   exercise every compiler rewrite and the pre-filter: constant-foldable
   and pre-filterable conditions, conditions that no message satisfies,
   guards and bodies that raise at runtime (§3.6 attribution), else
   branches and rule-level error queues. The same message sequence runs
   through the default engine and through the reference run (no compiler
   rewrites, no pre-filter), both on one worker; every queue's serialized
   contents and the processed/error/created counters must agree. The
   rule-evaluation count is not compared: the reference evaluates the
   rules the pre-filter skips, so that count differs by design. *)

let conditions =
  [|
    "//a";
    "//b";
    "//a and //b";
    "count(//a) > 0";
    "//nope";
    "1 = 1";
    "1 idiv 0 = 1" (* the guard raises *);
  |]

let rule_then i body =
  match body with
  | 0 -> Printf.sprintf "do enqueue <r%d/> into o1" i
  | 1 -> Printf.sprintf "do enqueue <r%d>{string((//a)[1])}</r%d> into o2" i i
  | 2 -> Printf.sprintf "do enqueue <r%d>{1 idiv 0}</r%d> into o1" i i
  | 3 ->
    Printf.sprintf "(do enqueue <r%d/> into o1, do enqueue <r%d/> into o2)" i i
  | _ ->
    (* the same subexpression in several rules *)
    Printf.sprintf "do enqueue <r%d>{count(//a) + count(//b) + count(//c)}</r%d> into o1"
      i i

let payloads =
  [| "<m><a/></m>"; "<m><b>x</b></m>"; "<m><a>1</a><b/></m>"; "<m><c/></m>"; "<m/>" |]

type gen_rule = { cond : int; body : int; has_else : bool; has_errq : bool }

let program_of rules =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    {|create queue q kind basic mode persistent
create queue o1 kind basic mode persistent
create queue o2 kind basic mode persistent
create queue errs kind basic mode persistent
|};
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf "create rule r%d for q %sif (%s) then %s%s\n" i
           (if r.has_errq then "errorqueue errs " else "")
           conditions.(r.cond mod Array.length conditions)
           (rule_then i (r.body mod 5))
           (if r.has_else then Printf.sprintf " else do enqueue <e%d/> into o2" i
            else "")))
    rules;
  Buffer.contents buf

let default_config = { S.default_config with S.workers = 1 }

(* The reference run the compiled plans are checked against, here and in
   the equivalence and engine suites: rule bodies as written and every
   rule evaluated, serially. *)
let reference_config =
  { S.default_config with S.optimize = false; use_prefilter = false; workers = 1 }

let observe config program msgs =
  let srv = S.deploy ~config program in
  List.iter
    (fun p ->
      match S.inject srv ~queue:"q" (Demaq.xml payloads.(p mod Array.length payloads)) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "inject: %s" (Demaq.Mq.Queue_manager.error_to_string e))
    msgs;
  ignore (S.run srv);
  let bodies q =
    List.map (fun m -> Demaq.xml_to_string (Message.body m)) (S.queue_contents srv q)
  in
  let st = S.stats srv in
  ( List.map bodies [ "q"; "o1"; "o2"; "errs" ],
    (st.S.processed, st.S.errors_raised, st.S.messages_created) )

let gen_case =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 4)
         (map
            (fun (cond, body, (has_else, has_errq)) -> { cond; body; has_else; has_errq })
            (triple (int_range 0 20) (int_range 0 20) (pair bool bool))))
      (list_size (int_range 1 5) (int_range 0 20)))

let print_case (rules, msgs) =
  Printf.sprintf "%s\nmessages: %s" (program_of rules)
    (String.concat ", "
       (List.map (fun p -> payloads.(p mod Array.length payloads)) msgs))

let prop_plans_match_reference =
  QCheck.Test.make ~name:"guarded plan == per-rule interpretation" ~count:40
    (QCheck.make gen_case ~print:print_case)
    (fun (rules, msgs) ->
      let program = program_of rules in
      observe default_config program msgs = observe reference_config program msgs)

(* ---- guarded rules allocate per matching message, not per node ----

   Several rules of one queue guarded by [if (//name)], as in the
   low-match restart workload: each guard must take the one-walk [//name]
   evaluation. A plan that binds [/descendant-or-self::node()] once for
   all its rules instead materializes every node of every matching
   message (about 5,100 minor words per message here, against about
   1,200). The bound covers the whole transaction: admission, evaluation,
   the enqueue and the commit. [Gc.minor_words] counts repeat exactly for
   the same code on one domain, so the bound is host-independent. *)

let lowmatch_program =
  "create queue in kind basic mode persistent\ncreate queue out kind basic mode persistent\n"
  ^ String.concat "\n"
      (List.init 4 (fun i ->
           let elem = if i = 2 then "recall" else Printf.sprintf "audit%d" i in
           Printf.sprintf "create rule r%d for in if (//%s) then do enqueue <hit n=\"%d\"/> into out"
             i elem i))

let lowmatch_doc =
  "<order><recall/><orderID>o-1</orderID><customer><name>c</name><tier>gold</tier></customer><items>"
  ^ String.concat ""
      (List.init 12 (fun i ->
           Printf.sprintf "<item sku=\"S%d\" qty=\"1\"><desc>glue</desc><price>%d.95</price></item>"
             i i))
  ^ "</items><shipTo><street>1 Loop</street><city>Walldorf</city></shipTo></order>"

let test_guarded_rules_allocation () =
  let srv = S.deploy ~config:{ S.default_config with S.workers = 1 } lowmatch_program in
  let n = 200 in
  let inject () =
    for _ = 1 to n do
      ignore (S.inject srv ~queue:"in" (Demaq.xml lowmatch_doc))
    done
  in
  (* a first round warms the caches and grows the tables *)
  inject ();
  ignore (S.run srv);
  inject ();
  let before = Gc.minor_words () in
  ignore (S.run srv);
  let per_msg = (Gc.minor_words () -. before) /. float_of_int n in
  check int_ "one hit per message" (2 * n) (List.length (S.queue_contents srv "out"));
  if per_msg > 2500. then
    Alcotest.failf "a matching message allocates %.0f minor words (bound 2500)" per_msg

(* ---- footprint-driven dispatch: pinned end-to-end regression ---- *)

let fanout_program =
  {|create queue inq kind basic mode persistent
    create queue o1 kind basic mode persistent
    create queue o2 kind basic mode persistent
    create rule ra for inq if (//a) then do enqueue <ya/> into o1
    create rule rb for inq if (//b) then do enqueue <yb/> into o2|}

let run_fanout ~footprint ~workers =
  let config =
    {
      S.default_config with
      S.footprint_dispatch = footprint;
      S.workers = workers;
    }
  in
  let srv = S.deploy ~config fanout_program in
  List.iter
    (fun p -> ignore (S.inject srv ~queue:"inq" (Demaq.xml p)))
    [ "<m><a/></m>"; "<m><b/></m>"; "<m><a/></m>"; "<m><b/></m>" ];
  ignore (S.run srv);
  let bodies q =
    List.map (fun m -> Demaq.xml_to_string (Message.body m)) (S.queue_contents srv q)
  in
  (bodies "o1", bodies "o2", (S.stats srv).S.errors_raised)

let test_footprint_dispatch_end_to_end () =
  (* same outputs with and without footprint partitioning; under
     footprint dispatch messages admitted by disjoint-resource rules may
     reorder across, but never within, a resource *)
  let base = run_fanout ~footprint:false ~workers:1 in
  let fp = run_fanout ~footprint:true ~workers:1 in
  check bool_ "single worker: identical" true (base = fp);
  let o1, o2, errors = run_fanout ~footprint:true ~workers:2 in
  check bool_ "o1 order preserved" true (o1 = [ "<ya/>"; "<ya/>" ]);
  check bool_ "o2 order preserved" true (o2 = [ "<yb/>"; "<yb/>" ]);
  check int_ "no errors" 0 errors

let suite =
  [
    ("unsatisfiable rules pruned", `Quick, test_pruning);
    ("pruned rule never runs", `Quick, test_pruned_rule_never_runs);
    ("open vocabulary disables pruning", `Quick, test_no_pruning_under_open_vocabulary);
    ("analysis warns on dead rules", `Quick, test_analysis_warns_on_dead_rule);
    ("conflict footprints", `Quick, test_footprints);
    QCheck_alcotest.to_alcotest prop_plans_match_reference;
    ("footprint dispatch end to end", `Quick, test_footprint_dispatch_end_to_end);
    ("guarded rules allocation bound", `Quick, test_guarded_rules_allocation);
  ]
