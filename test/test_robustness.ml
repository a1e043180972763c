(* Robustness: crash-point recovery matrix, scheduler ordering properties,
   heap invariants, and parser fuzz safety (malformed input must fail with
   the documented exception, never crash or loop). *)

module Store = Demaq.Store.Message_store
module Wal = Demaq.Store.Wal
module Heap = Demaq.Engine.Heap
module Scheduler = Demaq.Engine.Scheduler
module Xml_parser = Demaq.Xml.Parser
module Xq_parser = Demaq.Xquery.Parser
module Qdl = Demaq.Lang.Qdl

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-robust-%s-%d" tag (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

(* ---- crash-point matrix ----

   Write a known history of transactions, then simulate a crash at every
   byte position of the log by truncating a copy. After recovery the store
   must contain a prefix of the committed transactions: never a partial
   transaction, never a later transaction without all earlier ones. *)

let test_crash_point_matrix () =
  let dir = fresh_dir "crash" in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  (* txn i inserts messages (3i-2, 3i-1, 3i) atomically *)
  for i = 1 to 5 do
    let txn = Store.begin_txn st in
    for j = 1 to 3 do
      ignore
        (Store.insert txn ~queue:"q"
           ~payload:(Printf.sprintf "<m t='%d' j='%d'/>" i j)
           ~extra:"" ~enqueued_at:i ~durable:true)
    done;
    Store.commit txn
  done;
  Store.close st;
  let wal_path = Filename.concat dir "wal.log" in
  let full = In_channel.with_open_bin wal_path In_channel.input_all in
  let total = String.length full in
  let crash_dir = fresh_dir "crash-replay" in
  let violations = ref [] in
  (* test a spread of truncation points including every record boundary *)
  let points = List.init 61 (fun i -> i * total / 60) in
  List.iter
    (fun cut ->
      Out_channel.with_open_bin (Filename.concat crash_dir "wal.log") (fun oc ->
          Out_channel.output_string oc (String.sub full 0 cut));
      let snapshot = Filename.concat crash_dir "snapshot.bin" in
      if Sys.file_exists snapshot then Sys.remove snapshot;
      let st = Store.open_store (Store.durable_config ~sync:Wal.Sync_never crash_dir) in
      let n = Store.queue_length st "q" in
      Store.close st;
      (* atomicity: only whole transactions *)
      if n mod 3 <> 0 then violations := (cut, n) :: !violations)
    points;
  check bool_
    (Printf.sprintf "whole transactions only (violations at %s)"
       (String.concat ","
          (List.map (fun (c, n) -> Printf.sprintf "%d:%d" c n) !violations)))
    true (!violations = []);
  (* the full log recovers everything *)
  Out_channel.with_open_bin (Filename.concat crash_dir "wal.log") (fun oc ->
      Out_channel.output_string oc full);
  let st = Store.open_store (Store.durable_config ~sync:Wal.Sync_never crash_dir) in
  check int_ "full history" 15 (Store.queue_length st "q");
  Store.close st

let test_crash_during_checkpoint_tmp () =
  (* a leftover snapshot.bin.tmp (crash mid-checkpoint) must be ignored *)
  let dir = fresh_dir "ckpt" in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  ignore (Store.insert txn ~queue:"q" ~payload:"<a/>" ~extra:"" ~enqueued_at:1 ~durable:true);
  Store.commit txn;
  Store.close st;
  Out_channel.with_open_bin (Filename.concat dir "snapshot.bin.tmp") (fun oc ->
      Out_channel.output_string oc "garbage-partial-snapshot");
  let st = Store.open_store cfg in
  check int_ "recovered from log despite tmp file" 1 (Store.queue_length st "q");
  Store.close st

(* ---- heap and scheduler ordering ---- *)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

let prop_scheduler_order =
  (* higher priority first; FIFO within a priority *)
  QCheck.Test.make ~name:"scheduler: priority then arrival order" ~count:200
    QCheck.(list (pair (int_bound 3) small_nat))
    (fun entries ->
      let sched = Scheduler.create () in
      List.iteri (fun i (prio, _) -> Scheduler.add sched ~priority:prio i) entries;
      let rec drain acc =
        match Scheduler.pop sched with
        | Some rid -> drain (rid :: acc)
        | None -> List.rev acc
      in
      let order = drain [] in
      (* reference: stable sort of indices by descending priority *)
      let expected =
        List.map snd
          (List.stable_sort
             (fun (p1, _) (p2, _) -> compare p2 p1)
             (List.mapi (fun i (prio, _) -> (prio, i)) entries))
      in
      order = expected)

(* ---- parser fuzz safety ---- *)

let gen_junk =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 30)
         (oneofl
            [ "<"; ">"; "/"; "a"; "b"; "("; ")"; "{"; "}"; "\""; "'"; "&"; ";";
              " "; "$"; "="; "!"; "["; "]"; ","; "1"; "if"; "then"; "do"; ":";
              "enqueue"; "<a>"; "</a>"; "//"; "create"; "queue"; "--"; "<!" ])))

let prop_xml_fuzz =
  QCheck.Test.make ~name:"XML parser: junk fails cleanly" ~count:500
    (QCheck.make gen_junk ~print:Fun.id)
    (fun s ->
      match Xml_parser.parse s with
      | _ -> true
      | exception Xml_parser.Parse_error _ -> true
      | exception _ -> false)

let prop_xquery_fuzz =
  QCheck.Test.make ~name:"XQuery parser: junk fails cleanly" ~count:500
    (QCheck.make gen_junk ~print:Fun.id)
    (fun s ->
      match Xq_parser.parse s with
      | _ -> true
      | exception Xq_parser.Syntax_error _ -> true
      | exception _ -> false)

let prop_qdl_fuzz =
  QCheck.Test.make ~name:"QDL parser: junk fails cleanly" ~count:500
    (QCheck.make gen_junk ~print:Fun.id)
    (fun s ->
      match Qdl.parse_program s with
      | _ -> true
      | exception Qdl.Qdl_error _ -> true
      | exception _ -> false)

(* well-formed expressions evaluate or raise Eval_error, never crash *)
let gen_exprs =
  QCheck.Gen.(
    oneofl
      [ "1 idiv 0"; "//a[1 to 3]"; "sum(('a', 'b'))"; "substring('x', 0 - 5)";
        "let $x := <a/> return $x/.."; "(1, 2)[true()]"; "string((1, 2))";
        "avg(//missing)"; "max(())"; "<a>{/}</a>"; "()[1]"; "(//a)[last() + 1]";
        "qs:message()"; "-'x'"; "1 + 'y'"; "element {1 + 1} {2}";
        "concat('a', 'b', 'c', 'd', 'e')"; "index-of((), 1)" ])

let prop_eval_total =
  QCheck.Test.make ~name:"evaluator: corner expressions never crash" ~count:200
    (QCheck.make gen_exprs ~print:Fun.id)
    (fun src ->
      let ctx = Demaq.xml "<r><a>1</a></r>" in
      match Demaq.Xquery.Eval.run ~context:ctx src with
      | _ -> true
      | exception Demaq.Xquery.Context.Eval_error _ -> true
      | exception _ -> false)

(* ---- totality on mutated sources ----

   Valid sources (the shipped programs and a spread of expressions), each
   mutated by one to three seeded edits: a deleted span, an inserted
   token, a duplicated span or a replaced byte. Every parser answers a
   value or its own typed error, and every expression that parses
   evaluates to a value or an [Eval_error]: any other exception escaping
   is a bug. The corpus has no range expressions and no token inserts a
   digit, so no mutant asks for an unbounded sequence. *)

let example_programs () =
  List.filter_map
    (fun name ->
      List.find_map
        (fun dir ->
          let path = Filename.concat dir name in
          if Sys.file_exists path then Some (In_channel.with_open_bin path In_channel.input_all)
          else None)
        [ "../examples"; "examples" ])
    [ "etl_pipeline.demaq"; "order_fanout.demaq"; "escalation.demaq" ]

let corpus_exprs () =
  List.concat_map
    (fun src ->
      List.map
        (fun (r : Qdl.rule_def) -> Demaq.Xquery.Pp.to_string r.body)
        (Qdl.rules (Qdl.parse_program src)))
    (example_programs ())
  @ [
      "//event/value"; "string(//a/b)"; "if (//a/b and not(//c)) then 1 else 2";
      "exists(//a/b/c)"; "empty(/r/a)"; "boolean(//b[@x = '1'])"; "$v//a/b";
      "//a[1]/b"; "//a/@x"; "//a/b[2]"; "(//a)[last()]"; "//a/text()";
      "<x a='{//b}'>{//a/b}{string(//c)} t</x>"; "<x>{1, 2}{<y/>}{//a/@x}</x>";
      "element e { attribute k { 1 }, text { 'v' }, //a }";
      "do enqueue <m>{//a}</m> into q"; "do reset"; "for $i at $p in //a where $p > 1 return $i/b";
      "let $x := //a return count($x)"; "some $x in //a satisfies $x/b";
      "every $x in (1, 2) satisfies $x > 0"; "(1, 2, 3)[1.5]"; "round(-2.5)";
      "substring('12345', -0.5, 3)"; "subsequence((1, 2, 3), 2, 5)";
      "concat('a', //b, 'c')"; "string-join(//b, ',')"; "sum(//n) div count(//n)";
      "max((3, 1, 2))"; "distinct-values(('a', 'b', 'a'))"; "index-of((1, 2, 1), 1)";
      "translate('abc', 'ab', 'x')"; "substring-before('a-b', '-')"; "tokenize('a b', ' ')";
      "upper-case(local-name(/*))"; "number('12') + 1"; "'7' cast as xs:integer";
      "'x' castable as xs:decimal"; "//a instance of element(a)+"; "//a treat as node()*";
      "/r/a[b] | //c"; "//a intersect //a[b]"; "//a except //a[b]"; "//a[1] is //a[1]";
      "//a[1] << //c"; "-(//n[1])"; "7 idiv 2 + 7 mod 2"; "qs:message()//a/b";
    ]

let tokens =
  [| "("; ")"; "<"; ">"; "/"; "//"; "{"; "}"; "\""; "'"; "["; "]"; ","; "$v"; "@"; ":";
     " "; "if"; "then"; "else"; "do"; "return"; "for"; "let"; "where"; ":="; ".."; ".";
     "*"; "="; "-"; "text()"; "node()"; "</a>"; "<a>"; "(:"; ":)"; "create"; "rule";
     "queue"; "enqueue"; "into"; "and"; "or"; "not("; "string("; "|" |]

let mutate rng src =
  let edit s =
    let n = String.length s in
    let pos = Random.State.int rng (n + 1) in
    let len = min (n - pos) (1 + Random.State.int rng 8) in
    match Random.State.int rng 4 with
    | 0 -> String.sub s 0 pos ^ String.sub s (pos + len) (n - pos - len)
    | 1 ->
      let tok = tokens.(Random.State.int rng (Array.length tokens)) in
      String.sub s 0 pos ^ tok ^ String.sub s pos (n - pos)
    | 2 ->
      let at = Random.State.int rng (n + 1) in
      String.sub s 0 at ^ String.sub s pos len ^ String.sub s at (n - at)
    | _ ->
      if pos = n then s
      else
        String.mapi
          (fun i c -> if i = pos then Char.chr (32 + Random.State.int rng 95) else c)
          s
  in
  let rec go k s = if k = 0 then s else go (k - 1) (edit s) in
  go (1 + Random.State.int rng 3) src

let gen_mutant corpus =
  let corpus = Array.of_list corpus in
  QCheck.make ~print:Fun.id
    (fun rng -> mutate rng corpus.(Random.State.int rng (Array.length corpus)))

let prop_xquery_parser_total =
  QCheck.Test.make ~name:"XQuery parser: mutants parse or raise Syntax_error" ~count:20000
    (gen_mutant (corpus_exprs ()))
    (fun src ->
      match Xq_parser.parse src with _ -> true | exception Xq_parser.Syntax_error _ -> true)

let prop_qdl_total =
  QCheck.Test.make ~name:"QDL parser: mutants parse or raise Qdl_error" ~count:2000
    (gen_mutant (example_programs ()))
    (fun src -> match Qdl.parse_program src with _ -> true | exception Qdl.Qdl_error _ -> true)

let prop_eval_total_on_mutants =
  let ctx =
    Demaq.xml
      "<r><a x='1'><b>2</b><c>t</c></a><a><b>3</b><n>4</n></a><c><a><b>5</b></a></c></r>"
  in
  let doc_node = Demaq.Xquery.Eval.doc_node_of_tree ctx in
  let env = Demaq.Xquery.Context.make ~item:(Demaq.Xquery.Value.Node doc_node) () in
  let env =
    Demaq.Xquery.Context.bind env "v" (Demaq.Xquery.Eval.eval env (Xq_parser.parse "//a"))
  in
  QCheck.Test.make ~name:"evaluator: parsed mutants evaluate or raise Eval_error" ~count:20000
    (gen_mutant (corpus_exprs ()))
    (fun src ->
      match Xq_parser.parse src with
      | exception Xq_parser.Syntax_error _ -> true
      | expr -> (
        match Demaq.Xquery.Eval.eval_with_updates env expr with
        | _ -> true
        | exception Demaq.Xquery.Context.Eval_error _ -> true))

let seeded test = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 16 |]) test

let suite =
  [
    ("crash-point matrix", `Quick, test_crash_point_matrix);
    ("crash during checkpoint", `Quick, test_crash_during_checkpoint_tmp);
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_scheduler_order;
    QCheck_alcotest.to_alcotest prop_xml_fuzz;
    QCheck_alcotest.to_alcotest prop_xquery_fuzz;
    QCheck_alcotest.to_alcotest prop_qdl_fuzz;
    QCheck_alcotest.to_alcotest prop_eval_total;
    seeded prop_xquery_parser_total;
    seeded prop_qdl_total;
    seeded prop_eval_total_on_mutants;
  ]
