(* Tests for the extended XQuery surface: computed constructors, positional
   for-variables, node comparisons, intersect/except, cast/castable, and
   the additional function library entries. *)

module Tree = Demaq.Xml.Tree
module Value = Demaq.Value
module Parser = Demaq.Xquery.Parser
module Eval = Demaq.Xquery.Eval
module Context = Demaq.Xquery.Context

let check = Alcotest.check
let string_ = Alcotest.string

let default_ctx =
  Demaq.xml
    "<root><a id=\"1\">first</a><b>second</b><a id=\"2\">third</a></root>"

let show v =
  String.concat ";"
    (List.map
       (function
         | Value.Atom a -> Value.string_of_atomic a
         | Value.Node n -> (
           match Tree.node_tree n with
           | Some t -> Demaq.xml_to_string t
           | None -> "@" ^ Tree.string_value n))
       v)

let expect src expected () =
  check string_ src expected (show (fst (Eval.run ~context:default_ctx src)))

let expect_error src () =
  match Eval.run ~context:default_ctx src with
  | _ -> Alcotest.failf "expected evaluation error for %s" src
  | exception Context.Eval_error _ -> ()

let cases =
  [
    (* computed constructors *)
    ("computed element, braced name", expect "element {'env'} {1 + 1}" "<env>2</env>");
    ("computed element, literal name", expect "element note {'hi'}" "<note>hi</note>");
    ("computed element nests nodes", expect "element wrap {//b}" "<wrap><b>second</b></wrap>");
    ("computed element empty content", expect "element hollow {}" "<hollow/>");
    ("computed attribute inside element",
     expect "element tagged {attribute {'k'} {'v'}, //b}"
       {|<tagged k="v"><b>second</b></tagged>|});
    ("computed attribute in direct constructor",
     expect "<x>{attribute n {40 + 2}}</x>" {|<x n="42"/>|});
    ("computed attribute name from expression",
     expect "element e {attribute {concat('a', 'b')} {1}}" {|<e ab="1"/>|});
    ("computed text", expect "element t {text {('x', 'y')}}" "<t>x y</t>");
    ("computed text standalone", expect "string(text {'plain'})" "plain");
    ("computed element is navigable",
     expect "count(element box {//a}/a)" "2");
    (* adjacent text children of a constructed element merge into one node *)
    ("computed element merges adjacent text",
     expect "count(element a {(text {'x'}, text {'y'})}/node())" "1");
    ("computed element merged text value",
     expect "string(element a {(text {'x'}, text {'y'})})" "xy");
    ("direct element merges adjacent text",
     expect "count(<a>{text {'x'}}{'y'}<b/>{'z'}</a>/node())" "3");
    ("direct element merges literal and enclosed text",
     expect "count(<a>x{'y'}{1, 2}</a>/node())" "1");
    (* positional variables *)
    ("for at simple", expect "for $x at $i in ('a', 'b', 'c') return $i" "1;2;3");
    ("for at used in result",
     expect "string-join(for $x at $i in ('p', 'q') return concat($i, ':', $x), ',')"
       "1:p,2:q");
    ("for at with where", expect "for $x at $i in (9, 8, 7) where $i = 2 return $x" "8");
    ("for at on nodes", expect "for $n at $i in //a return $i * 10" "10;20");
    (* node comparisons *)
    ("is on same node", expect "(//a)[1] is (//a)[1]" "true");
    ("is on distinct nodes", expect "(//a)[1] is (//a)[2]" "false");
    ("precedes", expect "(//a)[1] << //b" "true");
    ("follows", expect "(//a)[2] >> //b" "true");
    ("node comparison with empty", expect "//missing is //b" "");
    (* intersect / except *)
    ("intersect", expect "count((//a | //b) intersect //a)" "2");
    ("except", expect "string((//a | //b) except //a)" "second");
    ("except everything", expect "count(//a except //a)" "0");
    ("intersect docorder", expect "string(((//b | //a) intersect //node())[1])" "first");
    (* cast / castable *)
    ("cast to integer", expect "'42' cast as xs:integer" "42");
    ("cast to boolean", expect "1 cast as xs:boolean" "true");
    ("cast node to decimal", expect "(//a)[1]/@id cast as xs:decimal" "1");
    ("cast empty", expect "() cast as xs:integer" "");
    ("castable yes", expect "'42' castable as xs:integer" "true");
    ("castable no", expect "'pear' castable as xs:integer" "false");
    ("castable empty", expect "() castable as xs:string" "true");
    (* new functions *)
    ("translate", expect "translate('bare', 'abr', 'AB')" "BAe");
    ("replace literal", expect "replace('a-b-c', '-', '+')" "a+b+c");
    ("matches substring", expect "matches('hello', 'ell')" "true");
    ("matches no", expect "matches('hello', 'xyz')" "false");
    ("compare", expect "compare('a', 'b')" "-1");
    ("deep-equal true", expect "deep-equal(<a><b/></a>, <a><b/></a>)" "true");
    ("deep-equal false", expect "deep-equal(<a><b/></a>, <a><c/></a>)" "false");
    ("deep-equal atoms", expect "deep-equal((1, 'x'), (1, 'x'))" "true");
    ("zero-or-one ok", expect "zero-or-one(//b)" "<b>second</b>");
    ("one-or-more ok", expect "count(one-or-more(//a))" "2");
    ("exactly-one ok", expect "string(exactly-one(//b))" "second");
  ]

let errors =
  [
    ("cast failure", expect_error "'x' cast as xs:integer");
    ("cast multi-item", expect_error "(1, 2) cast as xs:integer");
    ("zero-or-one too many", expect_error "zero-or-one(//a)");
    ("one-or-more empty", expect_error "one-or-more(//missing)");
    ("exactly-one empty", expect_error "exactly-one(//missing)");
    ("computed element bad name", expect_error "element {''} {1}");
    ("node comparison non-node", expect_error "1 is 2");
  ]

(* parse/print roundtrips of the new syntax *)
let pp_cases =
  [
    "element {'a'} {1}";
    "attribute {'k'} {'v'}";
    "text {'x'}";
    "for $x at $i in (1, 2) return ($i, $x)";
    "(//a)[1] is (//a)[2]";
    "//a intersect //b";
    "//a except //b";
    "'5' cast as xs:integer";
    "'5' castable as xs:decimal";
  ]

let test_pp_roundtrip () =
  List.iter
    (fun src ->
      let printed = Demaq.Xquery.Pp.to_string (Parser.parse src) in
      match Parser.parse printed with
      | _ -> ()
      | exception Parser.Syntax_error { msg; _ } ->
        Alcotest.failf "re-parse of %S (from %S) failed: %s" printed src msg)
    pp_cases

(* computed constructors usable from QML rules *)
let test_computed_in_rule () =
  let srv =
    Demaq.deploy
      {|create queue in kind basic mode persistent
        create queue out kind basic mode persistent
        create rule shape for in
          if (//m) then
            do enqueue element {string(//m/kind)} {
              attribute {'n'} {count(//m/*)}, //m/payload/*
            } into out|}
  in
  (match Demaq.inject srv ~queue:"in"
           (Demaq.xml "<m><kind>report</kind><payload><x/></payload></m>")
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Demaq.Mq.Queue_manager.error_to_string e));
  ignore (Demaq.Server.run srv);
  match Demaq.Server.queue_contents srv "out" with
  | [ m ] ->
    check string_ "constructed message" {|<report n="2"><x/></report>|}
      (Demaq.xml_to_string (Demaq.Message.body m))
  | l -> Alcotest.failf "expected one message, got %d" (List.length l)

let suite =
  List.map (fun (n, f) -> (n, `Quick, f)) cases
  @ List.map (fun (n, f) -> (n, `Quick, f)) errors
  @ [
      ("pp roundtrip of new syntax", `Quick, test_pp_roundtrip);
      ("computed constructors in rules", `Quick, test_computed_in_rule);
    ]

(* ---- instance of ---- *)

let instance_cases =
  [
    ("int instance of integer", expect "3 instance of xs:integer" "true");
    ("int instance of decimal (derived)", expect "3 instance of xs:decimal" "true");
    ("int not string", expect "3 instance of xs:string" "false");
    ("string instance", expect "'x' instance of xs:string" "true");
    ("boolean instance", expect "true() instance of xs:boolean" "true");
    ("node atomization is untyped", expect
       "data(//b) instance of xs:untypedAtomic" "true");
    ("untyped not string", expect "data(//b) instance of xs:string" "false");
    ("any atomic", expect "(1, 'x', true()) instance of xs:anyAtomicType+" "true");
    ("element test", expect "//b instance of element()" "true");
    ("element name test", expect "//b instance of element(b)" "true");
    ("element wrong name", expect "//b instance of element(c)" "false");
    ("attribute test", expect "(//a)[1]/@id instance of attribute()" "true");
    ("attribute name test", expect "(//a)[1]/@id instance of attribute(id)" "true");
    ("text test", expect "//b/text() instance of text()" "true");
    ("node test mixed", expect "(//a, //b) instance of node()+" "true");
    ("item star", expect "(1, //b) instance of item()*" "true");
    ("document node", expect "root(//b) instance of document-node()" "true");
    ("empty-sequence yes", expect "() instance of empty-sequence()" "true");
    ("empty-sequence no", expect "1 instance of empty-sequence()" "false");
    ("occurrence one fails on empty", expect "() instance of xs:integer" "false");
    ("occurrence optional on empty", expect "() instance of xs:integer?" "true");
    ("occurrence star on empty", expect "() instance of element()*" "true");
    ("occurrence plus needs one", expect "() instance of xs:integer+" "false");
    ("occurrence one fails on many", expect "(1, 2) instance of xs:integer" "false");
    ("occurrence plus on many", expect "(1, 2) instance of xs:integer+" "true");
    ("mixed sequence fails atomic", expect "(1, 'x') instance of xs:integer+" "false");
    ("instance in condition", expect
       "if (//b instance of element()) then 'n' else 'a'" "n");
  ]

let test_instance_pp_roundtrip () =
  List.iter
    (fun src ->
      let printed = Demaq.Xquery.Pp.to_string (Parser.parse src) in
      match Parser.parse printed with
      | _ -> ()
      | exception Parser.Syntax_error { msg; _ } ->
        Alcotest.failf "re-parse of %S (from %S): %s" printed src msg)
    [
      "1 instance of xs:integer";
      "//b instance of element(b)+";
      "() instance of empty-sequence()";
      "(1, 2) instance of item()*";
    ]

(* static analysis catches free variables at deploy time *)
let test_free_variable_rejected () =
  match
    Demaq.deploy
      {|create queue a kind basic mode persistent
        create rule r for a if ($undefined) then do enqueue <x/> into a|}
  with
  | _ -> Alcotest.fail "expected deployment error"
  | exception Demaq.Server.Deployment_error msg ->
    Alcotest.(check bool) "names the variable" true
      (let sub = "$undefined" in
       let n = String.length sub in
       let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
       go 0)

let test_bound_variables_accepted () =
  (* all binder forms: let, for, for-at, quantifiers *)
  let srv =
    Demaq.deploy
      {|create queue a kind basic mode persistent
        create rule r for a
          if (some $s in //x satisfies $s = 1) then
            for $v at $i in //y
            let $w := $v
            return do enqueue <ok>{$w}{$i}</ok> into a|}
  in
  ignore srv

let suite =
  suite
  @ List.map (fun (n, f) -> (n, `Quick, f)) instance_cases
  @ [
      ("instance of pp roundtrip", `Quick, test_instance_pp_roundtrip);
      ("analysis rejects free variables", `Quick, test_free_variable_rejected);
      ("analysis accepts all binder forms", `Quick, test_bound_variables_accepted);
    ]

(* ---- treat as / fn:trace ---- *)

let treat_cases =
  [
    ("treat as passes", expect "('x' treat as xs:string)" "x");
    ("treat as sequence", expect "count((//a treat as element()+))" "2");
    ("treat preserves empty with star", expect "count(() treat as item()*)" "0");
    ("trace is identity", expect "trace((1, 2), 'probe')" "1;2");
  ]

let treat_errors =
  [
    ("treat as fails on wrong type", expect_error "('x' treat as xs:integer)");
    ("treat as fails on cardinality", expect_error "((1, 2) treat as xs:integer)");
  ]

let suite =
  suite
  @ List.map (fun (n, f) -> (n, `Quick, f)) treat_cases
  @ List.map (fun (n, f) -> (n, `Quick, f)) treat_errors

(* ---- order by refinements ---- *)

let order_tests =
  [
    ("stable order by",
     expect "for $i in (3, 1, 2) stable order by $i return $i" "1;2;3");
    ("empty least default",
     expect "for $p in (<x><v>2</v></x>, <x/>, <x><v>1</v></x>) order by $p/v return count($p/v)"
       "0;1;1");
    ("empty greatest",
     expect
       "for $p in (<x><v>2</v></x>, <x/>, <x><v>1</v></x>) order by $p/v empty greatest return count($p/v)"
       "1;1;0");
    ("empty greatest descending",
     expect
       "for $p in (<x><v>2</v></x>, <x/>) order by $p/v descending empty greatest return count($p/v)"
       "0;1");
  ]

let suite = suite @ List.map (fun (n, f) -> (n, `Quick, f)) order_tests
