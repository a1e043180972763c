(* Tests for lib/xquery: parser, evaluator, function library, updates. *)

module Tree = Demaq.Xml.Tree
module Xml_parser = Demaq.Xml.Parser
module Value = Demaq.Xquery.Value
module Ast = Demaq.Xquery.Ast
module Parser = Demaq.Xquery.Parser
module Eval = Demaq.Xquery.Eval
module Context = Demaq.Xquery.Context
module Update = Demaq.Xquery.Update
module Pp = Demaq.Xquery.Pp

let check = Alcotest.check
let string_ = Alcotest.string
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let default_ctx =
  Xml_parser.parse
    "<offerRequest><requestID>r1</requestID><customerID>c7</customerID><items><item \
     n=\"1\">glue</item><item n=\"2\">paint</item><item n=\"3\">glue</item></items></offerRequest>"

let eval ?(ctx = default_ctx) ?vars src = fst (Eval.run ?vars ~context:ctx src)
let eval_updates ?(ctx = default_ctx) src = snd (Eval.run ~context:ctx src)

(* Render a value compactly for assertions. *)
let show v =
  String.concat ";"
    (List.map
       (function
         | Value.Atom a -> Value.string_of_atomic a
         | Value.Node n -> (
           match Tree.node_tree n with
           | Some t -> Demaq.Xml.Serializer.to_string t
           | None -> Tree.string_value n))
       v)

let expect ?ctx src expected () = check string_ src expected (show (eval ?ctx src))

let expect_error src () =
  match eval src with
  | _ -> Alcotest.failf "expected evaluation error for %s" src
  | exception Context.Eval_error _ -> ()

let expect_syntax_error src () =
  match Parser.parse src with
  | _ -> Alcotest.failf "expected syntax error for %s" src
  | exception Parser.Syntax_error _ -> ()

(* ---- literals, arithmetic, comparisons ---- *)

let atoms =
  [
    ("integer literal", expect "42" "42");
    ("decimal literal", expect "4.5" "4.5");
    ("string literal double", expect {|"hi"|} "hi");
    ("string literal single", expect "'hi'" "hi");
    ("string escape doubling", expect {|"a""b"|} {|a"b|});
    ("string entity", expect {|"a&lt;b"|} "a<b");
    ("empty sequence", expect "()" "");
    ("sequence", expect "(1, 2, 3)" "1;2;3");
    ("nested sequence flattens", expect "(1, (2, 3))" "1;2;3");
    ("addition", expect "1 + 2" "3");
    ("precedence", expect "1 + 2 * 3" "7");
    ("subtraction needs spaces", expect "5 - 3" "2");
    ("division decimal", expect "7 div 2" "3.5");
    ("integer division", expect "7 idiv 2" "3");
    ("modulo", expect "7 mod 2" "1");
    ("unary minus", expect "-(3)" "-3");
    ("unary minus literal", expect "- 3" "-3");
    ("float arithmetic", expect "1.5 + 1" "2.5");
    ("arithmetic with empty is empty", expect "1 + ()" "");
    ("range", expect "2 to 5" "2;3;4;5");
    ("empty range", expect "5 to 2" "");
    ("general eq", expect "1 = 1" "true");
    ("general existential", expect "(1, 2, 3) = (3, 4)" "true");
    ("general existential false", expect "(1, 2) = (3, 4)" "false");
    ("general lt over strings", expect {|"abc" < "abd"|} "true");
    ("untyped coerced numeric", expect "//item[1]/@n = 1" "true");
    ("value comparison", expect "1 eq 1" "true");
    ("value comparison empty", expect "() eq 1" "");
    ("and or", expect "true() and (false() or true())" "true");
    ("and shortcut semantics", expect "false() and 1" "false");
    ("string comparison via =", expect "//customerID = 'c7'" "true");
  ]

let test_value_comparison_multi = expect_error "(1,2) eq 1"

(* ---- paths ---- *)

let paths =
  [
    ("descendant shortcut", expect "//requestID" "<requestID>r1</requestID>");
    ("child path", expect "/offerRequest/customerID" "<customerID>c7</customerID>");
    ("relative from context", expect "items/item[1]" {|<item n="1">glue</item>|});
    ("context item", expect "string(./requestID)" "r1");
    ("wildcard", expect "count(/offerRequest/*)" "3");
    ("attribute axis", expect "string(//item[2]/@n)" "2");
    ("attribute wildcard", expect "count(//item[1]/@*)" "1");
    ("parent step", expect "count(//item[1]/../item)" "3");
    ("text test", expect "//item[1]/text()" "glue");
    ("node test counts text", expect "count(//item[1]/node())" "1");
    ("full axis syntax", expect "count(child::items/child::item)" "3");
    ("descendant axis", expect "count(descendant::item)" "3");
    ("self axis", expect "count(self::node())" "1");
    ("positional predicate", expect "string(//item[2])" "paint");
    ("last()", expect "string(//item[last()])" "glue");
    ("position()", expect "string-join(//item[position() > 1], ',')" "paint,glue");
    ("predicate filter", expect "count(//item[. = 'glue'])" "2");
    ("chained predicates", expect "string(//item[. = 'glue'][2])" "glue");
    ("sequences keep duplicates", expect "count((//item, //item))" "6");
    ("union", expect "count(//item | //customerID)" "4");
    ("union dedup", expect "count(//item | //item)" "3");
    ("absolute in predicate", expect "count(//item[/offerRequest])" "3");
    ("path over sequence", expect "count((//items, //items)/item)" "3");
    ("filter on parenthesized", expect "string((//item)[2])" "paint");
    ("numeric predicate via arithmetic", expect "string(//item[1 + 1])" "paint");
  ]

let test_path_atomic_error = expect_error "(1)/a"

(* ---- control flow ---- *)

let control =
  [
    ("if then else", expect "if (1 = 1) then 'y' else 'n'" "y");
    ("if without else", expect "if (1 = 2) then 'y'" "");
    ("if EBV of nodes", expect "if (//item) then 'has' else 'none'" "has");
    ("let", expect "let $x := 2 return $x * 3" "6");
    ("let shadowing", expect "let $x := 1 return (let $x := 2 return $x)" "2");
    ("let multiple", expect "let $x := 1, $y := 2 return $x + $y" "3");
    ("for", expect "for $i in (1, 2, 3) return $i * 2" "2;4;6");
    ("for two generators", expect "for $i in (1, 2), $j in (10, 20) return $i + $j"
       "11;21;12;22");
    ("for over nodes", expect "for $i in //item return string($i)" "glue;paint;glue");
    ("where", expect "for $i in (1, 2, 3, 4) where $i mod 2 = 0 return $i" "2;4");
    ("order by", expect "for $i in (3, 1, 2) order by $i return $i" "1;2;3");
    ("order by descending", expect "for $i in (3, 1, 2) order by $i descending return $i"
       "3;2;1");
    ("order by string key", expect
       "string-join(for $i in //item order by string($i) return string($i), ',')"
       "glue,glue,paint");
    ("order by two keys", expect
       "for $i in (2, 1, 2) order by $i, 10 - $i return $i" "1;2;2");
    ("some satisfies", expect "some $i in //item satisfies $i = 'paint'" "true");
    ("every satisfies", expect "every $i in //item satisfies string-length($i) > 3" "true");
    ("every fails", expect "every $i in //item satisfies $i = 'glue'" "false");
    ("some over empty is false", expect "some $i in () satisfies true()" "false");
    ("every over empty is true", expect "every $i in () satisfies false()" "true");
    ("nested flwor", expect
       "for $i in (1, 2) return (for $j in (1, 2) where $j >= $i return 10 * $i + $j)"
       "11;12;22");
  ]

let test_undefined_var = expect_error "$nope"

(* ---- constructors ---- *)

let constructors =
  [
    ("empty element", expect "<a/>" "<a/>");
    ("static content", expect "<a><b>x</b></a>" "<a><b>x</b></a>");
    ("enclosed atomic", expect "<a>{1 + 1}</a>" "<a>2</a>");
    ("enclosed node copy", expect "<a>{//requestID}</a>"
       "<a><requestID>r1</requestID></a>");
    ("adjacent atomics space-joined", expect "<a>{(1, 2, 3)}</a>" "<a>1 2 3</a>");
    ("mixed text and expr", expect "<a>n={count(//item)}.</a>" "<a>n=3.</a>");
    ("attribute enclosed", expect {|<a id="{//requestID}"/>|} {|<a id="r1"/>|});
    ("attribute mixed", expect {|<a id="r-{1+1}-x"/>|} {|<a id="r-2-x"/>|});
    ("curly escapes", expect "<a>{{literal}}</a>" "<a>{literal}</a>");
    ("boundary whitespace stripped", expect "<a> {1} </a>" "<a>1</a>");
    ("nested constructors", expect "<a><b>{2}</b><c/></a>" "<a><b>2</b><c/></a>");
    ("constructor entity", expect "<a>&lt;raw&gt;</a>" "<a>&lt;raw&gt;</a>");
    ("constructed node is navigable", expect "count((<a><b/><b/></a>)/b)" "2");
    ("constructor in flwor", expect
       "for $i in (1, 2) return <n v=\"{$i}\"/>" {|<n v="1"/>;<n v="2"/>|});
    ("cdata in constructor", expect "<a><![CDATA[<x>&]]></a>" "<a>&lt;x&gt;&amp;</a>");
  ]

(* ---- function library ---- *)

let functions =
  [
    ("count", expect "count(//item)" "3");
    ("exists", expect "exists(//nothing)" "false");
    ("empty", expect "empty(//nothing)" "true");
    ("not", expect "not(())" "true");
    ("boolean of string", expect "boolean('x')" "true");
    ("string of node", expect "string(//customerID)" "c7");
    ("string of context", expect "//requestID/string()" "r1");
    ("string empty seq", expect "string(())" "");
    ("data", expect "data(//item[2])" "paint");
    ("concat", expect "concat('a', 'b', 'c')" "abc");
    ("concat atomizes", expect "concat(//requestID, '-', 1)" "r1-1");
    ("string-join", expect "string-join(('a', 'b'), '+')" "a+b");
    ("string-length", expect "string-length('hello')" "5");
    ("string-length of context", expect "//customerID/string-length()" "2");
    ("contains", expect "contains('hello', 'ell')" "true");
    ("contains empty", expect "contains('x', '')" "true");
    ("starts-with", expect "starts-with('hello', 'he')" "true");
    ("ends-with", expect "ends-with('hello', 'lo')" "true");
    ("substring 2-arg", expect "substring('hello', 2)" "ello");
    ("substring 3-arg", expect "substring('hello', 2, 3)" "ell");
    ("substring rounding", expect "substring('hello', 1.5, 2.6)" "ell");
    ("substring-before", expect "substring-before('a=b', '=')" "a");
    ("substring-before absent", expect "substring-before('ab', 'x')" "");
    ("substring-after", expect "substring-after('a=b=c', '=')" "b=c");
    ("normalize-space", expect "normalize-space('  a   b ')" "a b");
    ("upper-case", expect "upper-case('aBc')" "ABC");
    ("lower-case", expect "lower-case('AbC')" "abc");
    ("tokenize", expect "tokenize('a,b,,c', ',')" "a;b;;c");
    ("number", expect "number('3.5') * 2" "7");
    ("sum", expect "sum((1, 2, 3))" "6");
    ("sum of empty", expect "sum(())" "");
    ("avg", expect "avg((1, 2, 3))" "2");
    ("max numeric", expect "max((1, 5, 3))" "5");
    ("min string", expect "min(('b', 'a'))" "a");
    ("abs", expect "abs(0 - 5)" "5");
    ("floor", expect "floor(2.7)" "2");
    ("ceiling", expect "ceiling(2.1)" "3");
    ("round", expect "round(2.5)" "3");
    ("distinct-values", expect "distinct-values(//item)" "glue;paint");
    ("distinct-values numeric", expect "distinct-values((1, '1', 2))" "1;2");
    ("reverse", expect "reverse((1, 2, 3))" "3;2;1");
    ("index-of", expect "index-of((10, 20, 10), 10)" "1;3");
    ("subsequence", expect "subsequence((1, 2, 3, 4), 2, 2)" "2;3");
    ("insert-before", expect "insert-before((1, 3), 2, (2))" "1;2;3");
    ("remove", expect "remove((1, 2, 3), 2)" "1;3");
    ("name", expect "name(//item[1])" "item");
    ("local-name of context", expect "//item[1]/local-name()" "item");
    ("root returns document", expect "count(root(//item[1])/offerRequest)" "1");
    ("fn: prefix accepted", expect "fn:count(//item)" "3");
    ("position in predicate", expect "//item[position() = 2]/string()" "paint");
  ]

let test_unknown_function = expect_error "no-such-fn(1)"
let test_fn_error = expect_error "error('boom')"
let test_arity_error = expect_error "count(1, 2)"

(* ---- updates ---- *)

let test_enqueue_update () =
  match eval_updates "do enqueue <m>{//requestID}</m> into q1 with k value 'v' with n value 7" with
  | [ Update.Enqueue { payload; queue; props } ] ->
    check string_ "queue" "q1" queue;
    check string_ "payload" "<m><requestID>r1</requestID></m>"
      (Demaq.Xml.Serializer.to_string payload);
    check int_ "props" 2 (List.length props);
    check string_ "prop k" "v" (Value.string_of_atomic (List.assoc "k" props));
    check string_ "prop n" "7" (Value.string_of_atomic (List.assoc "n" props))
  | _ -> Alcotest.fail "expected one enqueue"

let test_reset_update () =
  (match eval_updates "do reset" with
   | [ Update.Reset { slicing = None; key = None } ] -> ()
   | _ -> Alcotest.fail "expected bare reset");
  match eval_updates "do reset slicing orders key 'k1'" with
  | [ Update.Reset { slicing = Some "orders"; key = Some k } ] ->
    check string_ "key" "k1" (Value.string_of_atomic k)
  | _ -> Alcotest.fail "expected parameterized reset"

let test_conditional_updates () =
  check int_ "taken branch emits" 1
    (List.length (eval_updates "if (//item) then do enqueue <x/> into q else ()"));
  check int_ "untaken branch silent" 0
    (List.length (eval_updates "if (//missing) then do enqueue <x/> into q else ()"))

let test_flwor_updates () =
  let ups = eval_updates "for $i in //item return do enqueue <got>{string($i)}</got> into q" in
  check int_ "three updates" 3 (List.length ups)

let test_update_order () =
  match eval_updates "(do enqueue <a/> into q1, do enqueue <b/> into q2)" with
  | [ Update.Enqueue { queue = "q1"; _ }; Update.Enqueue { queue = "q2"; _ } ] -> ()
  | _ -> Alcotest.fail "updates out of order"

let test_enqueue_payload_errors () =
  expect_error "do enqueue 'atomic' into q" ();
  expect_error "do enqueue () into q" ();
  expect_error "do enqueue (//item) into q with p value (1, 2)" ()

let test_enqueue_document_node () =
  (* enqueueing the context document node extracts its element *)
  match eval_updates "do enqueue (/) into q" with
  | [ Update.Enqueue { payload = Tree.Element e; _ } ] ->
    check string_ "root elem" "offerRequest" (Demaq.Xml.Name.local e.Tree.name)
  | _ -> Alcotest.fail "expected element payload"

(* ---- syntax errors ---- *)

let syntax_errors =
  List.map
    (fun src -> ("syntax error: " ^ src, `Quick, expect_syntax_error src))
    [
      "1 +";
      "if (1) then";
      "let $x = 1 return $x";
      "for $x in return 1";
      "<a><b></a>";
      "do enqueue <x/>";
      "do enqueue <x/> into";
      "(1, 2";
      "//[1]";
      "some $x satisfies 1";
      "\"unterminated";
      "1 ! 2";
    ]

(* ---- comments and whitespace ---- *)

let comments =
  [
    ("comment ignored", expect "1 (: comment :) + 2" "3");
    ("nested comment", expect "1 (: a (: b :) c :) + 1" "2");
    ("comment in path", expect "count(//item (: all items :))" "3");
  ]

(* ---- pretty-printer round trips ---- *)

let pp_roundtrip_cases =
  [
    "//requestID";
    "/offerRequest/customerID";
    "count(//item[. = 'glue'])";
    "if (//item) then <a>{1}</a> else ()";
    "for $i in (1, 2) where $i > 1 order by $i descending return $i * 2";
    "let $x := //item return $x[1]";
    "some $i in //item satisfies contains($i, 'aint')";
    "do enqueue <m>{//requestID}</m> into q with k value 'v'";
    "do reset slicing s key 'k'";
    {|<a id="{1}">t{2}<b/></a>|};
    "(1, 2)[. mod 2 = 0]";
    "qs:slice()[/offer]";
    "-(1 + 2)";
    "1 to 5";
    "//item | //customerID";
    "string(//item[last()])";
    "@n";
    "../item";
    "5 idiv 2 eq 2";
  ]

let test_pp_roundtrip () =
  List.iter
    (fun src ->
      let once = Parser.parse src in
      let printed = Pp.to_string once in
      let again =
        try Parser.parse printed
        with Parser.Syntax_error { msg; _ } ->
          Alcotest.failf "re-parse of %S (printed from %S) failed: %s" printed src msg
      in
      match fst (Eval.run ~context:default_ctx src) with
      | v1 ->
        let v2 = fst (Eval.run ~context:default_ctx (Pp.to_string again)) in
        check string_ ("pp roundtrip: " ^ src) (show v1) (show v2)
      | exception Context.Eval_error _ -> ()
        (* qs: functions need an engine host; the re-parse check above
           already covered the syntax roundtrip *))
    pp_roundtrip_cases

(* ---- qcheck: random arithmetic expressions evaluate consistently ---- *)

let gen_arith =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      if depth = 0 then map string_of_int (int_range 0 99)
      else
        frequency
          [
            (1, map string_of_int (int_range 0 99));
            ( 3,
              map3
                (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
                (oneofl [ "+"; "-"; "*" ])
                (self (depth - 1))
                (self (depth - 1)) );
          ])
    3

(* A tiny reference evaluator for the generated grammar. *)
let rec ref_eval s =
  let s = String.trim s in
  if s.[0] <> '(' then int_of_string s
  else begin
    (* strip outer parens, split at top level on the operator *)
    let inner = String.sub s 1 (String.length s - 2) in
    let depth = ref 0 in
    let split = ref (-1) in
    String.iteri
      (fun i c ->
        if c = '(' then incr depth
        else if c = ')' then decr depth
        else if !depth = 0 && !split < 0 && (c = '+' || c = '*') && i > 0 then split := i
        else if
          !depth = 0 && !split < 0 && c = '-' && i > 0 && inner.[i - 1] = ' '
        then split := i)
      inner;
    let i = !split in
    let l = ref_eval (String.sub inner 0 i) in
    let r = ref_eval (String.sub inner (i + 1) (String.length inner - i - 1)) in
    match inner.[i] with
    | '+' -> l + r
    | '-' -> l - r
    | '*' -> l * r
    | _ -> assert false
  end

let prop_arith =
  QCheck.Test.make ~name:"random arithmetic agrees with reference" ~count:300
    (QCheck.make gen_arith ~print:Fun.id)
    (fun src -> show (eval src) = string_of_int (ref_eval src))

let prop_flwor_map =
  QCheck.Test.make ~name:"for over 1 to n behaves like List.init" ~count:100
    QCheck.(int_range 0 30)
    (fun n ->
      let src = Printf.sprintf "for $i in 1 to %d return $i * $i" n in
      show (eval src)
      = String.concat ";" (List.init n (fun i -> string_of_int ((i + 1) * (i + 1)))))

(* ---- path evaluation: differential against a tree-walking oracle ----

   Seeded trees with repeated and nested names, attributes and text. The
   oracle selects nodes by walking [Tree.tree] values and names each
   result by its forward path from the document node; the evaluator's
   result must be the same nodes (identity, not equality) in the same
   order. The fused [//] walk and the unfused step-by-step evaluation
   both answer to it. *)

type ostep = C of int | A of int

type ofocus = Odoc of Tree.tree list | Otree of Tree.tree | Oattr of Tree.attribute

let gen_tree rng =
  let names = [| "n"; "m"; "a"; "x" |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let rec node depth =
    if depth = 0 || Random.State.int rng 4 = 0 then Tree.text (pick [| "v"; "w" |])
    else
      let attrs =
        List.filter_map
          (fun k ->
            if Random.State.bool rng then Some (k, pick [| "1"; "2" |]) else None)
          [ "a"; "id" ]
      in
      let kids = List.init (Random.State.int rng 4) (fun _ -> node (depth - 1)) in
      Tree.elem ~attrs (pick names) kids
  in
  Tree.elem "r" (List.init (1 + Random.State.int rng 3) (fun _ -> node 4))

let o_children (p, f) =
  let kids =
    match f with
    | Odoc roots -> roots
    | Otree (Tree.Element e) -> e.Tree.children
    | Otree _ | Oattr _ -> []
  in
  List.mapi (fun i t -> (p @ [ C i ], Otree t)) kids

let o_attributes (p, f) =
  match f with
  | Otree (Tree.Element e) -> List.mapi (fun i a -> (p @ [ A i ], Oattr a)) e.Tree.attrs
  | Odoc _ | Otree _ | Oattr _ -> []

let rec o_descendants n = List.concat_map (fun c -> c :: o_descendants c) (o_children n)

let o_named name (_, f) =
  match f with
  | Otree (Tree.Element e) -> Demaq.Xml.Name.local e.Tree.name = name
  | Oattr a -> Demaq.Xml.Name.local a.Tree.attr_name = name
  | Odoc _ | Otree _ -> false

let o_string (_, f) =
  match f with
  | Otree t -> Tree.tree_string_value t
  | Oattr a -> a.Tree.attr_value
  | Odoc roots -> String.concat "" (List.map Tree.tree_string_value roots)

let o_sort_uniq ns =
  let rank = function A i -> (0, i) | C i -> (1, i) in
  let cmp (p, _) (q, _) = compare (List.map rank p) (List.map rank q) in
  List.sort_uniq cmp ns

let o_sel f ns = o_sort_uniq (List.concat_map f ns)
let o_is_text (_, f) = match f with Otree (Tree.Text _) -> true | _ -> false
let o_child name n = List.filter (o_named name) (o_children n)
let o_desc name n = List.filter (o_named name) (o_descendants n)
let o_nth k l = match List.nth_opt l (k - 1) with Some x -> [ x ] | None -> []
let o_last l = match List.rev l with x :: _ -> [ x ] | [] -> []

(* [//n] is [/descendant-or-self::node()/child::n]: positions count among
   the children of each parent. *)
let o_dos_child name select doc =
  o_sel (fun p -> select (o_child name p)) (doc :: o_descendants doc)

let path_cases =
  [
    ("//n", fun doc _ -> o_desc "n" doc);
    ("//n/m", fun doc _ -> o_sel (o_child "m") (o_desc "n" doc));
    ("a//n", fun _ ctx -> o_sel (o_desc "n") (o_child "a" ctx));
    ("//n//m", fun doc _ -> o_sel (o_desc "m") (o_desc "n" doc));
    ( {|//n[m = "v"]|},
      fun doc _ ->
        List.filter
          (fun n -> List.exists (fun m -> o_string m = "v") (o_child "m" n))
          (o_desc "n" doc) );
    ( "//n[@a and m]",
      fun doc _ ->
        List.filter
          (fun n ->
            List.exists (o_named "a") (o_attributes n) && o_child "m" n <> [])
          (o_desc "n" doc) );
    ( "//@a",
      fun doc _ ->
        o_sel (fun n -> List.filter (o_named "a") (o_attributes n)) (doc :: o_descendants doc) );
    ("//n[1]", fun doc _ -> o_dos_child "n" (o_nth 1) doc);
    ("//n[last()]", fun doc _ -> o_dos_child "n" o_last doc);
    ("//n[position() = 2]", fun doc _ -> o_dos_child "n" (o_nth 2) doc);
    ("//n[$k]", fun doc _ -> o_dos_child "n" (o_nth 2) doc);
    ("(//n)[2]", fun doc _ -> o_nth 2 (o_desc "n" doc));
    (* chains: E//t1/.../tk in one masked walk *)
    ("//n/m/a", fun doc _ -> o_sel (o_child "a") (o_sel (o_child "m") (o_desc "n" doc)));
    ("//n/n", fun doc _ -> o_sel (o_child "n") (o_desc "n" doc));
    ("//n/n/n", fun doc _ -> o_sel (o_child "n") (o_sel (o_child "n") (o_desc "n" doc)));
    ("//n/q/m", fun _ _ -> []);
    ("//x/text()", fun doc _ -> o_sel (fun p -> List.filter o_is_text (o_children p)) (o_desc "x" doc));
    ("a//n/m", fun _ ctx -> o_sel (o_child "m") (o_sel (o_desc "n") (o_child "a" ctx)));
    ("$x//n/m", fun doc _ -> o_sel (o_child "m") (o_sel (o_desc "n") (o_desc "a" doc)));
    ("qs:message()//n/m", fun doc _ -> o_sel (o_child "m") (o_desc "n" doc));
    (* shapes that keep the literal evaluation *)
    ("//n[1]/m", fun doc _ -> o_sel (o_child "m") (o_dos_child "n" (o_nth 1) doc));
    ("//n/@a", fun doc _ -> o_sel (fun n -> List.filter (o_named "a") (o_attributes n)) (o_desc "n" doc));
    ("//n/m[2]", fun doc _ -> o_sel (fun n -> o_nth 2 (o_child "m" n)) (o_desc "n" doc));
  ]

(* Shapes that select nothing on every tree, by construction. *)
let empty_cases = [ "//n/q/m" ]

let node_at doc_node path =
  List.fold_left
    (fun n step ->
      match step with
      | C i -> List.nth (Tree.children n) i
      | A i -> List.nth (Tree.attributes n) i)
    doc_node path

(* The consumers that stop at a path's first hit must answer what they
   answer over the path's whole sequence. *)
let consumers_agree env seed src full =
  let ebv = full <> [] in
  List.iter
    (fun (wrap, want) ->
      let q = Printf.sprintf wrap src in
      let got = show (Eval.eval env (Parser.parse q)) in
      if got <> want then Alcotest.failf "seed %d, %s: got %S, want %S" seed q got want)
    [
      ("string(%s)", Value.string_value full);
      ("if (%s) then 1 else 0", if ebv then "1" else "0");
      ("boolean(%s)", string_of_bool ebv);
      ("exists(%s)", string_of_bool ebv);
      ("empty(%s)", string_of_bool (not ebv));
      ("not(%s)", string_of_bool (not ebv));
      ("fn:not(%s) or 1 = 2", string_of_bool (not ebv));
      ("count(%s)", string_of_int (List.length full));
    ]

let test_path_oracle () =
  let hits = Hashtbl.create 16 in
  for seed = 1 to 200 do
    let rng = Random.State.make [| seed |] in
    let tree = gen_tree rng in
    let ctx = Eval.node_of_tree tree in
    let doc_node = Tree.root_node (Tree.node_document ctx) in
    let o_doc = ([], Odoc [ tree ]) in
    let o_ctx = ([ C 0 ], Otree tree) in
    let host =
      Lazy.from_val
        { Context.null_host with h_message = (fun () -> [ Value.Node doc_node ]) }
    in
    let env = Context.make ~host ~item:(Value.Node ctx) () in
    let env = Context.bind env "k" [ Value.Atom (Value.Integer 2) ] in
    let env = Context.bind env "x" (Eval.eval env (Parser.parse "//a")) in
    List.iter
      (fun (src, oracle) ->
        let got = Eval.eval env (Parser.parse src) in
        consumers_agree env seed src got;
        let want = List.map (fun (p, _) -> node_at doc_node p) (oracle o_doc o_ctx) in
        if want <> [] then Hashtbl.replace hits src ();
        let same =
          List.length got = List.length want
          && List.for_all2
               (fun g w ->
                 match g with
                 | Value.Node g -> Tree.doc_order g w = 0
                 | Value.Atom _ -> false)
               got want
        in
        if not same then
          Alcotest.failf "seed %d, %s on %s: got %d items, oracle %d" seed src
            (Demaq.Xml.Serializer.to_string tree)
            (List.length got) (List.length want))
      path_cases
  done;
  (* every shape must select something on some tree, or it proves nothing *)
  List.iter
    (fun (src, _) ->
      if not (Hashtbl.mem hits src || List.mem src empty_cases) then
        Alcotest.failf "%s selected nothing on any tree" src)
    path_cases

let pin_ctx = Xml_parser.parse "<r><a><x/><x/></a><b><x/></b></r>"

let test_positional_pins () =
  check int_ "//x[1] takes the first x of each parent" 2
    (List.length (eval ~ctx:pin_ctx "//x[1]"));
  let ids = eval ~ctx:(Xml_parser.parse {|<r id="1"><s id="2"/></r>|}) "//@id" in
  check int_ "//@id" 2 (List.length ids);
  List.iter
    (function
      | Value.Node n -> (
        match Tree.focus n with
        | Tree.Fattribute _ -> ()
        | _ -> Alcotest.fail "//@id returned a non-attribute node")
      | Value.Atom _ -> Alcotest.fail "//@id returned an atom")
    ids

(* Rule evaluation allocates per message on the hot path; the extract rule
   of the ETL example is the shape the shipped programs use ([//a/b] in a
   guard, [string(//a/b)] in a body). [Gc.minor_words] counts repeat exactly
   for the same code, so this bound is host-independent. *)
let test_extract_rule_allocation () =
  let path =
    List.find Sys.file_exists
      [ "../examples/etl_pipeline.demaq"; "examples/etl_pipeline.demaq" ]
  in
  let program =
    Demaq.Lang.Qdl.parse_program (In_channel.with_open_bin path In_channel.input_all)
  in
  let rule =
    List.find
      (fun (r : Demaq.Lang.Qdl.rule_def) -> r.rname = "extract")
      (Demaq.Lang.Qdl.rules program)
  in
  let event =
    Xml_parser.parse
      "<event><eventID>e1</eventID><source>s1</source><metric>m1</metric><value>42</value></event>"
  in
  let env = Context.make ~item:(Value.Node (Eval.doc_node_of_tree event)) () in
  let run () =
    match Eval.eval_with_updates env rule.body with
    | _, [ _ ] -> ()
    | _ -> Alcotest.fail "extract rule did not enqueue"
  in
  run ();
  let rounds = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do run () done;
  let per_eval = (Gc.minor_words () -. before) /. float_of_int rounds in
  if per_eval > 3000. then
    Alcotest.failf "extract rule allocates %.0f minor words per evaluation (bound 3000)"
      per_eval

(* Nested same-name ancestors: each hit comes out once, in document order. *)
let test_chain_pins () =
  let ctx = Xml_parser.parse "<a><a><b>1</b></a><b>2</b></a>" in
  check string_ "//a/b" "<b>1</b>;<b>2</b>" (show (eval ~ctx "//a/b"));
  check string_ "//a/a/b" "<b>1</b>" (show (eval ~ctx "//a/a/b"));
  check string_ "string(//a/b)" "1" (show (eval ~ctx "string(//a/b)"));
  check string_ "//a/b/text()" "1;2" (show (eval ~ctx "//a/b/text()"));
  check string_ "missing middle step" "" (show (eval ~ctx "//a/c/b"));
  check string_ "(//a, //a)//a/b dedups" "<b>1</b>" (show (eval ~ctx "(//a, //a)//a/b"));
  match eval ~ctx {|"x"//a/b|} with
  | _ -> Alcotest.fail "a chain over an atomic base must fail"
  | exception Context.Eval_error _ -> ()

(* A numeric predicate keeps the item whose position equals it as a
   number: 1.5 equals no position. *)
let test_numeric_predicates () =
  let ctx = Xml_parser.parse "<r><b>1</b><b>2</b></r>" in
  List.iter
    (fun (src, want) -> check string_ src want (show (eval ~ctx src)))
    [
      ("(1, 2, 3)[1.5]", "");
      ("(10, 20, 30)[2.7]", "");
      ("(10, 20, 30)[2.0]", "20");
      ("(10, 20, 30)[0 div 0]", "");
      ("//b[1.5]", "");
      ("//b[2]", "<b>2</b>");
    ]

(* F&O: fn:round rounds halves toward positive infinity, and fn:substring
   and fn:subsequence define their bounds through it. A negative zero
   result is an integer-valued number, shown as 0. *)
let test_rounding () =
  List.iter
    (fun (src, want) -> check string_ src want (show (eval src)))
    [
      ("round(2.5)", "3");
      ("round(2.4999)", "2");
      ("round(-2.5)", "-2");
      ("round(-2.6)", "-3");
      ("round(-0.5)", "0");
      ("round(0.5)", "1");
      ("round(7)", "7");
      ({|substring("motor car", 6)|}, " car");
      ({|substring("metadata", 4, 3)|}, "ada");
      ({|substring("12345", 1.5, 2.6)|}, "234");
      ({|substring("12345", 0, 3)|}, "12");
      ({|substring("12345", 5, -3)|}, "");
      ({|substring("12345", -3, 5)|}, "1");
      ({|substring("12345", 0 div 0, 3)|}, "");
      ({|substring("12345", 1, 0 div 0)|}, "");
      ({|substring("12345", -42, 1 div 0)|}, "12345");
      ({|substring("12345", -1 div 0, 1 div 0)|}, "");
      ({|substring("12345", -0.5, 3)|}, "12");
      ({|subsequence(("a", "b", "c", "d", "e"), 4)|}, "d;e");
      ({|subsequence(("a", "b", "c", "d", "e"), 3, 2)|}, "c;d");
      ("subsequence((1, 2, 3, 4), -0.5, 3)", "1;2");
      ("subsequence((1, 2, 3, 4), 0 div 0)", "");
      ("subsequence((1, 2, 3, 4), -1 div 0, 1 div 0)", "");
    ]

(* Each ETL rule's evaluation allocates at most half of what it did when
   every path materialized its node lists and every constructor wrapped
   its tree in a document (983, 1,010 and 678 words). *)
let etl_rule name =
  let path =
    List.find Sys.file_exists
      [ "../examples/etl_pipeline.demaq"; "examples/etl_pipeline.demaq" ]
  in
  let program =
    Demaq.Lang.Qdl.parse_program (In_channel.with_open_bin path In_channel.input_all)
  in
  (List.find
     (fun (r : Demaq.Lang.Qdl.rule_def) -> r.rname = name)
     (Demaq.Lang.Qdl.rules program))
    .body

let etl_stage name input bound =
  let body = etl_rule name in
  let env = Context.make ~item:(Value.Node (Eval.doc_node_of_tree input)) () in
  let run () =
    match Eval.eval_with_updates env body with
    | _, [ Update.Enqueue { payload; _ } ] -> payload
    | _ -> Alcotest.failf "%s rule did not enqueue" name
  in
  let out = run () in
  let rounds = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do ignore (run ()) done;
  let per_eval = (Gc.minor_words () -. before) /. float_of_int rounds in
  if per_eval > bound then
    Alcotest.failf "%s rule allocates %.0f minor words per evaluation (bound %.0f)" name
      per_eval bound;
  out

let etl_event =
  Xml_parser.parse
    "<event><eventID>e1</eventID><source>s1</source><metric>m1</metric><value>42</value></event>"

let test_etl_rule_allocation name () =
  let clean = etl_stage "extract" etl_event (if name = "extract" then 491. else infinity) in
  let fact = etl_stage "transform" clean (if name = "transform" then 505. else infinity) in
  let row = etl_stage "load" fact (if name = "load" then 339. else infinity) in
  check string_ "row" "<row><eventID>e1</eventID><metric>m1</metric></row>"
    (Demaq.Xml.Serializer.to_string row)

let quick name f = (name, `Quick, f)
let table cases = List.map (fun (name, f) -> (name, `Quick, f)) cases

let suite =
  table atoms @ table paths @ table control @ table constructors @ table functions
  @ [
      quick "value comparison multi-item errors" test_value_comparison_multi;
      quick "path over atomic errors" test_path_atomic_error;
      quick "undefined variable errors" test_undefined_var;
      quick "unknown function errors" test_unknown_function;
      quick "fn:error raises" test_fn_error;
      quick "wrong arity errors" test_arity_error;
      quick "enqueue update" test_enqueue_update;
      quick "reset update" test_reset_update;
      quick "conditional updates" test_conditional_updates;
      quick "flwor updates" test_flwor_updates;
      quick "update ordering" test_update_order;
      quick "enqueue payload errors" test_enqueue_payload_errors;
      quick "enqueue document node" test_enqueue_document_node;
      quick "pp roundtrip preserves semantics" test_pp_roundtrip;
    ]
  @ syntax_errors @ table comments
  @ [
      QCheck_alcotest.to_alcotest prop_arith;
      QCheck_alcotest.to_alcotest prop_flwor_map;
      quick "paths agree with a tree-walking oracle" test_path_oracle;
      quick "positional and attribute paths stay unfused" test_positional_pins;
      quick "extract rule allocation bound" test_extract_rule_allocation;
      quick "chains over nested same-name ancestors" test_chain_pins;
      quick "numeric predicates compare positions as numbers" test_numeric_predicates;
      quick "round, substring and subsequence round halves up" test_rounding;
      quick "etl extract rule allocates at most 491 words" (test_etl_rule_allocation "extract");
      quick "etl transform rule allocates at most 505 words"
        (test_etl_rule_allocation "transform");
      quick "etl load rule allocates at most 339 words" (test_etl_rule_allocation "load");
    ]
