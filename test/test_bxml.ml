(* Tests for lib/xml/bxml: the compact binary payload representation.

   The properties pin the contracts the engine's hot path relies on:
   decode is an exact inverse of encode (no normalization slack — the
   stored form must be lossless), the header synopsis agrees with a full
   tree walk, and prefilter admission decided from the synopsis agrees
   with admission decided from the materialized tree. *)

module Tree = Demaq.Xml.Tree
module Parser = Demaq.Xml.Parser
module Serializer = Demaq.Xml.Serializer
module Bxml = Demaq.Xml.Bxml
module Prefilter = Demaq.Lang.Prefilter
module Store = Demaq.Store.Message_store
module S = Demaq.Server

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let order_doc =
  "<order><orderID>ord-1</orderID><customer tier=\"gold\">ACME</customer>\
   <items><item sku=\"S-1\" qty=\"2\"><price>19.95</price></item>\
   <item sku=\"S-2\" qty=\"1\"><price>5.00</price></item></items></order>"

(* ---- format discrimination ---- *)

let test_is_binary () =
  let bin = Bxml.encode (Parser.parse order_doc) in
  check bool_ "encoded is binary" true (Bxml.is_binary bin);
  check bool_ "text is not" false (Bxml.is_binary order_doc);
  check bool_ "empty is not" false (Bxml.is_binary "");
  check bool_ "leading whitespace is not" false (Bxml.is_binary "  <a/>");
  (* the magic's NUL first byte can never start well-formed text XML *)
  check int_ "magic starts with NUL" 0 (Char.code Bxml.magic.[0])

let test_decode_any () =
  let t = Parser.parse order_doc in
  check bool_ "decode_any on text parses" true
    (Tree.equal_tree t (Bxml.decode_any order_doc));
  check bool_ "decode_any on binary decodes" true
    (Tree.equal_tree t (Bxml.decode_any (Bxml.encode t)))

(* ---- exact round-trip on handwritten corners ---- *)

let test_roundtrip_corners () =
  List.iter
    (fun src ->
      let t = Parser.parse src in
      check bool_ ("roundtrip: " ^ src) true
        (Tree.equal_tree t (Bxml.decode (Bxml.encode t))))
    [
      "<a/>";
      "<a x=\"1\" y=\"two\"/>";
      "<a>&lt;&amp;&gt;\"'</a>";
      "<a><!--note--><?target data?><b/></a>";
      "<ns:a xmlns:ns=\"urn:x\"><ns:b/><c/></ns:a>";
      "<a><b>deep<c>er</c></b>tail</a>";
      order_doc;
    ]

let test_corrupt_rejected () =
  let bin = Bxml.encode (Parser.parse order_doc) in
  let truncated = String.sub bin 0 (String.length bin - 3) in
  check bool_ "truncated fails check" true (not (Bxml.validate truncated));
  (match Bxml.decode truncated with
  | exception Bxml.Decode_error _ -> ()
  | _ -> Alcotest.fail "truncated payload decoded");
  (* garbage behind the magic *)
  let garbage = Bxml.magic ^ String.make 16 '\xff' in
  check bool_ "garbage fails check" true (not (Bxml.validate garbage));
  (match Bxml.decode garbage with
  | exception Bxml.Decode_error _ -> ()
  | _ -> Alcotest.fail "garbage payload decoded");
  check bool_ "intact passes check" true (Bxml.validate bin)

(* ---- streaming readers ---- *)

let test_synopsis () =
  let bin = Bxml.encode (Parser.parse order_doc) in
  let names = List.sort compare (Bxml.synopsis bin) in
  check (Alcotest.list string_) "element names, attrs excluded"
    [ "customer"; "item"; "items"; "order"; "orderID"; "price" ]
    names

let test_root_children () =
  let bin = Bxml.encode (Parser.parse order_doc) in
  check (Alcotest.list string_) "top-level children"
    [ "orderID"; "customer"; "items" ]
    (Bxml.root_children bin)

let test_iter_names () =
  let bin = Bxml.encode (Parser.parse order_doc) in
  let seen = ref 0 in
  Bxml.iter_names bin (fun _ -> incr seen);
  (* order, orderID, customer, items, 2x item, 2x price *)
  check int_ "every element start visited" 8 !seen

(* ---- parse_many (batch ingress bodies) ---- *)

let test_parse_many () =
  let docs = Parser.parse_many "<a/><b>x</b>  <!-- sep --> <c n='1'/>" in
  check int_ "three documents" 3 (List.length docs);
  check bool_ "in order" true
    (List.map Serializer.to_string docs = [ "<a/>"; "<b>x</b>"; "<c n=\"1\"/>" ]);
  check int_ "single document" 1 (List.length (Parser.parse_many "<a/>"));
  match Parser.parse_many "<a/> trailing junk" with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "junk between documents accepted"

(* ---- qcheck properties ---- *)

(* Unlike serialize/parse (which merges and strips whitespace text), the
   binary codec must be EXACTLY lossless: no normalization before the
   comparison. *)
let prop_bxml_roundtrip =
  QCheck.Test.make ~name:"decode . encode = id (exact)" ~count:300
    Test_xml.arb_tree (fun t ->
      let t = Tree.elem "root" [ t ] in
      Tree.equal_tree t (Bxml.decode (Bxml.encode t)))

let prop_synopsis_agrees =
  QCheck.Test.make ~name:"header synopsis = tree-walk synopsis" ~count:300
    Test_xml.arb_tree (fun t ->
      let t = Tree.elem "root" [ t ] in
      let streamed =
        List.fold_left
          (fun acc n -> Prefilter.Names.add n acc)
          Prefilter.Names.empty
          (Bxml.synopsis (Bxml.encode t))
      in
      Prefilter.Names.equal streamed (Prefilter.element_names t))

let prop_admission_agrees =
  (* the engine-level contract: admission decided from the stored payload
     (streaming path) is the same decision as from the materialized tree *)
  QCheck.Test.make ~name:"prefilter admission: synopsis = tree" ~count:300
    QCheck.(pair Test_xml.arb_tree (small_list (oneofl [ "a"; "b"; "order"; "zzz" ])))
    (fun (t, requirements) ->
      let t = Tree.elem "root" [ t ] in
      let from_tree =
        Prefilter.may_match ~requirements ~names:(Prefilter.element_names t)
      in
      let ix = Prefilter.index [ requirements ] in
      match Prefilter.present_of_payload ix (Bxml.encode t) with
      | None -> false (* binary payloads must always yield a synopsis *)
      | Some present -> Prefilter.admits ix present 0 = from_tree)

let prop_text_payloads_fall_back =
  QCheck.Test.make ~name:"text payloads take the fallback" ~count:100
    Test_xml.arb_tree (fun t ->
      let t = Tree.elem "root" [ t ] in
      Prefilter.present_of_payload (Prefilter.index [ [ "a" ] ]) (Serializer.to_string t)
      = None)

(* ---- engine integration: deferred materialization counters ---- *)

let test_admission_counters () =
  (* 1 matching + 3 non-matching recovered messages under a rule needing
     //ping: the non-matching ones must drain as synopsis-only admission
     scans, never materializing a tree. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-bxml-adm-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let program = {|
    create queue in kind basic mode persistent
    create queue out kind basic mode persistent
    create rule pong for in if (//ping) then do enqueue <pong/> into out
  |} in
  let cfg = Store.durable_config dir in
  let st = Store.open_store cfg in
  let srv = S.deploy ~store:st program in
  List.iter
    (fun doc ->
      match S.inject srv ~queue:"in" (Demaq.xml doc) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "inject failed")
    [ "<noise a='1'/>"; "<ping/>"; "<noise b='2'/>"; "<noise c='3'/>" ];
  Store.close st;
  (* restart: payloads now fault in from the store in binary form *)
  let st = Store.open_store cfg in
  let srv = S.deploy ~store:st program in
  ignore (S.run srv);
  let scans, decodes, decoded_bytes = S.admission_stats srv in
  check int_ "one pong" 1 (List.length (S.queue_contents srv "out"));
  check int_ "3 noise messages admitted without a tree" 3 scans;
  check int_ "only the ping decoded" 1 decodes;
  check bool_ "decoded bytes counted" true (decoded_bytes > 0);
  Store.close st

(* ---- validation: the in-place checker against the list-stack oracle ---- *)

(* The validator as it was before it became allocation-free: names copied
   into a table, nesting tracked on a list. It is the reference the
   current [Bxml.check] must agree with, verdict and message, on every
   input. *)
module Oracle = struct
  exception Fail of string

  let fail msg = raise (Fail msg)
  let failf fmt = Printf.ksprintf fail fmt

  type rd = { s : string; mutable pos : int }

  let u8 r limit =
    if r.pos >= limit then fail "truncated payload";
    let b = Char.code r.s.[r.pos] in
    r.pos <- r.pos + 1;
    b

  let varint r limit =
    let rec go shift acc =
      if shift > 56 then fail "varint too long";
      let b = u8 r limit in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b < 0x80 then acc else go (shift + 7) acc
    in
    go 0 0

  let read_str r limit =
    let n = varint r limit in
    if n < 0 || n > limit - r.pos then fail "string length out of bounds";
    let s = String.sub r.s r.pos n in
    r.pos <- r.pos + n;
    s

  let skip_str r limit = ignore (read_str r limit)

  let u32 r limit =
    if limit - r.pos < 4 then fail "truncated u32";
    let v = Int32.to_int (String.get_int32_le r.s r.pos) land 0xFFFFFFFF in
    r.pos <- r.pos + 4;
    v

  let check_magic s =
    if not (Bxml.is_binary s) then fail "not a binary XML payload";
    if String.length s < 4 then fail "truncated magic";
    if s.[3] <> '\x01' then failf "unsupported binary XML version %d" (Char.code s.[3])

  let local_table r limit =
    let count = varint r limit in
    if count > limit - r.pos then fail "name count out of bounds";
    let locals =
      List.init count (fun _ ->
          let flags = u8 r limit in
          let local = read_str r limit in
          if flags land 0x02 <> 0 then ignore (read_str r limit);
          local)
    in
    (Array.of_list locals, count)

  let body_limit r =
    let total = String.length r.s in
    let blen = varint r total in
    if blen > total - r.pos then fail "truncated token stream";
    if r.pos + blen <> total then fail "trailing bytes after token stream";
    total

  let skip_element_after_tag r n limit =
    let idx = varint r limit in
    if idx >= n then failf "name index %d out of range" idx;
    let nattrs = varint r limit in
    if nattrs > limit - r.pos then fail "attribute count out of bounds";
    for _ = 1 to nattrs do
      let aidx = varint r limit in
      if aidx >= n then failf "name index %d out of range" aidx;
      skip_str r limit
    done;
    let clen = u32 r limit in
    if clen > limit - r.pos then fail "subtree length out of bounds";
    (idx, clen)

  let check s =
    match
      check_magic s;
      let r = { s; pos = 4 } in
      let _, n = local_table r (String.length s) in
      let limit = body_limit r in
      let stack = ref [] in
      let roots = ref 0 in
      while r.pos < limit do
        if !stack = [] then incr roots;
        (match u8 r limit with
        | 0x01 ->
          let _, clen = skip_element_after_tag r n limit in
          let cend = r.pos + clen in
          let enclosing = match !stack with e :: _ -> e | [] -> limit in
          if cend > enclosing then fail "subtree length out of bounds";
          if clen > 0 then stack := cend :: !stack
        | 0x02 | 0x03 -> skip_str r limit
        | 0x04 ->
          skip_str r limit;
          skip_str r limit
        | t -> failf "unknown token 0x%02x" t);
        let rec pop () =
          match !stack with
          | e :: rest when r.pos = e ->
            stack := rest;
            pop ()
          | e :: _ when r.pos > e -> fail "token overruns enclosing subtree"
          | _ -> ()
        in
        pop ()
      done;
      if !stack <> [] then fail "truncated subtree";
      if !roots <> 1 then failf "expected one root token, found %d" !roots
    with
    | () -> Ok ()
    | exception Fail msg -> Error msg
end

(* Encoded example payloads: the handwritten documents above and
   schema-generated instances of the example programs' ingress queues. *)
let example_payloads () =
  let schema_docs =
    List.concat_map
      (fun (file, queue, root) ->
        let program = Demaq.Lang.Qdl.parse_program (Test_equivalence.read_example file) in
        match
          List.find_opt
            (fun (q : Demaq.Mq.Defs.queue_def) -> q.Demaq.Mq.Defs.qname = queue)
            (Demaq.Lang.Qdl.queues program)
        with
        | Some { Demaq.Mq.Defs.schema = Some schema; _ } ->
          List.filter_map
            (fun vary -> Demaq.Xml.Schema.example ~vary schema root)
            [ 1; 2; 3 ]
        | _ -> Alcotest.failf "%s: no schema for %s" file queue)
      [
        ("order_fanout.demaq", "orders", "order");
        ("etl_pipeline.demaq", "raw_events", "event");
        ("escalation.demaq", "tickets", "ticket");
      ]
  in
  List.map Bxml.encode
    (List.map Parser.parse
       [
         order_doc;
         "<a/>";
         "<a x=\"1\" y=\"two\"/>";
         "<a><!--note--><?target data?><b/></a>";
         "<ns:a xmlns:ns=\"urn:x\"><ns:b/><c/></ns:a>";
         "<a><b>deep<c>er</c></b>tail</a>";
       ]
    @ schema_docs)

(* Seeded mutants of [bin]: every truncation, and byte flips at random
   positions to random values and to the values varints and tags care
   about most. *)
let mutants rng bin =
  let len = String.length bin in
  let truncations = List.init len (fun n -> String.sub bin 0 n) in
  let flip pos v =
    let b = Bytes.of_string bin in
    Bytes.set b pos (Char.chr v);
    Bytes.to_string b
  in
  let flips =
    List.init 200 (fun i ->
        let pos = Random.State.int rng len in
        let v =
          match i mod 4 with
          | 0 -> 0x00
          | 1 -> 0x80 lor Random.State.int rng 0x80
          | 2 -> 0xFF
          | _ -> Random.State.int rng 256
        in
        flip pos v)
  in
  truncations @ flips

let test_check_matches_oracle () =
  let rng = Random.State.make [| 14 |] in
  let cases = ref 0 and rejected = ref 0 in
  List.iter
    (fun bin ->
      List.iter
        (fun m ->
          incr cases;
          let expected = Oracle.check m in
          if Result.is_error expected then incr rejected;
          if Bxml.check m <> expected then
            Alcotest.failf "check disagrees with the oracle on %S" m)
        (bin :: mutants rng bin))
    (example_payloads ());
  (* the mutants must exercise both verdicts, or the agreement is vacuous *)
  check bool_ "some mutants rejected" true (!rejected > 0);
  check bool_ "some mutants accepted" true (!rejected < !cases)

let test_check_deep_nesting () =
  let rec nest n acc = if n = 0 then acc else nest (n - 1) (Tree.elem "d" [ acc ]) in
  let bin = Bxml.encode (nest 10_000 (Tree.elem "leaf" [ Tree.text "x" ])) in
  check bool_ "10k-deep document validates" true (Bxml.check bin = Ok ());
  check bool_ "oracle agrees" true (Oracle.check bin = Ok ());
  let cut = String.sub bin 0 (String.length bin - 1) in
  check bool_ "a truncated copy does not" true (Result.is_error (Bxml.check cut))

(* Totality on mutated payloads: the validator and the synopsis admission
   return a value or a typed error, whatever the bytes. *)
let test_readers_total_on_mutants () =
  let rng = Random.State.make [| 41 |] in
  let ix = Prefilter.index [ [ "order" ]; [ "item"; "price" ]; []; [ "zzz" ] ] in
  List.iter
    (fun bin ->
      List.iter
        (fun m ->
          (match Bxml.check m with
          | Ok () | Error _ -> ()
          | exception e -> Alcotest.failf "check raised %s" (Printexc.to_string e));
          match Prefilter.present_of_payload ix m with
          | Some _ | None -> ()
          | exception e ->
            Alcotest.failf "synopsis admission raised %s" (Printexc.to_string e))
        (mutants rng bin))
    (example_payloads ())

let suite =
  [
    ("is_binary discrimination", `Quick, test_is_binary);
    ("decode_any accepts both formats", `Quick, test_decode_any);
    ("round-trip corners", `Quick, test_roundtrip_corners);
    ("corrupt payloads rejected", `Quick, test_corrupt_rejected);
    ("header synopsis", `Quick, test_synopsis);
    ("root children scan", `Quick, test_root_children);
    ("iter_names visits every element", `Quick, test_iter_names);
    ("parse_many batch bodies", `Quick, test_parse_many);
    ("admission counters after restart", `Quick, test_admission_counters);
    ("check agrees with the list-stack oracle on mutants", `Quick, test_check_matches_oracle);
    ("check validates a 10k-deep document", `Quick, test_check_deep_nesting);
    ("check and synopsis admission are total on mutants", `Quick, test_readers_total_on_mutants);
    QCheck_alcotest.to_alcotest prop_bxml_roundtrip;
    QCheck_alcotest.to_alcotest prop_synopsis_agrees;
    QCheck_alcotest.to_alcotest prop_admission_agrees;
    QCheck_alcotest.to_alcotest prop_text_payloads_fall_back;
  ]
