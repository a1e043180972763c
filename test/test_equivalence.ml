(* Differential tests on the shipped programs: configurations that claim
   to be observationally equivalent must agree on real programs, not only
   on generated ones. Each program gets a seeded message set, runs to
   quiescence (the clock advanced past every echo timeout and retry), and
   the two runs must end with the same serialized contents in every
   queue and the same processed/error counts.

   The pair compared here is the default configuration and the reference
   run: [optimize = false] (rule bodies as written, no pruning) and
   [use_prefilter = false], so every compiler rewrite, the pruning and
   the pre-filter are checked against plain per-rule interpretation.
   Both run at [workers = 1].

   A second pair compares rule admission: decided on a binary payload's
   header bytes, against deciding it on the document's element-name set,
   for every rule of the same programs. *)

module Tree = Demaq.Xml.Tree
module Schema = Demaq.Xml.Schema
module Qdl = Demaq.Lang.Qdl
module Defs = Demaq.Mq.Defs
module Message = Demaq.Message
module Net = Demaq.Network
module S = Demaq.Server

let check = Alcotest.check
let bool_ = Alcotest.bool

let seeds = [ 1; 2; 3 ]
let messages_per_seed = 12

let default_config = { S.default_config with S.workers = 1 }

let read_example name =
  (* test runs execute in _build/default/test; [dune exec] from the root *)
  match
    List.find_opt Sys.file_exists
      [ Filename.concat "../examples" name; Filename.concat "examples" name ]
  with
  | None -> Alcotest.failf "example program %s not found" name
  | Some path -> In_channel.with_open_bin path In_channel.input_all

let inject_ok srv queue payload =
  match S.inject srv ~queue payload with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "inject: %s" (Demaq.Mq.Queue_manager.error_to_string e)

(* Run, then keep advancing the virtual clock past every armed echo
   timeout and retry until no timer is left. *)
let settle srv =
  ignore (S.run srv);
  let rec go budget =
    if S.timers_pending srv > 0 then begin
      if budget = 0 then Alcotest.fail "timers still pending after settling";
      S.advance_time srv 1000;
      ignore (S.run srv);
      go (budget - 1)
    end
  in
  go 20

let observe srv queues =
  let st = S.stats srv in
  ( List.map
      (fun q ->
        ( q,
          List.map
            (fun m -> Demaq.xml_to_string (Message.body m))
            (S.queue_contents srv q) ))
      queues,
    (st.S.processed, st.S.errors_raised) )

let agree ~what run =
  List.iter
    (fun seed ->
      let compiled = run ~config:default_config seed in
      let reference = run ~config:Test_plan.reference_config seed in
      check bool_ (Printf.sprintf "%s, seed %d" what seed) true (compiled = reference))
    seeds

(* ---- the loadgen example programs, fed schema-generated messages ---- *)

let example_run ~file ~queue ~root ~config seed =
  let src = read_example file in
  let program = Qdl.parse_program src in
  let schema =
    match
      List.find_opt (fun (q : Defs.queue_def) -> q.Defs.qname = queue) (Qdl.queues program)
    with
    | Some { Defs.schema = Some schema; _ } -> schema
    | _ -> Alcotest.failf "%s: queue %s has no schema" file queue
  in
  let srv = S.deploy ~config src in
  let rng = Random.State.make [| seed |] in
  for _ = 1 to messages_per_seed do
    match Schema.example ~vary:(Random.State.int rng 10_000) schema root with
    | Some doc -> inject_ok srv queue doc
    | None -> Alcotest.failf "%s: no example for <%s>" file root
  done;
  settle srv;
  let ((_, (processed, _)) as result) =
    observe srv (List.map (fun (q : Defs.queue_def) -> q.Defs.qname) (Qdl.queues program))
  in
  (* the cascade ran: more processed than injected *)
  check bool_ (file ^ " cascaded") true (processed > messages_per_seed);
  result

let test_example ~file ~queue ~root () =
  agree ~what:file (example_run ~file ~queue ~root)

(* ---- the paper's procurement program (Figs. 5-10) ---- *)

let procurement_queues =
  List.map
    (fun (q : Defs.queue_def) -> q.Defs.qname)
    (Qdl.queues (Qdl.parse_program Test_procurement.program))

(* Offer requests (some with the restricted item), invoices, payments for
   some of them, and customer orders; seed 3 also disconnects the
   customer endpoint so Fig. 10's compensation path runs. *)
let procurement_run ~config seed =
  let w = Test_procurement.make_world ~config () in
  if seed = 3 then Net.set_connected w.Test_procurement.net "customer" false;
  let srv = w.Test_procurement.srv in
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  for i = 1 to messages_per_seed do
    let customer = pick [ "c1"; "c2"; "c7" ] in
    match Random.State.int rng 4 with
    | 0 ->
      let items =
        List.filter (fun _ -> Random.State.bool rng) [ "glue"; "paint"; "plutonium" ]
      in
      inject_ok srv "crm"
        (Demaq.xml
           (Printf.sprintf
              "<offerRequest><requestID>r%d</requestID><customerID>%s</customerID><items>%s</items></offerRequest>"
              i customer
              (String.concat "" (List.map (fun it -> "<item>" ^ it ^ "</item>") items))))
    | 1 ->
      inject_ok srv "invoices"
        (Demaq.xml
           (Printf.sprintf
              "<invoice><requestID>inv%d</requestID><customerID>%s</customerID><amount>%d</amount></invoice>"
              i customer (10 * i)))
    | 2 ->
      inject_ok srv "finance"
        (Demaq.xml
           (Printf.sprintf
              "<paymentConfirmation><requestID>inv%d</requestID></paymentConfirmation>"
              (1 + Random.State.int rng i)))
    | _ ->
      inject_ok srv "crm"
        (Demaq.xml
           (Printf.sprintf
              "<customerOrder><orderID>o%d</orderID><address>%d Main St</address></customerOrder>"
              i i))
  done;
  settle srv;
  let names inbox = List.map Demaq.xml_to_string !inbox in
  ( observe srv procurement_queues,
    names w.Test_procurement.customer_inbox,
    names w.Test_procurement.postal_inbox )

let test_procurement () = agree ~what:"procurement" procurement_run

(* ---- admission on payload bytes == admission on element names ---- *)

module Prefilter = Demaq.Lang.Prefilter
module Compiler = Demaq.Lang.Compiler
module Executor = Demaq.Engine.Executor
module Bxml = Demaq.Xml.Bxml
module Name = Demaq.Xml.Name

let shipped_programs () =
  let dir = if Sys.file_exists "../examples" then "../examples" else "examples" in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".demaq")
    |> List.sort compare
    |> List.map (fun f -> (f, read_example f))
  in
  check bool_ "the example programs are found" true (List.length examples >= 3);
  examples @ [ ("procurement", Test_procurement.program) ]

(* Seeded documents over the programs' requirement names plus noise.
   Attributes draw from the same vocabulary, so a required name often
   occurs only as an attribute. In every other document one name in five
   is in a namespace, so the legacy text payload also exercises prefixes
   declared in sibling subtrees. *)
let random_doc rng vocab =
  let pick () = vocab.(Random.State.int rng (Array.length vocab)) in
  let namespaced = Random.State.bool rng in
  let name () =
    if namespaced && Random.State.int rng 5 = 0 then Name.make ~uri:"urn:demaq:test" (pick ())
    else Name.make (pick ())
  in
  let rec tree elem_name depth =
    let attrs =
      List.init (Random.State.int rng 3) (fun i ->
          { Tree.attr_name = name (); attr_value = string_of_int i })
    in
    let children =
      if depth = 0 then []
      else
        List.init (Random.State.int rng 4) (fun _ ->
            if Random.State.int rng 4 = 0 then Tree.text "t" else tree (name ()) (depth - 1))
    in
    Tree.elem_ns ~attrs elem_name children
  in
  tree (name ()) 3

let plans_with_rules compiled =
  List.filter (fun (p : Compiler.plan) -> p.Compiler.rules <> [||]) (Compiler.plans compiled)

let requirement_names compiled =
  List.sort_uniq compare
    (List.concat_map
       (fun (p : Compiler.plan) ->
         List.concat_map
           (fun (cr : Compiler.compiled_rule) -> cr.Compiler.cr_requirements)
           (Array.to_list p.Compiler.rules))
       (Compiler.plans compiled))

(* Per rule of [plan]: the verdict on the binary payload's header, on the
   legacy text payload, and the reference [element_names] + [may_match]. *)
let verdicts (plan : Compiler.plan) tree =
  let ix = plan.Compiler.admission in
  let rules = Array.to_list plan.Compiler.rules in
  let names = Prefilter.element_names tree in
  let reference =
    List.map
      (fun (cr : Compiler.compiled_rule) ->
        Prefilter.may_match ~requirements:cr.Compiler.cr_requirements ~names)
      rules
  in
  let of_present p = List.mapi (fun i _ -> Prefilter.admits ix p i) rules in
  let binary =
    match Prefilter.present_of_payload ix (Bxml.encode tree) with
    | Some p -> of_present p
    | None -> Alcotest.fail "a binary payload has no readable header"
  in
  let text =
    let payload = Demaq.xml_to_string tree in
    match Prefilter.present_of_payload ix payload with
    | Some _ -> Alcotest.fail "a text payload was read as binary"
    | None ->
      of_present (Prefilter.present_of_names ix (Prefilter.element_names (Demaq.xml payload)))
  in
  (reference, binary, text)

let docs_per_program = 150

let test_admission_equivalence () =
  List.iter
    (fun (what, src) ->
      let program = Qdl.parse_program src in
      let compiled = Compiler.compile program in
      let reqs = requirement_names compiled in
      check bool_ (what ^ " has pre-filtered rules") true (reqs <> []);
      let vocab = Array.of_list (reqs @ [ "noise"; "zz" ]) in
      let rng = Random.State.make [| Hashtbl.hash what |] in
      (* one document per required name, where it is only an attribute *)
      let attribute_only =
        List.map (fun n -> Tree.elem ~attrs:[ (n, "1") ] "noise" [ Tree.elem "zz" [] ]) reqs
      in
      let docs =
        attribute_only @ List.init docs_per_program (fun _ -> random_doc rng vocab)
      in
      let cfg = { S.default_config with S.footprint_dispatch = true; S.workers = 1 } in
      let st = Demaq.Store.Message_store.open_store Demaq.Store.Message_store.default_config in
      let ctx =
        Executor.create ~cfg ~qm:(Demaq.Mq.Queue_manager.create st) ~st ~net:(Net.create ())
          ~compiled ~clk:(Demaq.Engine.Clock.create ()) ()
      in
      let message ~queue ~raw ~body =
        {
          Message.rid = 1;
          queue;
          raw;
          body;
          props = [];
          memberships = [];
          prov = Message.no_provenance;
          enqueued_at = 0;
          processed = false;
        }
      in
      List.iter
        (fun (plan : Compiler.plan) ->
          List.iteri
            (fun i tree ->
              let reference, binary, text = verdicts plan tree in
              let label kind = Printf.sprintf "%s, %s, doc %d: %s" what plan.Compiler.target i kind in
              check (Alcotest.list bool_) (label "header bytes") reference binary;
              check (Alcotest.list bool_) (label "legacy text") reference text;
              if not plan.Compiler.on_slicing then begin
                (* footprint resources from the header bytes, body never
                   decoded, equal those from the decoded tree *)
                let raw = Bxml.encode tree in
                let on_bytes =
                  message ~queue:plan.Compiler.target ~raw:(Lazy.from_val raw)
                    ~body:(lazy (Bxml.decode raw))
                in
                let on_tree =
                  message ~queue:plan.Compiler.target
                    ~raw:(Lazy.from_val (Demaq.xml_to_string tree))
                    ~body:(Lazy.from_val tree)
                in
                check (Alcotest.list Alcotest.string) (label "footprint resources")
                  (Executor.resources_for ctx on_tree)
                  (Executor.resources_for ctx on_bytes);
                check bool_ (label "no decode") false (Message.body_forced on_bytes)
              end)
            docs)
        (plans_with_rules compiled);
      (* the attribute-only documents must be rejected by a rule that
         requires the name, or the attribute case tests nothing *)
      check bool_ (what ^ ": an attribute never satisfies a requirement") true
        (List.for_all2
           (fun n tree ->
             not (Prefilter.may_match ~requirements:[ n ] ~names:(Prefilter.element_names tree)))
           reqs attribute_only))
    (shipped_programs ())

let suite =
  [
    ( "merged == per-rule: order_fanout",
      `Quick,
      test_example ~file:"order_fanout.demaq" ~queue:"orders" ~root:"order" );
    ( "merged == per-rule: etl_pipeline",
      `Quick,
      test_example ~file:"etl_pipeline.demaq" ~queue:"raw_events" ~root:"event" );
    ( "merged == per-rule: escalation",
      `Quick,
      test_example ~file:"escalation.demaq" ~queue:"tickets" ~root:"ticket" );
    ("merged == per-rule: procurement (Figs. 5-10)", `Quick, test_procurement);
    ("admission on payload bytes == on element names", `Quick, test_admission_equivalence);
  ]
