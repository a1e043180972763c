(* Differential tests on the shipped programs: configurations that claim
   to be observationally equivalent must agree on real programs, not only
   on generated ones. Each program gets a seeded message set, runs to
   quiescence (the clock advanced past every echo timeout and retry), and
   the two runs must end with the same serialized contents in every
   queue and the same processed/error counts.

   The pair compared here is [merged_plans] true (the guarded plan) and
   false (one unguarded plan entry per rule, the reference semantics),
   both at [workers = 1]. *)

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

let config ~merged = { S.default_config with S.merged_plans = merged; S.workers = 1 }

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
      let merged = run ~merged:true seed in
      let per_rule = run ~merged:false seed in
      check bool_ (Printf.sprintf "%s, seed %d" what seed) true (merged = per_rule))
    seeds

(* ---- the loadgen example programs, fed schema-generated messages ---- *)

let example_run ~file ~queue ~root ~merged seed =
  let src = read_example file in
  let program = Qdl.parse_program src in
  let schema =
    match
      List.find_opt (fun (q : Defs.queue_def) -> q.Defs.qname = queue) (Qdl.queues program)
    with
    | Some { Defs.schema = Some schema; _ } -> schema
    | _ -> Alcotest.failf "%s: queue %s has no schema" file queue
  in
  let srv = S.deploy ~config:(config ~merged) src in
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
let procurement_run ~merged seed =
  let w = Test_procurement.make_world ~config:(config ~merged) () in
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
  ]
