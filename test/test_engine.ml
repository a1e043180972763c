(* Tests for the Demaq server: the §3.1 execution model, the scheduler,
   echo-queue timers, error handling (§3.6), gateways and recovery. *)

module Tree = Demaq.Xml.Tree
module Value = Demaq.Value
module Store = Demaq.Store.Message_store
module Wal = Demaq.Store.Wal
module Message = Demaq.Message
module Net = Demaq.Network
module S = Demaq.Server

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let xml = Demaq.xml

let bodies srv q =
  List.map (fun m -> Demaq.xml_to_string (Message.body m)) (S.queue_contents srv q)

let inject_ok ?props srv queue payload =
  match S.inject srv ?props ~queue (xml payload) with
  | Ok m -> m
  | Error e -> Alcotest.failf "inject: %s" (Demaq.Mq.Queue_manager.error_to_string e)

(* ---- basic rule execution ---- *)

let ping_pong = {|
create queue in kind basic mode persistent
create queue out kind basic mode persistent
create rule pong for in
  if (//ping) then do enqueue <pong>{string(//ping)}</pong> into out
|}

let test_basic_flow () =
  let srv = S.deploy ping_pong in
  ignore (inject_ok srv "in" "<ping>x</ping>");
  let n = S.run srv in
  check int_ "two messages processed" 2 n;
  check bool_ "pong produced" true (bodies srv "out" = [ "<pong>x</pong>" ]);
  let st = S.stats srv in
  check int_ "created" 2 st.S.messages_created;
  check int_ "no errors" 0 st.S.errors_raised

let test_exactly_once () =
  let srv = S.deploy ping_pong in
  ignore (inject_ok srv "in" "<ping>1</ping>");
  ignore (S.run srv);
  (* a second run must not reprocess anything *)
  check int_ "idle" 0 (S.run srv);
  check int_ "still one pong" 1 (List.length (bodies srv "out"));
  check bool_ "all processed" true
    (List.for_all (fun m -> m.Message.processed) (S.queue_contents srv "in"))

let test_step_idle () =
  let srv = S.deploy ping_pong in
  (match S.step srv with
   | S.Idle -> ()
   | S.Processed _ -> Alcotest.fail "expected idle");
  ignore (inject_ok srv "in" "<ping>1</ping>");
  match S.step srv with
  | S.Processed m -> check string_ "processed the ping" "in" m.Message.queue
  | S.Idle -> Alcotest.fail "expected processing"

let test_rule_cascade () =
  (* chained queues: a -> b -> c *)
  let srv =
    S.deploy
      {|create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create queue c kind basic mode persistent
        create rule ab for a if (//m) then do enqueue <m2/> into b
        create rule bc for b if (//m2) then do enqueue <m3/> into c|}
  in
  ignore (inject_ok srv "a" "<m/>");
  ignore (S.run srv);
  check bool_ "cascade reached c" true (bodies srv "c" = [ "<m3/>" ])

let test_multiple_rules_same_queue () =
  let srv =
    S.deploy
      {|create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create rule r1 for a if (//m) then do enqueue <from1/> into b
        create rule r2 for a if (//m) then do enqueue <from2/> into b|}
  in
  ignore (inject_ok srv "a" "<m/>");
  ignore (S.run srv);
  check bool_ "both rules fired in order" true
    (bodies srv "b" = [ "<from1/>"; "<from2/>" ])

(* ---- scheduler priorities (§4.4.2) ---- *)

let test_priority_order () =
  let srv =
    S.deploy
      {|create queue low kind basic mode persistent priority 0
        create queue high kind basic mode persistent priority 10
        create queue log kind basic mode persistent
        create rule rl for low if (//m) then do enqueue <done q="low">{string(//m)}</done> into log
        create rule rh for high if (//m) then do enqueue <done q="high">{string(//m)}</done> into log|}
  in
  (* enqueue low first; high must overtake it *)
  ignore (inject_ok srv "low" "<m>1</m>");
  ignore (inject_ok srv "low" "<m>2</m>");
  ignore (inject_ok srv "high" "<m>3</m>");
  ignore (S.run srv);
  match bodies srv "log" with
  | [ first; second; third ] ->
    check bool_ "high first" true
      (let has s sub =
         let n = String.length sub in
         let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
         go 0
       in
       has first "high" && has second "low" && has third "low");
    (* FIFO within the same priority *)
    check bool_ "fifo" true
      (let has s sub =
         let n = String.length sub in
         let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
         go 0
       in
       has second ">1<" && has third ">2<")
  | l -> Alcotest.failf "expected 3 log entries, got %d" (List.length l)

(* ---- snapshot semantics (§3.1) ---- *)

let test_snapshot_semantics () =
  (* Two rules on the same queue: the second must NOT see messages the
     first one enqueued while processing the same trigger. *)
  let srv =
    S.deploy
      {|create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create queue log kind basic mode persistent
        create rule writer for a if (//m) then do enqueue <side/> into b
        create rule reader for a
          if (//m) then do enqueue <observed>{count(qs:queue("b"))}</observed> into log|}
  in
  ignore (inject_ok srv "a" "<m/>");
  (* process only the trigger message *)
  (match S.step srv with S.Processed _ -> () | S.Idle -> Alcotest.fail "no step");
  check bool_ "reader saw the pre-state" true
    (bodies srv "log" = [ "<observed>0</observed>" ])

let test_updates_apply_after_all_rules () =
  (* A rule enqueues into the queue it watches; the new message is
     processed in a later cycle, not recursively. *)
  let srv =
    S.deploy
      {|create queue a kind basic mode persistent
        create rule once for a
          if (//seed) then do enqueue <derived/> into a|}
  in
  ignore (inject_ok srv "a" "<seed/>");
  let n = S.run srv in
  check int_ "two cycles" 2 n;
  check int_ "no runaway" 2 (List.length (bodies srv "a"))

(* ---- slicing rules on the engine ---- *)

let slicing_program = {|
create queue q1 kind basic mode persistent
create queue q2 kind basic mode persistent
create queue joined kind basic mode persistent
create property key as xs:string fixed
  queue q1 value //k
  queue q2 value //k
  queue joined value string(@k)
create slicing pairs on key
create rule join for pairs
  if (qs:slice()[/left] and qs:slice()[/right] and not(qs:slice()[/pair])) then
    do enqueue <pair k="{string(qs:slicekey())}"/> into joined
create rule sweep for pairs
  if (qs:slice()[/pair]) then do reset
|}

let test_slice_join () =
  let srv = S.deploy slicing_program in
  ignore (inject_ok srv "q1" "<left><k>a</k></left>");
  ignore (S.run srv);
  check int_ "no join yet" 0 (List.length (bodies srv "joined"));
  ignore (inject_ok srv "q2" "<right><k>a</k></right>");
  ignore (S.run srv);
  check bool_ "joined once" true (bodies srv "joined" = [ {|<pair k="a"/>|} ]);
  (* different key stays separate *)
  ignore (inject_ok srv "q1" "<left><k>b</k></left>");
  ignore (S.run srv);
  check int_ "still one pair" 1 (List.length (bodies srv "joined"))

let test_slice_reset_and_gc () =
  let srv = S.deploy slicing_program in
  ignore (inject_ok srv "q1" "<left><k>a</k></left>");
  ignore (inject_ok srv "q2" "<right><k>a</k></right>");
  ignore (S.run srv);
  (* the sweep rule reset the slice once the pair message arrived; the
     left/right messages are processed and no longer in any live slice *)
  let collected = S.gc srv in
  check bool_ "gc collects the pair's inputs" true (collected >= 2);
  check int_ "q1 emptied" 0 (List.length (bodies srv "q1"));
  check int_ "q2 emptied" 0 (List.length (bodies srv "q2"))

(* ---- echo queues / timers (§2.1.3, Fig. 9) ---- *)

let echo_program = {|
create queue work kind basic mode persistent
create queue timer kind echo mode persistent
create queue alerts kind basic mode persistent
create rule startTimer for work
  if (//job) then
    do enqueue <timeoutNotification>{string(//job/id)}</timeoutNotification> into timer
      with timeout value 10
      with target value "alerts"
|}

let test_echo_queue () =
  let srv = S.deploy echo_program in
  ignore (inject_ok srv "work" "<job><id>j1</id></job>");
  ignore (S.run srv);
  check int_ "timer holds the message" 1 (List.length (bodies srv "timer"));
  check int_ "nothing fired yet" 0 (List.length (bodies srv "alerts"));
  S.advance_time srv 5;
  ignore (S.run srv);
  check int_ "still pending" 0 (List.length (bodies srv "alerts"));
  S.advance_time srv 10;
  ignore (S.run srv);
  check bool_ "timeout delivered" true
    (bodies srv "alerts" = [ "<timeoutNotification>j1</timeoutNotification>" ]);
  check int_ "timer fired stat" 1 (S.stats srv).S.timers_fired;
  (* firing again must not duplicate *)
  S.advance_time srv 100;
  ignore (S.run srv);
  check int_ "fired once" 1 (List.length (bodies srv "alerts"))

let test_echo_missing_props () =
  let srv =
    S.deploy
      {|create queue timer kind echo mode persistent
        create queue sysErrors kind basic mode persistent|}
  in
  (* inject directly without timeout/target: must raise a routed error *)
  let srv2 =
    S.deploy
      ~config:{ S.default_config with S.system_error_queue = Some "sysErrors" }
      {|create queue timer kind echo mode persistent
        create queue sysErrors kind basic mode persistent|}
  in
  ignore srv;
  ignore (S.inject srv2 ~queue:"timer" (xml "<x/>"));
  check int_ "error raised" 1 (S.stats srv2).S.errors_raised;
  check int_ "error message routed" 1 (List.length (bodies srv2 "sysErrors"))

(* ---- error handling (§3.6) ---- *)

let test_rule_error_routed () =
  let srv =
    S.deploy
      {|create queue a kind basic mode persistent
        create queue errs kind basic mode persistent
        create rule bad for a errorqueue errs
          if (//m) then do enqueue <x>{1 idiv 0}</x> into a|}
  in
  ignore (inject_ok srv "a" "<m/>");
  ignore (S.run srv);
  match S.queue_contents srv "errs" with
  | [ err ] ->
    let body = Demaq.xml_to_string (Message.body err) in
    let has sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length body && (String.sub body i n = sub || go (i + 1)) in
      go 0
    in
    check bool_ "kind element" true (has "<evaluationError/>");
    check bool_ "names the rule" true (has "<rule>bad</rule>");
    check bool_ "embeds the trigger" true (has "<initialMessage><m/></initialMessage>")
  | l -> Alcotest.failf "expected one error message, got %d" (List.length l)

let test_error_queue_hierarchy () =
  (* rule-level beats queue-level beats system-level *)
  let program level = Printf.sprintf
    {|create queue a kind basic mode persistent %s
      create queue ruleQ kind basic mode persistent
      create queue queueQ kind basic mode persistent
      create queue sysQ kind basic mode persistent
      create rule bad for a %s
        if (//m) then do enqueue <x>{1 idiv 0}</x> into a|}
    (if level = `Queue || level = `System then "errorqueue queueQ" else "")
    (if level = `Rule then "errorqueue ruleQ" else "")
  in
  let run level sysq =
    let cfg = { S.default_config with S.system_error_queue = sysq } in
    let srv = S.deploy ~config:cfg (program level) in
    ignore (inject_ok srv "a" "<m/>");
    ignore (S.run srv);
    (List.length (bodies srv "ruleQ"), List.length (bodies srv "queueQ"),
     List.length (bodies srv "sysQ"))
  in
  check bool_ "rule level wins" true (run `Rule (Some "sysQ") = (1, 0, 0));
  check bool_ "queue level next" true (run `Queue (Some "sysQ") = (0, 1, 0));
  check bool_ "system level last" true (run `System None = (0, 1, 0));
  let cfg = { S.default_config with S.system_error_queue = Some "sysQ" } in
  let srv =
    S.deploy ~config:cfg
      {|create queue a kind basic mode persistent
        create queue sysQ kind basic mode persistent
        create rule bad for a if (//m) then do enqueue <x>{1 idiv 0}</x> into a|}
  in
  ignore (inject_ok srv "a" "<m/>");
  ignore (S.run srv);
  check int_ "system queue catches" 1 (List.length (bodies srv "sysQ"))

let test_error_message_is_processable () =
  (* error queues are ordinary queues: rules react to failures (Fig. 10) *)
  let srv =
    S.deploy
      {|create queue a kind basic mode persistent
        create queue errs kind basic mode persistent
        create queue notify kind basic mode persistent
        create rule bad for a errorqueue errs
          if (//m) then do enqueue <x>{error("kaboom")}</x> into a
        create rule report for errs
          if (/error/evaluationError) then
            do enqueue <alert>{string(/error/description)}</alert> into notify|}
  in
  ignore (inject_ok srv "a" "<m/>");
  ignore (S.run srv);
  check bool_ "error handled by rule" true (bodies srv "notify" = [ "<alert>kaboom</alert>" ])

let test_schema_error_on_enqueue () =
  let srv =
    S.deploy
      {|create queue a kind basic mode persistent
        create queue strict kind basic mode persistent
          schema { element ok { text } }
        create queue errs kind basic mode persistent
        create rule forward for a errorqueue errs
          if (//m) then do enqueue <wrong><nested/></wrong> into strict|}
  in
  ignore (inject_ok srv "a" "<m/>");
  ignore (S.run srv);
  check int_ "nothing in strict" 0 (List.length (bodies srv "strict"));
  check int_ "schema violation routed" 1 (List.length (bodies srv "errs"))

let test_error_loop_protection () =
  (* an error raised while processing its own error queue is not re-queued
     into the same queue forever *)
  let srv =
    S.deploy
      {|create queue errs kind basic mode persistent errorqueue errs
        create rule explode for errs
          if (//x or //error) then do enqueue <y>{1 idiv 0}</y> into errs|}
  in
  ignore (inject_ok srv "errs" "<x/>");
  let n = S.run ~max_steps:50 srv in
  check bool_ "terminates" true (n < 50)

(* ---- gateways ---- *)

let gateway_program = {|
create queue out kind outgoingGateway mode persistent
  using WS-ReliableMessaging policy pol.xml
create queue replies kind incomingGateway mode persistent
create queue errs kind basic mode persistent
create queue work kind basic mode persistent
create rule send for work errorqueue errs
  if (//order) then do enqueue <request>{string(//order/id)}</request> into out
create rule got for replies
  if (//ack) then do enqueue <logged/> into work
|}

let test_gateway_roundtrip () =
  let net = Net.create () in
  Net.register net ~name:"partner" ~handler:(fun ~sender:_ body ->
      [ Tree.elem "ack" [ Tree.text (Tree.tree_string_value body) ] ]);
  let srv = S.deploy ~network:net gateway_program in
  S.bind_gateway srv ~queue:"out" ~endpoint:"partner" ~replies_to:"replies" ();
  ignore (inject_ok srv "work" "<order><id>7</id></order>");
  ignore (S.run srv);
  check bool_ "reply received" true (bodies srv "replies" = [ "<ack>7</ack>" ]);
  check int_ "one transmission" 1 (S.stats srv).S.transmissions;
  (* sender property recorded on the reply *)
  let reply = List.hd (S.queue_contents srv "replies") in
  check bool_ "sender prop" true
    (Message.property reply Demaq.Mq.Defs.Sysprop.sender = Some (Value.String "partner"))

let test_gateway_disconnected_error () =
  (* Fig. 10: a disconnected endpoint becomes an /error/disconnectedTransport
     message routed to the errorqueue of the rule that created the message.
     The gateway is reliable, so the error only appears once the retry
     budget is spent (retries are re-armed through the virtual clock). *)
  let net = Net.create () in
  Net.register net ~name:"partner" ~handler:(fun ~sender:_ _ -> []);
  Net.set_connected net "partner" false;
  let srv = S.deploy ~network:net gateway_program in
  S.bind_gateway srv ~queue:"out" ~endpoint:"partner" ();
  ignore (inject_ok srv "work" "<order><id>9</id></order>");
  ignore (S.run srv);
  check int_ "no error while retries remain" 0 (List.length (bodies srv "errs"));
  for _ = 1 to 8 do
    S.advance_time srv 10;
    ignore (S.run srv)
  done;
  check int_ "dead-lettered after retries" 1 (S.stats srv).S.dead_letters;
  match S.queue_contents srv "errs" with
  | [ err ] ->
    let body = Demaq.xml_to_string (Message.body err) in
    let has sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length body && (String.sub body i n = sub || go (i + 1)) in
      go 0
    in
    check bool_ "disconnectedTransport kind" true (has "<disconnectedTransport/>");
    check bool_ "initial message embedded" true (has "<request>9</request>");
    check bool_ "creating rule named" true (has "<rule>send</rule>")
  | l -> Alcotest.failf "expected one error, got %d" (List.length l)

let test_gateway_unresolvable () =
  let net = Net.create () in
  let cfg = { S.default_config with S.system_error_queue = Some "errs" } in
  let srv = S.deploy ~network:net ~config:cfg gateway_program in
  (* no binding, no endpoint registered under queue name *)
  ignore (inject_ok srv "work" "<order><id>1</id></order>");
  ignore (S.run srv);
  check int_ "name resolution error" 1 (List.length (bodies srv "errs"))

(* ---- recovery ---- *)

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-engine-%s-%d" tag (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let test_recovery_resumes_processing () =
  let dir = fresh_dir "resume" in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let srv = S.deploy ~store:st ping_pong in
  ignore (inject_ok srv "in" "<ping>a</ping>");
  ignore (inject_ok srv "in" "<ping>b</ping>");
  (* process only one, then "crash" *)
  ignore (S.step srv);
  Store.close st;
  (* restart: the unprocessed ping must be picked up again *)
  let st2 = Store.open_store cfg in
  let srv2 = S.deploy ~store:st2 ping_pong in
  ignore (S.run srv2);
  let all =
    List.sort compare (bodies srv2 "out")
  in
  check bool_ "both pongs exist exactly once" true
    (all = [ "<pong>a</pong>"; "<pong>b</pong>" ]);
  Store.close st2

let test_recovery_echo_timer () =
  let dir = fresh_dir "echo" in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let srv = S.deploy ~store:st echo_program in
  ignore (inject_ok srv "work" "<job><id>j9</id></job>");
  ignore (S.run srv);
  check int_ "registered, not fired" 0 (List.length (bodies srv "alerts"));
  Store.close st;
  (* restart: the pending timeout must be re-registered and fire *)
  let st2 = Store.open_store cfg in
  let srv2 = S.deploy ~store:st2 echo_program in
  S.advance_time srv2 1000;
  ignore (S.run srv2);
  check int_ "fires after restart" 1 (List.length (bodies srv2 "alerts"));
  Store.close st2

(* ---- config toggles ---- *)

let test_merged_plans_equivalent () =
  let run merged =
    let cfg = { S.default_config with S.merged_plans = merged } in
    let srv =
      S.deploy ~config:cfg
        {|create queue a kind basic mode persistent
          create queue b kind basic mode persistent
          create rule r1 for a if (//m) then do enqueue <x1/> into b
          create rule r2 for a if (//m) then do enqueue <x2/> into b|}
    in
    ignore (inject_ok srv "a" "<m/>");
    ignore (S.run srv);
    bodies srv "b"
  in
  check bool_ "merged = per-rule output" true (run true = run false)

let test_scan_vs_index_equivalent () =
  let run use_index =
    let cfg = { S.default_config with S.use_slice_index = use_index } in
    let srv = S.deploy ~config:cfg slicing_program in
    ignore (inject_ok srv "q1" "<left><k>z</k></left>");
    ignore (inject_ok srv "q2" "<right><k>z</k></right>");
    ignore (S.run srv);
    bodies srv "joined"
  in
  check bool_ "index = scan behaviour" true (run true = run false)

let test_gc_every () =
  let cfg = { S.default_config with S.gc_every = 1 } in
  let srv =
    S.deploy ~config:cfg
      {|create queue a kind basic mode persistent
        create rule noop for a if (//never) then do enqueue <x/> into a|}
  in
  ignore (inject_ok srv "a" "<m/>");
  ignore (inject_ok srv "a" "<m/>");
  ignore (S.run srv);
  (* messages are unsliced and processed: automatic GC collected them *)
  check bool_ "auto gc ran" true ((S.stats srv).S.gc_collected >= 1)

let test_deployment_errors () =
  (match S.deploy "create queue q kind bogus mode persistent" with
   | _ -> Alcotest.fail "expected deployment error"
   | exception S.Deployment_error _ -> ());
  match
    S.deploy
      {|create queue a kind basic mode persistent
        create rule r for ghost if (//x) then do enqueue <y/> into a|}
  with
  | _ -> Alcotest.fail "expected semantic deployment error"
  | exception S.Deployment_error msg ->
    check bool_ "mentions target" true
      (let n = String.length "ghost" in
       let rec go i = i + n <= String.length msg && (String.sub msg i n = "ghost" || go (i + 1)) in
       go 0)

let test_explain_available () =
  let srv = S.deploy ping_pong in
  check bool_ "explain mentions plan" true
    (let text = S.explain srv in
     let n = String.length "plan for in" in
     let rec go i = i + n <= String.length text && (String.sub text i n = "plan for in" || go (i + 1)) in
     go 0)

let suite =
  [
    ("basic rule flow", `Quick, test_basic_flow);
    ("exactly-once processing", `Quick, test_exactly_once);
    ("step on empty agenda", `Quick, test_step_idle);
    ("rule cascade", `Quick, test_rule_cascade);
    ("multiple rules per queue", `Quick, test_multiple_rules_same_queue);
    ("priority scheduling (§4.4.2)", `Quick, test_priority_order);
    ("snapshot semantics (§3.1)", `Quick, test_snapshot_semantics);
    ("updates apply after evaluation", `Quick, test_updates_apply_after_all_rules);
    ("slice join (Fig. 7 pattern)", `Quick, test_slice_join);
    ("slice reset + gc (Fig. 8 pattern)", `Quick, test_slice_reset_and_gc);
    ("echo queue timers (Fig. 9 pattern)", `Quick, test_echo_queue);
    ("echo queue missing properties", `Quick, test_echo_missing_props);
    ("rule errors become messages (§3.6)", `Quick, test_rule_error_routed);
    ("error queue hierarchy", `Quick, test_error_queue_hierarchy);
    ("error messages are processable (Fig. 10)", `Quick, test_error_message_is_processable);
    ("schema errors on enqueue", `Quick, test_schema_error_on_enqueue);
    ("error loop protection", `Quick, test_error_loop_protection);
    ("gateway roundtrip", `Quick, test_gateway_roundtrip);
    ("gateway disconnect error (Fig. 10)", `Quick, test_gateway_disconnected_error);
    ("gateway unresolvable endpoint", `Quick, test_gateway_unresolvable);
    ("recovery resumes processing", `Quick, test_recovery_resumes_processing);
    ("recovery re-registers echo timers", `Quick, test_recovery_echo_timer);
    ("merged plans equivalent", `Quick, test_merged_plans_equivalent);
    ("index vs scan equivalent", `Quick, test_scan_vs_index_equivalent);
    ("automatic gc", `Quick, test_gc_every);
    ("deployment errors", `Quick, test_deployment_errors);
    ("plan explain", `Quick, test_explain_available);
  ]

(* ---- execution tracing (§2.3.3 "tracing system behavior") ---- *)

let test_trace_records_activations () =
  let cfg = { S.default_config with S.trace_capacity = 10 } in
  let srv =
    S.deploy ~config:cfg
      {|create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create rule hit for a if (//m) then do enqueue <x/> into b
        create rule miss for a if (//nothing) then do enqueue <y/> into b|}
  in
  ignore (inject_ok srv "a" "<m/>");
  ignore (S.run srv);
  let entries = S.trace srv in
  check bool_ "has entries" true (List.length entries >= 2);
  let find rule = List.find (fun e -> e.S.tr_rule = rule) entries in
  check int_ "hit produced one update" 1 (find "hit").S.tr_updates;
  check int_ "miss produced none" 0 (find "miss").S.tr_updates;
  check string_ "queue recorded" "a" (find "hit").S.tr_queue;
  (* pretty printer is total *)
  List.iter (fun e -> ignore (Format.asprintf "%a" S.pp_trace_entry e)) entries

let test_trace_records_prefilter_skips () =
  let cfg = { S.default_config with S.trace_capacity = 10 } in
  let srv =
    S.deploy ~config:cfg
      {|create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create rule needsOther for a
          if (//neverThere) then do enqueue <x/> into b|}
  in
  ignore (inject_ok srv "a" "<m/>");
  ignore (S.run srv);
  check bool_ "skip traced" true
    (List.exists (fun e -> e.S.tr_skipped && e.S.tr_rule = "needsOther") (S.trace srv))

let test_trace_bounded () =
  let cfg = { S.default_config with S.trace_capacity = 5 } in
  let srv =
    S.deploy ~config:cfg
      {|create queue a kind basic mode persistent
        create rule r for a if (//m) then do enqueue <m2/> into a|}
  in
  for _ = 1 to 30 do
    ignore (inject_ok srv "a" "<m/>")
  done;
  ignore (S.run srv);
  check bool_ "bounded" true (List.length (S.trace srv) <= 5)

let test_trace_disabled_by_default () =
  let srv = S.deploy ping_pong in
  ignore (inject_ok srv "in" "<ping>x</ping>");
  ignore (S.run srv);
  check int_ "no trace" 0 (List.length (S.trace srv))

let suite =
  suite
  @ [
      ("trace records activations", `Quick, test_trace_records_activations);
      ("trace records prefilter skips", `Quick, test_trace_records_prefilter_skips);
      ("trace bounded", `Quick, test_trace_bounded);
      ("trace disabled by default", `Quick, test_trace_disabled_by_default);
    ]

(* ---- second batch: interplay of features ---- *)

let test_merged_plans_with_slicing_program () =
  (* the full slicing program behaves identically under merged plans *)
  let run merged =
    let cfg = { S.default_config with S.merged_plans = merged } in
    let srv = S.deploy ~config:cfg slicing_program in
    ignore (inject_ok srv "q1" "<left><k>m</k></left>");
    ignore (inject_ok srv "q2" "<right><k>m</k></right>");
    ignore (S.run srv);
    (bodies srv "joined", S.gc srv)
  in
  check bool_ "same results" true (run true = run false)

let test_error_message_schema () =
  (* the error schema has the Fig. 10 shape: kind marker, description,
     rule, queue, initialMessage *)
  let srv =
    S.deploy
      {|create queue a kind basic mode persistent
        create queue errs kind basic mode persistent
        create rule bad for a errorqueue errs
          if (//m) then do enqueue <x>{1 idiv 0}</x> into a|}
  in
  ignore (inject_ok srv "a" "<m/>");
  ignore (S.run srv);
  let err = List.hd (S.queue_contents srv "errs") in
  let body = Message.body err in
  check bool_ "root is error" true
    (match Tree.element_name body with
     | Some n -> Demaq.Xml.Name.local n = "error"
     | None -> false);
  List.iter
    (fun child ->
      check bool_ ("has " ^ child) true (Tree.find_child body child <> None))
    [ "evaluationError"; "description"; "rule"; "queue"; "initialMessage" ]

let test_evolution_preserves_timers () =
  (* pending echo timers survive an evolution *)
  let srv = S.deploy echo_program in
  ignore (inject_ok srv "work" "<job><id>j1</id></job>");
  ignore (S.run srv);
  (match
     S.evolve srv
       {|create queue audit kind basic mode persistent
         create rule log for alerts
           if (//timeoutNotification) then do enqueue <logged/> into audit|}
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  S.advance_time srv 20;
  ignore (S.run srv);
  check int_ "timer fired after evolution" 1 (List.length (bodies srv "alerts"));
  check int_ "new rule saw the timeout" 1 (List.length (bodies srv "audit"))

let test_pending_messages_counter () =
  let srv = S.deploy ping_pong in
  ignore (inject_ok srv "in" "<ping>1</ping>");
  ignore (inject_ok srv "in" "<ping>2</ping>");
  check int_ "two pending" 2 (S.pending_messages srv);
  ignore (S.run srv);
  check int_ "drained" 0 (S.pending_messages srv)

let test_inherited_props_through_echo () =
  (* properties propagate through the echo round trip (trigger chaining) *)
  let srv =
    S.deploy
      {|create queue start kind basic mode persistent
        create queue timer kind echo mode persistent
        create queue landed kind basic mode persistent
        create property flavour as xs:string inherited
          queue start, timer, landed value "plain"
        create rule arm for start
          if (//go) then
            do enqueue <wake/> into timer
              with timeout value 5 with target value "landed"|}
  in
  ignore
    (S.inject srv
       ~props:[ ("flavour", Demaq.Value.String "spicy") ]
       ~queue:"start" (xml "<go/>"));
  ignore (S.run srv);
  S.advance_time srv 6;
  ignore (S.run srv);
  match S.queue_contents srv "landed" with
  | [ m ] ->
    check bool_ "flavour inherited through echo" true
      (Message.property m "flavour" = Some (Demaq.Value.String "spicy"))
  | l -> Alcotest.failf "expected one landed message, got %d" (List.length l)

let suite =
  suite
  @ [
      ("merged plans with slicing program", `Quick, test_merged_plans_with_slicing_program);
      ("error message schema (Fig. 10 shape)", `Quick, test_error_message_schema);
      ("evolution preserves timers", `Quick, test_evolution_preserves_timers);
      ("pending message counter", `Quick, test_pending_messages_counter);
      ("inherited properties through echo", `Quick, test_inherited_props_through_echo);
    ]
