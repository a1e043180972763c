(* The Demaq benchmark harness.

   The CIDR 2007 paper is a vision paper with no quantitative tables; its
   performance content is the set of design claims in §2-§4. Each bench
   below (B1-B10, indexed in DESIGN.md §5) regenerates the comparison one
   of those claims implies, prints a paper-style table, and registers a
   Bechamel micro-benchmark. Absolute numbers depend on this machine; the
   *shape* (who wins, how the gap scales) is the reproduction target and
   is recorded in EXPERIMENTS.md.

   Run with:  dune exec bench/main.exe            (all benches)
              dune exec bench/main.exe -- B3 B7   (a selection)
              dune exec bench/main.exe -- --quick (smaller sweeps)
*)

module Tree = Demaq.Xml.Tree
module Value = Demaq.Value
module Store = Demaq.Store.Message_store
module Wal = Demaq.Store.Wal
module Btree = Demaq.Store.Btree
module Dispatch = Demaq.Engine.Dispatch
module Defs = Demaq.Mq.Defs
module Qm = Demaq.Mq.Queue_manager
module Message = Demaq.Message
module Xq = Demaq.Xquery.Parser
module Net = Demaq.Network
module S = Demaq.Server
module Ctx = Demaq.Baseline.Context_engine

let quick = ref false
let scale n = if !quick then max 1 (n / 5) else n

(* Machine-readable results: benches push JSON objects here and --json
   FILE writes them out (the PR trajectory data, e.g. BENCH_PR2.json). *)
let json_entries : string list ref = ref []
let json_add entry = json_entries := !json_entries @ [ entry ]

(* Results are only comparable across PRs if we know what produced them:
   stamp every JSON file with the commit, the date, and the engine config
   knobs that shape the numbers. *)
let command_output cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    line
  with _ -> ""

let iso_date () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let json_meta () =
  Printf.sprintf
    "{\n\
    \    \"git_commit\": \"%s\",\n\
    \    \"date\": \"%s\",\n\
    \    \"ocaml\": \"%s\",\n\
    \    \"cores\": %d,\n\
    \    \"config\": {\"workers\": %d, \"batch_size\": %d, \"group_commit\": %b}\n\
    \  }"
    (command_output "git rev-parse --short HEAD")
    (iso_date ()) Sys.ocaml_version
    (Domain.recommended_domain_count ())
    S.default_config.S.workers S.default_config.S.batch_size
    S.default_config.S.group_commit

let write_json file =
  let oc = open_out file in
  Printf.fprintf oc
    "{\n  \"suite\": \"demaq-bench\",\n  \"quick\": %b,\n  \"meta\": %s,\n  \"benches\": [\n%s\n  ]\n}\n"
    !quick (json_meta ())
    (String.concat ",\n" (List.map (fun e -> "    " ^ e) !json_entries));
  close_out oc;
  Printf.printf "\nwrote %s\n" file

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let secs f =
  let _, t = time_it f in
  t

let headline id claim =
  Printf.printf "\n%s\n%s  %s\n%s\n" (String.make 78 '=') id claim
    (String.make 78 '=')

let table_header cols =
  let line =
    String.concat " | " (List.map (fun (name, width) -> Printf.sprintf "%*s" width name) cols)
  in
  Printf.printf "%s\n%s\n" line (String.make (String.length line) '-')

let row cells = print_endline (String.concat " | " cells)

let cell width fmt = Printf.ksprintf (fun s -> Printf.sprintf "%*s" width s) fmt

(* Bechamel registry: one Test.make per bench. *)
let bechamel_tests : Bechamel.Test.t list ref = ref []

let register_bechamel name fn =
  bechamel_tests :=
    !bechamel_tests @ [ Bechamel.Test.make ~name (Bechamel.Staged.stage fn) ]

(* ------------------------------------------------------------------ *)
(* Shared workload builders                                            *)
(* ------------------------------------------------------------------ *)

let order_payload key i =
  Printf.sprintf
    "<order><orderID>%s</orderID><seq>%d</seq><customer>c%d</customer><item>glue</item></order>"
    key i (i mod 7)

(* A queue manager with one queue, one computed property and one slicing,
   loaded with [n] messages over [keys] distinct slice keys. *)
let sliced_fixture ~n ~keys =
  let st = Store.open_store Store.default_config in
  let qm = Qm.create st in
  Qm.add_queue qm (Defs.queue "orders");
  Qm.add_property qm
    {
      Defs.pname = "orderID";
      ptype = Value.T_string;
      disposition = Defs.Fixed;
      per_queue = [ ([ "orders" ], Xq.parse "//orderID") ];
    };
  Qm.add_slicing qm { Defs.sname = "byOrder"; slice_property = "orderID" };
  let txn = Store.begin_txn st in
  for i = 1 to n do
    let key = Printf.sprintf "k%d" (i mod keys) in
    match
      Qm.enqueue qm txn ~queue:"orders"
        ~payload:(Demaq.xml (order_payload key i))
        ()
    with
    | Ok _ -> ()
    | Error e -> failwith (Qm.error_to_string e)
  done;
  Store.commit txn;
  qm

(* ------------------------------------------------------------------ *)
(* B1: materialized slice index vs scan (§4.3)                         *)
(* ------------------------------------------------------------------ *)

let b1 () =
  headline "B1 slice_access"
    "materialized slices (B-tree) vs merging the slice definition into rules (scan)";
  table_header
    [ ("messages", 9); ("keys", 6); ("index us/lookup", 16); ("scan us/lookup", 15);
      ("speedup", 8) ];
  List.iter
    (fun n ->
      let keys = max 4 (n / 20) in
      let qm = sliced_fixture ~n ~keys in
      let lookups = 200 in
      let bench use_index =
        secs (fun () ->
            for i = 1 to lookups do
              ignore
                (Qm.slice_messages qm ~use_index
                   ~slicing:"byOrder"
                   ~key:(Printf.sprintf "k%d" (i mod keys))
                   ())
            done)
      in
      let t_index = bench true and t_scan = bench false in
      row
        [
          cell 9 "%d" n; cell 6 "%d" keys;
          cell 16 "%.1f" (t_index *. 1e6 /. float lookups);
          cell 15 "%.1f" (t_scan *. 1e6 /. float lookups);
          cell 8 "%.1fx" (t_scan /. t_index);
        ])
    [ scale 200; scale 1000; scale 4000 ];
  let qm = sliced_fixture ~n:(scale 1000) ~keys:50 in
  register_bechamel "B1/slice-index-lookup" (fun () ->
      ignore (Qm.slice_messages qm ~use_index:true ~slicing:"byOrder" ~key:"k7" ()));
  register_bechamel "B1/slice-scan-lookup" (fun () ->
      ignore (Qm.slice_messages qm ~use_index:false ~slicing:"byOrder" ~key:"k7" ()))

(* ------------------------------------------------------------------ *)
(* B2: merged per-queue plans vs per-rule evaluation (§4.4.1)          *)
(* ------------------------------------------------------------------ *)

(* [rules] rules spread over 4 distinct conditions: a realistic rule set
   where several reactions share a trigger condition. The merged plan
   factors each shared condition into a single evaluation (§3.3/§4.4.1);
   per-rule evaluation re-tests it for every rule. *)
let b2_program rules =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "create queue in kind basic mode persistent\ncreate queue out kind basic mode persistent\n";
  for i = 1 to rules do
    Buffer.add_string buf
      (Printf.sprintf
         "create rule r%d for in if (//order[seq mod %d = 0][customer != 'nobody']) then do enqueue <hit n=\"%d\"/> into out\n"
         i ((i mod 4) + 1) i)
  done;
  Buffer.contents buf

let b2_run ~rules ~messages ~merged =
  let cfg = { S.default_config with S.merged_plans = merged } in
  let srv = S.deploy ~config:cfg (b2_program rules) in
  for i = 1 to messages do
    ignore (S.inject srv ~queue:"in" (Demaq.xml (order_payload "k" i)))
  done;
  secs (fun () -> ignore (S.run srv))

let b2 () =
  headline "B2 rule_merging"
    "one merged execution plan per queue vs independent per-rule evaluation";
  table_header
    [ ("rules", 6); ("messages", 9); ("per-rule msg/s", 15); ("merged msg/s", 13);
      ("speedup", 8) ];
  List.iter
    (fun rules ->
      let messages = scale 400 in
      let t_per_rule = b2_run ~rules ~messages ~merged:false in
      let t_merged = b2_run ~rules ~messages ~merged:true in
      row
        [
          cell 6 "%d" rules; cell 9 "%d" messages;
          cell 15 "%.0f" (float messages /. t_per_rule);
          cell 13 "%.0f" (float messages /. t_merged);
          cell 8 "%.2fx" (t_per_rule /. t_merged);
        ])
    [ 2; 8; 32 ];
  register_bechamel "B2/per-rule-16rules-20msgs" (fun () ->
      ignore (b2_run ~rules:16 ~messages:20 ~merged:false));
  register_bechamel "B2/merged-16rules-20msgs" (fun () ->
      ignore (b2_run ~rules:16 ~messages:20 ~merged:true))

(* ------------------------------------------------------------------ *)
(* B3: slice- vs queue-granularity conflict resources (§4.3)          *)
(* ------------------------------------------------------------------ *)

(* [txns] messages of one queue go through the dispatcher, each claiming
   either the whole queue or just its message's slice. Execution proceeds
   in waves: take everything the dispatcher hands out until it answers
   Busy or Empty, then complete it all. Effective parallelism =
   txns / waves. *)
let b3_simulate ~txns ~keys granularity =
  let d = Dispatch.create () in
  for rid = 1 to txns do
    let resource =
      match granularity with
      | `Queue -> "q:orders"
      | `Slice -> Printf.sprintf "s:byOrder/k%d" ((rid - 1) mod keys)
    in
    Dispatch.schedule d ~priority:0 ~resources:[ resource ] rid
  done;
  let waves = ref 0 in
  let rec wave acc =
    match Dispatch.next d with
    | Dispatch.Ready rid -> wave (rid :: acc)
    | Dispatch.Busy | Dispatch.Empty -> acc
  in
  let rec drain () =
    match wave [] with
    | [] -> ()
    | running ->
      incr waves;
      List.iter (Dispatch.complete d) running;
      drain ()
  in
  drain ();
  !waves

let b3 () =
  headline "B3 slice_locking"
    "slice-granularity conflict resources admit more concurrency than queue-level ones";
  table_header
    [ ("txns", 6); ("slice keys", 10); ("queue-res waves", 15);
      ("slice-res waves", 15); ("parallelism", 11) ];
  List.iter
    (fun keys ->
      let txns = scale 200 in
      let q_waves = b3_simulate ~txns ~keys `Queue in
      let s_waves = b3_simulate ~txns ~keys `Slice in
      row
        [
          cell 6 "%d" txns; cell 10 "%d" keys;
          cell 15 "%d" q_waves; cell 15 "%d" s_waves;
          cell 11 "%.1fx" (float q_waves /. float s_waves);
        ])
    [ 2; 10; 50 ];
  register_bechamel "B3/queue-resource-100txn" (fun () ->
      ignore (b3_simulate ~txns:100 ~keys:10 `Queue));
  register_bechamel "B3/slice-resource-100txn" (fun () ->
      ignore (b3_simulate ~txns:100 ~keys:10 `Slice))

(* ------------------------------------------------------------------ *)
(* B4: state as messages vs per-instance contexts with dehydration     *)
(* (§2.1)                                                              *)
(* ------------------------------------------------------------------ *)

let b4_demaq ~instances ~steps =
  let program = {|
    create queue proc kind basic mode persistent
    create queue out kind basic mode persistent
    create property pid as xs:string fixed queue proc value //pid
    create slicing byInstance on pid
    create rule track for byInstance
      if (qs:message()//step = "last") then
        do enqueue <done>
            <pid>{string(qs:slicekey())}</pid>
            <steps>{count(qs:slice())}</steps>
          </done> into out
  |} in
  let srv = S.deploy program in
  secs (fun () ->
      for s = 1 to steps do
        for i = 1 to instances do
          let step = if s = steps then "last" else string_of_int s in
          ignore
            (S.inject srv ~queue:"proc"
               (Demaq.xml
                  (Printf.sprintf "<m><pid>p%d</pid><step>%s</step><data>%s</data></m>" i
                     step (String.make 40 'x'))))
        done;
        ignore (S.run srv)
      done)

let b4_context ~instances ~steps ~dehydrate =
  let correlate msg = Tree.tree_string_value (Option.get (Tree.find_child msg "pid")) in
  let step ~context ~msg =
    (* append the message into the monolithic context, BPEL-variable style *)
    let children =
      match context with Tree.Element e -> e.Tree.children | _ -> []
    in
    let context' =
      Tree.Element
        { name = Demaq.Xml.Name.make "context"; attrs = []; children = children @ [ msg ] }
    in
    let outputs =
      match Tree.find_child msg "step" with
      | Some s when Tree.tree_string_value s = "last" ->
        [ Tree.elem "done" [ Tree.text (string_of_int (List.length children + 1)) ] ]
      | _ -> []
    in
    (context', outputs)
  in
  let engine = Ctx.create ~dehydrate ~correlate ~step () in
  secs (fun () ->
      for s = 1 to steps do
        for i = 1 to instances do
          let stepname = if s = steps then "last" else string_of_int s in
          ignore
            (Ctx.deliver engine
               (Demaq.xml
                  (Printf.sprintf "<m><pid>p%d</pid><step>%s</step><data>%s</data></m>" i
                     stepname (String.make 40 'x'))))
        done
      done)

let b4 () =
  headline "B4 state_as_messages"
    "queues-as-state vs BPEL-style instance contexts with a dehydration store";
  table_header
    [ ("instances", 9); ("steps", 6); ("demaq ms", 9); ("contexts ms", 11);
      ("dehydrated ms", 13) ];
  List.iter
    (fun steps ->
      let instances = scale 50 in
      let t_demaq = b4_demaq ~instances ~steps in
      let t_live = b4_context ~instances ~steps ~dehydrate:false in
      let t_dehyd = b4_context ~instances ~steps ~dehydrate:true in
      row
        [
          cell 9 "%d" instances; cell 6 "%d" steps;
          cell 9 "%.1f" (t_demaq *. 1e3);
          cell 11 "%.1f" (t_live *. 1e3);
          cell 13 "%.1f" (t_dehyd *. 1e3);
        ])
    [ 2; 8; 24 ];
  register_bechamel "B4/demaq-10x4" (fun () -> ignore (b4_demaq ~instances:10 ~steps:4));
  register_bechamel "B4/dehydration-10x4" (fun () ->
      ignore (b4_context ~instances:10 ~steps:4 ~dehydrate:true))

(* ------------------------------------------------------------------ *)
(* B5: decoupled retention GC vs eager per-message cleanup (§2.3.3)    *)
(* ------------------------------------------------------------------ *)

let b5_program = {|
  create queue in kind basic mode persistent
  create queue out kind basic mode persistent
  create rule fwd for in if (//m) then do enqueue <ack/> into out
|}

let b5_run ~messages ~gc_every =
  let cfg = { S.default_config with S.gc_every } in
  let srv = S.deploy ~config:cfg b5_program in
  for i = 1 to messages do
    ignore (S.inject srv ~queue:"in" (Demaq.xml (Printf.sprintf "<m n='%d'/>" i)))
  done;
  let t = secs (fun () -> ignore (S.run srv)) in
  let t_gc = secs (fun () -> ignore (S.gc srv)) in
  (t, t_gc)

let b5 () =
  headline "B5 retention_gc"
    "deferred, decoupled garbage collection vs eager per-message cleanup";
  table_header
    [ ("messages", 9); ("eager total ms", 14); ("deferred proc ms", 16);
      ("deferred gc ms", 14); ("speedup", 8) ];
  List.iter
    (fun messages ->
      let t_eager, _ = b5_run ~messages ~gc_every:1 in
      let t_def, t_def_gc = b5_run ~messages ~gc_every:0 in
      row
        [
          cell 9 "%d" messages;
          cell 14 "%.1f" (t_eager *. 1e3);
          cell 16 "%.1f" (t_def *. 1e3);
          cell 14 "%.1f" (t_def_gc *. 1e3);
          cell 8 "%.1fx" (t_eager /. (t_def +. t_def_gc));
        ])
    [ scale 200; scale 800; scale 2000 ];
  register_bechamel "B5/eager-gc-100msgs" (fun () ->
      ignore (b5_run ~messages:100 ~gc_every:1));
  register_bechamel "B5/deferred-gc-100msgs" (fun () ->
      ignore (b5_run ~messages:100 ~gc_every:0))

(* ------------------------------------------------------------------ *)
(* B6: append-only logging without deletion records (§4.1)             *)
(* ------------------------------------------------------------------ *)

let b6_dir tag =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-bench-b6-%s-%d" tag (Unix.getpid ())) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let b6_run ~messages ~log_deletions =
  let dir = b6_dir (if log_deletions then "logged" else "unlogged") in
  let cfg = Store.durable_config ~sync:Wal.Sync_never ~log_deletions dir in
  let st = Store.open_store cfg in
  (* insert, process and retire every message: retirement is what either
     hits the log (mode A) or is left to be re-derived (mode B) *)
  let txn = Store.begin_txn st in
  let rids =
    List.init messages (fun i ->
        Store.insert txn ~queue:"q"
          ~payload:(Printf.sprintf "<m n='%d'>%s</m>" i (String.make 64 'y'))
          ~extra:"" ~enqueued_at:i ~durable:true)
  in
  Store.commit txn;
  List.iter
    (fun rid ->
      let txn = Store.begin_txn st in
      Store.mark_processed txn rid;
      Store.delete txn rid;
      Store.commit txn)
    rids;
  let stats = Store.stats st in
  let wal_bytes = stats.Store.wal_bytes in
  let wal_syncs = stats.Store.wal_syncs in
  Store.close st;
  let t_recover = secs (fun () -> Store.close (Store.open_store cfg)) in
  (wal_bytes, wal_syncs, t_recover)

let b6 () =
  headline "B6 recovery"
    "not logging deletions (retention is re-derived) shrinks the log (§4.1)";
  table_header
    [ ("messages", 9); ("log KB (deletes logged)", 23);
      ("log KB (re-derived)", 19); ("delta KB", 9); ("syncs A/B", 9);
      ("recover ms A", 12); ("recover ms B", 12) ];
  List.iter
    (fun messages ->
      let bytes_a, syncs_a, rec_a = b6_run ~messages ~log_deletions:true in
      let bytes_b, syncs_b, rec_b = b6_run ~messages ~log_deletions:false in
      row
        [
          cell 9 "%d" messages;
          cell 23 "%.1f" (float bytes_a /. 1024.);
          cell 19 "%.1f" (float bytes_b /. 1024.);
          cell 9 "%.1f" (float (bytes_a - bytes_b) /. 1024.);
          cell 9 "%d/%d" syncs_a syncs_b;
          cell 12 "%.2f" (rec_a *. 1e3);
          cell 12 "%.2f" (rec_b *. 1e3);
        ];
      json_add
        (Printf.sprintf
           "{\"bench\": \"B6\", \"messages\": %d, \"wal_bytes_logged\": %d, \"wal_bytes_rederived\": %d, \"wal_syncs_logged\": %d, \"wal_syncs_rederived\": %d}"
           messages bytes_a bytes_b syncs_a syncs_b))
    [ scale 500; scale 2000 ];
  register_bechamel "B6/retire-with-delete-log" (fun () ->
      ignore (b6_run ~messages:50 ~log_deletions:true));
  register_bechamel "B6/retire-rederived" (fun () ->
      ignore (b6_run ~messages:50 ~log_deletions:false))

(* ------------------------------------------------------------------ *)
(* B7: priority scheduling vs FIFO (§4.4.2)                            *)
(* ------------------------------------------------------------------ *)

let b7_program priority = Printf.sprintf {|
  create queue bulk kind basic mode persistent priority 0
  create queue urgent kind basic mode persistent priority %d
  create queue out kind basic mode persistent
  create rule rb for bulk if (//m) then do enqueue <b/> into out
  create rule ru for urgent if (//m) then do enqueue <u/> into out
|} priority

let b7_delay ~backlog ~priority =
  let srv = S.deploy (b7_program priority) in
  for i = 1 to backlog do
    ignore (S.inject srv ~queue:"bulk" (Demaq.xml (Printf.sprintf "<m n='%d'/>" i)))
  done;
  ignore (S.inject srv ~queue:"urgent" (Demaq.xml "<m/>"));
  (* count messages processed before the urgent one *)
  let position = ref 0 in
  let found = ref false in
  while not !found do
    match S.step srv with
    | S.Processed m ->
      if m.Message.queue = "urgent" then found := true else incr position
    | S.Idle -> found := true
  done;
  !position

let b7 () =
  headline "B7 scheduler_priority"
    "priority scheduling lets urgent messages overtake an older backlog";
  table_header
    [ ("backlog", 8); ("FIFO delay (msgs)", 17); ("priority delay (msgs)", 21) ];
  List.iter
    (fun backlog ->
      let fifo = b7_delay ~backlog ~priority:0 in
      let prio = b7_delay ~backlog ~priority:10 in
      row [ cell 8 "%d" backlog; cell 17 "%d" fifo; cell 21 "%d" prio ])
    [ scale 100; scale 1000; scale 4000 ];
  register_bechamel "B7/priority-urgent-under-backlog" (fun () ->
      ignore (b7_delay ~backlog:100 ~priority:10))

(* ------------------------------------------------------------------ *)
(* B8: property precomputation at enqueue vs recomputing on access     *)
(* (§2.2 / §4.4.1 fixed-property inlining)                             *)
(* ------------------------------------------------------------------ *)

let b8_program = {|
  create queue in kind basic mode persistent
  create queue out kind basic mode persistent
  create property oid as xs:string fixed queue in value //deep//orderID
  create rule classify for in
    if (qs:property("oid") and
        qs:property("oid") != "none" and
        string-length(qs:property("oid")) > 2) then
      do enqueue <routed>{qs:property("oid")}</routed> into out
|}

let b8_payload depth i =
  let rec nest d inner = if d = 0 then inner else "<deep>" ^ nest (d - 1) inner ^ "</deep>" in
  Printf.sprintf "<m>%s<pad>%s</pad></m>"
    (nest depth (Printf.sprintf "<orderID>ord-%d</orderID>" i))
    (String.make 200 'z')

let b8_run ~messages ~depth ~optimize =
  let cfg = { S.default_config with S.optimize } in
  let srv = S.deploy ~config:cfg b8_program in
  for i = 1 to messages do
    ignore (S.inject srv ~queue:"in" (Demaq.xml (b8_payload depth i)))
  done;
  secs (fun () -> ignore (S.run srv))

let b8 () =
  headline "B8 fixed_property_inlining"
    "stored property lookup vs inlining the value expression (recompute per access)";
  table_header
    [ ("messages", 9); ("nesting", 8); ("lookup ms", 10); ("inlined ms", 11);
      ("inline cost", 11) ];
  List.iter
    (fun depth ->
      let messages = scale 300 in
      let t_lookup = b8_run ~messages ~depth ~optimize:false in
      let t_inline = b8_run ~messages ~depth ~optimize:true in
      row
        [
          cell 9 "%d" messages; cell 8 "%d" depth;
          cell 10 "%.1f" (t_lookup *. 1e3);
          cell 11 "%.1f" (t_inline *. 1e3);
          cell 11 "%.2fx" (t_inline /. t_lookup);
        ])
    [ 1; 8; 24 ];
  register_bechamel "B8/stored-property-lookup" (fun () ->
      ignore (b8_run ~messages:30 ~depth:8 ~optimize:false));
  register_bechamel "B8/inlined-property-recompute" (fun () ->
      ignore (b8_run ~messages:30 ~depth:8 ~optimize:true))

(* ------------------------------------------------------------------ *)
(* B9: end-to-end procurement throughput (§1/§4 viability)             *)
(* ------------------------------------------------------------------ *)

let b9_program = {|
create queue crm kind basic mode persistent
create queue finance kind basic mode persistent
create queue legal kind basic mode persistent
create queue supplier kind outgoingGateway mode persistent
create queue supplierIn kind incomingGateway mode persistent
create queue customer kind outgoingGateway mode persistent
create property requestID as xs:string fixed
  queue crm, customer value //requestID
  queue supplierIn value //requestID
create slicing requestMsgs on requestID
create rule forkChecks for crm
  if (//offerRequest) then
    let $rid := string(//offerRequest/requestID)
    return (
      do enqueue <creditCheck><requestID>{$rid}</requestID></creditCheck> into finance,
      do enqueue <restrictionCheck><requestID>{$rid}</requestID></restrictionCheck> into legal,
      do enqueue <capacityRequest><requestID>{$rid}</requestID></capacityRequest> into supplier
    )
create rule credit for finance
  if (//creditCheck) then
    do enqueue <customerInfoResult><requestID>{string(//requestID)}</requestID><accept/></customerInfoResult> into crm
create rule legalCheck for legal
  if (//restrictionCheck) then
    do enqueue <restrictionsResult><requestID>{string(//requestID)}</requestID></restrictionsResult> into crm
create rule capacity for supplierIn
  if (//capacityResult) then
    do enqueue <capacityResult><requestID>{string(//requestID)}</requestID><accept/></capacityResult> into crm
create rule joinOrder for requestMsgs
  if (qs:slice()[/customerInfoResult] and qs:slice()[/restrictionsResult] and
      qs:slice()[/capacityResult] and not(qs:slice()[/offer])) then
    do enqueue <offer><requestID>{string(qs:slicekey())}</requestID></offer> into customer
create rule cleanup for requestMsgs
  if (qs:slice()[/offer]) then do reset
|}

let b9_world () =
  let net = Net.create () in
  Net.register net ~name:"supplier" ~handler:(fun ~sender:_ body ->
      match Tree.find_child body "requestID" with
      | Some rid -> [ Tree.elem "capacityResult" [ rid ] ]
      | None -> []);
  Net.register net ~name:"customer" ~handler:(fun ~sender:_ _ -> []);
  let srv = S.deploy ~network:net b9_program in
  S.bind_gateway srv ~queue:"supplier" ~endpoint:"supplier" ~replies_to:"supplierIn" ();
  S.bind_gateway srv ~queue:"customer" ~endpoint:"customer" ();
  srv

let b9_run requests =
  let srv = b9_world () in
  let t =
    secs (fun () ->
        for i = 1 to requests do
          ignore
            (S.inject srv ~queue:"crm"
               (Demaq.xml
                  (Printf.sprintf
                     "<offerRequest><requestID>r%d</requestID><customerID>c%d</customerID></offerRequest>"
                     i (i mod 20))));
          ignore (S.run srv)
        done;
        ignore (S.gc srv))
  in
  let st = S.stats srv in
  (t, st.S.processed)

let b9 () =
  headline "B9 throughput_e2e"
    "full procurement pipeline (fork, gateways, slicing join, reset, GC)";
  table_header
    [ ("requests", 9); ("messages", 9); ("total s", 8); ("requests/s", 11);
      ("messages/s", 11) ];
  List.iter
    (fun requests ->
      let t, processed = b9_run requests in
      row
        [
          cell 9 "%d" requests; cell 9 "%d" processed;
          cell 8 "%.2f" t;
          cell 11 "%.0f" (float requests /. t);
          cell 11 "%.0f" (float processed /. t);
        ])
    [ scale 25; scale 100; scale 400 ];
  register_bechamel "B9/procurement-request" (fun () -> ignore (b9_run 3))

(* ------------------------------------------------------------------ *)
(* B10: transient vs persistent queues (§2.1.1)                        *)
(* ------------------------------------------------------------------ *)

let b10_dir tag =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-bench-b10-%s-%d" tag (Unix.getpid ())) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let b10_run ~messages mode =
  let st, durable =
    match mode with
    | `Transient -> (Store.open_store Store.default_config, false)
    | `Nosync ->
      (Store.open_store (Store.durable_config ~sync:Wal.Sync_never (b10_dir "nosync")), true)
    | `Fsync ->
      (Store.open_store (Store.durable_config ~sync:Wal.Sync_always (b10_dir "fsync")), true)
  in
  let payload = "<m>" ^ String.make 128 'p' ^ "</m>" in
  let t =
    secs (fun () ->
        for i = 1 to messages do
          let txn = Store.begin_txn st in
          ignore (Store.insert txn ~queue:"q" ~payload ~extra:"" ~enqueued_at:i ~durable);
          Store.commit txn
        done)
  in
  Store.close st;
  t

let b10 () =
  headline "B10 transient_vs_persistent"
    "transient queues trade durability for enqueue speed (§2.1.1)";
  table_header
    [ ("messages", 9); ("transient msg/s", 15); ("wal msg/s", 12);
      ("wal+fsync msg/s", 15) ];
  List.iter
    (fun messages ->
      let fsync_messages = min messages 300 in
      let t_tr = b10_run ~messages `Transient in
      let t_ns = b10_run ~messages `Nosync in
      let t_fs = b10_run ~messages:fsync_messages `Fsync in
      row
        [
          cell 9 "%d" messages;
          cell 15 "%.0f" (float messages /. t_tr);
          cell 12 "%.0f" (float messages /. t_ns);
          cell 15 "%.0f" (float fsync_messages /. t_fs);
        ])
    [ scale 2000; scale 10000 ];
  register_bechamel "B10/transient-enqueue" (fun () ->
      ignore (b10_run ~messages:50 `Transient));
  register_bechamel "B10/persistent-enqueue" (fun () ->
      ignore (b10_run ~messages:50 `Nosync))

(* ------------------------------------------------------------------ *)
(* B11: group commit — fsync amortized over a batch (§4.1; Gray,       *)
(* "Queues Are Databases")                                             *)
(* ------------------------------------------------------------------ *)

let b11_dir tag =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-bench-b11-%s-%d" tag (Unix.getpid ())) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

(* One durable single-insert transaction per message — the §3.1 shape —
   with the WAL either syncing every commit or amortizing the fsync over
   [batch] commits via the auto-barrier, plus a final hardening barrier. *)
let b11_store_run ~messages ~batch =
  let sync =
    if batch <= 1 then Wal.Sync_always
    else Wal.Sync_batch { max_records = batch; max_bytes = 0 }
  in
  let st =
    Store.open_store (Store.durable_config ~sync (b11_dir (string_of_int batch)))
  in
  let payload = "<m>" ^ String.make 128 'p' ^ "</m>" in
  let t =
    secs (fun () ->
        for i = 1 to messages do
          let txn = Store.begin_txn st in
          ignore (Store.insert txn ~queue:"q" ~payload ~extra:"" ~enqueued_at:i ~durable:true);
          Store.commit txn
        done;
        (* harden the tail: the run is not durable until the last barrier *)
        ignore (Store.barrier st))
  in
  let syncs = (Store.stats st).Store.wal_syncs in
  Store.close st;
  (t, syncs)

(* End-to-end: the server's batched run loop over a durable store, one
   durability barrier per batch, transmissions deferred past it. *)
let b11_engine_run ~messages ~batch =
  let program = {|
    create queue in kind basic mode persistent
    create queue out kind basic mode persistent
    create rule fwd for in if (//m) then do enqueue <ack/> into out
  |} in
  let group = batch > 1 in
  let sync =
    if group then Wal.Sync_batch { max_records = batch; max_bytes = 0 }
    else Wal.Sync_always
  in
  let store = Store.open_store (Store.durable_config ~sync (b11_dir (Printf.sprintf "e2e-%d" batch))) in
  let cfg = { S.default_config with S.batch_size = batch; group_commit = group } in
  let srv = S.deploy ~config:cfg ~store program in
  for i = 1 to messages do
    ignore (S.inject srv ~queue:"in" (Demaq.xml (Printf.sprintf "<m n='%d'/>" i)))
  done;
  let t = secs (fun () -> ignore (S.run srv)) in
  let st = S.stats srv in
  Store.close store;
  (t, st.S.syncs_per_message, st.S.batch_fill)

let b11 () =
  headline "B11 group_commit"
    "group commit: one fsync per batch of commits instead of one per message";
  table_header
    [ ("batch", 6); ("messages", 9); ("msg/s", 10); ("fsyncs", 7);
      ("syncs/msg", 10); ("speedup", 8) ];
  let messages = scale 1000 in
  let t_base = ref 0. in
  let results =
    List.map
      (fun batch ->
        let t, syncs = b11_store_run ~messages ~batch in
        if batch = 1 then t_base := t;
        let speedup = !t_base /. t in
        row
          [
            cell 6 "%d" batch; cell 9 "%d" messages;
            cell 10 "%.0f" (float messages /. t);
            cell 7 "%d" syncs;
            cell 10 "%.3f" (float syncs /. float messages);
            cell 8 "%.1fx" speedup;
          ];
        Printf.sprintf
          "{\"batch\": %d, \"messages\": %d, \"msg_per_s\": %.0f, \"wal_syncs\": %d, \"speedup\": %.2f}"
          batch messages (float messages /. t) syncs speedup)
      [ 1; 8; 32; 128; 256 ]
  in
  json_add
    (Printf.sprintf "{\"bench\": \"B11\", \"mode\": \"store\", \"results\": [%s]}"
       (String.concat ", " results));
  Printf.printf "\nend-to-end (batched run loop, barrier before transmissions):\n";
  table_header
    [ ("batch", 6); ("messages", 9); ("msg/s", 10); ("syncs/msg", 10);
      ("batch fill", 10) ];
  let e2e_messages = scale 500 in
  let e2e =
    List.map
      (fun batch ->
        let t, spm, fill = b11_engine_run ~messages:e2e_messages ~batch in
        row
          [
            cell 6 "%d" batch; cell 9 "%d" e2e_messages;
            cell 10 "%.0f" (float e2e_messages /. t);
            cell 10 "%.3f" spm;
            cell 10 "%.1f" fill;
          ];
        Printf.sprintf
          "{\"batch\": %d, \"messages\": %d, \"msg_per_s\": %.0f, \"syncs_per_message\": %.3f, \"batch_fill\": %.1f}"
          batch e2e_messages (float e2e_messages /. t) spm fill)
      [ 1; 32; 128 ]
  in
  json_add
    (Printf.sprintf "{\"bench\": \"B11\", \"mode\": \"engine\", \"results\": [%s]}"
       (String.concat ", " e2e));
  register_bechamel "B11/sync-always-20msgs" (fun () ->
      ignore (b11_store_run ~messages:20 ~batch:1));
  register_bechamel "B11/group-commit-20msgs" (fun () ->
      ignore (b11_store_run ~messages:20 ~batch:32))

(* ------------------------------------------------------------------ *)
(* B12: worker-pool scaling (PR 3; Gray's server pool over one queue   *)
(* database)                                                           *)
(* ------------------------------------------------------------------ *)

let b12_dir tag =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-bench-b12-%s-%d" tag (Unix.getpid ())) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

(* [queues] independent input queues, one CPU-heavy rule each. Distinct
   queues means distinct conflict resources, so the dispatcher can hand
   the backlog to distinct workers; [sum(1 to N)] forces real evaluator
   work per message (the workload the pool is supposed to parallelize —
   WAL appends stay serialized behind the single-writer mutex). *)
let b12_program queues =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "create queue out kind basic mode persistent\n";
  for i = 1 to queues do
    Buffer.add_string buf
      (Printf.sprintf "create queue in%d kind basic mode persistent\n" i);
    Buffer.add_string buf
      (Printf.sprintf
         "create rule crunch%d for in%d if (sum(1 to 20000) > string-length(string(//n))) then do enqueue <done q=\"%d\"/> into out\n"
         i i i)
  done;
  Buffer.contents buf

let b12_run ~messages ~queues ~workers =
  let dir = b12_dir (Printf.sprintf "w%d" workers) in
  let store =
    Store.open_store
      (Store.durable_config
         ~sync:(Wal.Sync_batch { max_records = 1000; max_bytes = 0 })
         dir)
  in
  let cfg =
    { S.default_config with S.batch_size = 32; group_commit = true; workers }
  in
  let srv = S.deploy ~config:cfg ~store (b12_program queues) in
  for i = 1 to messages do
    ignore
      (S.inject srv
         ~queue:(Printf.sprintf "in%d" ((i mod queues) + 1))
         (Demaq.xml (Printf.sprintf "<m><n>%d</n></m>" i)))
  done;
  let t = secs (fun () -> ignore (S.run srv)) in
  let produced = List.length (S.queue_contents srv "out") in
  Store.close store;
  if produced <> messages then
    failwith
      (Printf.sprintf "B12: %d messages in, %d outputs out" messages produced);
  t

let b12 () =
  headline "B12 worker_scaling"
    "worker-pool scaling: conflict-free queues drained by 1..8 domains";
  Printf.printf "(%d hardware cores available to this process)\n"
    (Domain.recommended_domain_count ());
  table_header
    [ ("workers", 8); ("queues", 7); ("messages", 9); ("msg/s", 10);
      ("speedup", 8) ];
  let messages = scale 400 and queues = 8 in
  let t_base = ref 0. in
  let results =
    List.map
      (fun workers ->
        let t = b12_run ~messages ~queues ~workers in
        if workers = 1 then t_base := t;
        let speedup = !t_base /. t in
        row
          [
            cell 8 "%d" workers; cell 7 "%d" queues; cell 9 "%d" messages;
            cell 10 "%.0f" (float messages /. t);
            cell 8 "%.2fx" speedup;
          ];
        Printf.sprintf
          "{\"workers\": %d, \"messages\": %d, \"msg_per_s\": %.0f, \"speedup\": %.2f}"
          workers messages (float messages /. t) speedup)
      [ 1; 2; 4; 8 ]
  in
  json_add
    (Printf.sprintf
       "{\"bench\": \"B12\", \"queues\": %d, \"cores\": %d, \"results\": [%s]}"
       queues
       (Domain.recommended_domain_count ())
       (String.concat ", " results));
  register_bechamel "B12/pool-4workers-16msgs" (fun () ->
      ignore (b12_run ~messages:16 ~queues:4 ~workers:4))

(* ------------------------------------------------------------------ *)
(* B13: observability overhead (PR 4) — counters are always live, so   *)
(* the measurable cost is the timing path (clock reads + histogram     *)
(* observations) and span recording on top of it                       *)
(* ------------------------------------------------------------------ *)

let b13_dir tag =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-bench-b13-%s-%d" tag (Unix.getpid ())) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

(* The B11 end-to-end engine config (batch 32, group commit, durable
   Sync_batch store): observability overhead is only meaningful against
   the configuration the engine actually ships with. *)
let b13_run ~messages ~mode =
  let program = {|
    create queue in kind basic mode persistent
    create queue out kind basic mode persistent
    create rule fwd for in if (//m) then do enqueue <ack/> into out
  |} in
  let metrics, trace_capacity, tag =
    match mode with
    | `Off -> (false, 0, "off")
    | `Metrics -> (true, 0, "metrics")
    | `Tracing -> (true, 1024, "tracing")
  in
  let store =
    Store.open_store
      (Store.durable_config
         ~sync:(Wal.Sync_batch { max_records = 256; max_bytes = 0 })
         (b13_dir tag))
  in
  (* batch 256 (the top of B11's sweep): few enough fsyncs that the
     engine's own per-message cost — where the modes differ — is the
     bulk of the run, not ext4 journal latency *)
  let cfg =
    { S.default_config with
      S.batch_size = 256; group_commit = true; metrics; trace_capacity }
  in
  let srv = S.deploy ~config:cfg ~store program in
  for i = 1 to messages do
    ignore (S.inject srv ~queue:"in" (Demaq.xml (Printf.sprintf "<m n='%d'/>" i)))
  done;
  (* a major slice landing inside one run and not another would swamp
     the few-percent effect under measurement *)
  Gc.full_major ();
  let t = secs (fun () -> ignore (S.run srv)) in
  Store.close store;
  t

let b13 () =
  headline "B13 obs_overhead"
    "observability overhead: metrics timing and span recording vs the bare engine";
  table_header
    [ ("mode", 10); ("messages", 9); ("msg/s", 10); ("overhead", 9) ];
  let messages = scale 8000 in
  (* the box is 1 core, shared, and its interference only ever ADDS
     time, so the truth is each mode's floor: interleave the modes
     (order rotated per round, so drift hits all alike) and compare low
     quantiles — the 2nd-smallest keeps the floor estimate while
     shrugging off a single lucky outlier *)
  let modes = [ `Off; `Metrics; `Tracing ] in
  let n_modes = List.length modes in
  let reps = if !quick then 1 else 21 in
  let rounds =
    List.init reps (fun r ->
        let times = Array.make n_modes 0. in
        List.iter
          (fun i -> times.(i) <- b13_run ~messages ~mode:(List.nth modes i))
          (List.init n_modes (fun k -> (k + r) mod n_modes));
        times)
  in
  let floor_of i =
    let a = Array.of_list (List.map (fun r -> r.(i)) rounds) in
    Array.sort compare a;
    a.(min 1 (Array.length a - 1))
  in
  let t_off = floor_of 0 in
  let results =
    List.mapi
      (fun i mode ->
        let name =
          match mode with
          | `Off -> "off" | `Metrics -> "metrics" | `Tracing -> "tracing"
        in
        let t = floor_of i in
        let overhead = (t /. t_off -. 1.) *. 100. in
        row
          [
            cell 10 "%s" name; cell 9 "%d" messages;
            cell 10 "%.0f" (float messages /. t);
            cell 9 "%+.1f%%" overhead;
          ];
        Printf.sprintf
          "{\"mode\": \"%s\", \"messages\": %d, \"msg_per_s\": %.0f, \"overhead_pct\": %.1f}"
          name messages (float messages /. t) overhead)
      modes
  in
  json_add
    (Printf.sprintf "{\"bench\": \"B13\", \"results\": [%s]}"
       (String.concat ", " results));
  register_bechamel "B13/metrics-on-20msgs" (fun () ->
      ignore (b13_run ~messages:20 ~mode:`Metrics))

(* ------------------------------------------------------------------ *)
(* B15: binary XML hot path (PR 7) — compact encoded payloads in the   *)
(* store, streaming admission from the synopsis, lazy tree decode.     *)
(* ROADMAP target: the Natix-style binary representation is what makes *)
(* the 1M msg/s in-memory drain rate plausible; this bench tracks the  *)
(* codec gap (decode vs re-parse) and the end-to-end effect on a       *)
(* low-match-rate restart drain.                                       *)
(* ------------------------------------------------------------------ *)

module Bxml = Demaq.Xml.Bxml
module Xml_serializer = Demaq.Xml.Serializer
module Xml_parser = Demaq.Xml.Parser

(* A representative ~2 KB order document: nested structure, attributes,
   repeated line items — the B1-B10 workload shape, not a toy. *)
let b15_doc =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "<order><orderID>ord-4711</orderID><customer><name>ACME Corp</name>\
     <tier>gold</tier></customer><items>";
  for i = 1 to 12 do
    Buffer.add_string buf
      (Printf.sprintf
         "<item sku=\"SKU-%04d\" qty=\"%d\"><desc>industrial glue \
          cartridge</desc><price>19.95</price></item>"
         i ((i mod 5) + 1))
  done;
  Buffer.add_string buf
    "</items><shipTo><street>1 Infinite Loop</street><city>Walldorf</city>\
     </shipTo></order>";
  Buffer.contents buf

(* Codec throughput must be comparable whether B15 runs standalone or
   after 14 other benches have dirtied the major heap: collect the heap
   before every sample and keep the best of several, so the number is
   each operation's clean floor rather than a snapshot of GC luck. The
   iteration count is auto-calibrated per mode (~0.2 s per sample). *)
let b15_ops f =
  ignore (f ());
  (* warm the scratch arenas before the clock starts *)
  let t1 = secs (fun () -> ignore (f ())) in
  let n = max 100 (min 200_000 (int_of_float (0.2 /. Float.max 1e-7 t1))) in
  let n = if !quick then max 50 (n / 5) else n in
  let reps = if !quick then 2 else 5 in
  let best = ref 0. in
  for _ = 1 to reps do
    Gc.full_major ();
    let ops =
      float n /. secs (fun () -> for _ = 1 to n do ignore (f ()) done)
    in
    if ops > !best then best := ops
  done;
  !best

let b15_micro () =
  let tree = Xml_parser.parse b15_doc in
  let bin = Bxml.encode tree in
  Printf.printf "payload bytes: text %d, binary %d (%.0f%% of text)\n\n"
    (String.length b15_doc) (String.length bin)
    (100. *. float (String.length bin) /. float (String.length b15_doc));
  let modes =
    [ ("text_parse", fun () -> ignore (Xml_parser.parse b15_doc));
      ("bxml_decode", fun () -> ignore (Bxml.decode bin));
      ("bxml_encode", fun () -> ignore (Bxml.encode tree));
      ("text_serialize", fun () -> ignore (Xml_serializer.to_string tree));
      ("synopsis_scan", fun () -> ignore (Bxml.synopsis bin)) ]
  in
  table_header [ ("mode", 15); ("ops/s", 12); ("us/op", 8); ("vs parse", 9) ];
  let ref_ops = ref 0. in
  let results =
    List.map
      (fun (name, f) ->
        let ops = b15_ops f in
        if !ref_ops = 0. then ref_ops := ops;
        row
          [
            cell 15 "%s" name;
            cell 12 "%.0f" ops;
            cell 8 "%.2f" (1e6 /. ops);
            cell 9 "%.1fx" (ops /. !ref_ops);
          ];
        Printf.sprintf "{\"mode\": \"%s\", \"msg_per_s\": %.0f, \"speedup_vs_parse\": %.2f}"
          name ops (ops /. !ref_ops))
      modes
  in
  json_add
    (Printf.sprintf
       "{\"bench\": \"B15\", \"doc_bytes\": %d, \"binary_bytes\": %d, \"results\": [%s]}"
       (String.length b15_doc) (String.length bin)
       (String.concat ", " results))

let b15_dir tag =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-bench-b15-%s-%d" tag (Unix.getpid ())) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

(* 16 rules whose conditions each require a distinct element name the
   bulk of the traffic does not contain: the §4.4.1 prefilter decides
   admission from the payload synopsis, so a non-matching message should
   drain without ever materializing its tree. One message in 32 carries
   [<recall/>] and exercises the full decode + evaluate path. *)
let b15_program =
  let rules =
    List.init 16 (fun i ->
        let elem = if i = 7 then "recall" else Printf.sprintf "audit%02d" i in
        Printf.sprintf
          "create rule r%02d for in if (//%s) then do enqueue <hit n=\"%d\"/> into out"
          i elem i)
  in
  "create queue in kind basic mode persistent\n\
   create queue out kind basic mode persistent\n"
  ^ String.concat "\n" rules

(* Restart drain: enqueue durably, close, reopen — every message is then
   faulted back in from the store in the *stored* representation, which
   is exactly where the text-vs-binary choice lives. *)
let b15_e2e_run ~messages ~format =
  let tag = match format with `Text -> "text" | `Binary -> "binary" in
  let dir = b15_dir ("e2e-" ^ tag) in
  (* Sync_never: B11 owns fsync behaviour; here the fsyncs would only
     add jitter to the short binary drain and blur the decode-path
     difference under measurement *)
  let sync = Wal.Sync_never in
  let cfg = { S.default_config with S.batch_size = 256 } in
  let store = Store.open_store (Store.durable_config ~sync dir) in
  let srv = S.deploy ~config:cfg ~store ~payload_format:format b15_program in
  for i = 1 to messages do
    let extra = if i mod 32 = 0 then "<recall/>" else "" in
    let doc =
      "<order>" ^ extra ^ String.sub b15_doc 7 (String.length b15_doc - 7)
    in
    ignore (S.inject srv ~queue:"in" (Demaq.xml doc))
  done;
  Store.close store;
  (* restart: recover the backlog from the WAL and drain it *)
  let store = Store.open_store (Store.durable_config ~sync dir) in
  let srv = S.deploy ~config:cfg ~store ~payload_format:format b15_program in
  Gc.full_major ();
  let t = secs (fun () -> ignore (S.run srv)) in
  let processed = (S.stats srv).S.processed in
  let scans, decodes, decoded_bytes = S.admission_stats srv in
  Store.close store;
  (t, processed, scans, decodes, decoded_bytes)

let b15_e2e () =
  Printf.printf
    "\nend-to-end restart drain (16 low-match rules, 1/32 messages match):\n";
  table_header
    [ ("format", 7); ("msg/s", 10); ("scans", 7); ("decodes", 8);
      ("decoded MB", 10); ("speedup", 8) ];
  let messages = scale 6000 in
  (* even --quick needs the floor estimate: a single drain sample's
     ratio swings far too much to gate on *)
  let reps = if !quick then 3 else 5 in
  let formats = [ `Text; `Binary ] in
  (* shared 1-core box: interleave the formats and take each one's
     2nd-smallest time (the B13 floor estimate) *)
  let rounds =
    List.init reps (fun r ->
        let times = Array.make 2 (0., 0, 0, 0, 0) in
        List.iter
          (fun i ->
            times.(i) <- b15_e2e_run ~messages ~format:(List.nth formats i))
          (List.init 2 (fun k -> (k + r) mod 2));
        times)
  in
  let floor_of i =
    let a = Array.of_list (List.map (fun r -> r.(i)) rounds) in
    Array.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b) a;
    a.(min 1 (Array.length a - 1))
  in
  let t_text, _, _, _, _ = floor_of 0 in
  let results =
    List.mapi
      (fun i format ->
        let name = match format with `Text -> "text" | `Binary -> "binary" in
        let t, processed, scans, decodes, decoded_bytes = floor_of i in
        row
          [
            cell 7 "%s" name;
            cell 10 "%.0f" (float processed /. t);
            cell 7 "%d" scans;
            cell 8 "%d" decodes;
            cell 10 "%.2f" (float decoded_bytes /. 1e6);
            cell 8 "%.2fx" (t_text /. t);
          ];
        Printf.sprintf
          "{\"mode\": \"%s\", \"messages\": %d, \"msg_per_s\": %.0f, \
           \"admission_scans\": %d, \"trees_decoded\": %d, \
           \"decoded_bytes\": %d}"
          name processed (float processed /. t) scans decodes decoded_bytes)
      formats
  in
  json_add
    (Printf.sprintf "{\"bench\": \"B15e\", \"results\": [%s]}"
       (String.concat ", " results))

let b15 () =
  headline "B15 binary_xml"
    "binary XML hot path: decode vs re-parse, synopsis admission, e2e drain";
  b15_micro ();
  b15_e2e ();
  let tree = Xml_parser.parse b15_doc in
  let bin = Bxml.encode tree in
  register_bechamel "B15/text-parse-2kb" (fun () ->
      ignore (Xml_parser.parse b15_doc));
  register_bechamel "B15/bxml-decode-2kb" (fun () -> ignore (Bxml.decode bin));
  register_bechamel "B15/synopsis-scan-2kb" (fun () ->
      ignore (Bxml.synopsis bin))

(* ------------------------------------------------------------------ *)
(* B16: compile-on-deploy rule plans (PR 8)                            *)
(* ------------------------------------------------------------------ *)

module Compiler = Demaq.Lang.Compiler
module Qdl = Demaq.Lang.Qdl

(* Part 1: the guarded plan vs per-rule interpretation. [rules] rules
   share two guards and one common count-sum subexpression; the compiled
   plan evaluates each guard and the hoisted sum once per message, while
   per-rule interpretation re-evaluates them for every rule. Unlike B2
   (which measures the legacy factored merge on condition-only sharing),
   this measures the full pipeline: guard sharing + CSE hoisting. *)
let b16_program rules =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "create queue in kind basic mode persistent\ncreate queue out kind basic mode persistent\n";
  for i = 1 to rules do
    Buffer.add_string buf
      (Printf.sprintf
         "create rule r%d for in if (//order[seq mod %d = 0][customer != \"nobody\"]) \
          then do enqueue <hit n=\"%d\">{count(//item) + count(//seq) + count(//customer)}</hit> into out\n"
         i ((i mod 2) + 1) i)
  done;
  Buffer.contents buf

let b16_run ~rules ~messages ~merged =
  let cfg = { S.default_config with S.merged_plans = merged; S.workers = 1 } in
  let srv = S.deploy ~config:cfg (b16_program rules) in
  for i = 1 to messages do
    ignore (S.inject srv ~queue:"in" (Demaq.xml (order_payload "k" i)))
  done;
  secs (fun () -> ignore (S.run srv))

(* Part 2: conflict-set width. An [n]-way fanout queue whose rules each
   write a different output queue: under queue-granularity dispatch every
   message conflicts with every other on ["q:in"]; under the compiled
   footprints messages admitted by different rules are disjoint. The
   dispatcher is drained in waves — pop every dispatchable rid before
   completing any — and the wave size is the achievable concurrency. *)
let b16_fanout n =
  "create queue in kind basic mode persistent\n"
  ^ String.concat "\n"
      (List.init n (fun i ->
           Printf.sprintf "create queue o%d kind basic mode persistent" i))
  ^ "\n"
  ^ String.concat "\n"
      (List.init n (fun i ->
           Printf.sprintf
             "create rule r%d for in if (//t%d) then do enqueue <y/> into o%d" i i i))

let b16_width_run ~n ~messages ~granularity =
  let c = Compiler.compile (Qdl.parse_program (b16_fanout n)) in
  let plan = Option.get (Compiler.plan_for c "in") in
  let footprint_res i =
    match snd plan.Compiler.conflicts.(i) with
    | Compiler.Conflict_resources { res; own_queue } ->
      if own_queue then plan.Compiler.queue_resource :: res else res
    | Compiler.Conflict_top -> Compiler.all_queue_resources c
  in
  let d = Dispatch.create () in
  for j = 0 to messages - 1 do
    let resources =
      match granularity with
      | `Queue -> [ plan.Compiler.queue_resource ]
      | `Footprint -> footprint_res (j mod n)
    in
    Dispatch.schedule d ~priority:0 ~resources j
  done;
  let widths = ref [] in
  let rec wave acc =
    match Dispatch.next d with
    | Dispatch.Ready rid -> wave (rid :: acc)
    | Dispatch.Busy | Dispatch.Empty -> acc
  in
  let rec drain () =
    match wave [] with
    | [] -> ()
    | batch ->
      widths := List.length batch :: !widths;
      List.iter (Dispatch.complete d) batch;
      drain ()
  in
  drain ();
  let l = !widths in
  let maxw = List.fold_left max 0 l in
  let avg = float (List.fold_left ( + ) 0 l) /. float (max 1 (List.length l)) in
  (avg, maxw)

let b16 () =
  headline "B16 rule_compilation"
    "compiled guarded plans: shared guards + hoisted CSE vs per-rule; conflict-set width";
  table_header
    [ ("rules", 6); ("messages", 9); ("per-rule msg/s", 15); ("compiled msg/s", 15);
      ("speedup", 8) ];
  let rules = 8 in
  let messages = scale 400 in
  let t_per_rule = b16_run ~rules ~messages ~merged:false in
  let t_merged = b16_run ~rules ~messages ~merged:true in
  row
    [
      cell 6 "%d" rules; cell 9 "%d" messages;
      cell 15 "%.0f" (float messages /. t_per_rule);
      cell 15 "%.0f" (float messages /. t_merged);
      cell 8 "%.2fx" (t_per_rule /. t_merged);
    ];
  json_add
    (Printf.sprintf
       "{\"bench\": \"B16\", \"results\": [{\"mode\": \"per_rule\", \"rules\": %d, \
        \"messages\": %d, \"msg_per_s\": %.0f}, {\"mode\": \"merged\", \"rules\": %d, \
        \"messages\": %d, \"msg_per_s\": %.0f, \"speedup\": %.2f}]}"
       rules messages
       (float messages /. t_per_rule)
       rules messages
       (float messages /. t_merged)
       (t_per_rule /. t_merged));
  Printf.printf "\nconflict-set width (%d-way fanout, dispatcher waves):\n" 8;
  table_header
    [ ("granularity", 11); ("messages", 9); ("avg width", 10); ("max width", 10) ];
  let messages = 256 in
  let width_results =
    List.map
      (fun (name, granularity) ->
        let avg, maxw = b16_width_run ~n:8 ~messages ~granularity in
        row
          [
            cell 11 "%s" name; cell 9 "%d" messages;
            cell 10 "%.2f" avg; cell 10 "%d" maxw;
          ];
        Printf.sprintf
          "{\"granularity\": \"%s\", \"messages\": %d, \"avg_width\": %.2f, \
           \"max_width\": %d}"
          name messages avg maxw)
      [ ("queue", `Queue); ("footprint", `Footprint) ]
  in
  (* no msg_per_s on purpose: width is a shape, not a throughput —
     recorded for EXPERIMENTS.md, never gated by compare.py *)
  json_add
    (Printf.sprintf "{\"bench\": \"B16w\", \"results\": [%s]}"
       (String.concat ", " width_results));
  register_bechamel "B16/per-rule-8rules-20msgs" (fun () ->
      ignore (b16_run ~rules:8 ~messages:20 ~merged:false));
  register_bechamel "B16/compiled-8rules-20msgs" (fun () ->
      ignore (b16_run ~rules:8 ~messages:20 ~merged:true))

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md §7                *)
(* ------------------------------------------------------------------ *)

(* A1: B-tree node order. The slice index's fan-out trades tree depth
   against per-node scan cost. *)
let a1 () =
  headline "A1 btree_order" "slice-index B-tree fan-out ablation";
  table_header [ ("order", 6); ("height", 7); ("insert us", 10); ("lookup us", 10) ];
  let n = scale 20000 in
  List.iter
    (fun order ->
      let t = Btree.create ~order () in
      let t_insert =
        secs (fun () ->
            for i = 1 to n do
              Btree.add t (Printf.sprintf "key-%08d" (i * 7919 mod n)) i
            done)
      in
      let lookups = 20000 in
      let t_lookup =
        secs (fun () ->
            for i = 1 to lookups do
              ignore (Btree.find t (Printf.sprintf "key-%08d" (i * 104729 mod n)))
            done)
      in
      row
        [
          cell 6 "%d" order;
          cell 7 "%d" (Btree.height t);
          cell 10 "%.3f" (t_insert *. 1e6 /. float n);
          cell 10 "%.3f" (t_lookup *. 1e6 /. float lookups);
        ])
    [ 4; 16; 64; 256 ];
  register_bechamel "A1/btree-order-64-insert" (fun () ->
      let t = Btree.create ~order:64 () in
      for i = 1 to 500 do
        Btree.add t (string_of_int i) i
      done)

(* A2: XML codec throughput — every message crosses the parser and the
   serializer at least once (store, gateways). *)
let a2 () =
  headline "A2 xml_codec" "XML parse/serialize throughput vs document size";
  table_header
    [ ("elements", 9); ("bytes", 8); ("parse MB/s", 11); ("serialize MB/s", 14) ];
  List.iter
    (fun elems ->
      let doc =
        "<doc>"
        ^ String.concat ""
            (List.init elems (fun i ->
                 Printf.sprintf "<item id=\"%d\"><name>part-%d</name><qty>%d</qty></item>"
                   i i (i mod 9)))
        ^ "</doc>"
      in
      let bytes = String.length doc in
      let reps = max 1 (scale 400000 / max bytes 1) in
      let t_parse =
        secs (fun () -> for _ = 1 to reps do ignore (Demaq.xml doc) done)
      in
      let tree = Demaq.xml doc in
      let t_ser =
        secs (fun () -> for _ = 1 to reps do ignore (Demaq.xml_to_string tree) done)
      in
      let mbs t = float (bytes * reps) /. t /. 1e6 in
      row
        [
          cell 9 "%d" elems; cell 8 "%d" bytes;
          cell 11 "%.1f" (mbs t_parse);
          cell 14 "%.1f" (mbs t_ser);
        ])
    [ 5; 50; 500 ];
  register_bechamel "A2/parse-50-elements" (fun () ->
      ignore
        (Demaq.xml
           ("<doc>"
           ^ String.concat ""
               (List.init 50 (fun i -> Printf.sprintf "<item>%d</item>" i))
           ^ "</doc>")))

(* A3: checkpoint interval — frequent checkpoints bound the log and the
   recovery replay at the cost of snapshot writes. *)
let a3_dir tag =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-bench-a3-%s-%d" tag (Unix.getpid ())) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let a3 () =
  headline "A3 checkpoint_interval"
    "checkpoint frequency: ingest cost vs log size vs recovery time";
  table_header
    [ ("interval", 9); ("ingest ms", 10); ("final log KB", 12); ("recover ms", 11) ];
  let messages = scale 3000 in
  List.iter
    (fun interval ->
      let dir = a3_dir (string_of_int interval) in
      let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
      let st = Store.open_store cfg in
      let t_ingest =
        secs (fun () ->
            for i = 1 to messages do
              let txn = Store.begin_txn st in
              ignore
                (Store.insert txn ~queue:"q"
                   ~payload:(Printf.sprintf "<m n='%d'>%s</m>" i (String.make 64 'c'))
                   ~extra:"" ~enqueued_at:i ~durable:true);
              Store.commit txn;
              if interval > 0 && i mod interval = 0 then Store.checkpoint st
            done)
      in
      let log_kb = float (Store.stats st).Store.wal_bytes /. 1024. in
      Store.close st;
      let t_recover = secs (fun () -> Store.close (Store.open_store cfg)) in
      row
        [
          (if interval = 0 then cell 9 "never" else cell 9 "%d" interval);
          cell 10 "%.1f" (t_ingest *. 1e3);
          cell 12 "%.1f" log_kb;
          cell 11 "%.2f" (t_recover *. 1e3);
        ])
    [ 0; 2000; 500; 100 ];
  register_bechamel "A3/checkpoint" (fun () ->
      let dir = a3_dir "bech" in
      let st = Store.open_store (Store.durable_config ~sync:Wal.Sync_never dir) in
      let txn = Store.begin_txn st in
      for i = 1 to 50 do
        ignore (Store.insert txn ~queue:"q" ~payload:"<m/>" ~extra:"" ~enqueued_at:i ~durable:true)
      done;
      Store.commit txn;
      Store.checkpoint st;
      Store.close st)

(* A4: condition pre-filtering (XML filtering, §4.4.1). A brokering rule
   set where each rule triggers on one message type: without the filter
   every message evaluates every rule. *)
let a4_program rules =
  "create queue in kind basic mode persistent\ncreate queue out kind basic mode persistent\n"
  ^ String.concat "\n"
      (List.init rules (fun i ->
           Printf.sprintf
             "create rule r%d for in if (//type%d and //priority) then do enqueue <hit n=\"%d\"/> into out"
             i i i))

let a4_run ~rules ~messages ~use_prefilter =
  let cfg = { S.default_config with S.use_prefilter } in
  let srv = S.deploy ~config:cfg (a4_program rules) in
  for i = 1 to messages do
    ignore
      (S.inject srv ~queue:"in"
         (Demaq.xml
            (Printf.sprintf "<msg><type%d/><priority/><pad>%s</pad></msg>"
               (i mod rules) (String.make 100 'f'))))
  done;
  secs (fun () -> ignore (S.run srv))

let a4 () =
  headline "A4 condition_prefilter"
    "XML-filtering fast path: skip rules whose required elements are absent";
  table_header
    [ ("rules", 6); ("messages", 9); ("no filter msg/s", 15);
      ("filtered msg/s", 14); ("speedup", 8) ];
  List.iter
    (fun rules ->
      let messages = scale 400 in
      let t_off = a4_run ~rules ~messages ~use_prefilter:false in
      let t_on = a4_run ~rules ~messages ~use_prefilter:true in
      row
        [
          cell 6 "%d" rules; cell 9 "%d" messages;
          cell 15 "%.0f" (float messages /. t_off);
          cell 14 "%.0f" (float messages /. t_on);
          cell 8 "%.2fx" (t_off /. t_on);
        ])
    [ 4; 16; 64 ];
  register_bechamel "A4/broker-nofilter" (fun () ->
      ignore (a4_run ~rules:16 ~messages:20 ~use_prefilter:false));
  register_bechamel "A4/broker-filtered" (fun () ->
      ignore (a4_run ~rules:16 ~messages:20 ~use_prefilter:true))

(* A5: large-payload spill. Bodies above the threshold live in the
   slotted-page heap file; the working set holds only references. *)
let a5_dir tag =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-bench-a5-%s-%d" tag (Unix.getpid ())) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let a5_run ~messages ~payload_bytes ~spill =
  let dir = a5_dir (if spill then "spill" else "inline") in
  let cfg =
    if spill then Store.durable_config ~sync:Wal.Sync_never ~spill_threshold:512 dir
    else Store.durable_config ~sync:Wal.Sync_never dir
  in
  let st = Store.open_store cfg in
  let payload = "<blob>" ^ String.make payload_bytes 'D' ^ "</blob>" in
  let t_insert =
    secs (fun () ->
        for i = 1 to messages do
          let txn = Store.begin_txn st in
          ignore (Store.insert txn ~queue:"q" ~payload ~extra:"" ~enqueued_at:i ~durable:true);
          Store.commit txn
        done)
  in
  let inline_bytes = (Store.stats st).Store.inline_bytes in
  (* random-access read-back of 200 bodies *)
  let rids = Store.queue_rids st "q" in
  let arr = Array.of_list rids in
  let t_read =
    secs (fun () ->
        for i = 1 to 200 do
          let m = Option.get (Store.get st arr.(i * 7919 mod Array.length arr)) in
          ignore (Store.payload st m)
        done)
  in
  Store.close st;
  (t_insert, t_read, inline_bytes)

let a5 () =
  headline "A5 payload_spill"
    "out-of-line storage of large message bodies (heap file + buffer pool)";
  table_header
    [ ("payload B", 10); ("inline MB in RAM", 16); ("spill MB in RAM", 15);
      ("spill insert ms", 15); ("spill read us", 13) ];
  List.iter
    (fun payload_bytes ->
      let messages = scale 500 in
      let _, _, inline_mem = a5_run ~messages ~payload_bytes ~spill:false in
      let t_ins, t_read, spill_mem = a5_run ~messages ~payload_bytes ~spill:true in
      row
        [
          cell 10 "%d" payload_bytes;
          cell 16 "%.2f" (float inline_mem /. 1e6);
          cell 15 "%.2f" (float spill_mem /. 1e6);
          cell 15 "%.1f" (t_ins *. 1e3);
          cell 13 "%.1f" (t_read *. 1e6 /. 200.);
        ])
    [ 1000; 8000; 64000 ];
  register_bechamel "A5/spill-insert-8k" (fun () ->
      ignore (a5_run ~messages:20 ~payload_bytes:8000 ~spill:true));
  register_bechamel "A5/inline-insert-8k" (fun () ->
      ignore (a5_run ~messages:20 ~payload_bytes:8000 ~spill:false))

(* ------------------------------------------------------------------ *)
(* B17: causal flow tracing overhead (PR 9) — every enqueue mints or   *)
(* derives a provenance triple, appends it to the stored extra blob    *)
(* (more WAL bytes) and feeds the bounded flow store; this bench holds *)
(* that full path against the same engine with flow_tracing off.       *)
(* Budget: <= 5%, like B13's timing path.                              *)
(* ------------------------------------------------------------------ *)

let b17_dir tag =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-bench-b17-%s-%d" tag (Unix.getpid ())) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

(* B13's shipped configuration (batch 256, group commit, durable
   Sync_batch store), with a one-hop cascade so the derived-provenance
   path (inherit flow, parent rid, causing rule) runs once per input
   message on top of the minting path. *)
let b17_run ~messages ~flow_tracing =
  let program = {|
    create queue in kind basic mode persistent
    create queue out kind basic mode persistent
    create rule fwd for in if (//m) then do enqueue <ack/> into out
  |} in
  let tag = if flow_tracing then "on" else "off" in
  let store =
    Store.open_store
      (Store.durable_config
         ~sync:(Wal.Sync_batch { max_records = 256; max_bytes = 0 })
         (b17_dir tag))
  in
  let cfg =
    { S.default_config with
      S.batch_size = 256; group_commit = true; flow_tracing }
  in
  let srv = S.deploy ~config:cfg ~store program in
  for i = 1 to messages do
    ignore (S.inject srv ~queue:"in" (Demaq.xml (Printf.sprintf "<m n='%d'/>" i)))
  done;
  Gc.full_major ();
  let t = secs (fun () -> ignore (S.run srv)) in
  Store.close store;
  t

let b17 () =
  headline "B17 flow_overhead"
    "causal flow tracing: provenance mint/derive/persist vs flow_tracing off";
  table_header
    [ ("mode", 10); ("messages", 9); ("msg/s", 10); ("overhead", 9) ];
  let messages = scale 8000 in
  (* B13's floor-of-interleaved-rounds estimator breaks down for a
     few-percent effect on a 1-core shared box: the two modes' floors
     come from different rounds, so an interference burst landing on
     one mode's quietest round biases the difference by more than the
     effect under measurement. The two modes of a round run
     back-to-back (~0.1 s each), so a burst hits both: the per-round
     on/off ratio is robust to drift, and the median of those paired
     ratios is the overhead estimate. Floors still report msg/s. *)
  let modes = [ false; true ] in
  let n_modes = List.length modes in
  let reps = if !quick then 1 else 21 in
  let rounds =
    List.init reps (fun r ->
        let times = Array.make n_modes 0. in
        List.iter
          (fun i ->
            times.(i) <- b17_run ~messages ~flow_tracing:(List.nth modes i))
          (List.init n_modes (fun k -> (k + r) mod n_modes));
        times)
  in
  let floor_of i =
    let a = Array.of_list (List.map (fun r -> r.(i)) rounds) in
    Array.sort compare a;
    a.(min 1 (Array.length a - 1))
  in
  let median_ratio i =
    let a = Array.of_list (List.map (fun r -> r.(i) /. r.(0)) rounds) in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let results =
    List.mapi
      (fun i flow_tracing ->
        let name = if flow_tracing then "on" else "off" in
        let t = floor_of i in
        let overhead = (median_ratio i -. 1.) *. 100. in
        row
          [
            cell 10 "%s" name; cell 9 "%d" messages;
            cell 10 "%.0f" (float messages /. t);
            cell 9 "%+.1f%%" overhead;
          ];
        Printf.sprintf
          "{\"mode\": \"%s\", \"messages\": %d, \"msg_per_s\": %.0f, \"overhead_pct\": %.1f}"
          name messages (float messages /. t) overhead)
      modes
  in
  json_add
    (Printf.sprintf "{\"bench\": \"B17\", \"results\": [%s]}"
       (String.concat ", " results));
  register_bechamel "B17/flow-on-20msgs" (fun () ->
      ignore (b17_run ~messages:20 ~flow_tracing:true))

(* ------------------------------------------------------------------ *)
(* B18: adaptive runtime (PR 10) — the AIMD group-commit controller    *)
(* discovering fsync-amortization headroom from a deliberately conser- *)
(* vative start (batch target 1), against the same engine with the     *)
(* controller off; plus the admission gate's deterministic mechanics   *)
(* and the GC/compaction path that keeps the store bounded.            *)
(* ------------------------------------------------------------------ *)

module Gate = Demaq.Engine.Gate

let b18_dir tag =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-bench-b18-%s-%d" tag (Unix.getpid ())) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let b18_program = {|
    create queue in kind basic mode persistent
    create queue out kind basic mode persistent
    create rule fwd for in if (//m) then do enqueue <ack/> into out
  |}

type b18_result = {
  b18_t : float;
  b18_batch_final : int;
  b18_increases : int;
  b18_decreases : int;
  b18_gc_collected : int;
  b18_live_after : int;
  b18_wal_before : int;
  b18_wal_after : int;
}

(* Arrivals in bursts of [chunk] with a drain (and, when adaptive, a
   controller tick) between bursts — the shape a serving node sees. Both
   modes start at batch target 1: off stays there (fsync per message),
   on climbs as far as the observed barrier p99 allows. *)
let b18_run ~messages ~adaptive =
  let tag = if adaptive then "on" else "off" in
  let store =
    Store.open_store
      (Store.durable_config
         ~sync:(Wal.Sync_batch { max_records = 256; max_bytes = 1 lsl 20 })
         (b18_dir tag))
  in
  let cfg =
    { S.default_config with
      S.batch_size = 1; group_commit = true; metrics = true }
  in
  let srv = S.deploy ~config:cfg ~store b18_program in
  let ctl = if adaptive then Some (S.enable_adaptive srv) else None in
  let payload = Demaq.xml "<m/>" in
  Gc.full_major ();
  let chunk = 50 in
  let t =
    secs (fun () ->
        let injected = ref 0 in
        while !injected < messages do
          let n = min chunk (messages - !injected) in
          for _ = 1 to n do
            ignore (S.inject srv ~queue:"in" payload)
          done;
          injected := !injected + n;
          ignore (S.run srv);
          if adaptive then ignore (S.controller_tick srv)
        done)
  in
  let batch_final = S.batch_target srv in
  let increases, decreases =
    match ctl with
    | Some c ->
      (Demaq.Engine.Controller.increases c, Demaq.Engine.Controller.decreases c)
    | None -> (0, 0)
  in
  (* the bounded-store story: incremental GC in budgeted steps until a
     full cursor cycle finds nothing, then one compaction folding the
     retired log into a fresh snapshot *)
  let wal_before = (Store.stats store).Store.wal_bytes in
  let budget = 1024 in
  let live = (Store.stats store).Store.live_messages in
  let gc_collected = ref 0 in
  for _ = 0 to (live / budget) + 2 do
    let collected, _ = S.maintain ~gc_budget:budget srv in
    gc_collected := !gc_collected + collected
  done;
  let _, _reclaimed = S.maintain ~max_wal_bytes:1 srv in
  let wal_after = (Store.stats store).Store.wal_bytes in
  let live_after = (Store.stats store).Store.live_messages in
  Store.close store;
  {
    b18_t = t;
    b18_batch_final = batch_final;
    b18_increases = increases;
    b18_decreases = decreases;
    b18_gc_collected = !gc_collected;
    b18_live_after = live_after;
    b18_wal_before = wal_before;
    b18_wal_after = wal_after;
  }

(* The gate's mechanics, deterministically: with the WAL-byte threshold
   at one byte, the first unhardened commit saturates the gate, so of
   [n] arrivals consulted one-by-one exactly one is admitted and the
   rest shed hard — on every machine, every run. *)
let b18_gate () =
  let store =
    Store.open_store
      (Store.durable_config
         ~sync:(Wal.Sync_batch { max_records = 1024; max_bytes = 0 })
         (b18_dir "gate"))
  in
  let cfg =
    { S.default_config with S.batch_size = 256; group_commit = true }
  in
  let srv = S.deploy ~config:cfg ~store b18_program in
  let gate =
    S.enable_gate
      ~cfg:{ Gate.default_config with Gate.max_pending = max_int;
             max_wal_bytes = 1 }
      srv
  in
  let payload = Demaq.xml "<m/>" in
  for _ = 1 to 100 do
    match S.admission srv ~queue:"in" with
    | Gate.Admit -> ignore (S.inject srv ~queue:"in" payload)
    | Gate.Shed _ -> ()
  done;
  let admitted = Gate.admitted gate in
  let shed = Gate.shed gate in
  let shed_hard = Gate.shed_hard gate in
  ignore (S.run srv);
  Store.close store;
  (admitted, shed, shed_hard)

let b18 () =
  headline "B18 adaptive_runtime"
    "AIMD group-commit controller vs fixed batch 1; admission gate; GC + compaction";
  table_header
    [ ("mode", 10); ("messages", 9); ("msg/s", 10); ("batch", 6);
      ("gc", 7); ("wal-after", 10) ];
  let messages = scale 6000 in
  let off = b18_run ~messages ~adaptive:false in
  let on = b18_run ~messages ~adaptive:true in
  let entry name (r : b18_result) =
    row
      [
        cell 10 "%s" name; cell 9 "%d" messages;
        cell 10 "%.0f" (float messages /. r.b18_t);
        cell 6 "%d" r.b18_batch_final;
        cell 7 "%d" r.b18_gc_collected;
        cell 10 "%d" r.b18_wal_after;
      ];
    Printf.sprintf
      "{\"mode\": \"%s\", \"messages\": %d, \"msg_per_s\": %.0f, \
       \"batch_final\": %d, \"increases\": %d, \"decreases\": %d, \
       \"gc_collected\": %d, \"live_after\": %d, \"wal_before\": %d, \
       \"wal_after\": %d}"
      name messages (float messages /. r.b18_t)
      r.b18_batch_final r.b18_increases r.b18_decreases r.b18_gc_collected
      r.b18_live_after r.b18_wal_before r.b18_wal_after
  in
  let off_json = entry "off" off in
  let on_json = entry "on" on in
  let admitted, shed, shed_hard = b18_gate () in
  Printf.printf
    "gate mechanics: admitted=%d shed=%d (hard %d) of 100 arrivals\n"
    admitted shed shed_hard;
  Printf.printf "controller speedup: %.2fx (batch 1 -> %d)\n"
    (off.b18_t /. on.b18_t) on.b18_batch_final;
  let gate_json =
    Printf.sprintf
      "{\"mode\": \"gate\", \"admitted\": %d, \"shed\": %d, \"shed_hard\": %d}"
      admitted shed shed_hard
  in
  json_add
    (Printf.sprintf "{\"bench\": \"B18\", \"results\": [%s, %s, %s]}"
       off_json on_json gate_json);
  register_bechamel "B18/adaptive-200msgs" (fun () ->
      ignore (b18_run ~messages:200 ~adaptive:true))

(* ------------------------------------------------------------------ *)
(* Bechamel run                                                        *)
(* ------------------------------------------------------------------ *)

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  headline "Bechamel" "micro-benchmark estimates (ns per run, OLS fit)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500
      ~quota:(Time.second (if !quick then 0.1 else 0.3))
      ~kde:None ~stabilize:true ()
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) results []) in
      List.iter
        (fun name ->
          match Analyze.OLS.estimates (Hashtbl.find results name) with
          | Some (e :: _) -> Printf.printf "  %-45s %14.0f ns/run\n" name e
          | _ -> Printf.printf "  %-45s   (no estimate)\n" name)
        names)
    !bechamel_tests

(* ------------------------------------------------------------------ *)

let all_benches =
  [ ("B1", b1); ("B2", b2); ("B3", b3); ("B4", b4); ("B5", b5); ("B6", b6);
    ("B7", b7); ("B8", b8); ("B9", b9); ("B10", b10); ("B11", b11);
    ("B12", b12); ("B13", b13); ("B15", b15); ("B16", b16); ("B17", b17);
    ("B18", b18);
    ("A1", a1); ("A2", a2); ("A3", a3); ("A4", a4); ("A5", a5) ]

let () =
  let json_file = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let selected =
    if args = [] then all_benches
    else List.filter (fun (id, _) -> List.mem id args) all_benches
  in
  Printf.printf
    "Demaq benchmark suite — regenerating the paper's performance claims\n";
  Printf.printf "(see DESIGN.md section 5 for the bench index, EXPERIMENTS.md for results)\n";
  let _, total = time_it (fun () -> List.iter (fun (_, f) -> f ()) selected) in
  if args = [] then run_bechamel ();
  Option.iter write_json !json_file;
  Printf.printf "\ntotal bench time: %.1f s\n" total
