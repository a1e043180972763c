(* The three in-process workloads. Each run repeats rounds until its time
   is up; a round sets up a fresh node (the set-up time is one [setup_s]
   sample), pushes a fixed-size, seed-generated corpus through it, and
   checks the outputs. In a traced run every other round records spans
   and the engine's timing histograms, and the rounds in between measure
   the same work untraced, so one run gives both the per-layer ledger and
   the tracing overhead. *)

open Util
module S = Demaq.Server
module Store = Demaq.Store.Message_store
module Wal = Demaq.Store.Wal
module Tree = Demaq.Xml.Tree
module Schema = Demaq.Xml.Schema
module Qm = Demaq.Mq.Queue_manager
module Net = Demaq.Network

(* Fixed group commit for every in-process workload: one durability
   barrier per 128 processed messages. *)
let batch = 128

let store_config dir =
  Store.durable_config
    ~sync:(Wal.Sync_batch { max_records = batch; max_bytes = 1 lsl 20 })
    dir

let engine_config ~metrics =
  { S.default_config with S.batch_size = batch; group_commit = true; workers = 1; metrics }

(* What a set of rounds measured. A run keeps one for its untraced rounds
   and one for its traced rounds. *)
type acc = {
  mutable rounds : int;
  mutable docs : int;  (** input documents whose cascade committed *)
  mutable processed : int;  (** messages processed, derived ones included *)
  mutable timed : float;  (** wall seconds of timed work *)
  mutable per_doc : float list;  (** per round: timed seconds per document *)
  mutable cpu_per_doc : float list;  (** per round: CPU seconds per document *)
  mutable setup : float list;
  mutable ack : (float * int) list;  (** enqueue call: ms, documents admitted *)
  mutable drain : float list;  (** ms from a chunk's ack to its cascade committed *)
  mutable enq_s : float;
  mutable enq_docs : int;
  mutable alloc : float;
  mutable wal_bytes : int;
  mutable wal_syncs : int;
  mutable parse_s : float;
  mutable parse_words : float;
  mutable parse_docs : int;
  mutable replay_bytes : int;
  mutable queued_max : int;  (** deepest agenda seen after an enqueue *)
  mutable expositions : string list;
}

let new_acc () =
  {
    rounds = 0; docs = 0; processed = 0; timed = 0.; per_doc = []; cpu_per_doc = []; setup = [];
    ack = []; drain = []; enq_s = 0.; enq_docs = 0; alloc = 0.;
    wal_bytes = 0; wal_syncs = 0; parse_s = 0.; parse_words = 0.; parse_docs = 0;
    replay_bytes = 0; queued_max = 0; expositions = [];
  }

let acc_json a =
  json_obj
    [
      ("rounds", string_of_int a.rounds);
      ("docs", string_of_int a.docs);
      ("processed", string_of_int a.processed);
      ("timed_s", json_float a.timed);
      ("per_doc_s", json_floats (List.rev a.per_doc));
      ("cpu_per_doc_s", json_floats (List.rev a.cpu_per_doc));
      ("setup_s", json_floats (List.rev a.setup));
      ("ack_ms", json_floats (List.rev_map fst a.ack));
      ("ack_docs", "[" ^ String.concat "," (List.rev_map (fun (_, n) -> string_of_int n) a.ack) ^ "]");
      ("drain_ms", json_floats (List.rev a.drain));
      ("enq_s", json_float a.enq_s);
      ("enq_docs", string_of_int a.enq_docs);
      ("alloc_words", json_float a.alloc);
      ("wal_bytes", string_of_int a.wal_bytes);
      ("wal_syncs", string_of_int a.wal_syncs);
      ("parse_s", json_float a.parse_s);
      ("parse_words", json_float a.parse_words);
      ("parse_docs", string_of_int a.parse_docs);
      ("replay_bytes", string_of_int a.replay_bytes);
      ("queued_max", string_of_int a.queued_max);
      ("expositions", "[" ^ String.concat "," (List.rev_map json_string a.expositions) ^ "]");
    ]

(* Gate violations: each counts one failed input. *)
let failures : string list ref = ref []
let failed = ref 0
let attempted = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      if List.length !failures < 20 then failures := msg :: !failures)
    fmt

(* ---- timed layer calls ---- *)

let parse acc texts =
  let w0 = alloc_words () and t0 = now () in
  let trees = Span.wrap "xml.parse" (fun () -> List.map Demaq.xml texts) in
  acc.parse_s <- acc.parse_s +. (now () -. t0);
  acc.parse_words <- acc.parse_words +. (alloc_words () -. w0);
  acc.parse_docs <- acc.parse_docs + List.length texts;
  trees

(* One enqueue call: its duration is the acknowledgement latency of every
   document it admits. Returns the time the call returned. *)
let enqueue acc srv ~queue trees =
  let t0 = now () in
  let results = Span.wrap "mq.inject" (fun () -> S.inject_batch srv ~queue trees) in
  let t1 = now () in
  if !Span.enabled then acc.queued_max <- max acc.queued_max (S.pending_messages srv);
  let n = List.length trees in
  attempted := !attempted + n;
  acc.ack <- ((t1 -. t0) *. 1e3, n) :: acc.ack;
  acc.enq_s <- acc.enq_s +. (t1 -. t0);
  acc.enq_docs <- acc.enq_docs + n;
  List.iter
    (function
      | Ok _ -> ()
      | Error e -> fail "enqueue into %s refused: %s" queue (Qm.error_to_string e))
    results;
  t1

let run srv = Span.wrap "exec.run" (fun () -> S.run srv)

let mark () = (now (), cpu_s (), alloc_words ())

(* The timed part of a round: CPU, allocation and WAL deltas are taken
   around it; [f] returns (documents, messages processed). [start] moves
   the clock, CPU and allocation baselines earlier than the store's. *)
let timed acc ?(start = mark ()) ~store f =
  let t0, c0, a0 = start in
  let st0 = Store.stats store in
  let docs, processed = Span.wrap "timed" f in
  let t1 = now () in
  acc.cpu_per_doc <- ((cpu_s () -. c0) /. float docs) :: acc.cpu_per_doc;
  acc.alloc <- acc.alloc +. (alloc_words () -. a0);
  let st1 = Store.stats store in
  acc.wal_bytes <- acc.wal_bytes + st1.Store.wal_bytes - st0.Store.wal_bytes;
  acc.wal_syncs <- acc.wal_syncs + st1.Store.wal_syncs - st0.Store.wal_syncs;
  acc.timed <- acc.timed +. (t1 -. t0);
  acc.per_doc <- ((t1 -. t0) /. float docs) :: acc.per_doc;
  acc.docs <- acc.docs + docs;
  acc.processed <- acc.processed + processed;
  acc.rounds <- acc.rounds + 1

let finish_round acc srv store =
  if !Span.enabled then acc.expositions <- S.exposition srv :: acc.expositions;
  Store.close store

let queue_schema program queue =
  List.find_map
    (fun (q : Demaq.Mq.Defs.queue_def) ->
      if q.Demaq.Mq.Defs.qname = queue then q.Demaq.Mq.Defs.schema else None)
    (Demaq.Lang.Qdl.queues (Demaq.Lang.Qdl.parse_program program))

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take n [] l in
    c :: chunks n rest

(* Time [Server.deploy] of a program on an empty in-memory store. *)
let deploy_empty program =
  let t0 = now () in
  ignore (S.deploy ~config:(engine_config ~metrics:false) program);
  now () -. t0

(* ---- engine_etl: parse, inject a chunk, run; over a fixed corpus ---- *)

let etl_corpus_size = 4096
let etl_chunk = 32

let etl_corpus ~seed program =
  let schema = Option.get (queue_schema program "raw_events") in
  let rng = Random.State.make [| seed |] in
  List.init etl_corpus_size (fun _ ->
      let vary = Random.State.int rng 1_000_000 in
      Demaq.xml_to_string (Option.get (Schema.example ~vary schema "event")))

let etl_round acc ~dir ~program ~corpus =
  rm_rf dir;
  let t0 = now () in
  let store, srv =
    Span.wrap "setup" (fun () ->
        let store = Span.wrap "store.open" (fun () -> Store.open_store (store_config dir)) in
        let srv =
          Span.wrap "lang.deploy" (fun () ->
              S.deploy ~config:(engine_config ~metrics:!Span.enabled) ~store program)
        in
        (store, srv))
  in
  acc.setup <- (now () -. t0) :: acc.setup;
  let docs = List.length corpus in
  timed acc ~store (fun () ->
      List.iter
        (fun texts ->
          Span.wrap "cycle" (fun () ->
              let trees = parse acc texts in
              let acked = enqueue acc srv ~queue:"raw_events" trees in
              ignore (run srv);
              acc.drain <- ((now () -. acked) *. 1e3) :: acc.drain))
        (chunks etl_chunk corpus);
      (docs, (S.stats srv).S.processed));
  (* gate: every event carrying a value reaches the warehouse, and the
     chain processes each event once per stage *)
  let with_value = List.length (List.filter (contains "<value>") corpus) in
  let warehouse = Store.queue_length store "warehouse" in
  if warehouse <> with_value then
    fail "etl: warehouse holds %d rows for %d events with a value" warehouse with_value;
  let processed = (S.stats srv).S.processed in
  if processed <> docs + (3 * with_value) then
    fail "etl: processed %d messages, expected %d" processed (docs + (3 * with_value));
  finish_round acc srv store

(* ---- paper_procurement: the Figs. 5-10 program with simulated peers ---- *)

let proc_cycles = 48
let proc_window = 16  (* offer requests per cycle: the live requestMsgs slices *)
let proc_invoices = 4  (* invoices per cycle *)
let proc_restricted = 0.2  (* share of requests naming a restricted item *)
let proc_paid = 0.5  (* share of invoices confirmed paid *)
let proc_gc_every = 4  (* cycles between Server.maintain calls *)
let proc_gc_budget = 512

type proc_cycle = {
  offers : (string * bool * string) list;  (** requestID, restricted, document *)
  invoices : (string * bool * string) list;  (** requestID, paid, document *)
}

let proc_corpus ~seed =
  let rng = Random.State.make [| seed |] in
  List.init proc_cycles (fun c ->
      let offers =
        List.init proc_window (fun i ->
            let n = (c * proc_window) + i in
            let restricted = Random.State.float rng 1. < proc_restricted in
            let items =
              List.init
                (1 + Random.State.int rng 3)
                (fun _ -> if Random.State.bool rng then "glue" else "paint")
            in
            let items = if restricted then items @ [ "plutonium" ] else items in
            let rid = Printf.sprintf "r%d" n in
            ( rid,
              restricted,
              Printf.sprintf
                "<offerRequest><requestID>%s</requestID><customerID>c%d</customerID><items>%s</items></offerRequest>"
                rid n
                (String.concat "" (List.map (Printf.sprintf "<item>%s</item>") items)) ))
      in
      let invoices =
        List.init proc_invoices (fun i ->
            let n = (c * proc_invoices) + i in
            let rid = Printf.sprintf "inv%d" n in
            (* invoice customers never request offers, so the credit
               check never refuses on unpaid invoices *)
            ( rid,
              Random.State.float rng 1. < proc_paid,
              Printf.sprintf
                "<invoice><requestID>%s</requestID><customerID>k%d</customerID><amount>%d</amount></invoice>"
                rid n
                (10 + Random.State.int rng 990) ))
      in
      { offers; invoices })

let proc_texts corpus =
  List.concat_map
    (fun c -> List.map (fun (_, _, d) -> d) c.offers @ List.map (fun (_, _, d) -> d) c.invoices)
    corpus

let payment rid = Printf.sprintf "<paymentConfirmation><requestID>%s</requestID></paymentConfirmation>" rid

let text_of tree name =
  Option.map Tree.tree_string_value (Tree.find_child tree name)

let root_name tree =
  match Tree.element_name tree with Some n -> n.Demaq.Xml.Name.local | None -> ""

let procurement_round acc ~dir ~program ~corpus =
  rm_rf dir;
  let net = Net.create () in
  let customer = ref [] and postal = ref 0 and supplier = ref 0 in
  Net.register net ~name:"supplier" ~handler:(fun ~sender:_ body ->
      incr supplier;
      match Tree.find_child body "requestID" with
      | Some rid -> [ Tree.elem "capacityResult" [ rid; Tree.elem "accept" [] ] ]
      | None -> []);
  Net.register net ~name:"customer" ~handler:(fun ~sender:_ body ->
      customer := body :: !customer;
      []);
  Net.register net ~name:"postalService" ~handler:(fun ~sender:_ _ ->
      incr postal;
      []);
  let t0 = now () in
  let store, srv =
    Span.wrap "setup" (fun () ->
        let store = Span.wrap "store.open" (fun () -> Store.open_store (store_config dir)) in
        let srv =
          Span.wrap "lang.deploy" (fun () ->
              S.deploy ~config:(engine_config ~metrics:!Span.enabled) ~store ~network:net program)
        in
        S.bind_gateway srv ~queue:"supplier" ~endpoint:"supplier" ~replies_to:"supplierIn" ();
        S.bind_gateway srv ~queue:"customer" ~endpoint:"customer" ();
        S.bind_gateway srv ~queue:"postalService" ~endpoint:"postalService" ();
        S.set_collection srv "crm"
          [ Demaq.xml
              {|<pricelist><price item="glue">5</price><price item="paint">12</price></pricelist>|} ];
        (store, srv))
  in
  acc.setup <- (now () -. t0) :: acc.setup;
  let docs = ref 0 in
  timed acc ~store (fun () ->
      List.iteri
        (fun i c ->
          Span.wrap "cycle" (fun () ->
              let offers = parse acc (List.map (fun (_, _, d) -> d) c.offers) in
              let invoices = parse acc (List.map (fun (_, _, d) -> d) c.invoices) in
              let paid = List.filter_map (fun (rid, p, _) -> if p then Some (payment rid) else None) c.invoices in
              let payments = parse acc paid in
              ignore (enqueue acc srv ~queue:"crm" offers);
              ignore (enqueue acc srv ~queue:"invoices" invoices);
              let acked = if payments = [] then now () else enqueue acc srv ~queue:"finance" payments in
              docs := !docs + List.length offers + List.length invoices + List.length payments;
              ignore (run srv);
              Span.wrap "timer.advance" (fun () -> S.advance_time srv 1);
              ignore (run srv);
              acc.drain <- ((now () -. acked) *. 1e3) :: acc.drain;
              if (i + 1) mod proc_gc_every = 0 then
                ignore (Span.wrap "gc.maintain" (fun () -> S.maintain ~gc_budget:proc_gc_budget srv))))
        corpus;
      (* let every outstanding payment timer fire *)
      Span.wrap "cycle" (fun () ->
          Span.wrap "timer.advance" (fun () -> S.advance_time srv 31);
          ignore (run srv));
      (!docs, (S.stats srv).S.processed));
  (* gate: one answer per request, a refusal exactly for restricted
     items, one reminder per unpaid invoice, one supplier call per request *)
  let answers = Hashtbl.create 256 and reminders = Hashtbl.create 64 in
  List.iter
    (fun body ->
      let rid = Option.value (text_of body "requestID") ~default:"?" in
      match root_name body with
      | ("offer" | "refusal") as kind ->
        Hashtbl.replace answers rid (kind :: Option.value (Hashtbl.find_opt answers rid) ~default:[])
      | "reminder" ->
        Hashtbl.replace reminders rid (1 + Option.value (Hashtbl.find_opt reminders rid) ~default:0)
      | other -> fail "procurement: unexpected %s delivered to the customer" other)
    !customer;
  let requests = ref 0 in
  List.iter
    (fun c ->
      List.iter
        (fun (rid, restricted, _) ->
          incr requests;
          match Hashtbl.find_opt answers rid with
          | Some [ "refusal" ] when restricted -> ()
          | Some [ "offer" ] when not restricted -> ()
          | Some answers ->
            fail "procurement: request %s (restricted=%b) answered [%s]" rid restricted
              (String.concat "," answers)
          | None -> fail "procurement: request %s never answered" rid)
        c.offers;
      List.iter
        (fun (rid, paid, _) ->
          let n = Option.value (Hashtbl.find_opt reminders rid) ~default:0 in
          if n <> if paid then 0 else 1 then
            fail "procurement: invoice %s (paid=%b) got %d reminders" rid paid n)
        c.invoices)
    corpus;
  if !supplier <> !requests then
    fail "procurement: supplier saw %d requests, %d were sent" !supplier !requests;
  if !postal <> 0 then fail "procurement: %d unexpected postal deliveries" !postal;
  finish_round acc srv store

(* ---- restart_lowmatch: WAL replay, scheduler rebuild, low-match drain ---- *)

(* 16 rules keyed on distinct element names; one document in 32 carries
   <recall/> and matches one of them (the bench B15e shape). *)
let restart_program =
  let rules =
    List.init 16 (fun i ->
        let elem = if i = 7 then "recall" else Printf.sprintf "audit%02d" i in
        Printf.sprintf "create rule r%02d for in if (//%s) then do enqueue <hit n=\"%d\"/> into out" i
          elem i)
  in
  "create queue in kind basic mode persistent\ncreate queue out kind basic mode persistent\n"
  ^ String.concat "\n" rules

let restart_corpus_size = 12288
let restart_probes = 256

(* Probe documents per enqueue call. With one per call about 1% of the
   calls met a collection, so the p99 flipped from run to run between the
   plain enqueue and the collection pause; with four per call the p99
   falls inside the pauses. *)
let restart_probe_call = 4

let restart_doc rng ~matching =
  let b = Buffer.create 2048 in
  Buffer.add_string b "<order>";
  if matching then Buffer.add_string b "<recall/>";
  Buffer.add_string b
    (Printf.sprintf "<orderID>ord-%d</orderID><customer><name>cust-%d</name><tier>gold</tier></customer><items>"
       (Random.State.int rng 1_000_000) (Random.State.int rng 1000));
  for _ = 1 to 4 + Random.State.int rng 12 do
    Buffer.add_string b
      (Printf.sprintf
         "<item sku=\"SKU-%04d\" qty=\"%d\"><desc>industrial glue cartridge</desc><price>%d.95</price></item>"
         (Random.State.int rng 10000) (1 + Random.State.int rng 5) (Random.State.int rng 100))
  done;
  Buffer.add_string b "</items><shipTo><street>1 Infinite Loop</street><city>Walldorf</city></shipTo></order>";
  Buffer.contents b

(* [n] documents of which exactly [n/32] match, at seeded positions *)
let restart_docs rng n =
  let matching = Array.init n (fun i -> i < n / 32) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = matching.(i) in
    matching.(i) <- matching.(j);
    matching.(j) <- t
  done;
  List.init n (fun i -> (matching.(i), restart_doc rng ~matching:matching.(i)))

(* Untimed preparation: write the corpus durably, unprocessed, and close. *)
let restart_prepare ~dir corpus =
  rm_rf dir;
  let store = Store.open_store (store_config dir) in
  let srv = S.deploy ~config:(engine_config ~metrics:false) ~store restart_program in
  List.iter
    (fun c ->
      List.iter
        (function Ok _ -> () | Error e -> failwith (Qm.error_to_string e))
        (S.inject_batch srv ~queue:"in" (List.map (fun (_, d) -> Demaq.xml d) c)))
    (chunks 64 corpus);
  Store.close store

let restart_round acc ~prepared ~dir ~corpus ~probes =
  copy_dir prepared dir;
  let wal_size = (Unix.stat (Filename.concat dir "wal.log")).Unix.st_size in
  (* the copy's garbage is the preparation's, not the restart's *)
  Gc.full_major ();
  let ((t0, _, _) as start) = mark () in
  let store, srv =
    Span.wrap "setup" (fun () ->
        let store = Span.wrap "store.open" (fun () -> Store.open_store (store_config dir)) in
        let srv =
          Span.wrap "lang.deploy" (fun () ->
              S.deploy ~config:(engine_config ~metrics:!Span.enabled) ~store restart_program)
        in
        (store, srv))
  in
  acc.setup <- (now () -. t0) :: acc.setup;
  acc.replay_bytes <- acc.replay_bytes + wal_size;
  attempted := !attempted + List.length corpus;
  (* the timed part starts at open_store: replay is the read path under test *)
  timed acc ~start ~store (fun () ->
      (* probes: enqueues a client makes right after the restart, while
         the recovered backlog is still pending *)
      let acked = ref t0 in
      Span.wrap "cycle" (fun () ->
          let trees = parse acc (List.map snd probes) in
          List.iter
            (fun call -> acked := enqueue acc srv ~queue:"in" call)
            (chunks restart_probe_call trees));
      Span.wrap "cycle" (fun () -> ignore (run srv));
      acc.drain <- ((now () -. !acked) *. 1e3) :: acc.drain;
      (List.length corpus + List.length probes, (S.stats srv).S.processed));
  let matching l = List.length (List.filter fst l) in
  let expected_hits = matching corpus + matching probes in
  let hits = Store.queue_length store "out" in
  if hits <> expected_hits then fail "restart: %d hits for %d matching documents" hits expected_hits;
  let processed = (S.stats srv).S.processed in
  let docs = List.length corpus + List.length probes in
  if processed <> docs + hits then
    fail "restart: processed %d messages, expected %d" processed (docs + hits);
  finish_round acc srv store

(* ---- main ---- *)

let main ~workload ~seed ~seconds ~trace ~work ~program_file =
  let plain = new_acc () and traced = new_acc () in
  let deploys = ref [] in
  let dir = Filename.concat work "store" in
  let round, corpus_texts, deploy_program =
    match workload with
    | "engine_etl" ->
      let program = read_file program_file in
      let corpus = etl_corpus ~seed program in
      ((fun acc -> etl_round acc ~dir ~program ~corpus), corpus, program)
    | "paper_procurement" ->
      let program = read_file program_file in
      let corpus = proc_corpus ~seed in
      ((fun acc -> procurement_round acc ~dir ~program ~corpus), proc_texts corpus, program)
    | "restart_lowmatch" ->
      let rng = Random.State.make [| seed |] in
      let corpus = restart_docs rng restart_corpus_size in
      let probes = restart_docs rng restart_probes in
      let prepared = Filename.concat work "prepared" in
      restart_prepare ~dir:prepared corpus;
      ( (fun acc -> restart_round acc ~prepared ~dir ~corpus ~probes),
        List.map snd (corpus @ probes),
        restart_program )
    | other -> failwith ("unknown in-process workload " ^ other)
  in
  (* one untimed round first: heap growth and page faults of a cold
     process are not what the rounds measure *)
  Span.enabled := false;
  round (new_acc ());
  let t_start = now () in
  let i = ref 0 in
  (* at least two rounds of each kind, so every run has medians *)
  while now () -. t_start < seconds || !i < (if trace then 4 else 2) do
    let tracing = trace && !i mod 2 = 1 in
    Span.enabled := tracing;
    if tracing then deploys := Span.wrap "lang.deploy_empty" (fun () -> deploy_empty deploy_program) :: !deploys;
    Gc.full_major ();
    round (if tracing then traced else plain);
    Span.enabled := false;
    incr i
  done;
  rm_rf dir;
  if trace then Span.write (Filename.concat work "spans.jsonl");
  print_endline
    (json_obj
       [
         ("workload", json_string workload);
         ("seed", string_of_int seed);
         ("corpus_hash", json_string (hash_corpus corpus_texts));
         ("corpus_docs", string_of_int (List.length corpus_texts));
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int !failed);
         ("failures", "[" ^ String.concat "," (List.rev_map json_string !failures) ^ "]");
         ("top_heap_words", string_of_int (top_heap_words ()));
         ("deploy_empty_s", json_floats !deploys);
         ("plain", acc_json plain);
         ("traced", acc_json traced);
       ])
