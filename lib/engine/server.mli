(** The Demaq server: deploys a program (QDL declarations + QML rules) and
    executes the §3.1 model: each unprocessed message is processed exactly
    once, in scheduler order; processing evaluates all rules that pertain
    to the message's queue (and the slices that contain it), collects the
    pending update list, and applies it — all in a single transaction
    against the message store. *)

module Tree := Demaq_xml.Tree
module Value := Demaq_xquery.Value
module Store := Demaq_store.Message_store

type config = Executor.config = {
  merged_plans : bool;
      (** evaluate the rule compiler's guarded plan per queue — merged
          bodies with per-rule guards, hoisted common subexpressions,
          shared guard evaluations (§4.4.1; benchmark B16). The default:
          observationally equivalent to per-rule interpretation, including
          precise rule-level error attribution (§3.6). [false] compiles
          one unguarded plan entry per rule: per-rule interpretation, the
          reference semantics. *)
  footprint_dispatch : bool;
      (** partition dispatch on the compiled rules' static conflict
          footprints instead of whole queues: same-queue messages whose
          admitted rules touch disjoint resources run concurrently. Trades
          per-queue arrival order between disjoint messages for dispatch
          width; off by default. *)
  use_slice_index : bool;
      (** serve [qs:slice()] from the materialized B-tree index rather than
          scanning the underlying queues (§4.3; benchmark B1) *)
  use_prefilter : bool;
      (** skip evaluating rules whose condition requires element names the
          triggering message does not contain (XML filtering, §4.4.1;
          benchmark A4) *)
  trace_capacity : int;
      (** keep the last N rule activations for inspection (§2.3.3 names
          "tracing system behavior" as a retention concern); 0 disables *)
  flow_tracing : bool;
      (** causal flow tracing (on by default): every message carries a
          provenance triple — flow id minted at its cascade's origin (or
          adopted from an [X-Demaq-Flow] header), parent rid, causing
          rule — persisted through the extra blob so flows survive
          crash-restart, and assembled into cascade trees ({!flow_tree},
          [/flows]). Off writes extra blobs identical to pre-flow
          builds. *)
  gc_every : int;
      (** run the retention GC after every N processed messages;
          0 disables automatic GC ("physical cleanup is decoupled from
          message processing", §2.3.3) *)
  system_error_queue : string option;
      (** last-resort error queue (§3.6 "system level") *)
  optimize : bool;  (** enable the rule compiler's rewrites *)
  node_name : string;  (** this node's transport address *)
  transmit_retries : int;
      (** retries (beyond the first attempt) granted to a failed reliable
          transmission before the message is dead-lettered to its error
          queue chain; retries are re-armed through the timer wheel with
          bounded exponential backoff *)
  retry_backoff : int;
      (** base backoff in virtual-clock ticks; the delay before retry [n]
          is [retry_backoff * 2^(n-1)] *)
  batch_size : int;
      (** messages drained back to back per {!run} cycle before the pump;
          with [group_commit] their commits share one durability barrier
          (one fsync per batch instead of one per message) *)
  group_commit : bool;
      (** issue durability barriers ({!Store.barrier}) at batch boundaries
          and before every externalization (gateway transmission,
          timer-armed retry). Meaningful with a [Wal.Sync_batch] store:
          commits then defer their fsync to the next barrier, and the
          engine guarantees no transmission precedes the barrier covering
          the transaction that created the message. *)
  workers : int;
      (** worker domains draining the dispatcher per {!run} batch. 1 (the
          default) runs inline on the calling thread and is deterministic:
          observable behaviour matches the single-threaded engine. More
          workers process conflict-free messages (different queues, or
          different slices of a slicing) concurrently; per-queue
          arrival order and exactly-once externalization are preserved.
          Defaults to [$DEMAQ_WORKERS] when set. *)
  metrics : bool;
      (** enable the wall-clock side of observability: §3.1 phase-latency
          histograms (sampled 1-in-8 per worker; exact when tracing),
          WAL fsync timing, barrier timing. Counters (and therefore
          {!stats} and the exposition's totals) are always live
          regardless; off (the default) merely skips every clock read on
          the hot path. *)
}

val default_config : config

type t

exception Deployment_error of string

val deploy :
  ?config:config ->
  ?time_source:Demaq_obs.Time_source.t ->
  ?store:Store.t ->
  ?network:Demaq_net.Network.t ->
  ?payload_format:[ `Binary | `Text ] ->
  string ->
  t
(** Parse, analyze and compile the program text, register all definitions,
    and recover scheduler/timer state from the store (all unprocessed
    messages are rescheduled; pending echo timeouts are re-registered).
    [time_source] (default real time) is linked to the engine clock and
    becomes the registry/span clock — pass a virtual source to run the
    whole node on simulated time. [payload_format] selects the stored
    payload representation (default compact binary; reads accept both).
    @raise Deployment_error when parsing or semantic analysis fails. *)

val queue_manager : t -> Demaq_mq.Queue_manager.t
val store : t -> Store.t
val clock : t -> Clock.t
val network : t -> Demaq_net.Network.t
val config : t -> config
val explain : t -> string
(** The compiled execution plans, printed. *)

(** {1 Gateways} *)

val bind_gateway :
  t -> queue:string -> ?endpoint:string -> ?replies_to:string -> unit -> unit
(** Route an outgoing gateway queue to a named network endpoint (default:
    the queue name) and optionally deliver the endpoint's replies into an
    incoming gateway queue. *)

val register_interface : t -> file:string -> string -> (unit, string) result
(** Register the contents of a WSDL file named by a gateway queue's
    [interface <file> port <name>] declaration (§2.1.2). Once registered,
    outgoing messages on that gateway are validated as inputs of the
    declared port; violations become [interfaceViolation] error
    messages. *)

val set_collection : t -> string -> Tree.tree list -> unit

(** {1 Driving the node} *)

val inject :
  t ->
  ?props:(string * Value.atomic) list ->
  ?flow:string ->
  queue:string ->
  Tree.tree ->
  (Demaq_mq.Message.t, Demaq_mq.Queue_manager.error) result
(** Deliver an external message into a queue (e.g. a request arriving at an
    incoming gateway), in its own transaction. The message roots a causal
    flow: [flow] adopts a client-supplied id (the HTTP ingress passes the
    [X-Demaq-Flow] header through here), otherwise one is minted. *)

val inject_batch :
  t ->
  ?props:(string * Value.atomic) list ->
  ?flow:string ->
  queue:string ->
  Tree.tree list ->
  (Demaq_mq.Message.t, Demaq_mq.Queue_manager.error) result list
(** Batch {!inject}: one lock acquisition for the whole batch, one
    transaction per document, results in input order. Without [flow] each
    document mints its own flow id. *)

val admission_stats : t -> int * int * int
(** [(scans, decodes, decoded_bytes)]: rule admissions resolved from the
    payload synopsis without materializing a tree, payloads decoded into
    trees, and the bytes those decodes read. *)

type step_result = Processed of Demaq_mq.Message.t | Idle

val step : t -> step_result
(** Process the next scheduled message (§3.1), or report an empty agenda. *)

val pump_gateways : t -> int
(** Transmit pending messages in outgoing gateway queues; returns the
    number of transmissions attempted. Network failures become error
    messages routed per §3.6. *)

val advance_time : t -> int -> unit
(** Advance the virtual clock and fire due echo-queue timeouts (§2.1.3). *)

val timers_pending : t -> int
(** Entries (echo timeouts, armed retries) waiting in the timer wheel. *)

val next_timer_due : t -> int option
(** The earliest pending timer deadline, in clock ticks — what a
    simulation jumps time to when the node is otherwise quiescent. *)

val set_picker : t -> (int -> int) option -> unit
(** Install (or clear) the simulation's seeded dispatch chooser: on
    inline (single-worker) drains the dispatcher picks pseudo-randomly
    among all messages that could legally run next instead of strict
    scheduler order. See {!Worker_pool.set_picker}. *)

val run : ?max_steps:int -> t -> int
(** Drain up to [batch_size] messages, issue one durability barrier, then
    {!pump_gateways}; repeat until the node is quiescent (or the step bound
    is hit); returns the number of messages processed. [max_steps] counts
    processed messages only — rescheduled duplicates and already-collected
    rids are skipped for free. Does not advance time. *)

(** {1 Adaptive runtime}

    The self-tuning pieces are opt-in and composable: {!enable_adaptive}
    turns on the AIMD group-commit controller (the {!run} loop then reads
    its moving batch target and flush deadline), {!enable_gate} arms the
    ingress admission gate, and {!maintain} is the periodic background
    tick that drives the controller, a budgeted GC slice, and log
    compaction. *)

val enable_adaptive : ?cfg:Controller.config -> t -> Controller.t
(** Switch group commit to the AIMD controller, seeded at the configured
    [batch_size]. Registers the [demaq_controller_*] metrics. *)

val enable_gate : ?cfg:Gate.config -> t -> Gate.t
(** Arm the ingress admission gate (consulted by {!admission} /
    {!Ingress.gate}). Registers the [demaq_gate_*] metrics. *)

val admission : t -> queue:string -> Gate.decision
(** One admission decision for a message bound for [queue], from the
    current dispatch depth and unsynced WAL bytes. Always
    {!Gate.Admit} when no gate is enabled. *)

val controller_tick : t -> Controller.decision option
(** Sample the metrics window and run one controller tick, moving the
    run loop's batch target. [None] when adaptive mode is off. *)

val maintain : ?gc_budget:int -> ?max_wal_bytes:int -> t -> int * int
(** One background maintenance tick: {!controller_tick}, then a
    straggler flush (any unsynced group-commit tail left by an idle
    drain is hardened, so the WAL axis of the admission gate cannot
    stay closed on an idle node), then at most [gc_budget]
    incremental-GC deletability checks, then a log compaction if the
    WAL has outgrown [max_wal_bytes] (0 disables either). Returns
    [(messages collected, WAL bytes reclaimed)]. *)

val batch_target : t -> int
(** The group-commit batch target currently in force (fixed
    [batch_size], or the controller's choice under adaptive mode). *)

(** {1 Fault injection} *)

val set_fault : t -> Fault.t option -> unit
(** Arm (or clear) deterministic fault injection: the engine consults the
    handle before every rule evaluation and pending-update application.
    Injected exceptions must abort the transaction, release all locks,
    produce an error message (§3.6) and leave the engine running — the
    crash-recovery suite asserts exactly that. *)

val gc : t -> int
(** Run the retention garbage collector (§2.3.3); returns collected count. *)

(** {1 Introspection} *)

type stats = {
  processed : int;
  rule_evaluations : int;
  messages_created : int;
  errors_raised : int;
  transmissions : int;
  timers_fired : int;
  gc_collected : int;
  prefilter_skips : int;
  txn_aborts : int;
      (** transactions rolled back because an exception escaped — every one
          of them was undone and became an error message *)
  transmit_retries : int;  (** transmission attempts beyond the first *)
  dead_letters : int;
      (** reliable messages given up on after the retry budget (or a
          crashed endpoint handler) and routed to the error queue chain *)
  wal_group_syncs : int;
      (** durability barriers that actually synced (group commit) *)
  batch_fill : float;
      (** average messages covered per barrier ([processed /
          wal_group_syncs]); 0 when no barrier synced *)
  syncs_per_message : float;
      (** total WAL fsyncs per processed message — 1.0 under
          [Sync_always], approaching [1/batch_size] under group commit *)
}

val stats : t -> stats
val pending_messages : t -> int

val workers : t -> int
(** The configured worker-pool size (clamped). *)

val worker_stats : t -> Worker_pool.worker_stats list
(** Per-worker counters: messages processed, idle waits, drains joined. *)

val cache_sizes : t -> (string * int) list
(** Current entry counts of the per-rid caches ([node], [name], [sent],
    [outbox]); the retention GC must shrink these alongside the store. *)

(** {1 Execution tracing} *)

type trace_entry = Executor.trace_entry = {
  tr_tick : int;  (** virtual-clock time of the activation *)
  tr_rule : string;
  tr_trigger : int;  (** rid of the triggering message *)
  tr_queue : string;
  tr_updates : int;  (** pending updates the evaluation produced *)
  tr_skipped : bool;  (** suppressed by the condition pre-filter *)
}

val trace : t -> trace_entry list
(** The most recent rule activations, newest first, bounded by
    [trace_capacity]. A projection of {!spans}: every span's per-rule
    activations, flattened. *)

val pp_trace_entry : Format.formatter -> trace_entry -> unit
val queue_contents : t -> string -> Demaq_mq.Message.t list

(** {1 Observability}

    The metrics registry is the single source of truth: {!stats} reads
    it, {!exposition} renders it for a Prometheus scrape, and
    {!stats_json} serializes the full snapshot. Lifecycle spans (one per
    processed message: per-phase timings, rules fired, outcome) are kept
    in a ring of the last [trace_capacity] spans; phase timings are
    nonzero only with [config.metrics] or tracing on. *)

val registry : t -> Demaq_obs.Metrics.registry

val exposition : t -> string
(** Prometheus text-format rendering of the registry. *)

val stats_json : t -> string
(** The registry snapshot (counters, gauges, histogram count/sum) plus
    derived ratios, as one JSON object. *)

val spans : ?queue:string -> ?rid:int -> t -> Demaq_obs.Trace.span list
(** Retained lifecycle spans, newest first, optionally scoped to one
    queue and/or one rid. *)

val spans_jsonl : ?queue:string -> ?rid:int -> t -> string
(** Retained spans as JSONL, oldest first, with the same filters. *)

val pp_span : Format.formatter -> Demaq_obs.Trace.span -> unit

(** {1 Causal flows}

    With [config.flow_tracing] (the default) every message carries a
    durable provenance triple; these assemble them into cascade trees.
    Tree queries merge three sources — durable provenance from the store
    scan (survives crash-restart), the bounded in-memory flow store
    (covers messages the retention GC already collected), and the span
    ring (per-hop wait/phase timings) — so a tree renders wherever any
    evidence of the flow remains. *)

val flow_store : t -> Demaq_obs.Flow.t

val flow_id_of_rid : t -> int -> string option
(** The flow a message belongs to, from the in-memory index or its
    durable provenance. *)

val flow_nodes : t -> string -> Demaq_obs.Flow.node list
(** All known nodes of a flow, rid order, spans attached where held. *)

val flow_ascii : t -> string -> string
(** ASCII cascade tree with per-hop outcome + wait/phase breakdown and
    the critical path marked ([demaqd flow], minus the rid resolution). *)

val flow_json : t -> string -> string
(** The same tree as JSON (the [/flow/<id>] endpoint body). *)

val flows_json : t -> string
(** JSON array of retained flow summaries (the [/flows] endpoint body),
    most recent activity first. *)

(** {1 Dynamic evolution (paper §5 future work)} *)

val evolve : t -> string -> (unit, string) result
(** Apply an incremental QDL/QML script — additional [create] statements
    and [drop rule <name>] statements — to the running server. The
    combined program is re-analyzed and recompiled atomically; stored
    messages, scheduler state and timers are untouched. New rules apply to
    every message processed from now on; new properties and slicings only
    affect messages enqueued after the evolution (property values and
    slice memberships are fixed at creation, §2.2).

    Evolution changes the {e running} server only: program text is not
    persisted in the store, so a process that re-deploys after a restart
    must re-apply its evolution scripts (or deploy the evolved program
    text) — the same contract as the paper's static deployment model. *)

(** {1 Distribution (§2.1.2)} *)

val expose : t -> name:string -> queue:string -> (unit, string) result
(** Publish one of this server's incoming gateway queues as a named
    endpoint on its network, so that another node's outgoing gateway can
    send to it ("replacing local queues with pairs of gateway queues that
    connect two sites"). The sending node's address arrives in the
    [system-sender] property. *)
