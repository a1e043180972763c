(** The executor: Demaq's single-message transaction (§3.1) behind a
    narrow interface, safe to run from several worker domains.

    {!process} is the paper's iterative cycle — evaluate every pertinent
    rule against a snapshot, collect the pending-action list, apply it in
    one transaction, route failures as error messages (§3.6). The shared
    engine context {!t} is exposed transparently so the externalizer and
    the composition root can reach its components; the locking contract
    is part of the interface:

    - [state_mu] guards the queue manager, store, caches, outboxes and
      timers. Functions documented "assumes the lock" must only be called
      from within {!locked} (or {!with_txn}); everything else locks
      internally. Rule evaluation inside {!process} runs WITHOUT the
      lock — that is the engine's CPU parallelism — with the qs: host
      callbacks re-acquiring it per call.
    - Statistics live in a sharded {!Demaq_obs.Metrics} registry (shard 0
      is the coordinator domain; the worker pool binds worker [i] to
      shard [i+1]); lifecycle spans in a bounded {!Demaq_obs.Trace} ring.
    - Lock order: [state_mu] before the span-ring/WAL/pool-monitor
      mutexes, never the reverse. *)

module Tree = Demaq_xml.Tree
module Value = Demaq_xquery.Value
module Ast = Demaq_xquery.Ast
module Context = Demaq_xquery.Context
module Store = Demaq_store.Message_store
module Qm = Demaq_mq.Queue_manager
module Message = Demaq_mq.Message
module Compiler = Demaq_lang.Compiler
module Prefilter = Demaq_lang.Prefilter
module Network = Demaq_net.Network
module Wsdl = Demaq_net.Wsdl
module Metrics = Demaq_obs.Metrics
module Trace = Demaq_obs.Trace
module Flow = Demaq_obs.Flow

type config = {
  merged_plans : bool;
      (** compile each target into one guarded plan (the default) instead
          of one unguarded plan entry per rule; observationally
          equivalent, including §3.6 error attribution *)
  footprint_dispatch : bool;
      (** partition dispatch on the compiled rules' static conflict
          footprints instead of whole queues: same-queue messages whose
          admitted rules touch disjoint resources run concurrently, at
          the cost of per-queue arrival order between them *)
  use_slice_index : bool;
  use_prefilter : bool;
  trace_capacity : int;
  flow_tracing : bool;
      (** mint, propagate and durably persist the causal provenance
          triple (flow id, parent rid, causing rule) on every message,
          and feed the bounded flow store; off writes extra blobs
          identical to pre-flow builds *)
  gc_every : int;
  system_error_queue : string option;
  optimize : bool;
  node_name : string;
  transmit_retries : int;
  retry_backoff : int;
  batch_size : int;
  group_commit : bool;
  workers : int;
  metrics : bool;
      (** enables the wall-clock/histogram path (phase latencies, fsync
          timing); counters are always live *)
}

type gateway_binding = { endpoint : string; replies_to : string option }

(** The executor's registered instruments; the externalizer and the
    composition root record through these. *)
type metrics = {
  m_processed : Metrics.counter;
  m_rule_evaluations : Metrics.counter;
  m_messages_created : Metrics.counter;
  m_errors_raised : Metrics.counter;
  m_transmissions : Metrics.counter;
  m_timers_fired : Metrics.counter;
  m_gc_collected : Metrics.counter;
  m_prefilter_skips : Metrics.counter;
  m_txn_aborts : Metrics.counter;
  m_transmit_retries : Metrics.counter;
  m_dead_letters : Metrics.counter;
  m_admission_scans : Metrics.counter;
      (** rule admission resolved from the payload synopsis, no tree *)
  m_trees_materialized : Metrics.counter;
      (** stored payloads decoded into body trees *)
  m_decoded_bytes : Metrics.counter;
      (** payload bytes read by those decodes *)
  m_lock_seconds : Metrics.histogram;
  m_decode_seconds : Metrics.histogram;
  m_eval_seconds : Metrics.histogram;
  m_apply_seconds : Metrics.histogram;
  m_barrier_seconds : Metrics.histogram;
}

type trace_entry = {
  tr_tick : int;
  tr_rule : string;
  tr_trigger : int;
  tr_queue : string;
  tr_updates : int;
  tr_skipped : bool;
}

type t = {
  cfg : config;
  qm : Qm.t;
  st : Store.t;
  net : Network.t;
  mutable compiled : Compiler.t;
  timers : Timer_wheel.t;
  clk : Clock.t;
  state_mu : Mutex.t;
  node_cache : (int, Tree.node) Hashtbl.t;
  name_cache : (int, Prefilter.Names.t) Hashtbl.t;
  collection_cache : (string, Value.t) Hashtbl.t;
  bindings : (string, gateway_binding) Hashtbl.t;
  interfaces : (string, Wsdl.t) Hashtbl.t;
  sent : (int, unit) Hashtbl.t;
  outbox : (string, int Queue.t) Hashtbl.t;
  mutable schedule : priority:int -> resources:string list -> int -> unit;
  mutable batch_target : int;
      (** group-commit batch the coordinator drains per barrier; fixed at
          [cfg.batch_size] unless the adaptive controller is steering it *)
  reg : Metrics.registry;
  met : metrics;
  spans : Trace.t;
  flows : Flow.t;
      (** bounded causal flow store; fed on enqueue ({!note_flow} via the
          enqueue paths) and span completion when [flow_tracing] is on *)
  mutable flow_seq : int;
  pending_ns : (int, int) Hashtbl.t;
  wait_hists : (string, Metrics.histogram) Hashtbl.t;
  mutable fault : Fault.t option;
}

val create :
  cfg:config ->
  qm:Qm.t ->
  st:Store.t ->
  net:Network.t ->
  compiled:Compiler.t ->
  clk:Clock.t ->
  unit ->
  t

val locked : t -> (unit -> 'a) -> 'a
(** Run under [state_mu] (not reentrant). *)

val set_fault : t -> Fault.t option -> unit

val harden : t -> unit
(** Group-commit barrier; must precede any externalized effect. *)

val in_txn : t -> (Store.txn -> 'a) -> 'a
(** Commit on return, abort + harden + re-raise on exception. Assumes the
    lock. *)

val with_txn : t -> (Store.txn -> 'a) -> 'a
(** {!locked} + {!in_txn}. *)

val exn_description : exn -> string
val set_collection : t -> string -> Tree.tree list -> unit
val bind_gateway : t -> queue:string -> ?endpoint:string -> ?replies_to:string -> unit -> unit
val register_interface : t -> file:string -> string -> (unit, string) result

val outbox_for : t -> string -> int Queue.t
(** Assumes the lock. *)

val note_outgoing : t -> Message.t -> unit
(** Assumes the lock. *)

val queue_priority : t -> string -> int

val resources_for : t -> Message.t -> string list
(** The conflict resources the dispatcher partitions on: the queue plus
    one resource per slice membership, or — under [footprint_dispatch] — the
    admitted rules' static conflict footprints from the compiled plan
    (membership slice resources always included; ⊤ expands to every
    declared queue). *)

val schedule_message : t -> Message.t -> unit
(** Route through the [schedule] hook (the worker pool). Safe under the
    lock: the hook only takes the pool monitor. *)

val trace : t -> trace_entry list
(** The rule-activation view, projected out of the lifecycle span ring:
    newest first, at most [trace_capacity] entries. *)

val pp_trace_entry : Format.formatter -> trace_entry -> unit

val raise_error :
  t ->
  Store.txn ->
  kind:Errors.kind ->
  description:string ->
  ?rule:string ->
  ?rule_error_queue:string ->
  ?provenance:Message.provenance ->
  source_queue:string ->
  ?initial_message:Tree.tree ->
  unit ->
  unit
(** §3.6 error routing. Assumes the lock. [provenance] links the routed
    error message into the failing message's causal flow; derive it with
    {!error_prov}. *)

val enqueue_internal :
  t ->
  Store.txn ->
  ?rule:string ->
  ?rule_error_queue:string ->
  ?trigger:Message.t option ->
  ?provenance:Message.provenance ->
  explicit:(string * Value.atomic) list ->
  queue:string ->
  payload:Tree.tree ->
  origin_queue:string ->
  unit ->
  unit
(** Enqueue + schedule + echo-timer registration. Assumes the lock.
    Without an explicit [provenance] the child's causal edge derives from
    [trigger]: inherit its flow id, parent = trigger rid, cause = [rule]. *)

val mint_flow : t -> origin:string -> string
(** Fresh node-unique flow id ("<node>-<origin>-<seq>"); deterministic,
    and collision-free across crash-restarts (the sequence is seeded past
    the store's rid high-water mark). Assumes the lock. *)

val root_prov :
  t -> ?flow:string -> origin:string -> unit -> Message.provenance
(** Provenance for a cascade root: adopt [flow] (e.g. an [X-Demaq-Flow]
    header value) or mint one. {!Message.no_provenance} when flow tracing
    is off. Assumes the lock. *)

val derived_prov : t -> cause:string -> Message.t -> Message.provenance
(** Child edge: inherit the causing message's flow, blame [cause]. *)

val error_prov : t -> ?rule:string -> Message.t -> Message.provenance option
(** Edge for a §3.6 error message caused by a failure while processing
    [m]; [None] when flow tracing is off. *)

val note_flow : t -> Message.t -> unit
(** Report a traced message's provenance edge to the flow store. Assumes
    the lock; called by the enqueue paths, exposed for recovery replay. *)

val register_echo_timer : t -> Store.txn -> ?rule:string -> Message.t -> unit
(** Assumes the lock. *)

val inject :
  t ->
  ?props:(string * Value.atomic) list ->
  ?flow:string ->
  ?origin:string ->
  queue:string ->
  Tree.tree ->
  (Message.t, Qm.error) result
(** Inject an external arrival in its own transaction (locks itself).
    The message becomes a cascade root: its flow id is [flow] when
    supplied (adopted from the client) or freshly minted; [origin]
    (default ["ingress"]) labels the root's cause. *)

val inject_many :
  t ->
  ?props:(string * Value.atomic) list ->
  ?flow:string ->
  ?origin:string ->
  queue:string ->
  Tree.tree list ->
  (Message.t, Qm.error) result list
(** Batch form of {!inject}: one lock acquisition for the whole batch,
    one transaction per document (a rejected document aborts only
    itself). Results are in input order. Each document is its own
    cascade root; without [flow] each mints its own flow id. *)

val admission_stats : t -> int * int * int
(** [(scans, decodes, decoded_bytes)]: messages whose admission resolved
    from the payload synopsis without materializing a tree, payloads
    decoded into trees, and the bytes those decodes read. *)

val run_gc : t -> int
(** Retention GC + cache purge (locks itself). *)

val run_gc_step : t -> budget:int -> int
(** Incremental slice of {!run_gc} for the background maintenance tick:
    at most [budget] deletability checks ({!Demaq_mq.Queue_manager.gc_step}),
    cursor-resumed, plus the cache purge for whatever was collected. *)

val message : t -> int -> Message.t option
(** Fetch a message and force its body parse, under the lock. *)

val process : t -> int -> bool
(** Process one scheduled message end to end; [false] means the rid was
    skipped (collected, or a rescheduled duplicate). Never raises for
    rule-level failures — those become error messages. *)
