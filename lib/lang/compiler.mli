(** The rule compiler (§4.2/§4.4.1): deployment is a multi-pass
    compilation.

    Per-rule rewrites (unchanged since the first compiler):

    - {e fixed-property inlining}: [qs:property("p")] for a fixed property
      becomes its value expression for the rule's queue ("similar to
      conventional view merging, fixed properties are inlined");
    - {e default-parameter supply}: [qs:queue()] becomes
      [qs:queue("<this queue>")];
    - {e constant folding} of literal subexpressions;
    - {e condition pre-filter extraction} ({!Prefilter}).

    Plan passes, per target:

    + {e unsatisfiability pruning} — rules whose pre-filter requirements
      fall outside the target queue's closed schema vocabulary are
      statically dead and dropped (with the reason kept for explain);
    + {e conflict footprints} — the queues/slices each rule can touch
      (⊤ for dynamic queue names), lowered to dispatcher resource strings
      and cached on the plan as the dispatch template.

    The engine interprets a plan's surviving {!plan.rules} one at a time,
    in declaration order. *)

type compiled_rule = {
  cr_name : string;
  cr_error_queue : string option;  (** rule-level error queue (§3.6) *)
  cr_body : Demaq_xquery.Ast.expr;  (** rewritten *)
  cr_requirements : string list;
      (** element names the triggering message must contain for the rule
          to possibly fire; empty = always evaluate (and always empty on a
          slicing) *)
}

type footprint = {
  fp_top : bool;  (** ⊤: a dynamically computed queue name *)
  fp_queues : string list;  (** statically known queues read or written *)
  fp_slices : (string * string) list;
      (** slice resets with literal keys, as (slicing, key) *)
  fp_dynamic_reset : string list;
      (** slicings reset with a computed key *)
  fp_own_queue : bool;  (** reads the triggering message's own queue *)
}
(** The statically derived set of shared resources a rule's execution can
    touch — the conflict lattice element for footprint-driven dispatch. *)

type conflict =
  | Conflict_top  (** conflicts with every queue *)
  | Conflict_resources of { res : string list; own_queue : bool }
      (** dispatcher resource strings; [own_queue] adds the triggering
          message's own queue resource at schedule time *)

type plan = {
  target : string;  (** queue or slicing name *)
  on_slicing : bool;
  rules : compiled_rule array;
      (** surviving rules, declaration order: the execution artifact *)
  pruned : (string * string) list;
      (** statically dead rules: (name, reason) *)
  footprints : footprint list;  (** aligned with [rules] *)
  conflicts : (string list * conflict) array;
      (** per rule: (pre-filter requirements, conflict resources) — the
          cached dispatch template *)
  conflict_union : conflict;  (** union over all rules *)
  admission : Prefilter.index;
      (** the rules' pre-filter requirements, indexed so one pass over a
          payload's header decides them all *)
  queue_resource : string;  (** ["q:" ^ target], interned once *)
}

type t

val compile : ?optimize:bool -> Qdl.program -> t
(** [optimize:false] keeps rule bodies verbatim (benchmark B8): no
    rewrites, no pre-filter requirements and no pruning. *)

val plan_for : t -> string -> plan option
val plans : t -> plan list
(** All plans, sorted by target name. *)

val source_program : t -> Qdl.program
(** The program the plans were compiled from (used by runtime
    evolution). *)

val all_queue_resources : t -> string list
(** One ["q:" ^ name] resource per declared queue: what a ⊤ footprint
    expands to under footprint dispatch. *)

val explain : t -> string
(** Human-readable plan dump: per-rule bodies, error queues, pre-filter
    requirements, conflict footprints, and pruned rules with their
    unsatisfiability reason. *)

val footprint_to_string : footprint -> string
val conflict_to_string : conflict -> string

