(** Condition pre-filtering (§4.4.1 points to "XML filtering" à la Diao &
    Franklin for high-volume message brokering).

    A conservative static analysis extracts, per rule, a set of element
    local names that MUST occur in the triggering message for the rule's
    condition to possibly hold. At runtime the engine intersects it with
    the message's element-name synopsis and skips the full XQuery
    evaluation when a required name is missing.

    Soundness: a name is required only when derived from a path rooted at
    the triggering message ([.], [/], [qs:message()]) whose effective
    boolean value or comparison operand must be non-empty for the
    condition to be true; [and] unions requirements, [or] intersects
    them, everything else contributes nothing. *)

val rule_requirements : Demaq_xquery.Ast.expr -> string list
(** Requirements of a whole rule body: uses the guard of a top-level
    conditional whose else-branch performs no updates; sorted, distinct.
    [[]] means "always evaluate". *)

val required_names : Demaq_xquery.Ast.expr -> string list
(** Requirements of a boolean condition (not deduplicated). *)

module Names : Set.S with type elt = string

val element_names : Demaq_xml.Tree.tree -> Names.t
(** All element local names occurring in a message body. The engine
    needs it only for payloads without a readable header (legacy text),
    and caches it by rid. *)

val may_match : requirements:string list -> names:Names.t -> bool
(** False only when the rule provably cannot fire on this message: the
    reference semantics of admission, which {!admits} decides for all of
    a plan's rules at once. *)

(** {1 Admission on the payload's bytes}

    The per-message decision for all rules of a plan at once. *)

type index
(** The requirements of a plan's rules, gathered into one sorted array of
    distinct names. *)

type present
(** Which names of an index one message contains. *)

val index : string list list -> index
(** [index reqs] indexes one requirement list per rule; rule [i] of the
    index is [List.nth reqs i]. *)

val needs_names : index -> bool
(** False when no rule has a requirement: every rule is admitted. *)

val present_of_payload : index -> string -> present option
(** The names a binary payload contains, read in one pass over its
    header's element names, each compared in place against the index:
    no name is copied and no {!Names.t} is built. [None] for legacy text
    payloads and corrupt binary — fall back to {!present_of_names}. *)

val present_of_names : index -> Names.t -> present
(** The same from an element-name set ({!element_names}). *)

val admits : index -> present -> int -> bool
(** [admits ix p i] is {!may_match} for rule [i]: false only when rule
    [i] provably cannot fire on the message. *)

type vocabulary = Open_vocabulary | Closed_vocabulary of Names.t
(** The element names messages admitted to a queue can possibly contain:
    closed when the queue schema declares every reachable content model,
    open (⊤) when any content is [mixed]/[any], a particle is undeclared,
    or the schema is empty. *)

val schema_vocabulary : Demaq_xml.Schema.t -> vocabulary
(** Lift a queue schema to its element-name vocabulary; conservative
    (leans open). *)

val unsatisfiable : vocabulary -> string list -> string option
(** [unsatisfiable vocab requirements] is [Some reason] when some
    required element name provably cannot occur in any message the
    queue admits — the rule is statically dead on that queue. *)
