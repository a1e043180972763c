(** The queue-partitioned dispatcher.

    Sits between the priority scheduler (§4.4.2) and the worker pool:
    hands out ready messages such that two messages with overlapping
    conflict resources (queue name, slice memberships) never run
    concurrently — the engine's only conflict-control mechanism (§4.3) —
    while preserving per-queue arrival order and queue priority. Entries
    blocked on an in-flight resource are parked and re-enter the heap with
    their original sequence number when the resource frees.

    NOT internally synchronized: callers (the worker pool's monitor)
    must serialize all access. *)

type t

val create : unit -> t

val schedule : t -> priority:int -> resources:string list -> int -> unit
(** Add a message rid with its conflict resources. A rid already queued
    or running is ignored (rescheduled duplicate). *)

type slot =
  | Ready of int  (** rid to run; its resources are now claimed *)
  | Busy  (** work exists but all of it conflicts with running messages *)
  | Empty  (** nothing queued or parked *)

val next : ?pick:(int -> int) -> t -> slot
(** Hand out the next message. Without [pick], strict scheduler order
    (priority desc, arrival seq asc). With [pick] — the simulation's
    seeded chooser — the dispatcher collects every entry that could
    legally run next (runnable entries of the top priority level, earliest
    per conflict resource) and runs candidate [pick n mod n]: priority and
    per-queue FIFO still hold by construction, but cross-queue
    interleaving is explored reproducibly. [pick] is invoked exactly once
    per [Ready] result. *)

val complete : t -> int -> unit
(** The rid finished (or was skipped): release its resources and revive
    entries parked on them. *)

val pending : t -> int
(** Queued + parked (excludes running). *)

val queued : t -> int
(** Entries in the priority heap, runnable or not. *)

val parked : t -> int
(** Entries blocked on an in-flight conflict resource. *)

val pending_rids : t -> int list
