(* The queue-partitioned dispatcher.

   Gray's "Queues Are Databases" runs a pool of servers draining one queue
   set in parallel; what keeps that sound in Demaq is a partitioning rule
   layered over the priority scheduler (§4.4.2): two messages that could
   conflict — same queue, or the same slice (§4.3) — must never run
   concurrently, and within a queue the arrival order must survive
   parallel execution. This partition is the engine's only conflict
   control.

   Each scheduled message carries its conflict resources (queue name plus
   slice memberships, computed by the executor's [resources_for]).
   [next] pops the scheduler heap; an entry whose resources are all free
   starts running and claims them, an entry blocked on an in-flight
   resource is parked on that resource. Completion releases the resources
   and re-pushes every entry parked on them with its ORIGINAL sequence
   number, so a parked message re-enters the heap ahead of anything that
   arrived after it: per-queue FIFO and priority order are preserved
   exactly.

   Invariant: a parked entry is always attached to an in-flight resource,
   so [Busy] can only be observed while some message is running — a
   single worker that completes each message before asking for the next
   can never park anything, which makes one-worker mode degenerate to the
   seed scheduler's exact pop order.

   The dispatcher is NOT internally synchronized: the worker pool
   serializes all access under its own monitor mutex. *)

type slot = Ready of int | Busy | Empty

type t = {
  sched : Scheduler.t;
  resources_of : (int, string list) Hashtbl.t;
      (* rid -> conflict resources, while the rid is queued or parked *)
  parked : (string, Scheduler.entry Queue.t) Hashtbl.t;
      (* busy resource -> entries waiting for it, in pop (priority) order *)
  in_flight : (string, unit) Hashtbl.t;  (* resources of running messages *)
  running : (int, string list) Hashtbl.t;  (* rid -> resources it claimed *)
  mutable parked_count : int;
}

let create () =
  {
    sched = Scheduler.create ();
    resources_of = Hashtbl.create 64;
    parked = Hashtbl.create 16;
    in_flight = Hashtbl.create 16;
    running = Hashtbl.create 8;
    parked_count = 0;
  }

let schedule t ~priority ~resources rid =
  (* A rid already queued or running is a duplicate (e.g. rescheduled
     across a restart); scheduling it twice would let the second copy run
     unpartitioned, so it is dropped — the first copy's processing marks
     the message processed either way. *)
  if not (Hashtbl.mem t.resources_of rid || Hashtbl.mem t.running rid) then begin
    Hashtbl.replace t.resources_of rid resources;
    Scheduler.push t.sched (Scheduler.entry t.sched ~priority rid)
  end

let park t e busy =
  let q =
    match Hashtbl.find_opt t.parked busy with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace t.parked busy q;
      q
  in
  Queue.push e q;
  t.parked_count <- t.parked_count + 1

let claim t rid resources =
  List.iter (fun r -> Hashtbl.replace t.in_flight r ()) resources;
  Hashtbl.remove t.resources_of rid;
  Hashtbl.replace t.running rid resources;
  Ready rid

let rec next_fifo t =
  match Scheduler.pop_entry t.sched with
  | None -> if t.parked_count > 0 then Busy else Empty
  | Some e -> (
    let rid = e.Scheduler.rid in
    let resources =
      Option.value ~default:[] (Hashtbl.find_opt t.resources_of rid)
    in
    match List.find_opt (fun r -> Hashtbl.mem t.in_flight r) resources with
    | Some busy ->
      park t e busy;
      next_fifo t
    | None -> claim t rid resources)

(* Picked mode (simulation): instead of the heap's deterministic head,
   choose pseudo-randomly among every message that could LEGALLY run next
   — the runnable entries of the top priority level, keeping only the
   earliest entry per conflict resource. Restricting candidates this way
   makes priority and per-queue FIFO order hold by construction (exactly
   as in FIFO mode), while still exercising every cross-queue
   interleaving a real multi-worker run could produce. [f] is called once
   per successful choice with the candidate count; the schedule replays
   bit-identically when [f] is a seeded generator. *)
let rec next_picked t f =
  match Scheduler.pop_entry t.sched with
  | None -> if t.parked_count > 0 then Busy else Empty
  | Some first ->
    let prio = first.Scheduler.priority in
    (* candidates (reversed) with their resources; entries runnable but
       behind an earlier candidate on some resource go back untouched *)
    let candidates = ref [] in
    let n_candidates = ref 0 in
    let deferred = ref [] in
    let classify e =
      let rid = e.Scheduler.rid in
      let resources =
        Option.value ~default:[] (Hashtbl.find_opt t.resources_of rid)
      in
      match List.find_opt (fun r -> Hashtbl.mem t.in_flight r) resources with
      | Some busy -> park t e busy
      | None ->
        if
          List.exists
            (fun r ->
              List.exists (fun (_, res) -> List.mem r res) !candidates)
            resources
        then deferred := e :: !deferred
        else begin
          candidates := (e, resources) :: !candidates;
          incr n_candidates
        end
    in
    classify first;
    let rec drain () =
      match Scheduler.peek_entry t.sched with
      | Some e when e.Scheduler.priority = prio ->
        ignore (Scheduler.pop_entry t.sched);
        classify e;
        drain ()
      | _ -> ()
    in
    drain ();
    (match List.rev !candidates with
     | [] ->
       (* the whole level parked on in-flight resources (deferral needs a
          candidate, so [deferred] is empty too); fall through to the next
          priority level *)
       next_picked t f
     | cands ->
       let n = !n_candidates in
       let k = (((f n) mod n) + n) mod n in
       let chosen, resources = List.nth cands k in
       List.iteri
         (fun i (e, _) -> if i <> k then Scheduler.push t.sched e)
         cands;
       List.iter (Scheduler.push t.sched) !deferred;
       claim t chosen.Scheduler.rid resources)

let next ?pick t =
  match pick with None -> next_fifo t | Some f -> next_picked t f

let complete t rid =
  match Hashtbl.find_opt t.running rid with
  | None -> ()
  | Some resources ->
    Hashtbl.remove t.running rid;
    List.iter
      (fun r ->
        Hashtbl.remove t.in_flight r;
        match Hashtbl.find_opt t.parked r with
        | None -> ()
        | Some q ->
          Hashtbl.remove t.parked r;
          Queue.iter
            (fun e ->
              t.parked_count <- t.parked_count - 1;
              (* original seq: overtakes anything that arrived later *)
              Scheduler.push t.sched e)
            q)
      resources

let pending t = Scheduler.length t.sched + t.parked_count
let queued t = Scheduler.length t.sched
let parked t = t.parked_count

let pending_rids t =
  Scheduler.pending_rids t.sched
  @ Hashtbl.fold
      (fun _ q acc -> Queue.fold (fun acc e -> e.Scheduler.rid :: acc) acc q)
      t.parked []
