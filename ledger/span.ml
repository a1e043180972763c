(* In-memory span recorder for the traced benchmark runs. Spans are taken
   only in the benchmark's own code, around its calls into the engine's
   layers; nothing inside the library is instrumented. They are kept in
   memory and written out once, as JSONL, when the run ends. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1: a root, or a node-side span whose parent lives in
                     the generator process and is found through [rid] *)
  rid : string;  (** request id; "" where a span is not per request *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = ref 0

(* the enclosing [wrap] span; only the main domain nests spans *)
let stack : int list ref = ref []

let now = Unix.gettimeofday

let add ~name ~parent ~rid t0 t1 =
  Mutex.protect lock (fun () ->
      let id = !next_id in
      incr next_id;
      recorded := { id; name; parent; rid; t0; t1 } :: !recorded;
      id)

(* Record a span that was timed elsewhere, e.g. from an accept-pool
   domain; safe from any domain. *)
let record ?(rid = "") name t0 t1 =
  if !enabled then ignore (add ~name ~parent:(-1) ~rid t0 t1)

(* Run [f] inside a span nested under the innermost open [wrap]. The id is
   taken up front so children can name it as their parent. *)
let wrap name f =
  if not !enabled then f ()
  else begin
    let id = Mutex.protect lock (fun () -> let id = !next_id in incr next_id; id) in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      Mutex.protect lock (fun () ->
          recorded := { id; name; parent; rid = ""; t0; t1 } :: !recorded)
    in
    Fun.protect ~finally:finish f
  end

let write path =
  let spans = Mutex.protect lock (fun () -> List.rev !recorded) in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"rid\":\"%s\",\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.name s.parent s.rid s.t0 s.t1)
    spans;
  close_out oc
