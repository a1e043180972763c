(* Open-loop HTTP generator for edge_fanout. Arrivals are seeded Poisson
   and independent of the node's progress; at most [conns] connections are
   open at once. An arrival that finds every connection busy waits here
   and is still timed from its due time, never dropped. A run is a list of
   segments (rate, seconds); after each one the generator polls the node's
   /stats.json until the whole cascade of every accepted request has
   committed, which times the drain and keeps segments from overlapping. *)

open Util

type req = {
  seq : int;
  seg : int;
  due : float;
  mutable waited : bool;  (** found every connection busy *)
  mutable t_start : float;  (** connect issued *)
  mutable t_conn : float;
  mutable t_written : float;
  mutable t_first : float;
  mutable t_done : float;
  mutable status : int;  (** 0: transport error or timeout *)
}

type conn = {
  fd : Unix.file_descr;
  r : req;
  data : string;
  mutable off : int;
  mutable connected : bool;
  resp : Buffer.t;
}

let request_timeout = 5.
let drain_timeout = 3.

let order_bodies ~seed ~program ~n =
  let schema = Option.get (Inproc.queue_schema (read_file program) "orders") in
  let rng = Random.State.make [| seed |] in
  Array.init n (fun _ ->
      let vary = Random.State.int rng 1_000_000 in
      Demaq.xml_to_string (Option.get (Demaq.Xml.Schema.example ~vary schema "order")))

let status_of buf =
  (* "HTTP/1.0 202 Accepted" *)
  let s = Buffer.contents buf in
  match String.index_opt s ' ' with
  | Some i when String.length s >= i + 4 ->
    Option.value (int_of_string_opt (String.sub s (i + 1) 3)) ~default:0
  | _ -> 0

let addr port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* Blocking GET for the drain poll; returns the body. *)
let get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (addr port);
      let q = Printf.sprintf "GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n" path in
      ignore (Unix.write_substring fd q 0 (String.length q));
      let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
      let rec loop () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then (Buffer.add_subbytes buf chunk 0 n; loop ())
      in
      loop ();
      Buffer.contents buf)

(* An integer field of the node's /stats.json. *)
let json_int body name =
  let key = "\"" ^ name ^ "\":" in
  let rec find i =
    if i + String.length key > String.length body then 0
    else if String.sub body i (String.length key) = key then begin
      let j = ref (i + String.length key) in
      while !j < String.length body && body.[!j] >= '0' && body.[!j] <= '9' do incr j done;
      int_of_string (String.sub body (i + String.length key) (!j - i - String.length key))
    end
    else find (i + 1)
  in
  find 0

type counters = { processed : int; wal_bytes : int; wal_syncs : int; cpu : int }

(* utime + stime of another process, in clock ticks *)
let cpu_ticks pid =
  if pid <= 0 then 0
  else
    let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
    let i = String.rindex s ')' + 2 in
    let f = Array.of_list (String.split_on_char ' ' (String.sub s i (String.length s - i))) in
    int_of_string f.(11) + int_of_string f.(12)

let counters port pid =
  let body = get port "/stats.json" in
  { processed = json_int body "demaq_processed_total";
    wal_bytes = json_int body "demaq_wal_bytes_total";
    wal_syncs = json_int body "demaq_wal_syncs_total";
    cpu = cpu_ticks pid }

let counters_json c =
  Printf.sprintf "{\"processed\":%d,\"wal_bytes\":%d,\"wal_syncs\":%d,\"cpu_ticks\":%d}"
    c.processed c.wal_bytes c.wal_syncs c.cpu

(* [stop_p99_ms > 0]: a rate ladder, which stops after the first segment
   that misses: its p99 latency exceeds the limit, a request failed, or
   its drain timed out. *)
let main ~port ~seed ~program ~segments ~conns ~fanout ~records ~node_pid ~stop_p99_ms =
  Demaq.Net.Http.ignore_sigpipe ();
  let bodies = order_bodies ~seed ~program ~n:4096 in
  (* seeded Poisson arrival offsets of one segment *)
  let schedule_of rng rate seconds =
    let rec go t acc =
      let t = t -. (log (1. -. Random.State.float rng 1.) /. rate) in
      if t >= seconds then List.rev acc else go t (t :: acc)
    in
    go 0. []
  in
  let rng = Random.State.make [| seed; 7 |] in
  let planned = List.map (fun (rate, seconds) -> (rate, seconds, schedule_of rng rate seconds)) segments in
  let corpus_hash =
    hash_corpus
      (Array.to_list bodies
      @ List.concat_map (fun (_, _, offs) -> List.map (Printf.sprintf "%.9f") offs) planned)
  in
  let all = ref [] and seq = ref 0 and max_waiting = ref 0 and accepted = ref 0 in
  let base = counters port node_pid in
  let prev = ref base in
  let chunk = Bytes.create 4096 in
  (* Run one segment and its drain; returns its JSON summary and whether
     it met the ladder's limit. *)
  let run_segment si rate seconds offsets =
    let t_seg = now () in
    let last_due = ref t_seg in
    let make due =
      let r =
        { seq = !seq; seg = si; due; waited = false; t_start = 0.; t_conn = 0.; t_written = 0.;
          t_first = 0.; t_done = 0.; status = 0 }
      in
      incr seq;
      all := r :: !all;
      last_due := due;
      r
    in
    let pending = Queue.create () in
    List.iter (fun off -> Queue.add (make (t_seg +. off)) pending) offsets;
    let active : conn list ref = ref [] in
    let finish c status =
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      c.r.t_done <- now ();
      c.r.status <- status;
      if status >= 200 && status < 300 then incr accepted;
      active := List.filter (fun x -> x != c) !active
    in
    let start r =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.set_nonblock fd;
      r.t_start <- now ();
      let body = bodies.(r.seq mod Array.length bodies) in
      let data =
        Printf.sprintf
          "POST /enqueue/orders HTTP/1.0\r\nHost: localhost\r\nContent-Type: application/xml\r\nX-Demaq-Flow: q%d\r\nContent-Length: %d\r\n\r\n%s"
          r.seq (String.length body) body
      in
      let c = { fd; r; data; off = 0; connected = false; resp = Buffer.create 256 } in
      active := c :: !active;
      match Unix.connect fd (addr port) with
      | () ->
        c.connected <- true;
        r.t_conn <- now ()
      | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN), _, _) -> ()
      | exception Unix.Unix_error _ -> finish c 0
    in
    let on_writable c =
      if not c.connected then begin
        match Unix.getsockopt_error c.fd with
        | None ->
          c.connected <- true;
          c.r.t_conn <- now ()
        | Some _ -> finish c 0
      end;
      if c.connected && List.memq c !active then
        match Unix.write_substring c.fd c.data c.off (String.length c.data - c.off) with
        | n ->
          c.off <- c.off + n;
          if c.off >= String.length c.data then c.r.t_written <- now ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error _ -> finish c 0
    in
    let on_readable c =
      match Unix.read c.fd chunk 0 (Bytes.length chunk) with
      | 0 -> finish c (status_of c.resp)
      | n ->
        if Buffer.length c.resp = 0 then c.r.t_first <- now ();
        Buffer.add_subbytes c.resp chunk 0 n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error _ -> finish c 0
    in
    while (not (Queue.is_empty pending)) || !active <> [] do
      while
        List.length !active < conns
        && (not (Queue.is_empty pending))
        && (Queue.peek pending).due <= now ()
      do
        start (Queue.pop pending)
      done;
      (* arrivals already due that found every connection busy *)
      let t = now () in
      let waiting = ref 0 in
      Queue.iter
        (fun r ->
          if r.due <= t then begin
            r.waited <- true;
            incr waiting
          end)
        pending;
      if !waiting > !max_waiting then max_waiting := !waiting;
      let timeout =
        if List.length !active < conns && not (Queue.is_empty pending) then
          Float.max 0. ((Queue.peek pending).due -. t)
        else 0.05
      in
      let sending c = (not c.connected) || c.off < String.length c.data in
      let wr = List.filter_map (fun c -> if sending c then Some c.fd else None) !active in
      let rd = List.filter_map (fun c -> if sending c then None else Some c.fd) !active in
      let rs, ws, _ =
        if rd = [] && wr = [] then begin
          Unix.sleepf timeout;
          ([], [], [])
        end
        else
          try Unix.select rd wr [] timeout
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun c ->
          if List.mem c.fd ws && List.memq c !active then on_writable c;
          if List.mem c.fd rs && List.memq c !active then on_readable c)
        !active;
      let t = now () in
      List.iter (fun c -> if t -. c.r.due > request_timeout then finish c 0) !active
    done;
    (* the cascade has committed once the node processed [fanout]
       messages per accepted request *)
    let target = base.processed + (fanout * !accepted) in
    let deadline = now () +. drain_timeout in
    let rec poll () =
      let c = counters port node_pid in
      if c.processed >= target then (now (), c)
      else if now () > deadline then (-1., c)
      else begin
        Unix.sleepf 0.0005;
        poll ()
      end
    in
    let drained, after = poll () in
    let before = !prev in
    prev := after;
    let mine = List.filter (fun r -> r.seg = si) !all in
    let lat = Array.of_list (List.map (fun r -> (r.t_done -. r.due) *. 1e3) mine) in
    Array.sort compare lat;
    let n = Array.length lat in
    let p99 = if n = 0 then 0. else lat.(min (n - 1) (n * 99 / 100)) in
    let passed =
      drained >= 0. && p99 <= stop_p99_ms
      && not (List.exists (fun r -> r.status < 200 || r.status >= 300) mine)
    in
    ( json_obj
        [
          ("rate", json_float rate);
          ("seconds", json_float seconds);
          ("t_start", Printf.sprintf "%.6f" t_seg);
          ("last_due", Printf.sprintf "%.6f" !last_due);
          ("drained", Printf.sprintf "%.6f" drained);
          ("passed", string_of_bool passed);
          ("before", counters_json before);
          ("after", counters_json after);
        ],
      passed )
  in
  let infos = ref [] in
  let rec loop si = function
    | [] -> ()
    | (rate, seconds, offsets) :: rest ->
      let info, passed = run_segment si rate seconds offsets in
      infos := info :: !infos;
      if passed || stop_p99_ms <= 0. then loop (si + 1) rest
  in
  loop 0 planned;
  Out_channel.with_open_bin records (fun oc ->
      List.iter
        (fun r ->
          Printf.fprintf oc "%d,%d,%.6f,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%d\n" r.seq r.seg r.due
            (Bool.to_int r.waited) r.t_start r.t_conn r.t_written r.t_first r.t_done r.status)
        (List.rev !all));
  print_endline
    (json_obj
       [
         ("corpus_hash", json_string corpus_hash);
         ("accepted", string_of_int !accepted);
         ("max_waiting", string_of_int !max_waiting);
         ("segments", "[" ^ String.concat "," (List.rev !infos) ^ "]");
       ])
