(* The traced edge node: `demaqd run PROGRAM --store DIR --adaptive
   --ingress-port 0` rebuilt from the same library calls, with spans
   around the ingress gate and handler (keyed by the request's
   X-Demaq-Flow id) and around the serve loop's run, advance_time and
   maintain calls. The flags it mirrors are demaqd's defaults for that
   command line: fixed batch 1 under the adaptive controller, a 0.1 s
   tick, maintenance every 50 ms without background GC or compaction. *)

open Util
module S = Demaq.Server
module Store = Demaq.Store.Message_store
module Http = Demaq.Net.Http
module Ingress = Demaq.Engine.Ingress
module Controller = Demaq.Engine.Controller

let tick_every = 0.1
let stop = ref false

let flow_of (req : Http.request) =
  Option.value (List.assoc_opt "x-demaq-flow" req.Http.headers) ~default:""

let main ~program ~store_dir ~spans =
  Span.enabled := true;
  let t0 = now () in
  let store =
    Store.open_store
      (Store.durable_config
         ~sync:
           (Demaq.Store.Wal.Sync_batch
              { max_records = Controller.default_config.Controller.max_batch; max_bytes = 1 lsl 20 })
         store_dir)
  in
  Span.record "store.open" t0 (now ());
  let config = { S.default_config with S.batch_size = 1; group_commit = true; workers = 1; metrics = true } in
  let t0 = now () in
  let srv = S.deploy ~config ~store (read_file program) in
  Span.record "lang.deploy" t0 (now ());
  ignore (S.enable_adaptive srv);
  let gate req =
    let t0 = now () in
    let r = Ingress.gate srv req in
    Span.record ~rid:(flow_of req) "ingress.gate" t0 (now ());
    r
  in
  let handler req =
    let t0 = now () in
    let r = Ingress.handler srv req in
    Span.record ~rid:(flow_of req) "ingress.handler" t0 (now ());
    r
  in
  match Http.start ~port:0 ~gate handler with
  | Error msg ->
    prerr_endline msg;
    Store.close store;
    1
  | Ok http ->
    Printf.eprintf "ingress: http://127.0.0.1:%d/enqueue/<queue>\n%!" (Http.port http);
    List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> stop := true))) [ Sys.sigint; Sys.sigterm ];
    let last_tick = ref (now ()) and last_maint = ref (now ()) in
    let queued_max = ref 0 in
    while not !stop do
      queued_max := max !queued_max (S.pending_messages srv);
      let t0 = now () in
      let processed = S.run srv in
      (* idle polls are not work; only runs that processed are spans *)
      if processed > 0 then Span.record "exec.run" t0 (now ());
      let t = now () in
      let due = int_of_float ((t -. !last_tick) /. tick_every) in
      if due > 0 then begin
        S.advance_time srv due;
        Span.record "timer.advance" t (now ());
        last_tick := !last_tick +. (float_of_int due *. tick_every)
      end;
      let t = now () in
      if t -. !last_maint >= 0.05 then begin
        ignore (S.maintain ~gc_budget:0 ~max_wal_bytes:0 srv);
        Span.record "gc.maintain" t (now ());
        last_maint := t
      end;
      if processed = 0 then Unix.sleepf 0.001
    done;
    Http.stop http;
    Store.close store;
    Span.write spans;
    write_file (spans ^ ".host.json") (json_obj [ ("queued_max", string_of_int !queued_max) ]);
    0
