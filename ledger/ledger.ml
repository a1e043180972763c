(* The benchmark's OCaml side; run.py drives it. Subcommands:

     inproc --workload W --seed N --seconds S --trace 0|1 --work DIR --program FILE
     gen    --port P --seed N --program FILE --segments RATE:SECS,... --conns C
            --fanout K --records FILE [--node-pid PID] [--stop-p99-ms MS]
     host   --program FILE --store DIR --spans FILE

   [inproc] runs one in-process workload and prints its measurements as
   one JSON object; [gen] is the open-loop HTTP generator of edge_fanout;
   [host] is the traced edge node. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flag = Util.flag args in
  let int name = int_of_string (flag name "0") in
  match args with
  | "inproc" :: _ ->
    Inproc.main ~workload:(flag "workload" "") ~seed:(int "seed")
      ~seconds:(float_of_string (flag "seconds" "1")) ~trace:(flag "trace" "0" = "1")
      ~work:(flag "work" ".") ~program_file:(flag "program" "")
  | "gen" :: _ ->
    let segments =
      List.map
        (fun s ->
          match String.split_on_char ':' s with
          | [ rate; secs ] -> (float_of_string rate, float_of_string secs)
          | _ -> failwith ("bad segment " ^ s))
        (String.split_on_char ',' (flag "segments" ""))
    in
    Gen.main ~port:(int "port") ~seed:(int "seed") ~program:(flag "program" "") ~segments
      ~conns:(int "conns") ~fanout:(int "fanout") ~records:(flag "records" "records.csv")
      ~node_pid:(int "node-pid") ~stop_p99_ms:(float_of_string (flag "stop-p99-ms" "0"))
  | "host" :: _ ->
    exit (Host.main ~program:(flag "program" "") ~store_dir:(flag "store" "") ~spans:(flag "spans" "spans.jsonl"))
  | _ ->
    prerr_endline "usage: ledger (inproc|gen|host) [--flag value ...]";
    exit 2
