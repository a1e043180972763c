(* Helpers shared by the benchmark's OCaml programs: files, clocks, counters
   and the JSON they hand back to run.py. *)

let now = Unix.gettimeofday

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* A flat directory copy: a store directory holds only regular files. *)
let copy_dir src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f -> write_file (Filename.concat dst f) (read_file (Filename.concat src f)))
    (Sys.readdir src)

(* user + system CPU seconds of this process, all domains *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* words this domain allocated so far: minor words plus words allocated
   directly in the major heap (promotions are already counted as minor
   words). [Gc.minor_words] is exact; [Gc.quick_stat]'s counters advance
   only at collections, which is fine for the major part. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

let contains needle s =
  let n = String.length needle and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = needle || at (i + 1)) in
  at 0

let hash_corpus docs = Digest.to_hex (Digest.string (String.concat "\x00" docs))

(* Minimal JSON emission: the workloads write one object on stdout. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.9g" f else "null"
let json_floats l = "[" ^ String.concat "," (List.map json_float l) ^ "]"

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

(* command-line flags of the form [--name value] *)
let flag args name default =
  let rec go = function
    | k :: v :: _ when k = "--" ^ name -> v
    | _ :: rest -> go rest
    | [] -> default
  in
  go args
