(* Tests for lib/store: codec, CRC, WAL, transactions, recovery, checkpoints. *)

module Codec = Demaq.Store.Codec
module Crc32 = Demaq.Store.Crc32
module Wal = Demaq.Store.Wal
module Vec = Demaq.Store.Vec
module Store = Demaq.Store.Message_store

let check = Alcotest.check
let string_ = Alcotest.string
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

(* ---- vec ---- *)

let test_vec () =
  let v = Vec.create ~dummy:0 in
  for i = 1 to 100 do Vec.push v i done;
  check int_ "length" 100 (Vec.length v);
  check int_ "get" 42 (Vec.get v 41);
  check int_ "fold" 5050 (Vec.fold ( + ) 0 v);
  Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  check int_ "filtered" 50 (Vec.length v);
  check bool_ "to_list ordered" true
    (Vec.to_list v = List.init 50 (fun i -> 2 * (i + 1)))

(* ---- crc ---- *)

let test_crc32 () =
  (* Known value: CRC32("123456789") = 0xCBF43926 *)
  check int_ "standard check value" 0xCBF43926 (Crc32.string "123456789");
  check bool_ "differs on change" true (Crc32.string "a" <> Crc32.string "b")

(* ---- codec ---- *)

let test_codec_roundtrip () =
  let buf = Buffer.create 64 in
  Codec.put_int buf (-42);
  Codec.put_string buf "hello \x00 world";
  Codec.put_bool buf true;
  Codec.put_list buf Codec.put_int [ 1; 2; 3 ];
  let r = Codec.reader (Buffer.contents buf) in
  check int_ "int" (-42) (Codec.get_int r);
  check string_ "string with NUL" "hello \x00 world" (Codec.get_string r);
  check bool_ "bool" true (Codec.get_bool r);
  check bool_ "list" true (Codec.get_list r Codec.get_int = [ 1; 2; 3 ]);
  check bool_ "at end" true (Codec.at_end r)

let test_codec_truncation () =
  let r = Codec.reader "\x01\x02" in
  match Codec.get_int r with
  | _ -> Alcotest.fail "expected decode error"
  | exception Codec.Decode_error _ -> ()

(* ---- wal ---- *)

let sample_ops =
  [
    Wal.Insert { rid = 1; queue = "q"; payload = "<m/>"; extra = "x"; enqueued_at = 5 };
    Wal.Mark_processed { rid = 1 };
    Wal.Slice_reset { slicing = "s"; key = "k"; lifetime = 2 };
    Wal.Delete { rid = 1; image = "<m/>" };
  ]

let test_wal_roundtrip () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  let wal = Wal.open_log ~sync:Wal.Sync_never path in
  Wal.append wal (Wal.Commit { txn = 7; ops = sample_ops });
  Wal.append wal Wal.Checkpoint;
  Wal.close wal;
  let records = ref [] in
  ignore (Wal.replay path (fun r -> records := r :: !records));
  match List.rev !records with
  | [ Wal.Commit { txn = 7; ops }; Wal.Checkpoint ] ->
    check bool_ "ops roundtrip" true (ops = sample_ops)
  | _ -> Alcotest.fail "unexpected replay"

let test_wal_torn_tail () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  let wal = Wal.open_log ~sync:Wal.Sync_never path in
  Wal.append wal (Wal.Commit { txn = 1; ops = sample_ops });
  Wal.append wal (Wal.Commit { txn = 2; ops = sample_ops });
  Wal.close wal;
  (* Truncate mid-record: only the first commit must replay. *)
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - 7);
  Unix.close fd;
  let n = ref 0 in
  ignore (Wal.replay path (fun _ -> incr n));
  check int_ "only intact record" 1 !n

let test_wal_corruption () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  let wal = Wal.open_log ~sync:Wal.Sync_never path in
  Wal.append wal (Wal.Commit { txn = 1; ops = sample_ops });
  Wal.close wal;
  (* Flip a byte in the body: CRC must reject the record. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 20 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xFF") 0 1);
  Unix.close fd;
  let n = ref 0 in
  ignore (Wal.replay path (fun _ -> incr n));
  check int_ "corrupt record dropped" 0 !n

let test_wal_reset () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  let wal = Wal.open_log ~sync:Wal.Sync_never path in
  Wal.append wal (Wal.Commit { txn = 1; ops = sample_ops });
  Wal.reset wal;
  Wal.append wal (Wal.Commit { txn = 2; ops = [] });
  Wal.close wal;
  let txns = ref [] in
  ignore
    (Wal.replay path (function
      | Wal.Commit { txn; _ } -> txns := txn :: !txns
      | Wal.Checkpoint -> ()));
  check bool_ "only post-reset" true (!txns = [ 2 ])

(* ---- crc: slicing-by-8 against a bytewise reference ---- *)

(* The classic one-table, one-byte-at-a-time CRC-32: the values the log
   has always been written with. *)
let reference_crc s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

(* a string, and an in-range (off, len) whose length is 0-7 or not a
   multiple of 8 most of the time *)
let gen_crc_case =
  QCheck.Gen.(
    string_size ~gen:char (int_range 0 100) >>= fun s ->
    let n = String.length s in
    int_range 0 n >>= fun off ->
    let room = n - off in
    oneof
      [
        map (fun l -> min l room) (int_range 0 7);
        map (fun l -> if l mod 8 = 0 && l > 0 then l - 1 else l) (int_range 0 room);
        int_range 0 room;
      ]
    >|= fun len -> (s, off, len))

let prop_crc_sub_reference =
  QCheck.Test.make ~name:"Crc32.sub = bytewise CRC of String.sub" ~count:2000
    (QCheck.make gen_crc_case ~print:(fun (s, off, len) ->
         Printf.sprintf "%S off=%d len=%d" s off len))
    (fun (s, off, len) -> Crc32.sub s off len = reference_crc (String.sub s off len))

let test_crc32_sub_range () =
  check int_ "whole-string sub = string" (Crc32.string "123456789")
    (Crc32.sub "xx123456789yy" 2 9);
  List.iter
    (fun (off, len) ->
      match Crc32.sub "abcdefgh" off len with
      | _ -> Alcotest.failf "sub %d %d accepted" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 0); (0, -1); (7, 2); (9, 0); (0, 9); (max_int, 1) ]

(* ---- wal: a log written before the in-place replay ---- *)

let hex s = String.init (String.length s / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

(* The bytes of a log written by the previous WAL code (bytewise CRC,
   per-integer Bytes encoding, copying replay): one commit with a binary
   and a legacy text insert, one with Mark_processed and Slice_reset, a
   checkpoint, and one more Mark_processed. *)
let golden_wal =
  hex
    (String.concat ""
       [
     "c800000000000000784dca800000000043010000000000000002000000000000";
     "0049010000000000000006000000000000006f72646572733e00000000000000";
     "004258010401056f726465720002696401046974656d0301780575726e3a6e1e";
     "01000101013714000000010200060000000204676c7565010300000000000a00";
     "00000000000070726f707300626c6f6203000000000000004902000000000000";
     "0006000000000000006c656761637911000000000000003c6120623d2231223e";
     "746578743c2f613e000000000000000004000000000000003f00000000000000";
     "5665bbec00000000430200000000000000020000000000000050010000000000";
     "0000520a000000000000006279437573746f6d65720200000000000000633702";
     "00000000000000010000000000000095770c33000000004b1a00000000000000";
     "f20f5d1b00000000430300000000000000010000000000000050020000000000";
     "0000";
       ])

let golden_payload =
  hex
    (String.concat ""
       [
     "004258010401056f726465720002696401046974656d0301780575726e3a6e1e";
     "01000101013714000000010200060000000204676c756501030000000000";
       ])

let golden_records =
  [
    Wal.Commit
      {
        txn = 1;
        ops =
          [
            Wal.Insert
              { rid = 1; queue = "orders"; payload = golden_payload; extra = "props\x00blob"; enqueued_at = 3 };
            Wal.Insert
              { rid = 2; queue = "legacy"; payload = "<a b=\"1\">text</a>"; extra = ""; enqueued_at = 4 };
          ];
      };
    Wal.Commit
      {
        txn = 2;
        ops =
          [
            Wal.Mark_processed { rid = 1 };
            Wal.Slice_reset { slicing = "byCustomer"; key = "c7"; lifetime = 2 };
          ];
      };
    Wal.Checkpoint;
    Wal.Commit { txn = 3; ops = [ Wal.Mark_processed { rid = 2 } ] };
  ]

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let test_wal_golden_fixture () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  write_file path golden_wal;
  let records = ref [] in
  let valid = Wal.replay path (fun r -> records := r :: !records) in
  check int_ "whole log intact" (String.length golden_wal) valid;
  check bool_ "same records" true (List.rev !records = golden_records);
  (* the same bytes come out of today's encoder *)
  let path2 = Filename.concat dir "wal2.log" in
  let w = Wal.open_log ~sync:Wal.Sync_never path2 in
  List.iter (Wal.append w) golden_records;
  Wal.close w;
  check bool_ "encoder writes identical bytes" true
    (In_channel.with_open_bin path2 In_channel.input_all = golden_wal);
  (* and the store recovers the state the old log describes *)
  Sys.remove path2;
  let st = Store.open_store (Store.durable_config ~sync:Wal.Sync_never dir) in
  let m1 = Option.get (Store.get st 1) and m2 = Option.get (Store.get st 2) in
  check string_ "binary payload" golden_payload (Store.payload st m1);
  check string_ "text payload" "<a b=\"1\">text</a>" (Store.payload st m2);
  check bool_ "both processed" true (m1.Store.processed && m2.Store.processed);
  check int_ "slice lifetime" 2 (Store.slice_lifetime st ~slicing:"byCustomer" ~key:"c7");
  Store.close st

(* Replay of a mutated log: truncated anywhere or with a flipped byte, it
   returns the intact prefix — a prefix of the original records — and
   raises nothing. *)
let test_wal_replay_total_on_mutants () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  let rng = Random.State.make [| 23 |] in
  let is_prefix got =
    let rec go = function
      | [], _ -> true
      | g :: gs, e :: es -> g = e && go (gs, es)
      | _ :: _, [] -> false
    in
    go (got, golden_records)
  in
  let replay_mutant bytes =
    write_file path bytes;
    let records = ref [] in
    match Wal.replay path (fun r -> records := r :: !records) with
    | valid ->
      check bool_ "valid prefix within the file" true (valid >= 0 && valid <= String.length bytes);
      check bool_ "records are a prefix of the original" true (is_prefix (List.rev !records))
    | exception e -> Alcotest.failf "replay raised %s" (Printexc.to_string e)
  in
  for n = 0 to String.length golden_wal - 1 do
    replay_mutant (String.sub golden_wal 0 n)
  done;
  for _ = 1 to 500 do
    let b = Bytes.of_string golden_wal in
    let pos = Random.State.int rng (Bytes.length b) in
    Bytes.set b pos (Char.chr (Random.State.int rng 256));
    replay_mutant (Bytes.to_string b)
  done;
  (* a flipped body byte under a recomputed CRC reaches the record
     decoder itself: it must stop at a typed error, never raise *)
  let first_len = Int64.to_int (String.get_int64_le golden_wal 0) in
  for _ = 1 to 500 do
    let b = Bytes.of_string golden_wal in
    Bytes.set b (16 + Random.State.int rng first_len) (Char.chr (Random.State.int rng 256));
    Bytes.set_int64_le b 8 (Int64.of_int (Crc32.sub (Bytes.to_string b) 16 first_len));
    write_file path (Bytes.to_string b);
    match Wal.replay path ignore with
    | valid -> check bool_ "valid prefix within the file" true (valid >= 0 && valid <= Bytes.length b)
    | exception e -> Alcotest.failf "replay raised %s" (Printexc.to_string e)
  done

(* ---- message store: in-memory transactions ---- *)

let mem_store () = Store.open_store Store.default_config

let insert_msg txn queue payload =
  Store.insert txn ~queue ~payload ~extra:"" ~enqueued_at:1 ~durable:true

let test_store_basic () =
  let st = mem_store () in
  let txn = Store.begin_txn st in
  let r1 = insert_msg txn "q" "<a/>" in
  let r2 = insert_msg txn "q" "<b/>" in
  Store.commit txn;
  check bool_ "rids increase" true (r2 > r1);
  check int_ "queue length" 2 (Store.queue_length st "q");
  check bool_ "order" true (Store.queue_rids st "q" = [ r1; r2 ]);
  let m = Option.get (Store.get st r1) in
  check string_ "payload" "<a/>" (Store.payload st m);
  check bool_ "unprocessed" true (not m.Store.processed);
  check int_ "two unprocessed" 2 (List.length (Store.unprocessed st))

let test_store_abort () =
  let st = mem_store () in
  let txn = Store.begin_txn st in
  let r = insert_msg txn "q" "<a/>" in
  Store.abort txn;
  check bool_ "insert undone" true (Store.get st r = None);
  check int_ "queue empty" 0 (Store.queue_length st "q");
  (* processed flag rollback *)
  let txn = Store.begin_txn st in
  let r = insert_msg txn "q" "<a/>" in
  Store.commit txn;
  let txn = Store.begin_txn st in
  Store.mark_processed txn r;
  check bool_ "marked inside txn" true (Option.get (Store.get st r)).Store.processed;
  Store.abort txn;
  check bool_ "unmarked after abort" true
    (not (Option.get (Store.get st r)).Store.processed)

let test_store_slice_lifetimes () =
  let st = mem_store () in
  check int_ "initial lifetime" 0 (Store.slice_lifetime st ~slicing:"s" ~key:"k");
  let txn = Store.begin_txn st in
  Store.slice_reset txn ~slicing:"s" ~key:"k";
  Store.commit txn;
  check int_ "incremented" 1 (Store.slice_lifetime st ~slicing:"s" ~key:"k");
  let txn = Store.begin_txn st in
  Store.slice_reset txn ~slicing:"s" ~key:"k";
  Store.abort txn;
  check int_ "abort rolls back" 1 (Store.slice_lifetime st ~slicing:"s" ~key:"k")

let test_store_delete_tombstone () =
  let st = mem_store () in
  let txn = Store.begin_txn st in
  let r = insert_msg txn "q" "<a/>" in
  Store.commit txn;
  let txn = Store.begin_txn st in
  Store.delete txn r;
  Store.commit txn;
  check bool_ "invisible" true (Store.get st r = None);
  check int_ "not in queue" 0 (Store.queue_length st "q");
  check int_ "tombstone counted" 1 (Store.stats st).Store.tombstones;
  Store.checkpoint st;
  check int_ "dropped at checkpoint" 0 (Store.stats st).Store.tombstones

let test_store_finished_txn () =
  let st = mem_store () in
  let txn = Store.begin_txn st in
  Store.commit txn;
  match insert_msg txn "q" "<a/>" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ---- durability and recovery ---- *)

let test_recovery () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let r1 = insert_msg txn "q" "<a/>" in
  let _r2 = insert_msg txn "other" "<b/>" in
  Store.slice_reset txn ~slicing:"s" ~key:"k";
  Store.commit txn;
  let txn = Store.begin_txn st in
  Store.mark_processed txn r1;
  Store.commit txn;
  Store.close st;
  (* Re-open: everything committed must be back. *)
  let st2 = Store.open_store cfg in
  check int_ "q recovered" 1 (Store.queue_length st2 "q");
  check int_ "other recovered" 1 (Store.queue_length st2 "other");
  check bool_ "processed flag recovered" true
    (Option.get (Store.get st2 r1)).Store.processed;
  check int_ "slice lifetime recovered" 1
    (Store.slice_lifetime st2 ~slicing:"s" ~key:"k");
  (* rid allocation continues past recovered ones *)
  let txn = Store.begin_txn st2 in
  let r3 = insert_msg txn "q" "<c/>" in
  Store.commit txn;
  check bool_ "fresh rid" true (r3 > r1);
  Store.close st2

let test_recovery_uncommitted_invisible () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  ignore (insert_msg txn "q" "<a/>");
  Store.commit txn;
  let txn2 = Store.begin_txn st in
  ignore (insert_msg txn2 "q" "<b/>");
  (* no commit: simulate crash by reopening without closing the txn *)
  Store.close st;
  let st2 = Store.open_store cfg in
  check int_ "only committed" 1 (Store.queue_length st2 "q");
  Store.close st2

let test_recovery_transient_skipped () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  ignore (Store.insert txn ~queue:"t" ~payload:"<x/>" ~extra:"" ~enqueued_at:1 ~durable:false);
  ignore (insert_msg txn "q" "<a/>");
  Store.commit txn;
  check int_ "transient visible live" 1 (Store.queue_length st "t");
  Store.close st;
  let st2 = Store.open_store cfg in
  check int_ "transient gone after restart" 0 (Store.queue_length st2 "t");
  check int_ "durable kept" 1 (Store.queue_length st2 "q");
  Store.close st2

let test_checkpoint_and_log_truncation () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  for i = 1 to 20 do
    let txn = Store.begin_txn st in
    ignore (insert_msg txn "q" (Printf.sprintf "<m n='%d'/>" i));
    Store.commit txn
  done;
  let before = (Store.stats st).Store.wal_bytes in
  Store.checkpoint st;
  let after = (Store.stats st).Store.wal_bytes in
  check bool_ "log truncated" true (after < before);
  Store.close st;
  let st2 = Store.open_store cfg in
  check int_ "snapshot loads all" 20 (Store.queue_length st2 "q");
  (* and the combination snapshot + new log entries works *)
  let txn = Store.begin_txn st2 in
  ignore (insert_msg txn "q" "<extra/>");
  Store.commit txn;
  Store.close st2;
  let st3 = Store.open_store cfg in
  check int_ "snapshot + tail" 21 (Store.queue_length st3 "q");
  Store.close st3

let test_deletions_unlogged_by_default () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let r = insert_msg txn "q" "<a/>" in
  Store.commit txn;
  let before = (Store.stats st).Store.wal_bytes in
  let txn = Store.begin_txn st in
  Store.delete txn r;
  Store.commit txn;
  let after = (Store.stats st).Store.wal_bytes in
  (* §4.1: deletes are not logged; re-derived after recovery *)
  check int_ "no delete bytes" before after;
  Store.close st;
  (* after restart the message is back (tombstone was volatile) — the
     retention GC re-deletes it from derived state *)
  let st2 = Store.open_store cfg in
  check int_ "delete not replayed" 1 (Store.queue_length st2 "q");
  Store.close st2

let test_deletions_logged_when_configured () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never ~log_deletions:true dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let r = insert_msg txn "q" "<a/>" in
  Store.commit txn;
  let txn = Store.begin_txn st in
  Store.delete txn r;
  Store.commit txn;
  Store.close st;
  let st2 = Store.open_store cfg in
  check int_ "delete replayed" 0 (Store.queue_length st2 "q");
  Store.close st2

let test_sync_modes () =
  let dir = fresh_dir () in
  let st = Store.open_store (Store.durable_config ~sync:Wal.Sync_always dir) in
  let txn = Store.begin_txn st in
  ignore (insert_msg txn "q" "<a/>");
  Store.commit txn;
  check bool_ "fsync counted" true ((Store.stats st).Store.wal_syncs >= 1);
  check int_ "Sync_always leaves nothing pending" 0 (Store.unsynced_commits st);
  check bool_ "barrier is a no-op outside Sync_batch" false (Store.barrier st);
  Store.close st

let test_sync_batch_auto_barrier () =
  (* The record-count trigger: every [max_records]th commit fires an
     automatic barrier; the rest stay pending until an explicit one. *)
  let dir = fresh_dir () in
  let cfg =
    Store.durable_config ~sync:(Wal.Sync_batch { max_records = 4; max_bytes = 0 }) dir
  in
  let st = Store.open_store cfg in
  for i = 1 to 10 do
    let txn = Store.begin_txn st in
    ignore (insert_msg txn "q" (Printf.sprintf "<m n='%d'/>" i));
    Store.commit txn
  done;
  let stats = Store.stats st in
  check int_ "auto-barrier fired at 4 and 8" 2 stats.Store.wal_group_syncs;
  check int_ "two commits still exposed" 2 (Store.unsynced_commits st);
  check bool_ "explicit barrier syncs the tail" true (Store.barrier st);
  check int_ "nothing exposed after the barrier" 0 (Store.unsynced_commits st);
  check bool_ "watermark covers every commit" true (Store.durable_upto st > 0);
  check bool_ "second barrier has nothing to do" false (Store.barrier st);
  Store.close st;
  let st2 = Store.open_store cfg in
  check int_ "all ten survive the restart" 10 (Store.queue_length st2 "q");
  Store.close st2

let test_sync_batch_byte_trigger () =
  let dir = fresh_dir () in
  let cfg =
    Store.durable_config ~sync:(Wal.Sync_batch { max_records = 0; max_bytes = 64 }) dir
  in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  ignore (insert_msg txn "q" ("<m>" ^ String.make 100 'x' ^ "</m>"));
  Store.commit txn;
  (* one record already exceeds 64 pending bytes: synced immediately *)
  check int_ "byte threshold fired the barrier" 0 (Store.unsynced_commits st);
  check bool_ "counted as a group sync" true
    ((Store.stats st).Store.wal_group_syncs >= 1);
  Store.close st

let snapshot_ino dir =
  (Unix.stat (Filename.concat dir "snapshot.bin")).Unix.st_ino

let test_checkpoint_skip_when_clean () =
  (* A checkpoint with no WAL records and no dirty pages since the last one
     must not rewrite (or fsync) the snapshot; with new work it must. *)
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  ignore (insert_msg txn "q" "<a/>");
  Store.commit txn;
  Store.checkpoint st;
  let ino1 = snapshot_ino dir in
  Store.checkpoint st;
  check int_ "clean checkpoint skipped the snapshot write" ino1 (snapshot_ino dir);
  check int_ "but was still counted" 2 (Store.stats st).Store.checkpoints;
  let txn = Store.begin_txn st in
  ignore (insert_msg txn "q" "<b/>");
  Store.commit txn;
  Store.checkpoint st;
  check bool_ "new work forces a fresh snapshot" true (snapshot_ino dir <> ino1);
  Store.close st;
  (* a recovered non-empty log must be truncated by the next checkpoint
     even when this session wrote nothing new *)
  let txn_log = Store.open_store cfg in
  let txn = Store.begin_txn txn_log in
  ignore (insert_msg txn "q" "<c/>");
  Store.commit txn;
  Store.close txn_log;
  let st2 = Store.open_store cfg in
  check bool_ "log non-empty after recovery" true ((Store.stats st2).Store.wal_bytes > 0);
  Store.checkpoint st2;
  check int_ "checkpoint truncated the recovered log" 0
    (Store.stats st2).Store.wal_bytes;
  Store.close st2;
  let st3 = Store.open_store cfg in
  check int_ "snapshot alone restores everything" 3 (Store.queue_length st3 "q");
  Store.close st3

(* qcheck: the store agrees with a trivial model under random op sequences *)

type model_op =
  | M_insert of string
  | M_process of int  (* index into inserted list *)
  | M_delete of int
  | M_abort_insert of string

let gen_ops =
  QCheck.Gen.(
    small_list
      (frequency
         [
           (4, map (fun q -> M_insert q) (oneofl [ "a"; "b" ]));
           (2, map (fun i -> M_process i) (int_bound 20));
           (1, map (fun i -> M_delete i) (int_bound 20));
           (1, map (fun q -> M_abort_insert q) (oneofl [ "a"; "b" ]));
         ]))

let prop_store_model =
  QCheck.Test.make ~name:"store matches list model" ~count:100
    (QCheck.make gen_ops)
    (fun ops ->
      let st = mem_store () in
      (* model: (rid, queue, processed, deleted) list *)
      let model = ref [] in
      List.iter
        (fun op ->
          let txn = Store.begin_txn st in
          (match op with
           | M_insert q ->
             let rid = insert_msg txn q "<m/>" in
             model := !model @ [ (rid, q, ref false, ref false) ]
           | M_abort_insert q ->
             ignore (insert_msg txn q "<m/>");
             Store.abort txn
           | M_process i -> (
             match List.nth_opt !model i with
             | Some (rid, _, p, _) ->
               Store.mark_processed txn rid;
               p := true
             | None -> ())
           | M_delete i -> (
             match List.nth_opt !model i with
             | Some (rid, _, _, d) ->
               Store.delete txn rid;
               d := true
             | None -> ()));
          (match op with M_abort_insert _ -> () | _ -> Store.commit txn))
        ops;
      List.for_all
        (fun q ->
          let expected =
            List.filter_map
              (fun (rid, q', _, d) -> if q' = q && not !d then Some rid else None)
              !model
          in
          Store.queue_rids st q = expected)
        [ "a"; "b" ]
      && List.for_all
           (fun (rid, _, p, d) ->
             match Store.get st rid with
             | None -> !d
             | Some m -> (not !d) && m.Store.processed = !p)
           !model)

let suite =
  [
    ("vec", `Quick, test_vec);
    ("crc32 known value", `Quick, test_crc32);
    ("crc32 sub range checks", `Quick, test_crc32_sub_range);
    QCheck_alcotest.to_alcotest prop_crc_sub_reference;
    ("codec roundtrip", `Quick, test_codec_roundtrip);
    ("codec truncation", `Quick, test_codec_truncation);
    ("wal roundtrip", `Quick, test_wal_roundtrip);
    ("wal torn tail ignored", `Quick, test_wal_torn_tail);
    ("wal corruption detected", `Quick, test_wal_corruption);
    ("wal reset", `Quick, test_wal_reset);
    ("wal golden fixture replays", `Quick, test_wal_golden_fixture);
    ("wal replay total on mutated logs", `Quick, test_wal_replay_total_on_mutants);
    ("store basics", `Quick, test_store_basic);
    ("txn abort undoes", `Quick, test_store_abort);
    ("slice lifetimes", `Quick, test_store_slice_lifetimes);
    ("delete tombstones", `Quick, test_store_delete_tombstone);
    ("finished txn rejected", `Quick, test_store_finished_txn);
    ("recovery", `Quick, test_recovery);
    ("recovery: uncommitted invisible", `Quick, test_recovery_uncommitted_invisible);
    ("recovery: transient skipped", `Quick, test_recovery_transient_skipped);
    ("checkpoint truncates log", `Quick, test_checkpoint_and_log_truncation);
    ("deletions unlogged by default", `Quick, test_deletions_unlogged_by_default);
    ("deletions logged when configured", `Quick, test_deletions_logged_when_configured);
    ("sync modes", `Quick, test_sync_modes);
    ("sync batch: auto barrier on record count", `Quick, test_sync_batch_auto_barrier);
    ("sync batch: auto barrier on byte size", `Quick, test_sync_batch_byte_trigger);
    ("checkpoint skipped when clean", `Quick, test_checkpoint_skip_when_clean);
    QCheck_alcotest.to_alcotest prop_store_model;
  ]

(* ---- large-payload spill (heap file integration) ---- *)

let big_payload n seed = Printf.sprintf "<blob n='%d'>%s</blob>" seed (String.make n 'B')

let test_spill_roundtrip () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never ~spill_threshold:256 dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let small = insert_msg txn "q" "<small/>" in
  let rid = Store.insert txn ~queue:"q" ~payload:(big_payload 5000 1) ~extra:""
      ~enqueued_at:1 ~durable:true in
  Store.commit txn;
  let m = Option.get (Store.get st rid) in
  check bool_ "spilled out of line" true
    (match m.Store.stored with Store.Spilled _ -> true | Store.Inline _ -> false);
  check int_ "length tracked" (String.length (big_payload 5000 1)) (Store.payload_length m);
  check string_ "read back through pool" (big_payload 5000 1) (Store.payload st m);
  let sm = Option.get (Store.get st small) in
  check bool_ "small stays inline" true
    (match sm.Store.stored with Store.Inline _ -> true | Store.Spilled _ -> false);
  check int_ "stats count spill" 1 (Store.stats st).Store.spilled_payloads;
  Store.close st

let test_spill_survives_checkpoint_and_restart () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never ~spill_threshold:256 dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let r1 = Store.insert txn ~queue:"q" ~payload:(big_payload 9000 7) ~extra:""
      ~enqueued_at:1 ~durable:true in
  Store.commit txn;
  Store.checkpoint st;
  Store.close st;
  (* reopen from snapshot: the body must still resolve through the heap *)
  let st2 = Store.open_store cfg in
  let m = Option.get (Store.get st2 r1) in
  check string_ "spilled body after snapshot restart" (big_payload 9000 7)
    (Store.payload st2 m);
  check bool_ "still out of line" true
    (match m.Store.stored with Store.Spilled _ -> true | _ -> false);
  Store.close st2

let test_spill_recovery_from_wal_only () =
  (* crash before any checkpoint: the WAL holds the full payload; recovery
     keeps it inline, the next checkpoint re-spills, orphan records from
     before the crash are swept *)
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never ~spill_threshold:256 dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let r1 = Store.insert txn ~queue:"q" ~payload:(big_payload 4000 3) ~extra:""
      ~enqueued_at:1 ~durable:true in
  Store.commit txn;
  Store.close st;
  let st2 = Store.open_store cfg in
  let m = Option.get (Store.get st2 r1) in
  check string_ "recovered body" (big_payload 4000 3) (Store.payload st2 m);
  Store.checkpoint st2;
  let m = Option.get (Store.get st2 r1) in
  check bool_ "re-spilled at checkpoint" true
    (match m.Store.stored with Store.Spilled _ -> true | _ -> false);
  check string_ "body after re-spill" (big_payload 4000 3) (Store.payload st2 m);
  Store.close st2

let test_spill_freed_by_gc () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never ~spill_threshold:256 dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let r1 = Store.insert txn ~queue:"q" ~payload:(big_payload 4000 9) ~extra:""
      ~enqueued_at:1 ~durable:true in
  Store.commit txn;
  let txn = Store.begin_txn st in
  Store.delete txn r1;
  Store.commit txn;
  Store.checkpoint st;  (* drops tombstones, frees heap records *)
  check int_ "no spilled left" 0 (Store.stats st).Store.spilled_payloads;
  Store.close st

let test_spill_abort_frees () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never ~spill_threshold:256 dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  ignore (Store.insert txn ~queue:"q" ~payload:(big_payload 4000 5) ~extra:""
            ~enqueued_at:1 ~durable:true);
  Store.abort txn;
  check int_ "nothing live" 0 (Store.stats st).Store.live_messages;
  check int_ "no spill retained" 0 (Store.stats st).Store.spilled_payloads;
  Store.close st

let spill_suite =
  [
    ("spill: roundtrip and threshold", `Quick, test_spill_roundtrip);
    ("spill: checkpoint + restart", `Quick, test_spill_survives_checkpoint_and_restart);
    ("spill: WAL-only recovery + re-spill", `Quick, test_spill_recovery_from_wal_only);
    ("spill: freed by tombstone drop", `Quick, test_spill_freed_by_gc);
    ("spill: abort frees", `Quick, test_spill_abort_frees);
  ]

let suite = suite @ spill_suite
