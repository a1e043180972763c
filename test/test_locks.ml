(* Conflict control (§4.3) is the dispatcher's resource partition: two
   rids whose conflict resource sets overlap must never both be in
   flight. Pinned regression first, then a qcheck model over arbitrary
   schedule/next/complete interleavings with footprint-style resource
   sets (queue and slice strings, including the empty set). *)

module Dispatch = Demaq.Engine.Dispatch

let check = Alcotest.check
let bool_ = Alcotest.bool

let test_dispatch_footprint_disjoint () =
  let d = Dispatch.create () in
  (* rids 1 and 3 write queue o1; rid 2 only writes o2 *)
  Dispatch.schedule d ~priority:0 ~resources:[ "q:o1" ] 1;
  Dispatch.schedule d ~priority:0 ~resources:[ "q:o2" ] 2;
  Dispatch.schedule d ~priority:0 ~resources:[ "q:o1"; "q:o2" ] 3;
  check bool_ "first out" true (Dispatch.next d = Dispatch.Ready 1);
  (* disjoint footprint: runs alongside rid 1 *)
  check bool_ "disjoint runs concurrently" true (Dispatch.next d = Dispatch.Ready 2);
  (* rid 3 overlaps both running rids: parked, not handed out *)
  check bool_ "conflicting parked" true (Dispatch.next d = Dispatch.Busy);
  Dispatch.complete d 1;
  check bool_ "still blocked on rid 2" true (Dispatch.next d = Dispatch.Busy);
  Dispatch.complete d 2;
  check bool_ "revived once both free" true (Dispatch.next d = Dispatch.Ready 3);
  Dispatch.complete d 3;
  check bool_ "drained" true (Dispatch.next d = Dispatch.Empty)

let fp_resources = [| "q:a"; "q:b"; "s:sl/k1"; "s:sl/k2" |]

let fp_subset mask =
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list fp_resources)

let gen_dispatch_ops =
  QCheck.Gen.(
    list_size (int_range 1 80)
      (frequency
         [
           ( 3,
             map2 (fun mask prio -> `Schedule (mask land 15, prio)) (int_range 0 15)
               (int_range 0 2) );
           (3, return `Next);
           (2, map (fun k -> `Complete k) (int_range 0 3));
         ]))

let print_dispatch_ops ops =
  String.concat "; "
    (List.map
       (function
         | `Schedule (mask, prio) ->
           Printf.sprintf "schedule p%d {%s}" prio (String.concat "," (fp_subset mask))
         | `Next -> "next"
         | `Complete k -> Printf.sprintf "complete #%d" k)
       ops)

let disjoint a b = not (List.exists (fun r -> List.mem r b) a)

let prop_dispatch_disjoint =
  QCheck.Test.make
    ~name:"dispatcher never runs overlapping footprints concurrently" ~count:300
    (QCheck.make gen_dispatch_ops ~print:print_dispatch_ops)
    (fun ops ->
      let d = Dispatch.create () in
      let resources_of = Hashtbl.create 16 in
      let running = ref [] in
      let scheduled = ref 0 and finished = ref 0 in
      let next_rid = ref 0 in
      let take () =
        match Dispatch.next d with
        | Dispatch.Ready rid ->
          let res = Hashtbl.find resources_of rid in
          (* the invariant: a handed-out rid conflicts with nothing in flight *)
          if not (List.for_all (fun (_, r) -> disjoint res r) !running) then
            failwith
              (Printf.sprintf "rid %d dispatched over a conflicting in-flight rid" rid);
          running := (rid, res) :: !running;
          true
        | Dispatch.Busy ->
          if !running = [] then failwith "Busy with nothing in flight";
          false
        | Dispatch.Empty -> false
      in
      List.iter
        (function
          | `Schedule (mask, prio) ->
            incr next_rid;
            let rid = !next_rid in
            Hashtbl.replace resources_of rid (fp_subset mask);
            Dispatch.schedule d ~priority:prio ~resources:(fp_subset mask) rid;
            incr scheduled
          | `Next -> ignore (take ())
          | `Complete k ->
            (match !running with
             | [] -> ()
             | l ->
               let rid, _ = List.nth l (k mod List.length l) in
               Dispatch.complete d rid;
               running := List.filter (fun (r, _) -> r <> rid) l;
               incr finished))
        ops;
      (* drain: everything scheduled must eventually be handed out exactly
         once — parked entries revive as their conflicts clear *)
      let guard = ref 0 in
      while
        incr guard;
        if !guard > 10_000 then failwith "drain did not terminate";
        (match !running with
         | (rid, _) :: rest ->
           Dispatch.complete d rid;
           running := rest;
           incr finished
         | [] -> ());
        take () || !running <> []
      do
        ()
      done;
      !finished = !scheduled && Dispatch.pending d = 0)

let suite =
  [
    ("dispatcher: footprint disjointness (pinned)", `Quick,
     test_dispatch_footprint_disjoint);
    QCheck_alcotest.to_alcotest prop_dispatch_disjoint;
  ]
