(* The metrics registry: counters, gauges, and log-scale histograms,
   sharded per worker domain.

   The hot path is a counter increment or a histogram observation from a
   worker domain in the middle of a message transaction, so the design
   goal is that recording NEVER contends with other domains and costs a
   handful of plain loads/stores:

   - Each registry owns [shards] independent slabs of plain [int array]s.
     A domain binds itself to one shard ([bind_shard], done by the worker
     pool at worker start; the domain that created the registry owns
     shard 0) and all its mutations hit only that slab — no atomics, no
     cache-line ping-pong between workers.
   - Reads ([value], [snapshot]) aggregate across shards at read time.
     They race benignly with writers: an in-flight increment may or may
     not be visible, which is the usual monitoring contract. Exact totals
     are guaranteed at quiescence (e.g. after [Domain.join] of all
     workers, which is when [Server.stats] reads).
   - Wall-clock timing ([now_ns], histogram observation) is the only
     per-event cost that is not a couple of stores; [set_timing]/
     [timing_on] lets the engine skip the clock calls entirely when
     metrics are disabled, leaving counters (which tests and [stats]
     depend on) always live.

   The current-domain -> shard binding lives in one global domain-local
   slot keyed by registry id: a worker drains exactly one server at a
   time, so remembering only the latest binding is enough, and a domain
   that never bound (or bound another registry) falls back to shard 0. *)

type def = { d_name : string; d_help : string }

type shard = {
  mutable tick : int;  (* drives [sampled]; only its owner domain writes *)
  counters : int array;
  (* histogram storage, flattened: histogram [h] owns the slots
     [h * buckets_per_histogram .. (h+1) * buckets_per_histogram - 1];
     per-histogram running count and sum (in raw units) ride alongside. *)
  hbuckets : int array;
  hcount : int array;
  hsum : int array;
}

let max_counters = 128
let max_histograms = 32

(* 28 power-of-two buckets; bucket [i] counts observations whose raw value
   is < 2^(shift + i + 1). With shift 7 and nanosecond observations that
   spans 256 ns .. ~34 s, which covers everything from a cache-hot lock
   acquisition to a stuck fsync. *)
let n_buckets = 28

type histogram_def = {
  h_def : def;
  h_shift : int;  (* first bucket boundary is 2^(shift+1) raw units *)
  h_scale : float;  (* raw unit -> exposed unit (1e-9 for ns -> s) *)
}

type registry = {
  id : int;
  ts : Time_source.t;
  mutable timing : bool;
  shards : shard array;
  mu : Mutex.t;  (* guards the definition tables, not the shards *)
  mutable cdefs : def array;  (* counter id -> definition *)
  mutable n_counters : int;
  mutable hdefs : histogram_def array;
  mutable n_histograms : int;
  mutable gauges : (def * (unit -> float)) list;  (* newest first *)
  mutable counter_fns : (def * (unit -> float)) list;
}

type counter = { c_reg : registry; c_id : int }
type histogram = { h_reg : registry; h_id : int; h_hshift : int }

let next_id = Atomic.make 1

let dummy_def = { d_name = ""; d_help = "" }
let dummy_hdef = { h_def = dummy_def; h_shift = 0; h_scale = 1. }

let create ?(timing = true) ?(time_source = Time_source.real) ?(shards = 2) ()
    =
  let shards = max 1 shards in
  {
    id = Atomic.fetch_and_add next_id 1;
    ts = time_source;
    timing;
    shards =
      Array.init shards (fun _ ->
          {
            tick = 0;
            counters = Array.make max_counters 0;
            hbuckets = Array.make (max_histograms * n_buckets) 0;
            hcount = Array.make max_histograms 0;
            hsum = Array.make max_histograms 0;
          });
    mu = Mutex.create ();
    cdefs = Array.make max_counters dummy_def;
    n_counters = 0;
    hdefs = Array.make max_histograms dummy_hdef;
    n_histograms = 0;
    gauges = [];
    counter_fns = [];
  }

let set_timing reg on = reg.timing <- on
let timing_on reg = reg.timing
let time_source reg = reg.ts
let shard_count reg = Array.length reg.shards

(* ---- the domain -> shard binding ---- *)

let binding : (int * int) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (0, 0))

let bind_shard reg idx =
  let idx = if idx < 0 || idx >= Array.length reg.shards then 0 else idx in
  Domain.DLS.get binding := (reg.id, idx)

let shard_index reg =
  let id, idx = !(Domain.DLS.get binding) in
  if id = reg.id then idx else 0

let my_shard reg = reg.shards.(shard_index reg)

(* ---- registration ---- *)

let counter reg ?(help = "") name =
  Mutex.protect reg.mu @@ fun () ->
  if reg.n_counters >= max_counters then
    invalid_arg "Metrics.counter: registry counter capacity exhausted";
  let id = reg.n_counters in
  reg.cdefs.(id) <- { d_name = name; d_help = help };
  reg.n_counters <- id + 1;
  { c_reg = reg; c_id = id }

let histogram reg ?(help = "") ?(shift = 7) ?(scale = 1e-9) name =
  Mutex.protect reg.mu @@ fun () ->
  if reg.n_histograms >= max_histograms then
    invalid_arg "Metrics.histogram: registry histogram capacity exhausted";
  let id = reg.n_histograms in
  reg.hdefs.(id) <- { h_def = { d_name = name; d_help = help }; h_shift = shift; h_scale = scale };
  reg.n_histograms <- id + 1;
  { h_reg = reg; h_id = id; h_hshift = shift }

let gauge_fn reg ?(help = "") name read =
  Mutex.protect reg.mu @@ fun () ->
  reg.gauges <- ({ d_name = name; d_help = help }, read) :: reg.gauges

let counter_fn reg ?(help = "") name read =
  Mutex.protect reg.mu @@ fun () ->
  reg.counter_fns <- ({ d_name = name; d_help = help }, read) :: reg.counter_fns

(* ---- recording ---- *)

let add c n =
  let s = my_shard c.c_reg in
  Array.unsafe_set s.counters c.c_id (Array.unsafe_get s.counters c.c_id + n)

let incr c = add c 1

let sample_mask = 7 (* 1 in 8 *)

let sampled reg =
  let s = my_shard reg in
  let t = s.tick in
  s.tick <- t + 1;
  t land sample_mask = 0

let value c =
  Array.fold_left (fun acc s -> acc + s.counters.(c.c_id)) 0 c.c_reg.shards

(* log2 bucket: observations land in the first bucket whose upper bound
   2^(shift+i+1) exceeds them; everything past the last bucket only counts
   toward count/sum (the +Inf bucket of the exposition). *)
let bucket_for ~shift v =
  let rec go i bound =
    if i >= n_buckets then n_buckets
    else if v < bound then i
    else go (i + 1) (bound * 2)
  in
  go 0 (1 lsl (shift + 1))

let observe h raw =
  let raw = max 0 raw in
  let s = my_shard h.h_reg in
  let b = bucket_for ~shift:h.h_hshift raw in
  if b < n_buckets then begin
    let slot = (h.h_id * n_buckets) + b in
    Array.unsafe_set s.hbuckets slot (Array.unsafe_get s.hbuckets slot + 1)
  end;
  s.hcount.(h.h_id) <- s.hcount.(h.h_id) + 1;
  s.hsum.(h.h_id) <- s.hsum.(h.h_id) + raw

(* Percentile estimation from the log-scale buckets: find the bucket the
   rank lands in, then interpolate linearly inside it (the bucket bounds
   are powers of two, so the estimate is exact at bucket boundaries and
   at worst off by half a bucket width inside). Observations past the
   last bucket only exist in count/sum, so ranks landing there report the
   last bucket's upper bound — a lower bound on the true quantile. *)
let percentile h q =
  let reg = h.h_reg in
  let hd = reg.hdefs.(h.h_id) in
  let count =
    Array.fold_left (fun acc s -> acc + s.hcount.(h.h_id)) 0 reg.shards
  in
  if count = 0 then Float.nan
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    let rank = q *. float_of_int count in
    let bucket_count b =
      Array.fold_left
        (fun acc s -> acc + s.hbuckets.((h.h_id * n_buckets) + b))
        0 reg.shards
    in
    let rec go b cumulative =
      if b >= n_buckets then
        float_of_int (1 lsl (hd.h_shift + n_buckets)) *. hd.h_scale
      else begin
        let in_bucket = bucket_count b in
        let cumulative' = cumulative + in_bucket in
        if float_of_int cumulative' >= rank && in_bucket > 0 then begin
          let upper = float_of_int (1 lsl (hd.h_shift + b + 1)) in
          let lower = if b = 0 then 0. else upper /. 2. in
          let frac = (rank -. float_of_int cumulative) /. float_of_int in_bucket in
          (lower +. (frac *. (upper -. lower))) *. hd.h_scale
        end
        else go (b + 1) cumulative'
      end
    in
    go 0 0
  end

let percentiles h qs = List.map (percentile h) qs

let histogram_totals h =
  let count =
    Array.fold_left (fun acc s -> acc + s.hcount.(h.h_id)) 0 h.h_reg.shards
  in
  let sum =
    Array.fold_left (fun acc s -> acc + s.hsum.(h.h_id)) 0 h.h_reg.shards
  in
  (count, sum)

(* ---- windowed reads ----

   A controller reacting to *current* conditions must not average over the
   whole process lifetime: one overloaded minute buried under an hour of
   calm would vanish from the cumulative percentile. A window remembers
   the per-bucket counts at its last flush; [window_delta] estimates the
   quantile of only the observations recorded since, then advances the
   baseline. Reads race benignly with writers, like every other read. *)

type window = {
  w_hist : histogram;
  mutable w_buckets : int array;  (* per-bucket counts at the last flush *)
  mutable w_count : int;
}

let bucket_totals h =
  let reg = h.h_reg in
  Array.init n_buckets (fun b ->
      Array.fold_left
        (fun acc s -> acc + s.hbuckets.((h.h_id * n_buckets) + b))
        0 reg.shards)

let window h =
  {
    w_hist = h;
    w_buckets = bucket_totals h;
    w_count = fst (histogram_totals h);
  }

let window_delta w q =
  let h = w.w_hist in
  let hd = h.h_reg.hdefs.(h.h_id) in
  let buckets = bucket_totals h in
  let count = fst (histogram_totals h) in
  let n = count - w.w_count in
  let result =
    if n <= 0 then (0, Float.nan)
    else begin
      let q = Float.min 1. (Float.max 0. q) in
      let rank = q *. float_of_int n in
      let rec go b cumulative =
        if b >= n_buckets then
          (n, float_of_int (1 lsl (hd.h_shift + n_buckets)) *. hd.h_scale)
        else begin
          let in_bucket = buckets.(b) - w.w_buckets.(b) in
          let cumulative' = cumulative + in_bucket in
          if float_of_int cumulative' >= rank && in_bucket > 0 then begin
            let upper = float_of_int (1 lsl (hd.h_shift + b + 1)) in
            let lower = if b = 0 then 0. else upper /. 2. in
            let frac =
              (rank -. float_of_int cumulative) /. float_of_int in_bucket
            in
            (n, (lower +. (frac *. (upper -. lower))) *. hd.h_scale)
          end
          else go (b + 1) cumulative'
        end
      in
      go 0 0
    end
  in
  w.w_buckets <- buckets;
  w.w_count <- count;
  result

let now_ns () = Time_source.now_ns Time_source.real
let now reg = Time_source.now_ns reg.ts

let time h f =
  if h.h_reg.timing then begin
    let ts = h.h_reg.ts in
    let t0 = Time_source.now_ns ts in
    let finally () = observe h (Time_source.now_ns ts - t0) in
    Fun.protect ~finally f
  end
  else f ()

(* ---- read side ---- *)

type sample =
  | Counter of { name : string; help : string; value : float }
  | Gauge of { name : string; help : string; value : float }
  | Histogram of {
      name : string;
      help : string;
      buckets : (float * int) array;  (* (upper bound, cumulative count) *)
      sum : float;
      count : int;
    }

let sample_name = function
  | Counter { name; _ } | Gauge { name; _ } | Histogram { name; _ } -> name

let snapshot reg =
  let n_counters, n_histograms, gauges, counter_fns =
    Mutex.protect reg.mu (fun () ->
        (reg.n_counters, reg.n_histograms, reg.gauges, reg.counter_fns))
  in
  let counters =
    List.init n_counters (fun id ->
        let d = reg.cdefs.(id) in
        let v =
          Array.fold_left (fun acc s -> acc + s.counters.(id)) 0 reg.shards
        in
        Counter { name = d.d_name; help = d.d_help; value = float_of_int v })
  in
  let histograms =
    List.init n_histograms (fun id ->
        let hd = reg.hdefs.(id) in
        let count =
          Array.fold_left (fun acc s -> acc + s.hcount.(id)) 0 reg.shards
        in
        let sum =
          Array.fold_left (fun acc s -> acc + s.hsum.(id)) 0 reg.shards
        in
        let cumulative = ref 0 in
        let buckets =
          Array.init n_buckets (fun b ->
              let per_bucket =
                Array.fold_left
                  (fun acc s -> acc + s.hbuckets.((id * n_buckets) + b))
                  0 reg.shards
              in
              cumulative := !cumulative + per_bucket;
              let bound =
                float_of_int (1 lsl (hd.h_shift + b + 1)) *. hd.h_scale
              in
              (bound, !cumulative))
        in
        Histogram
          {
            name = hd.h_def.d_name;
            help = hd.h_def.d_help;
            buckets;
            sum = float_of_int sum *. hd.h_scale;
            count;
          })
  in
  let fns =
    List.rev_map
      (fun (d, read) ->
        Counter { name = d.d_name; help = d.d_help; value = read () })
      counter_fns
    @ List.rev_map
        (fun (d, read) ->
          Gauge { name = d.d_name; help = d.d_help; value = read () })
        gauges
  in
  counters @ histograms @ fns

(* ---- Prometheus text exposition (version 0.0.4) ---- *)

(* A registered name may carry labels ("x_total{worker=\"0\"}"); HELP/TYPE
   lines apply to the bare family name and are emitted once per family. *)
let family name =
  match String.index_opt name '{' with
  | Some i -> String.sub name 0 i
  | None -> name

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* The sample name for one series of [name]'s family: [suffix] goes on
   the family, [extra] joins the end of the label set, so
   [series "h{queue=\"q\"}" "_bucket" "le=\"1\""] is
   [h_bucket{queue="q",le="1"}]. *)
let series name suffix extra =
  let labels =
    match String.index_opt name '{' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 2)
    | None -> ""
  in
  family name ^ suffix
  ^
  match labels, extra with
  | "", "" -> ""
  | l, "" | "", l -> "{" ^ l ^ "}"
  | l, e -> "{" ^ l ^ "," ^ e ^ "}"

let render_sample buf seen sample =
  let header name kind help =
    let fam = family name in
    if not (Hashtbl.mem seen fam) then begin
      Hashtbl.replace seen fam ();
      if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" fam help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" fam kind)
    end
  in
  match sample with
  | Counter { name; help; value } ->
    header name "counter" help;
    Buffer.add_string buf (Printf.sprintf "%s %s\n" name (fmt_float value))
  | Gauge { name; help; value } ->
    header name "gauge" help;
    Buffer.add_string buf (Printf.sprintf "%s %s\n" name (fmt_float value))
  | Histogram { name; help; buckets; sum; count } ->
    header name "histogram" help;
    Array.iter
      (fun (le, cumulative) ->
        Buffer.add_string buf
          (Printf.sprintf "%s %d\n"
             (series name "_bucket" (Printf.sprintf "le=\"%s\"" (fmt_float le)))
             cumulative))
      buckets;
    Buffer.add_string buf
      (Printf.sprintf "%s %d\n" (series name "_bucket" "le=\"+Inf\"") count);
    Buffer.add_string buf
      (Printf.sprintf "%s %s\n" (series name "_sum" "") (fmt_float sum));
    Buffer.add_string buf (Printf.sprintf "%s %d\n" (series name "_count" "") count)

let render reg =
  let buf = Buffer.create 4096 in
  let seen = Hashtbl.create 64 in
  List.iter (render_sample buf seen) (snapshot reg);
  Buffer.contents buf
