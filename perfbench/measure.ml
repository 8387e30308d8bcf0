(* What a workload run hands back, and the probes workloads share:
   counter deltas, operator-profile sums, GC and memory readings. *)

module Engine = Xqdb_core.Engine
module Storage = Xqdb_storage

let now = Storage.Monotonic.now

(* Seconds [f] takes, with its result. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* [xs] in a random order drawn from [rng]. *)
let shuffle rng xs =
  List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) (List.map (fun x -> (Random.State.bits rng, x)) xs))

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  values : (string, float) Hashtbl.t;
  mutable notes : string list;  (* printed above the metrics, in order *)
}

let outcome () = { attempted = 0; failed = 0; values = Hashtbl.create 128; notes = [] }
let set o name v = Hashtbl.replace o.values name v
let note o fmt = Printf.ksprintf (fun s -> o.notes <- o.notes @ [ s ]) fmt

(* Peak resident set of this process, from the kernel's high-water
   mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> invalid_arg "peak_rss_mb: no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* --- storage counters --------------------------------------------------- *)

(* Per-layer metric name -> process-wide counter it reads. *)
let counter_metrics =
  [ ("storage.pool.hits", "pool.hits");
    ("storage.pool.misses", "pool.misses");
    ("storage.pool.evictions", "pool.evictions");
    ("storage.latch.shared_acquisitions", "latch.shared_acquisitions");
    ("storage.latch.exclusive_acquisitions", "latch.exclusive_acquisitions");
    ("storage.latch.waits", "latch.waits");
    ("storage.btree.node_reads", "btree.node_reads");
    ("storage.btree.inserts", "btree.inserts");
    ("storage.btree.splits", "btree.splits");
    ("storage.ext_sort.runs", "ext_sort.runs");
    ("storage.heap.appends", "heap.appends");
    ("storage.retry.attempts", "retry.attempts");
    ("storage.wal.appends", "wal.appends");
    ("storage.wal.syncs", "wal.syncs");
    ("storage.wal.checkpoints", "wal.checkpoints") ]

(* Accumulates counter deltas, disk I/O and GC activity over the
   measured parts of a run. *)
type counters = {
  mutable deltas : Storage.Metrics.snapshot list;
  mutable disk : int * int;
  mutable minor_words : float;  (* allocated by the measuring domain *)
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let counters () = { deltas = []; disk = (0, 0); minor_words = 0.; minor_gcs = 0; major_gcs = 0 }

let count_into c f =
  let before = Storage.Metrics.snapshot () and gc0 = Gc.quick_stat () and words0 = Gc.minor_words () in
  let v = f () in
  let words1 = Gc.minor_words () and gc1 = Gc.quick_stat () in
  c.deltas <- Storage.Metrics.diff (Storage.Metrics.snapshot ()) before :: c.deltas;
  c.minor_words <- c.minor_words +. (words1 -. words0);
  c.minor_gcs <- c.minor_gcs + (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
  c.major_gcs <- c.major_gcs + (gc1.Gc.major_collections - gc0.Gc.major_collections);
  v

let add_disk c ~reads ~writes =
  let r, w = c.disk in
  c.disk <- (r + reads, w + writes)

let counter_total c name =
  List.fold_left (fun acc snap -> acc + Storage.Metrics.get snap name) 0 c.deltas

(* Writes every storage per-layer metric, per op. *)
let set_storage o c ~ops =
  let per n = float_of_int n /. float_of_int (max 1 ops) in
  List.iter (fun (metric, name) -> set o metric (per (counter_total c name))) counter_metrics;
  let hits = counter_total c "pool.hits" and misses = counter_total c "pool.misses" in
  set o "storage.pool.hit_ratio"
    (if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses));
  let reads, writes = c.disk in
  set o "storage.disk.reads" (per reads);
  set o "storage.disk.writes" (per writes)

(* --- operator profiles -------------------------------------------------- *)

type ops = {
  self_s : (string, float) Hashtbl.t;  (* per family *)
  rows : (string, int) Hashtbl.t;
  mutable batches : int;
  mutable all_rows : int;
  mutable tree_s : float;  (* inclusive time of the operator trees' roots *)
}

let ops () =
  { self_s = Hashtbl.create 9; rows = Hashtbl.create 9; batches = 0; all_rows = 0; tree_s = 0. }

let add_profile acc (p : Engine.profile) =
  let rec walk (op : Engine.op_profile) =
    let f = Catalog.family op.Engine.op in
    Hashtbl.replace acc.self_s f
      (Option.value (Hashtbl.find_opt acc.self_s f) ~default:0. +. op.Engine.own_seconds);
    Hashtbl.replace acc.rows f (Option.value (Hashtbl.find_opt acc.rows f) ~default:0 + op.Engine.rows);
    acc.batches <- acc.batches + op.Engine.batches;
    acc.all_rows <- acc.all_rows + op.Engine.rows;
    List.iter walk op.Engine.inputs
  in
  List.iter
    (fun (root : Engine.op_profile) ->
      acc.tree_s <- acc.tree_s +. root.Engine.seconds;
      walk root)
    p.Engine.operators

let merge_ops ~into from =
  Hashtbl.iter
    (fun f s -> Hashtbl.replace into.self_s f (s +. Option.value (Hashtbl.find_opt into.self_s f) ~default:0.))
    from.self_s;
  Hashtbl.iter
    (fun f r -> Hashtbl.replace into.rows f (r + Option.value (Hashtbl.find_opt into.rows f) ~default:0))
    from.rows;
  into.batches <- into.batches + from.batches;
  into.all_rows <- into.all_rows + from.all_rows;
  into.tree_s <- into.tree_s +. from.tree_s

let set_physical o acc ~ops =
  let per x = x /. float_of_int (max 1 ops) in
  List.iter
    (fun f ->
      set o (Printf.sprintf "physical.%s.self_s" f)
        (per (Option.value (Hashtbl.find_opt acc.self_s f) ~default:0.));
      set o (Printf.sprintf "physical.%s.rows" f)
        (per (float_of_int (Option.value (Hashtbl.find_opt acc.rows f) ~default:0))))
    Catalog.families;
  set o "physical.rows_per_batch"
    (if acc.batches = 0 then 0. else float_of_int acc.all_rows /. float_of_int acc.batches)

(* Minor words are counted per domain; collections are process-wide. *)
let set_runtime o c ~ops =
  let per x = x /. float_of_int (max 1 ops) in
  set o "runtime.minor_words_per_op" (per c.minor_words);
  set o "runtime.minor_collections" (per (float_of_int c.minor_gcs));
  set o "runtime.major_collections" (per (float_of_int c.major_gcs))

(* --- traces ------------------------------------------------------------- *)

(* Per-op self time of each span name, in the given unit scale. *)
let set_spans o tracers ~ops spans =
  let totals = Trace.self_times (List.map Trace.spans tracers) in
  List.iter
    (fun (metric, span, scale) ->
      let total = match Hashtbl.find_opt totals span with Some (s, _) -> s | None -> 0. in
      set o metric (scale *. total /. float_of_int (max 1 ops)))
    spans

let set_overhead o tracers ~wall =
  let overhead = List.fold_left (fun acc t -> acc +. t.Trace.overhead) 0. tracers in
  set o "trace.overhead_share" (if wall > overhead then overhead /. (wall -. overhead) else 0.)

(* Microseconds per node to rebuild a stored document, via
   [Reconstruct.root_forest]; also returns the rebuilt forest. *)
let reconstruct store =
  let forest, s = timed (fun () -> Xqdb_xasr.Reconstruct.root_forest store) in
  let nodes = List.fold_left (fun acc n -> acc + Xqdb_xml.Xml_tree.size n) 0 forest in
  (forest, 1e6 *. s /. float_of_int (max 1 nodes))
