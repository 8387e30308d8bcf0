(* Every metric the benchmark reports: name, unit, and — for the
   per-layer metrics — the end-to-end metric it is meant to move, on
   which workload.  BENCHMARK.json lists the same names and units; run.py
   checks the two agree on every run.

   Each workload's run prints every metric of its mode.  An "op" is the
   workload's unit of work: a request (serve-hot), one run of an
   uncensored Figure-7 cell (fig7-paper), one ingest pass (ingest-wal).
   Per-layer counts and times are per op, except on fig7-paper, where
   they are per cell run, censored runs included.  A per-layer metric for a
   layer a workload does not exercise reads 0. *)

type e2e = { e_name : string; e_unit : string }

type layer = { l_name : string; l_unit : string; moves : string }

let end_to_end =
  [ { e_name = "setup_s"; e_unit = "s" };
    { e_name = "throughput_rps"; e_unit = "1/s" };
    { e_name = "latency_p50_ms"; e_unit = "ms" };
    { e_name = "stored_bytes_per_input_byte"; e_unit = "B/B" };
    { e_name = "peak_rss_mb"; e_unit = "MB" } ]

let families =
  [ "scan"; "label-scan"; "struct-scan"; "nl-join"; "inl-join"; "struct-join"; "product";
    "sort"; "other" ]

(* The operator family of a profiled operator, from its name's first
   word ("scan XASR[x]", "semi-inl-join", ...). *)
let family op =
  let word = match String.index_opt op ' ' with Some i -> String.sub op 0 i | None -> op in
  match word with
  | "scan" | "par-scan" -> "scan"
  | "idx-scan" -> "label-scan"
  | "sidx-scan" -> "struct-scan"
  | "nl-join" | "semi-nl-join" | "bnl-join" -> "nl-join"
  | "inl-join" | "semi-inl-join" -> "inl-join"
  | "struct-join" | "semi-struct-join" | "twig-match" -> "struct-join"
  | "product" | "semi-product" | "bnl-product" -> "product"
  | "sort" | "ext-sort" | "btree-sort" -> "sort"
  | _ -> "other"

let engines = List.map (fun c -> c.Xqdb_core.Engine_config.name) Xqdb_core.Engine_config.figure7_engines
let tests = List.map fst Xqdb_testbed.Queries.efficiency_queries

let cell_metric engine test what = Printf.sprintf "cell.%s.%s.%s" engine test what

let serve_p50 = "latency_p50_ms on serve-hot"
let serve_tput = "throughput_rps on serve-hot"
let fig7_wall = "wall_s and throughput_rps on fig7-paper"
let ingest = "ingest_mb_s and throughput_rps on ingest-wal"

let per_layer =
  let l l_name l_unit moves = { l_name; l_unit; moves } in
  [ (* Outcomes only one workload has: every end-to-end metric must be
       measured on every workload, so these are reported here. *)
    l "latency_p99_ms" "ms" "serve-hot outcome: request p99";
    l "wall_s" "s" "fig7-paper outcome: sum of the 25 cells' Engine.run time";
    l "page_ios" "count" "fig7-paper outcome: page I/Os of the 25 cells, censored at budget";
    l "rank_inversions" "count" "fig7-paper outcome: engine pairs out of the paper's order";
    l "censor_mismatches" "count" "fig7-paper outcome: censored flags unlike the paper's";
    l "ingest_mb_s" "MB/s" "ingest-wal outcome: XML MB loaded and checkpointed per second";
    (* server, xq *)
    l "server.wire.decode_us" "us/op" (serve_p50 ^ " (small share)");
    l "server.wire.encode_us" "us/op" (serve_p50 ^ " (small share)");
    l "xq.parse_us" "us/op" (serve_p50 ^ " (small share)");
    (* core *)
    l "core.compile_us" "us/op" "latency_p99_ms on serve-hot (first miss); none on fig7-paper";
    l "core.prepared_hit_ratio" "share" "latency_p99_ms on serve-hot";
    l "core.execute_us" "us/op" (serve_p50 ^ ", " ^ serve_tput);
    l "core.execute_self_us" "us/op" (serve_p50 ^ ", " ^ serve_tput) ]
  @ List.concat_map
      (fun f ->
        [ l (Printf.sprintf "physical.%s.self_s" f) "s/op" (fig7_wall ^ "; " ^ serve_tput);
          l (Printf.sprintf "physical.%s.rows" f) "rows/op" (fig7_wall ^ "; " ^ serve_tput) ])
      families
  @ [ l "physical.rows_per_batch" "rows/batch" (fig7_wall ^ "; " ^ serve_tput);
      (* storage: pool and latches *)
      l "storage.pool.hits" "count/op" (serve_tput ^ "; " ^ fig7_wall);
      l "storage.pool.misses" "count/op" (serve_tput ^ "; " ^ fig7_wall);
      l "storage.pool.hit_ratio" "share" (serve_tput ^ "; " ^ fig7_wall);
      l "storage.pool.evictions" "count/op" (serve_tput ^ "; " ^ fig7_wall);
      l "storage.latch.shared_acquisitions" "count/op" (serve_tput ^ ", latency_p99_ms");
      l "storage.latch.exclusive_acquisitions" "count/op" (serve_tput ^ ", latency_p99_ms");
      l "storage.latch.waits" "count/op" (serve_tput ^ ", latency_p99_ms");
      (* storage: disk, B-trees, sort, heap, retries *)
      l "storage.disk.reads" "count/op" ("page_ios and " ^ fig7_wall ^ "; " ^ ingest);
      l "storage.disk.writes" "count/op" ("page_ios and " ^ fig7_wall ^ "; " ^ ingest);
      l "storage.btree.node_reads" "count/op" ("page_ios and " ^ fig7_wall ^ "; " ^ ingest);
      l "storage.btree.inserts" "count/op" ingest;
      l "storage.btree.splits" "count/op" ingest;
      l "storage.ext_sort.runs" "count/op" fig7_wall;
      l "storage.heap.appends" "count/op" fig7_wall;
      l "storage.retry.attempts" "count/op" "none (no faults are injected)";
      (* storage: WAL *)
      l "storage.wal.appends" "count/op" (ingest ^ "; none elsewhere (no log)");
      l "storage.wal.syncs" "count/op" (ingest ^ "; none elsewhere (no log)");
      l "storage.wal.checkpoints" "count/op" (ingest ^ "; none elsewhere (no log)");
      l "storage.wal.bytes_per_input_byte" "B/B" (ingest ^ "; none elsewhere (no log)");
      (* xml, xasr *)
      l "xml.parse_s" "s" (ingest ^ "; setup_s everywhere");
      l "xasr.load_self_s" "s" (ingest ^ "; setup_s everywhere");
      l "xasr.reconstruct_us_per_node" "us/node" ("core.execute_self_us on serve-hot; " ^ ingest) ]
  @ List.concat_map
      (fun e ->
        List.concat_map
          (fun t ->
            [ l (cell_metric e t "page_ios") "count" "page_ios, rank_inversions on fig7-paper";
              l (cell_metric e t "s") "s" "wall_s on fig7-paper" ])
          tests)
      engines
  @ [ l "runtime.minor_words_per_op" "words/op" (serve_tput ^ "; " ^ ingest);
      l "runtime.minor_collections" "count/op" (serve_tput ^ " (stop-the-world minor GCs)");
      l "runtime.major_collections" "count/op" (serve_tput ^ "; " ^ ingest);
      l "trace.overhead_share" "share" "none: tracer's own share of a traced run" ]

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s
  && match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

let valid_unit s =
  String.length s >= 1
  && String.length s <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s
