(* The benchmark's workloads, by the names BENCHMARK.json gives them,
   at the sizes the benchmark measures. *)

type run = seed:int -> seconds:float -> trace:bool -> Measure.outcome

let all : (string * run) list =
  [ ("serve-hot", Serve_hot.run ~size:Serve_hot.paper);
    ("fig7-paper", Fig7_paper.run ~size:Fig7_paper.paper);
    ("ingest-wal", Ingest_wal.run ~size:Ingest_wal.paper) ]

(* Runs a workload and adds the process's peak resident set. *)
let find name =
  Option.map
    (fun (run : run) ~seed ~seconds ~trace ->
      let o = run ~seed ~seconds ~trace in
      Measure.set o "peak_rss_mb" (Measure.peak_rss_mb ());
      o)
    (List.assoc_opt name all)
