(* fig7-paper: the paper's Figure 7 at paper scale.  Each of the five
   Figure-7 engines gets its own freshly loaded database (DBLP at
   [scale] in the 48-frame pool, so the data is many times the pool).

   The table pass runs Figure 7 itself: each engine, in Figure 7's
   order, runs the five efficiency queries in order under the page-I/O
   budgets of [Efficiency.run].  Page I/O repeats exactly from run to
   run, so the table, its totals and its shape are exact.  Every
   uncensored cell's output must equal the milestone-1 reference
   computed before set-up.  The wall-clock guard is set far above any
   cell: the page-I/O budget alone decides censoring, and a cell
   stopped by anything else fails the run.

   The timed op is one run of an uncensored cell.  A censored cell's
   time is only the time it takes to reach its budget, so censored
   cells run once, in the table pass, and are not timed.  After its
   column, each engine repeats its uncensored cells in seeded rounds
   until each cell's runs sum to its share of [seconds] (a 25th) or it
   has run [max_runs] times; the table pass's run is each cell's
   first.  Only one engine's database is alive at a time. *)

module Engine = Xqdb_core.Engine
module Config = Xqdb_core.Engine_config
module M = Measure

type size = { scale : int; budget : int; budgets : (string * int) list; guard_s : float }

let paper =
  { scale = 2500;
    budget = 60_000;
    budgets = [ ("test3-semijoin", 8_000); ("test5-unrelated", 8_000) ];
    guard_s = 600. }

(* The most runs a timed cell gets. *)
let max_runs = 25

let budget_of size test = Option.value (List.assoc_opt test size.budgets) ~default:size.budget

(* Figure 7's censored cells ("2400" in the paper's table). *)
let paper_censored =
  [ ("engine-2", "test5-unrelated"); ("engine-3", "test3-semijoin"); ("engine-4", "test3-semijoin");
    ("engine-4", "test5-unrelated"); ("engine-5", "test3-semijoin"); ("engine-5", "test5-unrelated") ]

type cell = { engine : string; test : string; page_ios : int; seconds : float; censored : bool }

let total cells engine =
  List.fold_left (fun acc c -> if String.equal c.engine engine then acc + c.page_ios else acc) 0 cells

(* Engine pairs (i, j), i ranked before j by the paper, whose measured
   totals are not in that order. *)
let rank_inversions cells engines =
  let totals = List.map (total cells) engines in
  let rec count = function
    | [] -> 0
    | t :: rest -> List.length (List.filter (fun u -> t >= u) rest) + count rest
  in
  count totals

let censor_mismatches cells =
  List.length
    (List.filter
       (fun c -> c.censored <> List.mem (c.engine, c.test) paper_censored)
       cells)

(* Whether a cell's run was censored by its page-I/O budget.  Any other
   stop — the wall-clock guard, a timeout, an error — fails the run. *)
let censored ~engine ~test ~budget (r : Engine.result) =
  let stopped why m = failwith (Printf.sprintf "%s %s %s: %s" engine test why m) in
  match r.Engine.status with
  | Engine.Ok -> false
  | Engine.Budget_exceeded _ when r.Engine.page_ios > budget -> true
  | Engine.Budget_exceeded m | Engine.Timeout m -> stopped "stopped before its page-I/O budget" m
  | Engine.Error m | Engine.Io_error m -> stopped "failed" m

let run ~size ~seed ~seconds ~trace =
  let o = M.outcome () in
  let tr = Trace.create ~enabled:trace in
  let counters = M.counters () and ops = M.ops () in
  let generate () = Xqdb_workload.Dblp_gen.generate_string (Xqdb_workload.Dblp_gen.scaled size.scale) in
  let queries = Xqdb_testbed.Queries.parsed Xqdb_testbed.Queries.efficiency_queries in
  (* The oracle: milestone 1 over the same document. *)
  let reference =
    let m1 = Engine.load ~config:Config.m1 (generate ()) in
    List.map
      (fun (test, q) ->
        let r = Engine.run m1 q in
        if r.Engine.status <> Engine.Ok then failwith ("milestone-1 reference failed on " ^ test);
        (test, r.Engine.output))
      queries
  in
  let runs = ref 0 in
  (* One cell run.  The heap is not collected between cells: a full
     major collection before a cell was seen to make that cell slower
     and to raise the peak resident set by hundreds of MB. *)
  let exec name engine (test, q) =
    let budget = budget_of size test in
    let r =
      Trace.with_span tr "cell" ~req:!runs (fun () ->
          let go () = Engine.run ~max_page_ios:budget ~max_seconds:size.guard_s engine q in
          if trace then M.count_into counters go else go ())
    in
    incr runs;
    M.add_profile ops r.Engine.profile;
    M.add_disk counters ~reads:r.Engine.profile.Engine.reads ~writes:r.Engine.profile.Engine.writes;
    let censored = censored ~engine:name ~test ~budget r in
    if (not censored) && not (String.equal r.Engine.output (List.assoc test reference)) then begin
      o.M.failed <- o.M.failed + 1;
      M.note o "MISMATCH: %s %s differs from the milestone-1 reference" name test
    end;
    (r, censored)
  in
  let engines = List.map (fun c -> c.Config.name) Config.figure7_engines in
  let floor_s = seconds /. float_of_int (List.length engines * List.length queries) in
  let rng = Random.State.make [| seed; 0xf167 |] in
  (* Per engine: set-up, the engine's column of the table pass, then
     its timed rounds.  Only one engine's database is alive at a time. *)
  let per_engine =
    List.map
      (fun config ->
        let name = config.Config.name in
        Gc.full_major ();
        (* Set-up: generate the document as XML text, parse and load it. *)
        let (engine, xml_bytes), setup_s =
          M.timed (fun () ->
              let xml = generate () in
              Trace.with_span tr "setup" ~req:0 (fun () ->
                  Trace.with_span tr "xasr.load" ~req:0 (fun () ->
                      let forest =
                        Trace.with_span tr "xml.parse" ~req:0 (fun () -> Xqdb_xml.Xml_parser.parse_forest xml)
                      in
                      (Engine.load_forest ~config forest, String.length xml))))
        in
        let disk = Engine.disk engine in
        M.set o "stored_bytes_per_input_byte"
          (float_of_int (Xqdb_storage.Disk.page_count disk * Xqdb_storage.Disk.page_size disk)
           /. float_of_int xml_bytes);
        let column =
          List.map
            (fun (test, q) ->
              let r, censored = exec name engine (test, q) in
              let page_ios = if censored then budget_of size test else r.Engine.page_ios in
              ({ engine = name; test; page_ios; seconds = r.Engine.elapsed; censored }, q))
            queries
        in
        (* Timed rounds: each uncensored cell, the table pass's run its
           first, runs until its runs sum to [floor_s] or it has run
           [max_runs] times.  A round is a seeded shuffle of the cells
           still short of that. *)
        let samples =
          List.filter_map (fun (c, q) -> if c.censored then None else Some (c.test, q, ref [ c.seconds ])) column
        in
        let short (_, _, times) = List.length !times < max_runs && Stats.sum !times < floor_s in
        while List.exists short samples do
          List.iter
            (fun (test, q, times) ->
              let r, censored = exec name engine (test, q) in
              if censored then failwith (Printf.sprintf "%s %s was censored on a repeat" name test);
              times := r.Engine.elapsed :: !times)
            (M.shuffle rng (List.filter short samples))
        done;
        if trace then begin
          (* Compile cost: Engine.run compiles inside its budgeted
             window, so compilation is timed on a fresh session view. *)
          let view = Engine.session engine in
          List.iter
            (fun (_, q) -> Trace.with_span tr "core.compile" ~req:0 (fun () -> ignore (Engine.compile view q)))
            queries;
          if String.equal name (List.hd engines) then
            M.set o "xasr.reconstruct_us_per_node" (snd (M.reconstruct (Engine.store engine)))
        end;
        ( setup_s,
          List.map fst column,
          List.map (fun (test, _, times) -> ((name, test, Stats.iqm !times, List.length !times), !times)) samples ))
      Config.figure7_engines
  in
  let setups = List.map (fun (s, _, _) -> s) per_engine in
  let cells = List.concat_map (fun (_, c, _) -> c) per_engine in
  let per_cell = List.concat_map (fun (_, _, p) -> List.map fst p) per_engine in
  let measured = Stats.sum (List.concat_map (fun (_, _, p) -> List.concat_map snd p) per_engine) in
  if per_cell = [] then failwith "every cell is censored: nothing to time";
  o.M.attempted <- !runs;
  let cell_times = List.map (fun (_, _, t, _) -> t) per_cell in
  (* The op is one uncensored cell.  Its latency is the geometric mean
     over the uncensored cells of each cell's interquartile mean run, as
     TPC-H's power metric aggregates its queries: every cell of every
     engine feeds it in proportion to its own change, and the few cells
     that take seconds do not drown the rest.  Throughput is its
     inverse. *)
  let mean_cell = Stats.geomean cell_times in
  M.set o "setup_s" (Stats.sum setups /. float_of_int (List.length setups));
  M.note o "set-up per engine (generate DBLP %d + load): %s s" size.scale (Stats.describe ~scale:1. setups);
  List.iter
    (fun e ->
      M.note o "  %-9s %s  total %d" e
        (String.concat " "
           (List.map
              (fun c -> Printf.sprintf "%7d%s %6.3fs" c.page_ios (if c.censored then "*" else " ") c.seconds)
              (List.filter (fun c -> String.equal c.engine e) cells)))
        (total cells e))
    engines;
  M.note o "timed: %d runs of %d uncensored cells, %.3f s; per-cell interquartile means %s ms, mean %.4g ms"
    (!runs - List.length (List.filter (fun c -> c.censored) cells))
    (List.length per_cell) measured (Stats.describe ~scale:1000. cell_times)
    (1000. *. Stats.sum cell_times /. float_of_int (List.length cell_times));
  List.iter
    (fun e ->
      M.note o "  %-9s timed: %s" e
        (String.concat " "
           (List.filter_map
              (fun (name, test, m, k) ->
                if String.equal name e then Some (Printf.sprintf "%s %.4gms x%d" (String.sub test 0 5) (1000. *. m) k)
                else None)
              per_cell)))
    engines;
  List.iter
    (fun c ->
      M.set o (Catalog.cell_metric c.engine c.test "page_ios") (float_of_int c.page_ios);
      M.set o (Catalog.cell_metric c.engine c.test "s") c.seconds)
    cells;
  M.set o "throughput_rps" (1. /. mean_cell);
  M.set o "latency_p50_ms" (1000. *. mean_cell);
  let wall = Stats.sum (List.map (fun c -> c.seconds) cells) in
  M.set o "wall_s" wall;
  let page_ios = List.fold_left (fun acc c -> acc + c.page_ios) 0 cells in
  let inversions = rank_inversions cells engines and mismatches = censor_mismatches cells in
  M.note o "page_ios %d; against Figure 7: rank_inversions %d, censor_mismatches %d" page_ios inversions
    mismatches;
  M.set o "page_ios" (float_of_int page_ios);
  M.set o "rank_inversions" (float_of_int inversions);
  M.set o "censor_mismatches" (float_of_int mismatches);
  if trace then begin
    let n = !runs in
    let cell_s =
      match Hashtbl.find_opt (Trace.self_times [ Trace.spans tr ]) "cell" with Some (s, _) -> s | None -> 0.
    in
    M.set_spans o [ tr ] ~ops:n [ ("core.execute_us", "cell", 1e6) ];
    M.set_spans o [ tr ] ~ops:(List.length engines * List.length queries) [ ("core.compile_us", "core.compile", 1e6) ];
    M.set_spans o [ tr ] ~ops:(List.length engines)
      [ ("xml.parse_s", "xml.parse", 1.); ("xasr.load_self_s", "xasr.load", 1.) ];
    M.set o "core.execute_self_us" (1e6 *. (cell_s -. ops.M.tree_s) /. float_of_int n);
    M.set o "core.prepared_hit_ratio"
      (float_of_int (M.counter_total counters "engine.prepared_cache_hits") /. float_of_int n);
    M.set_physical o ops ~ops:n;
    M.set_storage o counters ~ops:n;
    M.set_runtime o counters ~ops:n;
    M.set_overhead o [ tr ] ~wall:cell_s
  end;
  o
