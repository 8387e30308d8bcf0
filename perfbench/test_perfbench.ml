(* Tests for the benchmark's own code: order statistics and their
   sample-count guard, span self-time arithmetic, the metric-name
   grammar, Figure-7 shape arithmetic, and a tiny run of each workload
   that must pass its oracle. *)

open Perfbench

let floats = Alcotest.(list (float 1e-9))
let close = Alcotest.float 1e-9
let upto n = List.init n (fun i -> float_of_int (i + 1))

let test_percentiles () =
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.check close "median of 5" 3. (Stats.median xs);
  Alcotest.check close "median of 4 is the lower middle" 2. (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "p99 of 100" 99. (Stats.percentile ~q:0.99 (upto 100));
  Alcotest.check close "p100" 5. (Stats.percentile ~q:1. xs);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: no samples") (fun () ->
      ignore (Stats.median []));
  Alcotest.check close "iqm of 1" 7. (Stats.iqm [ 7. ]);
  Alcotest.check close "iqm of 2" 1.5 (Stats.iqm [ 2.; 1. ]);
  Alcotest.check close "iqm of 5 drops one each end" 3. (Stats.iqm [ 100.; 2.; 3.; 4.; 0. ]);
  Alcotest.check close "iqm of 8 drops two each end" 4.5 (Stats.iqm (upto 8));
  Alcotest.check close "geometric mean" 4. (Stats.geomean [ 2.; 8. ]);
  Alcotest.check_raises "geometric mean of 0" (Invalid_argument "Stats.geomean: needs positive samples")
    (fun () -> ignore (Stats.geomean [ 1.; 0. ]))

let test_tail_guard () =
  (* p99 of 1000 samples is rank 990: exactly ten lie beyond it. *)
  Alcotest.(check (option (float 1e-9))) "p99 of 1000" (Some 990.) (Stats.tail ~q:0.99 (upto 1000));
  Alcotest.(check (option (float 1e-9))) "p99 of 999" None (Stats.tail ~q:0.99 (upto 999));
  Alcotest.(check int) "beyond p50 of 25" 12 (Stats.beyond ~q:0.5 25);
  Alcotest.(check (option (float 1e-9))) "p99.9 at n=10000" (Some 0.999) (Stats.highest_tail 10000);
  Alcotest.(check (option (float 1e-9))) "p99 at n=9999" (Some 0.99) (Stats.highest_tail 9999);
  Alcotest.(check (option (float 1e-9))) "p50 at n=25" (Some 0.5) (Stats.highest_tail 25);
  Alcotest.(check (option (float 1e-9))) "nothing at n=19" None (Stats.highest_tail 19)

let test_window_rates () =
  Alcotest.check floats "two-second windows, strays dropped" [ 1.; 0.5; 0. ]
    (Stats.window_rates ~start:10. ~width:2. ~count:3 [ 9.9; 10.; 11.5; 12.1; 16.; 17. ])

let test_covered () =
  Alcotest.check close "disjoint" 3. (Trace.covered ~lo:0. ~hi:10. [ (1., 2.); (5., 7.) ]);
  Alcotest.check close "overlapping counted once" 4. (Trace.covered ~lo:0. ~hi:10. [ (1., 4.); (2., 5.) ]);
  Alcotest.check close "nested" 3. (Trace.covered ~lo:0. ~hi:10. [ (1., 4.); (2., 3.) ]);
  Alcotest.check close "clipped to the parent" 2. (Trace.covered ~lo:0. ~hi:10. [ (-5., 1.); (9., 20.) ]);
  Alcotest.check close "outside" 0. (Trace.covered ~lo:0. ~hi:10. [ (11., 12.) ]);
  Alcotest.check close "self time" 6. (Trace.self_time ~start:0. ~stop:10. [ (1., 4.); (2., 5.) ])

let test_self_times () =
  let span name req parent start stop = { Trace.name; req; parent; start; stop } in
  let spans =
    [ span "request" 1 (-1) 0. 10.;
      span "decode" 1 0 1. 2.;
      span "execute" 1 0 2. 8.;
      span "scan" 1 2 3. 5.;
      span "request" 2 (-1) 20. 25. ]
  in
  let totals = Trace.self_times [ spans ] in
  let get name = Hashtbl.find totals name in
  Alcotest.(check (pair (float 1e-9) int)) "request: 10 - 7 + 5" (8., 2) (get "request");
  Alcotest.(check (pair (float 1e-9) int)) "execute minus scan" (4., 1) (get "execute");
  Alcotest.(check (pair (float 1e-9) int)) "leaf" (2., 1) (get "scan")

let test_tracer () =
  let tr = Trace.create ~enabled:true in
  let v = Trace.with_span tr "outer" ~req:7 (fun () -> Trace.with_span tr "inner" ~req:7 (fun () -> 42)) in
  Alcotest.(check int) "value" 42 v;
  (match Trace.spans tr with
   | [ o; i ] ->
     Alcotest.(check string) "outer first" "outer" o.Trace.name;
     Alcotest.(check int) "inner's parent" 0 i.Trace.parent;
     Alcotest.(check bool) "nested in time" true (o.Trace.start <= i.Trace.start && i.Trace.stop <= o.Trace.stop)
   | _ -> Alcotest.fail "expected two spans");
  (match Trace.with_span tr "raising" ~req:0 (fun () -> failwith "boom") with
   | () -> Alcotest.fail "should raise"
   | exception Failure _ -> ());
  Alcotest.(check int) "closed on raise" 3 (List.length (Trace.spans tr));
  let off = Trace.create ~enabled:false in
  ignore (Trace.with_span off "x" ~req:0 (fun () -> ()));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Trace.spans off))

let names () =
  List.map (fun e -> e.Catalog.e_name) Catalog.end_to_end
  @ List.map (fun l -> l.Catalog.l_name) Catalog.per_layer

let test_names () =
  List.iter (fun n -> Alcotest.(check bool) n true (Catalog.valid_name n)) (names ());
  List.iter
    (fun u -> Alcotest.(check bool) u true (Catalog.valid_unit u))
    (List.map (fun e -> e.Catalog.e_unit) Catalog.end_to_end
     @ List.map (fun l -> l.Catalog.l_unit) Catalog.per_layer);
  Alcotest.(check int) "names are unique" (List.length (names ()))
    (List.length (List.sort_uniq String.compare (names ())));
  Alcotest.(check bool) "at most 128 per-layer metrics" true (List.length Catalog.per_layer <= 128);
  List.iter
    (fun bad -> Alcotest.(check bool) bad false (Catalog.valid_name bad))
    [ ""; "_lead"; ".lead"; "has space"; "semi;colon"; "ünï"; String.make 65 'a' ];
  List.iter (fun bad -> Alcotest.(check bool) bad false (Catalog.valid_unit bad)) [ ""; "m s"; String.make 17 'a' ]

let test_families () =
  List.iter
    (fun (op, f) -> Alcotest.(check string) op f (Catalog.family op))
    [ ("scan XASR[x]", "scan"); ("par-scan XASR[x]", "scan"); ("idx-scan XASR[v]", "label-scan");
      ("sidx-scan XASR[a]", "struct-scan"); ("semi-nl-join", "nl-join"); ("bnl-join", "nl-join");
      ("semi-inl-join", "inl-join"); ("twig-match", "struct-join"); ("bnl-product", "product");
      ("ext-sort", "sort"); ("btree-sort", "sort"); ("project", "other") ]

let test_fig7_shape () =
  let cell engine test page_ios censored = { Fig7_paper.engine; test; page_ios; seconds = 0.; censored } in
  let engines = [ "engine-1"; "engine-2"; "engine-3" ] in
  let cells =
    [ cell "engine-1" "t" 10 false; cell "engine-2" "t" 30 false; cell "engine-3" "t" 20 false ]
  in
  Alcotest.(check int) "2 > 3" 1 (Fig7_paper.rank_inversions cells engines);
  Alcotest.(check int) "tie counts" 1
    (Fig7_paper.rank_inversions [ cell "engine-1" "t" 5 false; cell "engine-2" "t" 5 false ] [ "engine-1"; "engine-2" ]);
  Alcotest.(check int) "reversed" 2 (Fig7_paper.rank_inversions cells (List.rev engines));
  Alcotest.(check int) "censored flags" 2
    (Fig7_paper.censor_mismatches
       [ cell "engine-2" "test5-unrelated" 8000 true; cell "engine-2" "test3-semijoin" 8000 true;
         cell "engine-4" "test5-unrelated" 2209 false; cell "engine-1" "test1-structural" 1 false ])

let values (o : Measure.outcome) = o.Measure.values

let check_run name (o : Measure.outcome) ~trace =
  Measure.set o "peak_rss_mb" (Measure.peak_rss_mb ());
  Alcotest.(check int) (name ^ ": no failures") 0 o.Measure.failed;
  Alcotest.(check bool) (name ^ ": attempted") true (o.Measure.attempted > 0);
  if not trace then
    List.iter
      (fun e ->
        match Hashtbl.find_opt (values o) e.Catalog.e_name with
        | Some v -> Alcotest.(check bool) (e.Catalog.e_name ^ " > 0") true (v > 0.)
        | None -> Alcotest.fail (name ^ " did not measure " ^ e.Catalog.e_name))
      Catalog.end_to_end;
  ignore (Output.render ~workload:name ~seed:1 ~trace o)

let test_serve_smoke () =
  let size = { Serve_hot.scale = 30; clients = 2; setups = 1 } in
  List.iter
    (fun trace -> check_run "serve-hot" (Serve_hot.run ~size ~seed:3 ~seconds:0.3 ~trace) ~trace)
    [ false; true ]

let test_fig7_smoke () =
  let size = { Fig7_paper.paper with Fig7_paper.scale = 40 } in
  let o = Fig7_paper.run ~size ~seed:5 ~seconds:0. ~trace:true in
  check_run "fig7-paper" o ~trace:true;
  Alcotest.(check int) "25 cells" 25 o.Measure.attempted;
  let page_ios = Hashtbl.find (values o) "page_ios" in
  let cells =
    List.fold_left
      (fun acc e -> List.fold_left (fun acc t -> acc +. Hashtbl.find (values o) (Catalog.cell_metric e t "page_ios")) acc Catalog.tests)
      0. Catalog.engines
  in
  Alcotest.check close "page_ios is the cells' sum" page_ios cells;
  let o = Fig7_paper.run ~size ~seed:5 ~seconds:1. ~trace:false in
  check_run "fig7-paper" o ~trace:false;
  Alcotest.(check bool) "rounds beyond the table pass" true (o.Measure.attempted > 25)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.equal (String.sub s i n) sub || at (i + 1)) in
  at 0

(* A cell stopped by the wall-clock guard, before its page-I/O budget,
   fails the run instead of passing as censored. *)
let test_fig7_guard () =
  let size = { Fig7_paper.paper with Fig7_paper.scale = 40; guard_s = 1e-9 } in
  match Fig7_paper.run ~size ~seed:5 ~seconds:0. ~trace:false with
  | _ -> Alcotest.fail "a cell reached the guard and the run passed"
  | exception Failure m ->
    Alcotest.(check bool) ("fails naming the stop: " ^ m) true
      (contains m "stopped before its page-I/O budget")

let test_ingest_smoke () =
  let size = { Ingest_wal.dblp = 8; treebank = 2; setups = 1 } in
  List.iter
    (fun trace -> check_run "ingest-wal" (Ingest_wal.run ~size ~seed:2 ~seconds:0.2 ~trace) ~trace)
    [ false; true ]

let test_ingest_oracle_rejects () =
  let docs = Ingest_wal.documents ~size:{ Ingest_wal.dblp = 5; treebank = 1; setups = 1 } in
  let stores () = Ingest_wal.pass (Trace.create ~enabled:false) ~req:0 docs in
  let expected = List.map (fun (n, xml) -> (n, Xqdb_xml.Xml_print.forest_to_string (Xqdb_xml.Xml_parser.parse_forest xml))) docs in
  Alcotest.(check bool) "recovers" true (fst (Ingest_wal.recovered ~expected (stores ())));
  let wrong = List.map (fun (n, s) -> (n, s ^ "<x/>")) expected in
  Alcotest.(check bool) "detects a wrong document" false (fst (Ingest_wal.recovered ~expected:wrong (stores ())));
  Alcotest.(check bool) "detects a missing document" false
    (fst (Ingest_wal.recovered ~expected:(("absent", "") :: expected) (stores ())))

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "tail guard" `Quick test_tail_guard;
          Alcotest.test_case "window rates" `Quick test_window_rates ] );
      ( "trace",
        [ Alcotest.test_case "covered" `Quick test_covered;
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "tracer" `Quick test_tracer ] );
      ( "catalog",
        [ Alcotest.test_case "name grammar" `Quick test_names;
          Alcotest.test_case "operator families" `Quick test_families;
          Alcotest.test_case "fig7 shape" `Quick test_fig7_shape ] );
      ( "smoke",
        [ Alcotest.test_case "serve-hot" `Quick test_serve_smoke;
          Alcotest.test_case "fig7-paper" `Quick test_fig7_smoke;
          Alcotest.test_case "fig7-paper guard fails the run" `Quick test_fig7_guard;
          Alcotest.test_case "ingest-wal" `Quick test_ingest_smoke;
          Alcotest.test_case "ingest oracle rejects" `Quick test_ingest_oracle_rejects ] ) ]
