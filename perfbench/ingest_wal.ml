(* ingest-wal: the write path.  One pass loads a DBLP document (shallow
   and wide) and a Treebank document (deep), as XML text, into one
   fresh [Database.create_on ~wal] over an in-memory disk and an
   in-memory log, then checkpoints.  The pool's WAL-before-data rule is
   left as it is; with log and disk in memory the numbers measure the
   program, not a device.  Passes repeat until the run's time is up.

   This is the only workload where XML parsing, the shredder, B-tree
   inserts and splits, and the log do the work.  The seed generates the
   documents.

   After timing, each pass's database is crashed ([Wal.crash_discard])
   and reopened ([Database.open_disk]); every document must come back
   and reconstruct to the canonical serialization of its input. *)

module Database = Xqdb_core.Database
module Engine = Xqdb_core.Engine
module Storage = Xqdb_storage
module M = Measure

type size = { dblp : int; treebank : int; setups : int }

let paper = { dblp = 100; treebank = 10; setups = 3 }

(* The documents are fixed, like the other workloads' data, so every
   pass does the same work; the seed orders each pass's loads. *)
let documents ~size =
  [ ("dblp", Xqdb_workload.Dblp_gen.generate_string (Xqdb_workload.Dblp_gen.scaled size.dblp));
    ("treebank", Xqdb_workload.Treebank_gen.generate_string (Xqdb_workload.Treebank_gen.scaled size.treebank)) ]

(* Bytes one log record takes: each [with_page_mut] appends one page
   after-image. *)
let wal_record_bytes () =
  let wal = Storage.Wal.in_memory () in
  ignore (Storage.Wal.append wal ~page_id:0 ~data:(Bytes.make 4096 '\000'));
  Storage.Wal.size_bytes wal

let pass tr ~req docs =
  let disk = Storage.Disk.in_memory () and wal = Storage.Wal.in_memory () in
  let db = Database.create_on ~wal disk in
  let span name f = Trace.with_span tr name ~req f in
  span "pass" (fun () ->
      List.iter
        (fun (name, xml) ->
          if tr.Trace.enabled then
            span "xasr.load" (fun () ->
                let forest = span "xml.parse" (fun () -> Xqdb_xml.Xml_parser.parse_forest xml) in
                ignore (Database.load_forest db ~name forest))
          else ignore (Database.load_document db ~name xml))
        docs;
      span "storage.checkpoint" (fun () -> Database.checkpoint db));
  (disk, wal)

(* Crash, recover, and compare every document with its input; also
   returns how fast the recovered documents were rebuilt, in us/node. *)
let recovered ~expected (disk, wal) =
  Storage.Wal.crash_discard wal;
  let db = Database.open_disk ~wal disk in
  List.fold_left
    (fun (ok, speeds) (name, want) ->
      match Database.engine db ~name with
      | exception Not_found -> (false, speeds)
      | engine ->
        let forest, us = M.reconstruct (Engine.store engine) in
        (ok && String.equal (Xqdb_xml.Xml_print.forest_to_string forest) want, us :: speeds))
    (true, []) expected

let run ~size ~seed ~seconds ~trace =
  let o = M.outcome () in
  let record_bytes = wal_record_bytes () in
  (* Set-up, [setups] times: generate the XML text and run one untimed
     pass, which grows the heap to its working size. *)
  let setups =
    List.init size.setups (fun _ ->
        M.timed (fun () ->
            let docs = documents ~size in
            ignore (pass (Trace.create ~enabled:false) ~req:0 docs);
            docs))
  in
  let docs = fst (List.hd setups) in
  let setup_s = List.map snd setups in
  M.set o "setup_s" (Stats.median setup_s);
  M.note o "set-up (generate DBLP %d + Treebank %d, one warm-up pass): %s s" size.dblp
    size.treebank (Stats.describe ~scale:1. setup_s);
  let input_bytes = List.fold_left (fun acc (_, xml) -> acc + String.length xml) 0 docs in
  let expected =
    List.map
      (fun (name, xml) ->
        (name, Xqdb_xml.Xml_print.forest_to_string (Xqdb_xml.Xml_parser.parse_forest xml)))
      docs
  in
  let tr = Trace.create ~enabled:trace in
  let counters = M.counters () in
  let rng = Random.State.make [| seed; 0x1a9e |] in
  let deadline = M.now () +. seconds in
  (* Each pass is checked as soon as it is timed, so only one pass's
     disk and log are alive at a time. *)
  let rec loop i times speeds stored =
    if i > 0 && M.now () >= deadline then (List.rev times, speeds, stored)
    else begin
      let docs = M.shuffle rng docs in
      (* Start from a collected heap: the last pass's log is garbage. *)
      Gc.full_major ();
      let (disk, wal), s =
        M.timed (fun () -> if trace then M.count_into counters (fun () -> pass tr ~req:i docs) else pass tr ~req:i docs)
      in
      let r = Storage.Disk.counters disk in
      M.add_disk counters ~reads:r.Storage.Disk.reads ~writes:r.Storage.Disk.writes;
      let stored = Storage.Disk.page_count disk * Storage.Disk.page_size disk in
      let ok, us = recovered ~expected (disk, wal) in
      if not ok then o.M.failed <- o.M.failed + 1;
      loop (i + 1) (s :: times) (us @ speeds) stored
    end
  in
  let times, speeds, stored = loop 0 [] [] 0 in
  let n = List.length times in
  let total = Stats.sum times in
  o.M.attempted <- n;
  M.set o "stored_bytes_per_input_byte" (float_of_int stored /. float_of_int input_bytes);
  let mb = float_of_int input_bytes /. 1e6 in
  M.note o "passes: %d of %.3f MB XML in %.3f s; per pass %s ms" n mb total (Stats.describe ~scale:1000. times);
  M.set o "throughput_rps" (float_of_int n /. total);
  M.set o "latency_p50_ms" (1000. *. Stats.median times);
  M.set o "ingest_mb_s" (mb *. float_of_int n /. total);
  M.note o "ingest_mb_s %.6g" (mb *. float_of_int n /. total);
  if trace then begin
    M.set_spans o [ tr ] ~ops:n [ ("xml.parse_s", "xml.parse", 1.); ("xasr.load_self_s", "xasr.load", 1.) ];
    M.set_storage o counters ~ops:n;
    M.set o "storage.wal.bytes_per_input_byte"
      (float_of_int (M.counter_total counters "wal.appends" * record_bytes)
       /. float_of_int (n * input_bytes));
    M.set_runtime o counters ~ops:n;
    M.set_overhead o [ tr ] ~wall:total;
    M.set o "xasr.reconstruct_us_per_node" (Stats.median speeds)
  end;
  o
