(* serve-hot: a closed loop of [clients] sessions, one domain each, over
   one shared m4 database holding DBLP at [scale] in the default
   256-frame pool.  Requests cycle through the testbed's traffic mix
   (the five efficiency queries plus Example 6) in a seeded order, and
   each takes the full in-process wire path: encode, decode,
   [Session.handle], encode, decode.  The working set fits the pool, so
   after warm-up time goes to per-row CPU and to contention on the
   shared pool.

   Every response must be byte-equal, status and payload, to the one a
   single session got for the same query before the clients started. *)

module Database = Xqdb_core.Database
module Engine = Xqdb_core.Engine
module Session = Xqdb_server.Session
module Wire = Xqdb_server.Wire
module Storage = Xqdb_storage
module M = Measure

type size = { scale : int; clients : int; setups : int }

let paper = { scale = 1000; clients = 2; setups = 5 }
let doc = "dblp"

let mix =
  Array.of_list
    (Xqdb_testbed.Queries.efficiency_queries @ [ ("example6", Xqdb_testbed.Queries.example6) ])

let request text =
  { Wire.doc; query_text = text; max_page_ios = None; max_seconds = None; deadline = None }

let frame_reader bytes = Wire.string_reader (Bytes.unsafe_to_string bytes)

let decode_request bytes =
  match Wire.read_request ~read:(frame_reader bytes) with
  | Ok r -> r
  | Error e -> failwith ("request did not decode: " ^ Wire.error_to_string e)

let decode_response bytes =
  match Wire.read_response ~read:(frame_reader bytes) with
  | Ok r -> r
  | Error e -> failwith ("response did not decode: " ^ Wire.error_to_string e)

let roundtrip session text =
  let req = decode_request (Wire.encode_request (request text)) in
  decode_response (Wire.encode_response (Session.handle session req))

(* The same steps [Session.handle] takes, each in its own span, over the
   client's [Engine.session] view. *)
let traced_roundtrip tr ~req ~view ~ops text =
  let span name f = Trace.with_span tr name ~req f in
  span "request" (fun () ->
      let frame = span "server.wire.encode" (fun () -> Wire.encode_request (request text)) in
      let decoded = span "server.wire.decode" (fun () -> decode_request frame) in
      let query = span "xq.parse" (fun () -> Xqdb_xq.Xq_parser.parse decoded.Wire.query_text) in
      let prepared = span "core.compile" (fun () -> Engine.compile view query) in
      let result = span "core.execute" (fun () -> Engine.execute view prepared) in
      M.add_profile ops result.Engine.profile;
      let resp =
        match result.Engine.status with
        | Engine.Ok ->
          { Wire.status = Wire.Ok; payload = result.Engine.output; elapsed = result.Engine.elapsed;
            page_ios = result.Engine.page_ios; retry_after = None }
        | _ -> Wire.error_response Wire.Error "engine did not answer Ok"
      in
      let frame = span "server.wire.encode" (fun () -> Wire.encode_response resp) in
      span "server.wire.decode" (fun () -> decode_response frame))

type client = {
  latencies : float list;  (* seconds *)
  finished : float list;  (* completion instants *)
  mismatches : int;
  stopped : float;
  minor_words : float;
  tracer : Trace.t;
  ops : M.ops;
}

(* One client, run on its own domain: warm the session's plans and the
   pool, report ready, wait for [go], then loop until [deadline]. *)
let client ~db ~oracle ~trace ~seed ~k ~ready ~go ~deadline =
  let session = Session.create db in
  let view = Engine.session (Database.engine db ~name:doc) in
  let tracer = Trace.create ~enabled:trace in
  let ops = M.ops () in
  let step tr ops req text =
    if trace then traced_roundtrip tr ~req ~view ~ops text else roundtrip session text
  in
  let warm = Trace.create ~enabled:false in
  Array.iter (fun (_, text) -> ignore (step warm (M.ops ()) 0 text)) mix;
  Atomic.incr ready;
  while not (Atomic.get go) do Domain.cpu_relax () done;
  let deadline = Atomic.get deadline in
  (* The schedule is seeded rounds, each a shuffle of the whole mix, so
     every run serves the mix in the same proportions. *)
  let rng = Random.State.make [| seed; k; 0x5e7e |] in
  let round = ref mix in
  let next i =
    let r = i mod Array.length mix in
    if r = 0 then round := Array.of_list (M.shuffle rng (Array.to_list mix));
    snd !round.(r)
  in
  let words0 = Gc.minor_words () in
  let rec loop i lats fins mism =
    if M.now () >= deadline then (lats, fins, mism)
    else begin
      let text = next i in
      let t0 = M.now () in
      let resp = step tracer ops ((k * 100_000_000) + i) text in
      let t1 = M.now () in
      let lat = t1 -. t0 in
      let ok =
        match Hashtbl.find_opt oracle text with
        | Some (status, payload) -> status = resp.Wire.status && String.equal payload resp.Wire.payload
        | None -> false
      in
      loop (i + 1) (lat :: lats) (t1 :: fins) (if ok then mism else mism + 1)
    end
  in
  let latencies, finished, mismatches = loop 0 [] [] 0 in
  let stopped = M.now () in
  { latencies; finished; mismatches; stopped; minor_words = Gc.minor_words () -. words0; tracer; ops }

let load tr xml =
  let db = Database.create () in
  Trace.with_span tr "setup" ~req:0 (fun () ->
      Trace.with_span tr "xasr.load" ~req:0 (fun () ->
          let forest =
            Trace.with_span tr "xml.parse" ~req:0 (fun () -> Xqdb_xml.Xml_parser.parse_forest xml)
          in
          ignore (Database.load_forest db ~name:doc forest)));
  db

let run ~size ~seed ~seconds ~trace =
  let o = M.outcome () in
  let setup_tr = Trace.create ~enabled:trace in
  (* Set-up: generate the document as XML text and load it, [setups]
     times, each from a collected heap; the last database is the one
     served. *)
  let setup () =
    Gc.full_major ();
    M.timed (fun () ->
        let xml = Xqdb_workload.Dblp_gen.generate_string (Xqdb_workload.Dblp_gen.scaled size.scale) in
        (xml, load setup_tr xml))
  in
  let rec setups k times =
    let loaded, s = setup () in
    if k <= 1 then (loaded, List.rev (s :: times)) else setups (k - 1) (s :: times)
  in
  let (xml, db), setup_s = setups size.setups [] in
  M.set o "setup_s" (Stats.median setup_s);
  M.note o "set-up (generate DBLP %d + load): %s s" size.scale (Stats.describe ~scale:1. setup_s);
  let disk = Database.disk db in
  M.set o "stored_bytes_per_input_byte"
    (float_of_int (Storage.Disk.page_count disk * Storage.Disk.page_size disk)
     /. float_of_int (String.length xml));
  (* The single-session oracle, before any concurrency. *)
  let oracle = Hashtbl.create 8 in
  let single = Session.create db in
  Array.iter
    (fun (name, text) ->
      let resp = roundtrip single text in
      if resp.Wire.status <> Wire.Ok then failwith ("oracle request failed: " ^ name);
      Hashtbl.replace oracle text (resp.Wire.status, resp.Wire.payload))
    mix;
  let store = Engine.store (Database.engine db ~name:doc) in
  if trace then M.set o "xasr.reconstruct_us_per_node" (snd (M.reconstruct store));
  let ready = Atomic.make 0 and go = Atomic.make false and deadline = Atomic.make 0. in
  let domains =
    List.init size.clients (fun k ->
        Domain.spawn (fun () -> client ~db ~oracle ~trace ~seed ~k ~ready ~go ~deadline))
  in
  while Atomic.get ready < size.clients do Domain.cpu_relax () done;
  let counters = M.counters () in
  let disk0 = Storage.Disk.counters disk in
  let start = M.now () in
  let clients =
    M.count_into counters (fun () ->
        Atomic.set deadline (start +. seconds);
        Atomic.set go true;
        List.map Domain.join domains)
  in
  let disk1 = Storage.Disk.counters disk in
  M.add_disk counters ~reads:(disk1.Storage.Disk.reads - disk0.Storage.Disk.reads)
    ~writes:(disk1.Storage.Disk.writes - disk0.Storage.Disk.writes);
  counters.M.minor_words <-
    counters.M.minor_words +. List.fold_left (fun acc c -> acc +. c.minor_words) 0. clients;
  let pool = Engine.pool (Database.engine db ~name:doc) in
  if Storage.Buffer_pool.pinned_pages pool <> [] || Storage.Buffer_pool.latched_pages pool <> []
  then failwith "pages still pinned or latched after the clients stopped";
  let wall = List.fold_left (fun acc c -> Float.max acc (c.stopped -. start)) 0. clients in
  let lats = List.concat_map (fun c -> c.latencies) clients in
  let n = List.length lats in
  o.M.attempted <- n;
  o.M.failed <- List.fold_left (fun acc c -> acc + c.mismatches) 0 clients;
  M.note o "requests: %d from %d clients in %.3f s; latency %s ms" n size.clients wall
    (Stats.describe ~scale:1000. lats);
  (* Throughput is the median over one-second windows, so a burst of
     load from outside the process moves it less than a mean would. *)
  let windows = max 1 (int_of_float seconds) in
  let rates =
    Stats.window_rates ~start ~width:(seconds /. float_of_int windows) ~count:windows
      (List.concat_map (fun c -> c.finished) clients)
  in
  M.note o "throughput per %.3g s window: %s req/s" (seconds /. float_of_int windows)
    (Stats.describe ~scale:1. rates);
  M.set o "throughput_rps" (Stats.median rates);
  M.set o "latency_p50_ms" (1000. *. Stats.median lats);
  (match Stats.tail ~q:0.99 lats with
   | Some p99 -> M.set o "latency_p99_ms" (1000. *. p99)
   | None -> M.note o "latency_p99_ms not reported: fewer than %d samples beyond p99" Stats.min_beyond);
  if trace then begin
    let tracers = List.map (fun c -> c.tracer) clients in
    M.set_spans o tracers ~ops:n
      [ ("server.wire.decode_us", "server.wire.decode", 1e6);
        ("server.wire.encode_us", "server.wire.encode", 1e6);
        ("xq.parse_us", "xq.parse", 1e6);
        ("core.compile_us", "core.compile", 1e6);
        ("core.execute_us", "core.execute", 1e6) ];
    M.set_spans o [ setup_tr ] ~ops:size.setups
      [ ("xml.parse_s", "xml.parse", 1.); ("xasr.load_self_s", "xasr.load", 1.) ];
    let ops = M.ops () in
    List.iter (fun c -> M.merge_ops ~into:ops c.ops) clients;
    M.set_physical o ops ~ops:n;
    let execute = Hashtbl.find_opt o.M.values "core.execute_us" |> Option.value ~default:0. in
    M.set o "core.execute_self_us" (execute -. (1e6 *. ops.M.tree_s /. float_of_int (max 1 n)));
    M.set o "core.prepared_hit_ratio"
      (float_of_int (M.counter_total counters "engine.prepared_cache_hits") /. float_of_int (max 1 n));
    M.set_storage o counters ~ops:n;
    M.set_runtime o counters ~ops:n;
    M.set_overhead o tracers ~wall:(float_of_int size.clients *. wall)
  end;
  o
