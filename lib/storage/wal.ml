(* A redo-only physical write-ahead log.

   Records are page after-images: before a dirty frame is written back,
   the buffer pool appends the full contents of every dirty page whose
   latest mutation is not yet logged, then syncs.  Recovery is then a
   blind, idempotent rewrite of every durable after-image in LSN order —
   no undo, because a page write-back never happens before its record
   is durable, so the database file can only be {e behind} the log,
   never ahead of it.

   The log distinguishes durable bytes (survive a crash) from pending
   bytes (appended but not yet synced; a crash drops them).  For the
   file backend "durable" means flushed to the OS; for the in-memory
   backend — used by the crash-point harness — the split is explicit so
   a simulated crash can discard exactly the unsynced suffix. *)

type op =
  | Append
  | Sync

type fault =
  | No_fault
  | Fail of string
  | Torn of string

type backend =
  | Mem of { durable : Buffer.t }
  | File of {
      path : string;
      mutable out : out_channel;
    }

type t = {
  backend : backend;
  mutable next_lsn : int;
  mutable last_lsn : int;
  mutable synced_lsn : int;
  (* Encoded records appended but not yet durable, newest first. *)
  mutable pending : (int * bytes) list;
  mutable pending_bytes : int;
  mutable durable_size : int;
  mutable injector : (op -> fault) option;
  mutable no_sync : bool;
}
(* Append/sync run under the owning pool's table mutex (the pool logs
   and syncs only inside write-back, within its bracket). *)
[@@guarded_by pool_table_lock]

type replay_stats = {
  applied : int;
  discarded_bytes : int;
  torn_tail : bool;
}

let m_appends = Metrics.counter "wal.appends"
let m_syncs = Metrics.counter "wal.syncs"
let m_checkpoints = Metrics.counter "wal.checkpoints"
let m_replayed = Metrics.counter "wal.recovery_replayed"

let make backend durable_size =
  { backend;
    next_lsn = 1;
    last_lsn = 0;
    synced_lsn = 0;
    pending = [];
    pending_bytes = 0;
    durable_size;
    injector = None;
    no_sync = false }

let in_memory () = make (Mem { durable = Buffer.create 4096 }) 0

let on_file path =
  let out = open_out_gen [Open_wronly; Open_creat; Open_trunc; Open_binary] 0o644 path in
  make (File { path; out }) 0

let open_existing path =
  let out = open_out_gen [Open_append; Open_creat; Open_binary] 0o644 path in
  let inp = open_in_bin path in
  let size = in_channel_length inp in
  close_in inp;
  make (File { path; out }) size

let set_injector t injector = t.injector <- injector

let consult t op =
  match t.injector with
  | None -> No_fault
  | Some f -> f op

let last_lsn t = t.last_lsn
let synced_lsn t = t.synced_lsn
let size_bytes t = t.durable_size + t.pending_bytes
let unsafe_no_sync t flag = t.no_sync <- flag

(* --- record encoding ---------------------------------------------------

   [ kind:u8=1 | lsn:i64 LE | page_id:u32 | len:u32 | payload | crc:u32 ]

   The CRC covers everything before it, so a record whose tail never
   reached the disk — a torn log write — fails verification and marks
   the end of the replayable prefix. *)

let record_kind = 1
let header_len = 17

let encode ~lsn ~page_id ~data =
  let plen = Bytes.length data in
  let buf = Bytes.create (header_len + plen + 4) in
  Bytes.set_uint8 buf 0 record_kind;
  Bytes.set_int64_le buf 1 (Int64.of_int lsn);
  Page.set_u32 buf 9 page_id;
  Page.set_u32 buf 13 plen;
  Bytes.blit data 0 buf header_len plen;
  let crc = Crc32.finish (Crc32.feed Crc32.start buf 0 (header_len + plen)) in
  Page.set_u32 buf (header_len + plen) crc;
  buf

let append t ~page_id ~data =
  (match consult t Append with
   | No_fault -> ()
   | Fail msg | Torn msg -> raise (Disk.Disk_error msg));
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  t.last_lsn <- lsn;
  let record = encode ~lsn ~page_id ~data in
  t.pending <- (lsn, record) :: t.pending;
  t.pending_bytes <- t.pending_bytes + Bytes.length record;
  Metrics.incr m_appends;
  lsn

(* --- durability --------------------------------------------------------- *)

let persist_durable t chunks =
  List.iter
    (fun chunk ->
      t.durable_size <- t.durable_size + Bytes.length chunk;
      match t.backend with
      | Mem m -> Buffer.add_bytes m.durable chunk
      | File f -> output_bytes f.out chunk)
    chunks;
  match t.backend with
  | Mem _ -> ()
  | File f -> flush f.out

let clear_pending t =
  t.pending <- [];
  t.pending_bytes <- 0

let sync t =
  if (not t.no_sync) && t.pending <> [] then begin
    match consult t Sync with
    | Fail msg -> raise (Disk.Disk_error msg)
    | Torn msg ->
      (* A torn sync: the older half of the pending records reach the
         disk whole, plus a damaged prefix of the next one — the torn
         log tail recovery must skip.  Everything else is lost, as it
         would be in a crash moments later. *)
      let recs = List.rev t.pending in
      let keep = List.length recs / 2 in
      let rec split i = function
        | [] -> ([], None)
        | (lsn, r) :: rest ->
          if i < keep then
            let whole, half = split (i + 1) rest in
            ((lsn, r) :: whole, half)
          else ([], Some r)
      in
      let whole, half = split 0 recs in
      persist_durable t (List.map snd whole);
      (match half with
       | Some r -> persist_durable t [Bytes.sub r 0 (Bytes.length r / 2)]
       | None -> ());
      (match List.rev whole with
       | (lsn, _) :: _ -> t.synced_lsn <- lsn
       | [] -> ());
      t.last_lsn <- t.synced_lsn;
      clear_pending t;
      raise (Disk.Disk_error msg)
    | No_fault ->
      persist_durable t (List.rev_map snd t.pending);
      clear_pending t;
      t.synced_lsn <- t.last_lsn;
      Metrics.incr m_syncs
  end

let crash_discard t =
  clear_pending t;
  t.last_lsn <- t.synced_lsn

let checkpoint t =
  (match t.backend with
   | Mem m -> Buffer.clear m.durable
   | File f ->
     close_out f.out;
     f.out <- open_out_gen [Open_wronly; Open_creat; Open_trunc; Open_binary] 0o644 f.path);
  t.durable_size <- 0;
  clear_pending t;
  t.synced_lsn <- t.last_lsn;
  Metrics.incr m_checkpoints

(* --- recovery ----------------------------------------------------------- *)

let durable_bytes t =
  match t.backend with
  | Mem m -> Buffer.to_bytes m.durable
  | File f ->
    flush f.out;
    let inp = open_in_bin f.path in
    let n = in_channel_length inp in
    let buf = Bytes.create n in
    really_input inp buf 0 n;
    close_in inp;
    buf

(* Explicit bounds and CRC checks, not exception handling: every exit
   from the decode loop names the reason the remaining bytes are not a
   record. *)
let replay t ~apply =
  let data = durable_bytes t in
  let len = Bytes.length data in
  let pos = ref 0 in
  let applied = ref 0 in
  let complete = ref true in
  let running = ref true in
  while !running do
    if !pos >= len then running := false
    else if !pos + header_len + 4 > len then begin
      complete := false;
      running := false
    end
    else begin
      let kind = Bytes.get_uint8 data !pos in
      let plen = Page.get_u32 data (!pos + 13) in
      if kind <> record_kind || !pos + header_len + plen + 4 > len then begin
        complete := false;
        running := false
      end
      else begin
        let body = header_len + plen in
        let stored = Page.get_u32 data (!pos + body) in
        let crc = Crc32.finish (Crc32.feed Crc32.start data !pos body) in
        if not (Int.equal stored crc) then begin
          complete := false;
          running := false
        end
        else begin
          let lsn = Int64.to_int (Bytes.get_int64_le data (!pos + 1)) in
          let page_id = Page.get_u32 data (!pos + 9) in
          apply ~lsn ~page_id (Bytes.sub data (!pos + header_len) plen);
          incr applied;
          Metrics.incr m_replayed;
          if lsn > t.last_lsn then begin
            t.last_lsn <- lsn;
            t.synced_lsn <- lsn;
            t.next_lsn <- lsn + 1
          end;
          pos := !pos + body + 4
        end
      end
    end
  done;
  { applied = !applied; discarded_bytes = len - !pos; torn_tail = not !complete }

let close t =
  match t.backend with
  | Mem _ -> ()
  | File f ->
    flush f.out;
    close_out f.out
