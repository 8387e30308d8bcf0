(** Multi-document databases.

    The course testbed worked against several documents (DBLP, its
    excerpt, TREEBANK, a hand-made file).  A [Database.t] manages any
    number of named documents inside one disk — each shredded into its
    own XASR store with its own indexes and statistics, all registered
    in the shared catalog — and can be closed and reopened from the
    backing file.

    Updates follow the paper's scope: documents are loaded and dropped
    wholesale ("keep updates as simple as possible"); there is no
    in-place node mutation and no concurrency control.

    There {e is} recovery: a file database keeps a sibling redo log
    ([path.wal], see {!Xqdb_storage.Wal}) which the buffer pool writes
    ahead of every page, {!open_file} replays after a crash, and
    {!checkpoint} truncates once the data file is durable.  In-memory
    databases skip logging unless a log is passed explicitly
    ({!create_on}), which is how the crash-point harness drives
    simulated crashes. *)

type t

val create : ?config:Engine_config.t -> ?on_file:string -> unit -> t
(** An empty database (in memory, or on a file).  With [on_file:path],
    a write-ahead log is created at [path ^ ".wal"]. *)

val create_on : ?config:Engine_config.t -> ?wal:Xqdb_storage.Wal.t -> Xqdb_storage.Disk.t -> t
(** An empty database over a caller-supplied (fresh) disk, optionally
    write-ahead logged.  The harness entry point. *)

val open_file : ?config:Engine_config.t -> string -> t
(** Reopen a database file created earlier with [create ~on_file] —
    documents, indexes and statistics come back from the catalog.
    First replays [path ^ ".wal"] (tolerating a torn log tail) and
    checkpoints, so a crash between two checkpoints loses at most
    unsynced work, never consistency.
    @raise Failure if the file does not contain a catalog. *)

val open_disk :
  ?config:Engine_config.t -> ?wal:Xqdb_storage.Wal.t -> Xqdb_storage.Disk.t -> t
(** Like {!open_file} over a caller-supplied disk/log pair: replay the
    log onto the disk, checkpoint, then attach every catalogued
    document.  The crash-point harness's recovery entry point. *)

val config : t -> Engine_config.t

val disk : t -> Xqdb_storage.Disk.t
val wal : t -> Xqdb_storage.Wal.t option

val checkpoint : t -> unit
(** Make the data file durable, then truncate the log: flush the
    catalog and every dirty page (each write-back syncs the log first),
    {!Xqdb_storage.Disk.sync}, and only then
    {!Xqdb_storage.Wal.checkpoint}.  Also runs at load/drop boundaries,
    but only once the log has grown past a threshold (1 MiB). *)

val load_document : t -> name:string -> string -> Engine.t
(** Parse, shred and index a document under [name].
    @raise Invalid_argument if the name is taken or contains ['.']. *)

val load_forest : t -> name:string -> Xqdb_xml.Xml_tree.forest -> Engine.t

val document_names : t -> string list
(** Sorted. *)

val engine : ?config:Engine_config.t -> t -> name:string -> Engine.t
(** An engine over one document (optionally at a different milestone).
    @raise Not_found for unknown names. *)

val drop_document : t -> name:string -> unit
(** Forget a document.  Its catalog entries are removed; its pages
    become dead space (the storage manager has no free-space reuse —
    bulk-load-and-query is the workload).
    @raise Not_found for unknown names. *)

val run :
  ?max_page_ios:int ->
  ?max_seconds:float ->
  t ->
  name:string ->
  Xqdb_xq.Xq_ast.query ->
  Engine.result

val flush : t -> unit
(** Write all dirty pages and the catalog back to the disk; with a log
    attached this is a full {!checkpoint}. *)

val close : t -> unit
(** [flush] and release the backing file and log. *)
