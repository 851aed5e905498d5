(** The crash-safe collection store: named collections of documents on
    a segmented append-only log, with fsync barriers (a put is
    acknowledged only once durable), CRC-verified reads, torn-tail
    truncation and mid-log quarantine at recovery, and an atomically
    swapped manifest checkpoint. *)

type error = [ `Corrupt of string | `Io of string | `Not_found ]

val error_message : error -> string
(** [store:corrupt: ...], [store:io: ...], [store:not-found]. *)

type t

type counts = {
  n_ingests : int;
  n_deletes : int;
  n_reads : int;
  n_fsyncs : int;
  n_recovered_records : int;
  n_truncated_tails : int;
  n_quarantined_segments : int;
  n_read_crc_failures : int;
  n_io_errors : int;
  n_appended_bytes : int;
  n_scrub_runs : int;
  n_scrub_damaged : int;
}

val open_store : ?plane:Io_fault.t -> ?max_segment_bytes:int -> string -> t
(** Open (creating the directory if needed) and recover: load the
    manifest checkpoint, replay every segment's suffix, truncate torn
    tails, quarantine mid-log damage. [max_segment_bytes] (default
    8 MiB) bounds a segment before rotation. [plane] routes every
    write/fsync through the I/O fault injector — never set it in
    production. *)

val put : t -> collection:string -> doc:string -> string -> (string, error) result
(** Append + fsync + index. Returns the content hash; when it returns
    [Ok] the document is durable. On [Error] the segment has been
    repaired back to the last barrier — nothing partial survives. *)

val get : t -> collection:string -> doc:string -> (string * string, error) result
(** [(snapshot, hash)]. Re-reads and CRC-verifies the record; a
    mismatch quarantines the segment and answers [`Corrupt]. *)

val delete : t -> collection:string -> doc:string -> (bool, error) result
(** Durable tombstone; [Ok false] if the document was absent. *)

val mem : t -> collection:string -> doc:string -> bool
val list_docs : t -> collection:string -> (string * string) list
(** [(doc, hash)] sorted. *)

val collections : t -> string list
val doc_count : t -> int
val segment_count : t -> int
val quarantined : t -> (int * string) list
val dir : t -> string

(** {1 Replication hooks} *)

val epoch : t -> int
(** The replication term stamped into appended records. Recovered as
    the maximum epoch among replayed records (0 for a store that has
    never been replicated). *)

val set_epoch : t -> int -> unit
(** Adopt a newer term; monotonic — lower values are ignored. *)

val position : t -> int * int
(** [(active segment id, logical offset)] the next append lands at.
    Replicas in sync with the primary agree on this pair before every
    replicated append. *)

val total_bytes : t -> int
(** Durable log bytes across live segments — the replication lag unit. *)

val live_segments : t -> (int * int) list
(** [(id, durable length)] per live segment, for anti-entropy digest
    comparison. While this handle stays open, the bytes below a live
    segment's durable length never change: a failed append repairs back
    only to that length, and appends land at or past it. Only recovery
    at open rewrites them, which is what lets {!Seg_digest} cache block
    hashes across calls. *)

val append_epoch_marker : t -> epoch:int -> (unit, error) result
(** Adopt [epoch] and append the durable promotion record. *)

val scrub_pass : t -> int
(** One online scrub pass: re-verify every record checksum in the
    durable prefix of each live segment, quarantining damage found (a
    damaged active segment is also sealed). Returns the number of
    segments newly quarantined. *)

val checkpoint : t -> (unit, error) result
(** Fsync the active segment and atomically swap a fresh manifest. *)

val close : t -> unit
(** Checkpoint (best-effort) and release. *)

val counts : t -> counts
val to_prometheus : t -> string
(** The [lopsided_store_*] counter/gauge block. *)
