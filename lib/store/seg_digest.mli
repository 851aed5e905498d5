(** Segment digests for anti-entropy, as hash lists with a per-segment
    cache.

    The digest of a segment prefix [[0, len)] is the MD5 of: the MD5s of
    its full {!block_size} blocks in order, the MD5 of the trailing
    partial block (possibly empty), and [len]. The empty prefix
    therefore has exactly one digest, and a digest only ever needs the
    bytes past the blocks it has already hashed.

    The cache keeps the full-block hashes per segment id. It is exact
    because, while a {!Log} handle stays open, the bytes below a live
    segment's committed length never change (see {!Log.live_segments}).
    The owner must {!reset} it whenever it rewrites segment files behind
    the store — undo and splice commit do — and {!prune} it to the live
    segments. *)

type t

val block_size : int
(** 64 KiB. *)

val create : unit -> t

val reset : t -> unit
(** Forget every cached hash: call after any file surgery. *)

val prune : t -> (int * int) list -> unit
(** Drop the entries of segments not in this [(id, _)] list. *)

val extent : dir:string -> int * int -> int
(** The physical durable extent of live segment [(id, committed)]: the
    committed length clipped to the file's size from [Unix.stat] (0 if
    the file is missing). Digests and fetches cover these bytes — what a
    rejoining replica could really replay — never lengths a lying fsync
    merely reported. Reads nothing. *)

val digest : t -> dir:string -> id:int -> upto:int -> string
(** Hex digest of segment [id]'s bytes [[0, upto)], with [upto] at most
    its {!extent}. Reads, by positioned read, only the full blocks not yet
    cached and the trailing partial block; caches the new full blocks. *)

val of_string : string -> string
(** The same digest, uncached, of bytes in memory — the reference the
    cached path must agree with. *)

val read : dir:string -> id:int -> off:int -> len:int -> string
(** Segment [id]'s bytes [[off, off + len)] by positioned read. Raises
    [End_of_file] if the file ends first. *)
