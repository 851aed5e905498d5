(** Crash-safe persistent collection store.

    Documents live in named collections on a segmented append-only log
    of CRC-checksummed records; an atomically swapped manifest
    checkpoints segment lengths and doc locations; recovery truncates
    torn tails and quarantines mid-log damage. [Store.t] itself is
    [Log.t] ([include Log]); the submodules expose the seeded I/O fault
    plane ([Io_fault]), on-disk formats ([Segment], [Manifest]), the
    offline checksum scrub ([Scrub]), the kill-point crash oracle
    ([Oracle]), and quorum-acked replication ([Replica] over the
    [Repl_log] frame family, with [Seg_digest] anti-entropy digests). *)

module Io_fault = Io_fault
module Segment = Segment
module Manifest = Manifest
module Scrub = Scrub
module Oracle = Oracle
module Seg_digest = Seg_digest
module Repl_log = Repl_log
module Replica = Replica

include module type of Log with type t = Log.t
