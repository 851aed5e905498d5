(* Entry point of the crash-safe collection store. [include Log] makes
   [Store.t]/[Store.put]/… the store itself; the submodules expose the
   fault plane, on-disk formats, offline scrub, and the crash oracle. *)

module Io_fault = Io_fault
module Segment = Segment
module Manifest = Manifest
module Scrub = Scrub
module Oracle = Oracle
module Seg_digest = Seg_digest
module Repl_log = Repl_log
module Replica = Replica
include Log
