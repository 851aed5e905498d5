(* Replicated collection store: quorum-acked log shipping across N
   backend processes, breaker-informed primary failover, and digest-
   driven anti-entropy repair.

   One front coordinator, N replica backends. Each backend owns a full
   segmented store (log.ml) in its own directory and serves the
   replication frame family (repl_log.ml) over a Unix-domain socket.
   Spawn (a [--replica-backend] re-exec of the host binary), the
   connection pool, the chaos-wrapped framed call, the serve loop, and
   reap and drain are {!Backend}'s, shared with the generation shards;
   any binary that calls {!maybe_run_backend} first thing in main can
   host one.

   The write path: the coordinator appends on the primary first (the
   primary defines the log position), then fans the record out to every
   reachable replica carrying the primary's pre-append position as the
   log-matching check — a replica that is not exactly there refuses
   with a structured nack instead of appending, so replica logs are
   always byte prefixes of the primary's. A write is acknowledged to
   the caller only once W of N stores have fsync'd it; short of quorum,
   the append is undone (the log rolled back to its pre-append
   position) everywhere it landed, so an unacknowledged write cannot
   resurrect. A node whose undo cannot be confirmed is tainted:
   excluded from promotion until anti-entropy repair proves it
   byte-identical again.

   Failover: when the primary's breaker opens (or its process is
   reaped), the coordinator promotes the most-caught-up reachable
   replica — max (epoch, durable bytes) — onto a bumped epoch. The new
   primary appends a durable epoch marker, so a deposed primary that
   rejoins with unreplicated tail records diverges from the new
   history at a digest-visible point and repair truncates that tail
   rather than resurrecting it.

   Anti-entropy: repair compares per-segment extents and digests
   between the primary and a replica. A digest is a hash list (MD5
   over the MD5s of a segment's 64 KiB blocks, its tail and its
   length), and each backend caches the hashes of full blocks below the
   committed length, which never change while its store is open
   ({!Seg_digest}); a probe round therefore reads only new bytes, and
   the undo and splice-commit surgery resets the cache. Repair streams
   only missing suffixes
   when the shared prefix still matches (prefix-digest checked),
   replaces segments wholesale otherwise, and commits the splices
   atomically on the replica (close, splice files, drop the stale
   manifest, reopen through recovery). Control and repair frames are
   exempt from the chaos plane — supervision stays truthful and repair
   provably converges; only data-plane frames (write / undo / get)
   ride through it. *)

let spec_env = "AWBSTORE_REPLICA_SPEC"
let backend_flag = "--replica-backend"

(* ------------------------------------------------------------------ *)
(* Backend spec (crosses the exec boundary via the environment)        *)
(* ------------------------------------------------------------------ *)

type spec = {
  rp_socket : string;
  rp_id : int;
  rp_dir : string;
  rp_segbytes : int;
  rp_scrub_s : float;  (* online scrub cadence; 0 = off *)
  rp_seed : int;  (* I/O fault plane seed; < 0 = no plane *)
  rp_short : float;
  rp_ffail : float;
  rp_fignore : float;
  rp_crash : float;
}

let spec_of_string s =
  Backend.Spec.(
    decode s (fun f ->
        {
          rp_socket = str f "sock";
          rp_id = int f "id";
          rp_dir = str f "dir";
          rp_segbytes = int f "segbytes";
          rp_scrub_s = float_of f "scrub";
          rp_seed = int f "seed";
          rp_short = float_of f "short";
          rp_ffail = float_of f "ffail";
          rp_fignore = float_of f "fignore";
          rp_crash = float_of f "crash";
        }))

(* ------------------------------------------------------------------ *)
(* Backend process                                                     *)
(* ------------------------------------------------------------------ *)

let seg_path dir id = Filename.concat dir (Segment.seg_name id)

let write_all_fd fd data =
  let len = String.length data in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd data off (len - off))
  in
  go 0

(* Status, prefix digests and fetches all read through the backend's
   {!Seg_digest} cache: a probe costs a stat per segment plus the bytes
   appended since the previous one, never a whole-log read. *)
let backend_status digests store ~with_digests =
  let dir = Log.dir store in
  let live = Log.live_segments store in
  Seg_digest.prune digests live;
  let segs =
    List.map
      (fun (id, committed) ->
        let len = Seg_digest.extent ~dir (id, committed) in
        let digest = if with_digests then Seg_digest.digest digests ~dir ~id ~upto:len else "" in
        { Repl_log.g_id = id; g_len = len; g_digest = digest })
      live
  in
  {
    Repl_log.st_epoch = Log.epoch store;
    st_pos = Log.position store;
    st_total = Log.total_bytes store;
    st_segs = segs;
    st_quarantined = List.length (Log.quarantined store);
  }

(* The physical extent of [seg] if it is live, else 0. *)
let live_extent store seg =
  match List.assoc_opt seg (Log.live_segments store) with
  | Some committed -> Seg_digest.extent ~dir:(Log.dir store) (seg, committed)
  | None -> 0

(* Close the store, mutate its files, drop the (now stale) manifest
   checkpoint so recovery replays the mutated segments from their
   headers, and reopen. Undo and splice-commit both reuse recovery
   wholesale instead of editing live store state. The only place
   bytes below a committed length change, so the digest cache is
   reset with it. *)
let surgery sp plane store digests mutate =
  Log.close !store;
  Seg_digest.reset digests;
  let ok = try mutate (); true with Unix.Unix_error _ | Sys_error _ -> false in
  List.iter
    (fun name ->
      try Unix.unlink (Filename.concat sp.rp_dir name) with Unix.Unix_error _ -> ())
    [ Manifest.file_name; Manifest.tmp_name ];
  store := Log.open_store ?plane ~max_segment_bytes:sp.rp_segbytes sp.rp_dir;
  ok

(* Drop every on-disk segment past the undo point and cut the target
   back to [off]. Never extends: a file shorter than [off] (a lying
   fsync's unkept promise) stays short and recovery truncates the torn
   tail. *)
let undo_files sp ~seg ~off =
  Array.iter
    (fun name ->
      match Segment.seg_id name with
      | Some id when id > seg -> (
        try Unix.unlink (Filename.concat sp.rp_dir name) with Unix.Unix_error _ -> ())
      | _ -> ())
    (try Sys.readdir sp.rp_dir with Sys_error _ -> [||]);
  let path = seg_path sp.rp_dir seg in
  match (Unix.stat path).Unix.st_size with
  | size -> if size > off then Unix.truncate path off
  | exception Unix.Unix_error _ -> ()

let apply_splice sp (seg, from, data) =
  let path = seg_path sp.rp_dir seg in
  if from = 0 then begin
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc data)
  end
  else begin
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.ftruncate fd from;
        ignore (Unix.lseek fd from Unix.SEEK_SET);
        write_all_fd fd data)
  end

let backend_handle sp plane store digests staged payload pos =
  match Char.chr (Frame.get_u8 payload pos) with
  | 'P' -> "P"
  | 'W' -> (
    let w = Repl_log.decode_write payload pos in
    if w.Repl_log.w_epoch < Log.epoch !store then
      Frame.nack (Printf.sprintf "stale-epoch %d" (Log.epoch !store))
    else begin
      let cur = Log.position !store in
      match w.Repl_log.w_expect with
      | Some exp when exp <> cur ->
        (* A diverged node must NOT adopt the write's term. Epoch is
           only ever taken together with the content that backs it —
           a log-matched apply, a durable epoch marker, or a repair
           commit — so that the (epoch, bytes) election rank always
           prefers a node that actually holds the acked prefix over a
           laggard that merely heard the term number. *)
        Frame.nack (Printf.sprintf "diverged %d %d" (fst cur) (snd cur))
      | _ -> (
        Log.set_epoch !store w.Repl_log.w_epoch;
        let result =
          match w.Repl_log.w_kind with
          | `Put ->
            Result.map
              (fun hash -> (true, hash))
              (Log.put !store ~collection:w.Repl_log.w_collection ~doc:w.Repl_log.w_doc
                 w.Repl_log.w_body)
          | `Delete ->
            Result.map
              (fun applied -> (applied, ""))
              (Log.delete !store ~collection:w.Repl_log.w_collection
                 ~doc:w.Repl_log.w_doc)
        in
        match result with
        | Ok (applied, hash) ->
          Repl_log.encode_write_reply
            {
              Repl_log.a_applied = applied;
              a_hash = hash;
              a_pre = cur;
              a_post = Log.position !store;
            }
        | Error e -> Frame.nack (Log.error_message e))
    end)
  | 'U' ->
    let epoch, seg, off = Repl_log.decode_undo payload pos in
    let cur_seg, cur_off = Log.position !store in
    if (cur_seg, cur_off) = (seg, off) then "K"
    else if cur_seg < seg || (cur_seg = seg && cur_off < off) then
      (* Behind the undo point: nothing of the append ever landed
         here. No term adoption either — a position match is not a
         content match, and an epoch without its backing bytes
         poisons the election rank. *)
      Frame.nack (Printf.sprintf "undo-ahead %d %d" cur_seg cur_off)
    else begin
      let ok = surgery sp plane store digests (fun () -> undo_files sp ~seg ~off) in
      let cur_seg, cur_off = Log.position !store in
      if ok && (cur_seg < seg || (cur_seg = seg && cur_off <= off)) then begin
        (* The node had applied this term's write (it log-matched at
           the append point), so after truncating back it holds the
           canonical prefix — safe to carry the term. *)
        Log.set_epoch !store epoch;
        "K"
      end
      else
        (* Truncation incomplete: the append may still be durable
           here. Never claim a rollback we cannot prove. *)
        Frame.nack (Printf.sprintf "undo-failed %d %d" cur_seg cur_off)
    end
  | 'S' ->
    let with_digests = Frame.get_u8 payload pos = 1 in
    Repl_log.encode_status (backend_status digests !store ~with_digests)
  | 'E' -> (
    let epoch = Frame.get_u32 payload pos in
    match Log.append_epoch_marker !store ~epoch with
    | Ok () -> Repl_log.encode_status (backend_status digests !store ~with_digests:false)
    | Error e -> Frame.nack (Log.error_message e))
  | 'F' ->
    let seg, from, upto = Repl_log.decode_fetch payload pos in
    let len = live_extent !store seg in
    let upto = if upto = 0 then len else min upto len in
    let from = min from upto in
    Repl_log.encode_bytes (Seg_digest.read ~dir:sp.rp_dir ~id:seg ~off:from ~len:(upto - from))
  | 'H' ->
    let seg, upto = Repl_log.decode_prefix_digest payload pos in
    let len = live_extent !store seg in
    if upto > len then Frame.nack (Printf.sprintf "prefix-short %d" len)
    else Repl_log.encode_bytes (Seg_digest.digest digests ~dir:sp.rp_dir ~id:seg ~upto)
  | 'I' ->
    let seg, from, data = Repl_log.decode_install payload pos in
    Hashtbl.replace staged seg (from, data);
    "K"
  | 'Z' ->
    let epoch, keep = Repl_log.decode_commit payload pos in
    let ok =
      surgery sp plane store digests (fun () ->
          Hashtbl.iter (fun seg (from, data) -> apply_splice sp (seg, from, data)) staged;
          (* Segments the primary no longer has — a deposed tail that
             rotated into its own file, or quarantined junk — are dropped,
             never resurrected. *)
          Array.iter
            (fun name ->
              match Segment.seg_id name with
              | Some id when not (List.mem id keep) && not (Hashtbl.mem staged id) -> (
                try Unix.unlink (Filename.concat sp.rp_dir name) with Unix.Unix_error _ -> ())
              | _ -> ())
            (try Sys.readdir sp.rp_dir with Sys_error _ -> [||]))
    in
    Hashtbl.reset staged;
    if ok then begin
      (* Only a fully applied image may carry the primary's term: an
         epoch adopted over partial content would let this node outrank
         replicas that actually hold the acked prefix. *)
      Log.set_epoch !store epoch;
      Repl_log.encode_status (backend_status digests !store ~with_digests:false)
    end
    else Frame.nack "commit-failed"
  | 'G' -> (
    let collection, doc = Repl_log.decode_get payload pos in
    match Log.get !store ~collection ~doc with
    | Ok (snapshot, hash) -> Repl_log.encode_get_reply (Some (snapshot, hash))
    | Error `Not_found -> Repl_log.encode_get_reply None
    | Error e -> Frame.nack (Log.error_message e))
  | 'M' -> "M" ^ Log.to_prometheus !store
  | 'C' -> (
    match Log.checkpoint !store with
    | Ok () -> "K"
    | Error e -> Frame.nack (Log.error_message e))
  | c -> Frame.perr "unknown replica op %c" c

let backend_main sp =
  let drain = Backend.drain_on_sigterm () in
  let plane =
    if sp.rp_seed < 0 then None
    else
      Some
        (Io_fault.of_seed ~short_write_rate:sp.rp_short ~fsync_fail_rate:sp.rp_ffail
           ~fsync_ignore_rate:sp.rp_fignore ~crash_rate:sp.rp_crash sp.rp_seed)
  in
  let store =
    match Log.open_store ?plane ~max_segment_bytes:sp.rp_segbytes sp.rp_dir with
    | s -> ref s
    | exception (Io_fault.Fault _ | Unix.Unix_error _ | Sys_error _) -> exit 3
  in
  (* One mutex serializes every op (and the scrub thread): undo and
     splice-commit swap the store out from under concurrent handlers,
     and replication throughput is bounded by fsync, not lock width. *)
  let op_mutex = Mutex.create () in
  let staged : (int, int * string) Hashtbl.t = Hashtbl.create 8 in
  let digests = Seg_digest.create () in
  if sp.rp_scrub_s > 0. then
    ignore
      (Thread.create
         (fun () ->
           while not (Atomic.get drain) do
             let deadline = Unix.gettimeofday () +. sp.rp_scrub_s in
             while (not (Atomic.get drain)) && Unix.gettimeofday () < deadline do
               Thread.delay 0.02
             done;
             if not (Atomic.get drain) then begin
               Mutex.lock op_mutex;
               Fun.protect
                 ~finally:(fun () -> Mutex.unlock op_mutex)
                 (fun () -> try ignore (Log.scrub_pass !store) with _ -> ())
             end
           done)
         ());
  Backend.serve ~drain ~path:sp.rp_socket (fun payload ->
      Mutex.lock op_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock op_mutex)
        (fun () ->
          try backend_handle sp plane store digests staged payload (ref 0) with
          | Frame.Protocol_error m -> Frame.nack ("protocol: " ^ m)
          | Segment.Corrupt m -> Frame.nack ("store:corrupt: " ^ m)));
  Log.close !store;
  exit 0

let maybe_run_backend () =
  Backend.maybe_run ~flag:backend_flag ~env_var:spec_env spec_of_string backend_main

(* ------------------------------------------------------------------ *)
(* The front coordinator                                               *)
(* ------------------------------------------------------------------ *)

type config = {
  replicas : int;  (* N *)
  write_quorum : int;  (* W: fsync'd copies before a write is acked *)
  max_segment_bytes : int;
  socket_dir : string option;
  probe_interval_s : float;  (* supervisor cadence; <= 0 disables the thread *)
  call_timeout_s : float;
  scrub_interval_s : float;  (* per-backend online scrub cadence; 0 = off *)
  chaos : Chaos.config option;  (* network fault plane on data-plane frames *)
  breaker : Breaker.config;
  io_faults : (int * float * float * float * float) option;
      (* base seed, short-write / fsync-fail / fsync-ignore / crash rates:
         a per-node disk fault plane — the oracle's composition axis *)
}

let default_config =
  {
    replicas = 3;
    write_quorum = 2;
    max_segment_bytes = 8 * 1024 * 1024;
    socket_dir = None;
    probe_interval_s = 0.1;
    call_timeout_s = 5.;
    scrub_interval_s = 0.;
    chaos = None;
    breaker = Breaker.default_config;
    io_faults = None;
  }

type node = {
  nid : int;
  ndir : string;
  b : Backend.t;
  mutable nrespawns : int;
  nbreaker : Breaker.t;
  npartitioned : bool Atomic.t;  (* the oracle's network partition flag *)
  mutable ntainted : bool;  (* unconfirmed undo: out of promotion until repaired *)
  mutable ntaint_floor : (int * int) option;
      (* lowest rollback target whose undo went unconfirmed; everything
         below it is quorum-acked content (or markers), so a later undo
         retry that confirms this position clears the taint without
         needing a live primary. [None] = the possibly-durable orphan's
         position is unknown (a primary that went silent mid-append) and
         only a full repair can prove the node clean. *)
}

type t = {
  cfg : config;
  sock_dir : string;
  store_dir : string;
  nodes : node array;
  rmutex : Mutex.t;  (* serializes writes, promotion, and repair *)
  mutable primary : int;
  mutable epoch : int;
  promotions : int Atomic.t;
  truncated_tails : int Atomic.t;  (* deposed tails cut by repair *)
  quorum_failures : int Atomic.t;
  undo_failures : int Atomic.t;
  repairs : int Atomic.t;
  stop : bool Atomic.t;
  mutable probe_thread : Thread.t option;
}

type error = [ Log.error | `Unavailable of string ]

let error_message = function
  | #Log.error as e -> Log.error_message e
  | `Unavailable m -> Printf.sprintf "store:unavailable: %s" m

let with_rlock t f =
  Mutex.lock t.rmutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.rmutex) f

(* One exchange with a node. [data] opts the frame into the chaos
   plane and the partition flag — write, undo and get; status,
   promotion, and repair frames are exempt so supervision stays
   truthful and anti-entropy provably converges once the partition
   heals. *)
type rsp = Reply of string | Nack of string | Down of exn

let node_call ?(data = false) t n payload =
  match
    (* A partitioned node is unreachable for every frame — data,
       control and repair alike; unlike the chaos plane, a partition
       models the network itself being gone, not a lossy link. *)
    if Atomic.get n.npartitioned then begin
      Thread.delay 0.001;
      raise (Unix.Unix_error (Unix.ETIMEDOUT, "replica partitioned", ""))
    end;
    Backend.call ?chaos:(if data then t.cfg.chaos else None) n.b payload
      ~timeout_s:t.cfg.call_timeout_s
  with
  | reply ->
    Breaker.record_success n.nbreaker;
    Reply reply
  | exception Frame.Nacked reason ->
    (* The node is alive (it answered); the payload was refused or lost. *)
    Breaker.record_success n.nbreaker;
    Nack reason
  | exception e ->
    Breaker.record_failure n.nbreaker ~timeout:(Backend.is_timeout_exn e) ~now:(Clock.now ()) ();
    Down e

let node_status ?(digests = false) t n =
  match node_call t n (Repl_log.encode_status_req ~digests) with
  | Reply p -> ( try Some (Repl_log.decode_status p) with _ -> None)
  | Nack _ | Down _ -> None

(* ------------------------------------------------------------------ *)
(* Anti-entropy repair                                                 *)
(* ------------------------------------------------------------------ *)

let fetch t n ~seg ~from ~upto =
  match node_call t n (Repl_log.encode_fetch ~seg ~from ~upto) with
  | Reply rp -> ( try Some (Repl_log.decode_bytes rp) with _ -> None)
  | Nack _ | Down _ -> None

let prefix_digest t n ~seg ~upto =
  match node_call t n (Repl_log.encode_prefix_digest ~seg ~upto) with
  | Reply rp -> ( try Some (Repl_log.decode_bytes rp) with _ -> None)
  | Nack _ | Down _ -> None

let install t n ~seg ~from data =
  match node_call t n (Repl_log.encode_install ~seg ~from data) with
  | Reply "K" -> true
  | Reply _ | Nack _ | Down _ -> false

(* Bring one replica byte-identical to the primary. Per segment: equal
   extent and digest → untouched; replica shorter with a matching
   prefix digest → stream only the missing suffix; replica longer (or
   divergent) with the primary's image a clean prefix → truncate the
   deposed tail; anything else → replace the segment wholesale.
   Segments the primary no longer has are dropped by the commit.
   [n] is a follower and [pst] the primary's status with digests.
   Caller holds rmutex. *)
let repair_node t ~pst n =
  let p = t.nodes.(t.primary) in
  match node_status ~digests:true t n with
  | Some rst ->
    let rsegs = List.map (fun g -> (g.Repl_log.g_id, g)) rst.Repl_log.st_segs in
    let pids = List.map (fun g -> g.Repl_log.g_id) pst.Repl_log.st_segs in
    let truncating =
      ref (List.exists (fun (id, _) -> not (List.mem id pids)) rsegs)
    in
    let steps =
      List.filter_map
        (fun (pg : Repl_log.seg_info) ->
          match List.assoc_opt pg.Repl_log.g_id rsegs with
          | None -> Some (`Full pg)
          | Some rg
            when rg.Repl_log.g_len = pg.Repl_log.g_len
                 && rg.Repl_log.g_digest = pg.Repl_log.g_digest ->
            None
          | Some rg when rg.Repl_log.g_len < pg.Repl_log.g_len -> (
            match prefix_digest t p ~seg:pg.Repl_log.g_id ~upto:rg.Repl_log.g_len with
            | Some d when d = rg.Repl_log.g_digest ->
              Some (`Suffix (pg, rg.Repl_log.g_len))
            | _ ->
              (* Shorter but with different bytes: a deposed tail the
                 new term has since outgrown. *)
              truncating := true;
              Some (`Full pg))
          | Some _ -> (
            (* Replica at or past the primary's extent with different
               bytes somewhere: a deposed-primary tail. *)
            truncating := true;
            match prefix_digest t n ~seg:pg.Repl_log.g_id ~upto:pg.Repl_log.g_len with
            | Some d when d = pg.Repl_log.g_digest ->
              Some (`Cut (pg.Repl_log.g_id, pg.Repl_log.g_len))
            | _ -> Some (`Full pg)))
        pst.Repl_log.st_segs
    in
    if steps = [] && not !truncating && rst.Repl_log.st_epoch = pst.Repl_log.st_epoch
    then begin
      n.ntainted <- false;
      n.ntaint_floor <- None;
      true
    end
    else begin
      let ok = ref true in
      List.iter
        (fun step ->
          if !ok then
            match step with
            | `Cut (id, len) -> if not (install t n ~seg:id ~from:len "") then ok := false
            | `Suffix (pg, from) -> (
              match
                fetch t p ~seg:pg.Repl_log.g_id ~from ~upto:pg.Repl_log.g_len
              with
              | Some data when String.length data = pg.Repl_log.g_len - from ->
                if not (install t n ~seg:pg.Repl_log.g_id ~from data) then ok := false
              | _ -> ok := false)
            | `Full pg -> (
              match fetch t p ~seg:pg.Repl_log.g_id ~from:0 ~upto:pg.Repl_log.g_len with
              | Some data when String.length data = pg.Repl_log.g_len ->
                if not (install t n ~seg:pg.Repl_log.g_id ~from:0 data) then ok := false
              | _ -> ok := false))
        steps;
      !ok
      &&
      match node_call t n (Repl_log.encode_commit ~epoch:pst.Repl_log.st_epoch pids) with
      | Reply rp -> (
        match Repl_log.decode_status rp with
        | st
          when st.Repl_log.st_epoch = pst.Repl_log.st_epoch
               && st.Repl_log.st_pos = pst.Repl_log.st_pos
               && st.Repl_log.st_total = pst.Repl_log.st_total ->
          if !truncating then Atomic.incr t.truncated_tails;
          n.ntainted <- false;
          n.ntaint_floor <- None;
          Atomic.incr t.repairs;
          true
        | _ -> false
        | exception _ -> false)
      | Nack _ | Down _ -> false
    end
  | None -> false

(* Repair each of [nodes] other than the primary against one image of
   the primary, taken once for the round. Returns the followers repaired
   or verified in sync. Caller holds rmutex. *)
let repair_round t nodes =
  match node_status ~digests:true t t.nodes.(t.primary) with
  | None -> 0
  | Some pst ->
    List.fold_left
      (fun acc n -> if n.nid <> t.primary && repair_node t ~pst n then acc + 1 else acc)
      0 nodes

let seg_images st =
  List.map
    (fun g -> (g.Repl_log.g_id, g.Repl_log.g_len, g.Repl_log.g_digest))
    st.Repl_log.st_segs

(* Caller holds rmutex. *)
let converged_locked t =
  match node_status ~digests:true t t.nodes.(t.primary) with
  | None -> false
  | Some pst ->
    Array.for_all
      (fun n ->
        n.nid = t.primary
        ||
        match node_status ~digests:true t n with
        | Some rst ->
          rst.Repl_log.st_epoch = pst.Repl_log.st_epoch
          && seg_images rst = seg_images pst
        | None -> false)
      t.nodes

(* ------------------------------------------------------------------ *)
(* Election                                                            *)
(* ------------------------------------------------------------------ *)

(* Promote the most-caught-up reachable, untainted node: max (epoch,
   durable bytes). The winner appends a durable epoch marker on a
   bumped term ('E'); the other candidates are then repaired against
   it, which streams the marker (and anything else they are missing)
   and is the only way a follower adopts the new term — epoch always
   travels with the content that backs it.

   Three disciplines keep elections from losing acked writes. The
   candidate set must be large enough (N - W + 1) that it provably
   intersects every write quorum, so at least one candidate holds
   every acked write. Only the TOP-ranked candidate may win: because
   untainted logs are canonical prefixes and epochs are only adopted
   with content, the max-(epoch, bytes) candidate of any such set
   holds them all — crowning a runner-up after a failed attempt could
   canonize a log that misses an acked write, so a failed attempt
   fails the whole election instead. And every attempt burns its term
   number (the coordinator's epoch high-water mark advances even on
   failure), so a marker whose append landed but whose reply was lost
   can never share a term with a later winner. Caller holds rmutex. *)
let promote t =
  (* Taint recovery that needs no primary: a node tainted by an
     unconfirmed rollback carries the rollback's floor, and everything
     below that floor is quorum-acked content — so retrying the undo
     (now that the partition healed or the stall passed) and finding
     the node at or before the floor proves the orphan gone. Without
     this, two unconfirmed rollbacks can wedge a 3-node cluster for
     good: elections need N - W + 1 untainted candidates, and the only
     other untainting path (anti-entropy repair) needs the very
     primary that can no longer be elected. *)
  Array.iter
    (fun n ->
      match n.ntaint_floor with
      | Some (seg, off)
        when n.ntainted && not (Breaker.blocked n.nbreaker ~now:(Clock.now ())) -> (
        match node_call ~data:true t n (Repl_log.encode_undo ~epoch:t.epoch ~seg ~off) with
        | Reply "K" ->
          n.ntainted <- false;
          n.ntaint_floor <- None
        | Nack reason
          when String.length reason >= 10 && String.sub reason 0 10 = "undo-ahead" ->
          n.ntainted <- false;
          n.ntaint_floor <- None
        | Reply _ | Nack _ | Down _ -> ())
      | _ -> ())
    t.nodes;
  let viable n = Option.map (fun st -> (n, st)) (node_status t n) in
  let rank =
    List.sort (fun (_, a) (_, b) ->
        compare
          (b.Repl_log.st_epoch, b.Repl_log.st_total)
          (a.Repl_log.st_epoch, a.Repl_log.st_total))
  in
  let untainted =
    Array.to_list t.nodes |> List.filter_map (fun n -> if n.ntainted then None else viable n)
  in
  let election_quorum = Array.length t.nodes - t.cfg.write_quorum + 1 in
  let cands =
    if List.length untainted >= election_quorum then rank untainted
    else
      (* Last resort, so a run of bad luck cannot wedge the cluster for
         good: admit floor-LESS tainted nodes — deposed primaries that
         went silent mid-append. Such a node carries at most one orphan
         record at its tip, and that record is ledger-ambiguous (the
         write was refused with rollback unconfirmed), which the
         contract allows to survive. Its rank inflation is harmless:
         within its term every acked write flowed through it, and acks
         from later terms live on nodes whose higher epoch outranks it
         regardless of byte counts. Floor-tainted nodes stay excluded —
         a FOLLOWER's orphan bytes could outrank a genuine acked holder
         in the same term — but those are exactly the nodes the
         floor-retry above recovers as soon as they are reachable. *)
      rank
        (untainted
        @ (Array.to_list t.nodes
          |> List.filter_map (fun n ->
                 if n.ntainted && n.ntaint_floor = None then viable n else None)))
  in
  if List.length cands < election_quorum then false
  else begin
    let epoch =
      1
      + List.fold_left (fun m (_, st) -> max m st.Repl_log.st_epoch) t.epoch cands
    in
    match cands with
    | [] -> false
    | (n, _) :: _ -> (
      match node_call t n (Repl_log.encode_promote ~epoch) with
      | Reply p
        when (try (Repl_log.decode_status p).Repl_log.st_epoch = epoch with _ -> false)
        ->
        t.primary <- n.nid;
        t.epoch <- epoch;
        (* A last-resort winner's possible orphan is now canon (it is
           ledger-ambiguous, so the contract permits it); the primary
           is the source of truth by definition. *)
        n.ntainted <- false;
        n.ntaint_floor <- None;
        Atomic.incr t.promotions;
        (* Stream the marker (and whatever else the followers are
           missing) right away so they can ack the next write. *)
        ignore (repair_round t (List.map fst cands));
        true
      | _ ->
        (* Burn the attempted term: the marker may have landed with the
           reply lost, and this number must never be reused. *)
        t.epoch <- epoch;
        false)
  end

(* The primary is only trusted while its breaker is closed and its undo
   history is clean; anything else triggers an election first. Caller
   holds rmutex. *)
let ensure_primary t =
  let p = t.nodes.(t.primary) in
  if p.ntainted || Breaker.blocked p.nbreaker ~now:(Clock.now ()) then promote t else true

(* ------------------------------------------------------------------ *)
(* The quorum write path                                               *)
(* ------------------------------------------------------------------ *)

type write_outcome =
  | Acked of { hash : string; applied : bool }
  | Refused of { clean : bool; reason : string }
      (* no quorum; [clean] = the append was confirmed rolled back
         everywhere it landed (nothing of it can ever resurrect) *)

let write_outcome t ~kind ~collection ~doc ~body =
  with_rlock t (fun () ->
      if not (ensure_primary t) then
        Refused { clean = true; reason = "no primary reachable" }
      else begin
        let now () = Clock.now () in
        (* [dirty] = an earlier attempt may have left a durable orphan
           of this append on a (now tainted) deposed primary; any final
           refusal must then report the rollback as unconfirmed, since
           only a later repair — not this call — removes that orphan. *)
        let rec attempt ~retried ~dirty =
          let p = t.nodes.(t.primary) in
          let w =
            {
              Repl_log.w_epoch = t.epoch;
              w_expect = None;
              w_kind = kind;
              w_collection = collection;
              w_doc = doc;
              w_body = body;
            }
          in
          let orphaned reason =
            (* No countable reply from the primary: the append may sit
               durably on it at an unknown position. Taint it out of
               promotion so re-election cannot canonize the orphan;
               repair truncates the tail against the next primary's
               image before clearing the taint. *)
            p.ntainted <- true;
            p.ntaint_floor <- None;
            Atomic.incr t.undo_failures;
            if (not retried) && promote t then attempt ~retried:true ~dirty:true
            else Refused { clean = false; reason }
          in
          match node_call ~data:true t p (Repl_log.encode_write w) with
          | Down _ -> orphaned "primary unreachable"
          | Nack _ when not retried ->
            (* The primary's disk refused the append (nothing durable —
               the store repairs back to the barrier on error): re-elect,
               possibly the same node on a fresh term, and give the
               write one more try. *)
            if promote t then attempt ~retried:true ~dirty
            else Refused { clean = not dirty; reason = "primary unreachable" }
          | Nack reason -> Refused { clean = not dirty; reason }
          | Reply reply -> (
            match Repl_log.decode_write_reply reply with
            | exception _ -> orphaned "primary reply unparseable"
            | r when not r.Repl_log.a_applied ->
              (* A delete of an absent doc: nothing was appended, so
                 there is nothing to replicate and nothing to lose. *)
              Acked { hash = r.Repl_log.a_hash; applied = false }
            | r ->
              let acked = ref [] in
              (* Nodes whose append outcome is unknown: the frame may
                 have applied durably even though no countable reply
                 came back (reply dropped by chaos, timeout mid-
                 exchange, unparseable reply). On quorum failure these
                 must be rolled back too — an orphan record left on one
                 of them inflates its (epoch, total) election rank and
                 can later crown a node that missed acked writes. A
                 clean Nack is the one safe case: the backend answered
                 that nothing was appended. *)
              let ambiguous = ref [] in
              Array.iter
                (fun n ->
                  if
                    n.nid <> t.primary && (not n.ntainted)
                    && (not (Breaker.blocked n.nbreaker ~now:(now ())))
                    && Breaker.try_probe n.nbreaker ~now:(now ())
                  then begin
                    let wr = { w with Repl_log.w_expect = Some r.Repl_log.a_pre } in
                    match node_call ~data:true t n (Repl_log.encode_write wr) with
                    | Reply rp -> (
                      match Repl_log.decode_write_reply rp with
                      | rr when rr.Repl_log.a_applied = r.Repl_log.a_applied ->
                        acked := n :: !acked
                      | _ -> ambiguous := n :: !ambiguous
                      | exception _ -> ambiguous := n :: !ambiguous)
                    | Nack _ -> ()
                    | Down _ -> ambiguous := n :: !ambiguous
                  end)
                t.nodes;
              let acks = 1 + List.length !acked in
              if acks >= t.cfg.write_quorum then
                Acked { hash = r.Repl_log.a_hash; applied = r.Repl_log.a_applied }
              else begin
                (* Short of quorum: the append must not survive. Roll
                   every copy back to its pre-append position; a node
                   whose rollback cannot be confirmed is tainted out of
                   promotion until repair proves it clean again. *)
                Atomic.incr t.quorum_failures;
                let clean = ref true in
                let seg, off = r.Repl_log.a_pre in
                let undo n =
                  match
                    node_call ~data:true t n (Repl_log.encode_undo ~epoch:t.epoch ~seg ~off)
                  with
                  | Reply "K" -> ()
                  | Nack reason
                    when String.length reason >= 10
                         && String.sub reason 0 10 = "undo-ahead" ->
                    (* The node's durable extent ends before the append
                       point: nothing of this write ever landed there —
                       as clean as a successful rollback. *)
                    ()
                  | Reply _ | Nack _ | Down _ ->
                    clean := false;
                    n.ntainted <- true;
                    (* Everything below the rollback target is acked
                       content: remember the lowest such floor so a
                       later retried undo can prove the node clean
                       again even with no primary electable. *)
                    (match n.ntaint_floor with
                    | Some f when f <= (seg, off) -> ()
                    | _ -> n.ntaint_floor <- Some (seg, off));
                    Atomic.incr t.undo_failures
                in
                undo p;
                List.iter undo !acked;
                List.iter undo !ambiguous;
                Refused
                  {
                    clean = !clean && not dirty;
                    reason =
                      Printf.sprintf "write quorum unavailable (%d/%d acks)" acks
                        t.cfg.write_quorum;
                  }
              end)
        in
        attempt ~retried:false ~dirty:false
      end)

let put t ~collection ~doc body =
  match write_outcome t ~kind:`Put ~collection ~doc ~body with
  | Acked { hash; _ } -> Ok hash
  | Refused { reason; _ } -> Error (`Unavailable reason)

let delete t ~collection ~doc =
  match write_outcome t ~kind:`Delete ~collection ~doc ~body:"" with
  | Acked { applied; _ } -> Ok applied
  | Refused { reason; _ } -> Error (`Unavailable reason)

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)
(* ------------------------------------------------------------------ *)

(* Primary first — its index saw every acked write — then any reachable
   replica: a read served from a follower during failover may be
   slightly stale, never torn (every record is CRC-verified by the
   backend store before a byte leaves it). *)
let get t ~collection ~doc =
  let primary = t.primary in
  let order =
    t.nodes.(primary)
    :: (Array.to_list t.nodes |> List.filter (fun n -> n.nid <> primary && not n.ntainted))
  in
  let rec go fallback = function
    | [] -> (
      match fallback with
      | Some e -> Error e
      | None -> Error (`Unavailable "no replica reachable"))
    | n :: rest -> (
      match node_call ~data:true t n (Repl_log.encode_get ~collection ~doc) with
      | Reply rp -> (
        match Repl_log.decode_get_reply rp with
        | Some (snapshot, hash) -> Ok (snapshot, hash)
        | None -> Error `Not_found
        | exception _ -> go fallback rest)
      | Nack reason ->
        let e =
          if String.length reason >= 13 && String.sub reason 0 13 = "store:corrupt" then
            `Corrupt reason
          else `Io reason
        in
        (* The primary's verdict on its own bytes is authoritative
           (quarantine visibility); a follower's is a fallback. *)
        if n.nid = primary then Error e else go (Some e) rest
      | Down _ -> go fallback rest)
  in
  go None order

let repair t =
  with_rlock t (fun () ->
      (* A tainted primary (its quorum-failure rollback went
         unconfirmed) must not become the repair image: re-elect an
         untainted node first, so the taint's unacked tail is truncated
         rather than replicated. *)
      ignore (ensure_primary t);
      repair_round t (Array.to_list t.nodes))

let repair_until_converged t ~max_rounds =
  let rec go r =
    if with_rlock t (fun () -> converged_locked t) then true
    else if r >= max_rounds then false
    else begin
      ignore (repair t);
      go (r + 1)
    end
  in
  go 0

let converged t = with_rlock t (fun () -> converged_locked t)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let spawn_node t n =
  let seed, short, ffail, fignore, crash =
    match t.cfg.io_faults with
    | None -> (-1, 0., 0., 0., 0.)
    | Some (base, s, f, g, c) ->
      (* A different derived seed per incarnation: a node that died to
         an injected crash must not replay the identical fault at the
         identical byte on respawn, forever. *)
      ((base * 1231) + (n.nid * 101) + (n.nrespawns * 7919), s, f, g, c)
  in
  Backend.spawn n.b ~flag:backend_flag ~env_var:spec_env
    [
      ("sock", n.b.path);
      ("id", string_of_int n.nid);
      ("dir", n.ndir);
      ("segbytes", string_of_int t.cfg.max_segment_bytes);
      ("scrub", Backend.Spec.float t.cfg.scrub_interval_s);
      ("seed", string_of_int seed);
      ("short", Backend.Spec.float short);
      ("ffail", Backend.Spec.float ffail);
      ("fignore", Backend.Spec.float fignore);
      ("crash", Backend.Spec.float crash);
    ];
  n.nrespawns <- n.nrespawns + 1

let ping t n =
  match node_call t n "P" with Reply "P" -> true | _ -> false

let wait_ready t n ~timeout_s =
  let deadline = Clock.now () +. timeout_s in
  let rec go () =
    if ping t n then true
    else begin
      (* A backend running a live injected-fault plane can crash during
         its own startup (the fresh store's first writes draw from the
         schedule like any other op). Reap the corpse and respawn —
         each incarnation derives a fresh fault schedule, so this
         terminates — rather than pinging a ghost until the deadline. *)
      if Backend.exited n.b then begin
        Backend.pool_clear n.b;
        if not (Atomic.get t.stop) then spawn_node t n
      end;
      if Clock.now () > deadline then false
      else begin
        Thread.delay 0.02;
        go ()
      end
    end
  in
  go ()

let rec probe_loop t =
  if not (Atomic.get t.stop) then begin
    Thread.delay t.cfg.probe_interval_s;
    if not (Atomic.get t.stop) then begin
      Array.iter
        (fun n ->
          if Backend.exited n.b then begin
            (* The backend died under us (crash, OOM, kill -9): open
               the breaker outright, drop its pooled conns, respawn.
               If it was the primary, the next write (or the repair
               below) elects a successor. *)
            Breaker.force_open n.nbreaker ~now:(Clock.now ());
            Backend.pool_clear n.b;
            if not (Atomic.get t.stop) then spawn_node t n
          end)
        t.nodes;
      with_rlock t (fun () ->
          ignore (ensure_primary t);
          (* Background anti-entropy: one primary status per round and a
             no-op status exchange per in-sync replica, real streaming
             only when one lags. *)
          ignore (repair_round t (Array.to_list t.nodes)));
      probe_loop t
    end
  end

let create ?(config = default_config) ~dir () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cfg =
    {
      config with
      replicas = max 1 config.replicas;
      write_quorum = max 1 (min config.write_quorum (max 1 config.replicas));
    }
  in
  let sock_dir = Backend.socket_dir ~prefix:"awb-repl" cfg.socket_dir in
  let nodes =
    Array.init cfg.replicas (fun i ->
        {
          nid = i;
          ndir = Filename.concat dir (Printf.sprintf "replica-%d" i);
          b =
            Backend.create ~id:i
              ~path:(Filename.concat sock_dir (Printf.sprintf "replica-%d.sock" i))
              ~healthy:true;
          nrespawns = 0;
          nbreaker = Breaker.create ~config:cfg.breaker ();
          npartitioned = Atomic.make false;
          ntainted = false;
          ntaint_floor = None;
        })
  in
  let t =
    {
      cfg;
      sock_dir;
      store_dir = dir;
      nodes;
      rmutex = Mutex.create ();
      primary = 0;
      epoch = 0;
      promotions = Atomic.make 0;
      truncated_tails = Atomic.make 0;
      quorum_failures = Atomic.make 0;
      undo_failures = Atomic.make 0;
      repairs = Atomic.make 0;
      stop = Atomic.make false;
      probe_thread = None;
    }
  in
  Array.iter (fun n -> spawn_node t n) nodes;
  Array.iter
    (fun n ->
      if not (wait_ready t n ~timeout_s:15.) then begin
        (* Don't leak the siblings that did come up. *)
        Array.iter
          (fun m ->
            Backend.kill_quiet m.b Sys.sigkill;
            ignore (Backend.wait_exit m.b))
          nodes;
        failwith (Printf.sprintf "replica %d did not come up" n.nid)
      end)
    nodes;
  (* First election: the nodes may be rejoining existing (possibly
     divergent) directories — pick the most caught-up, then repair the
     rest against it before taking traffic. Only the top-ranked
     candidate may win, and a backend running a live fault plane can
     crash during its marker append — respawn the fallen and retry on
     a fresh term rather than giving up. The promotion counter is not
     charged for the bootstrap election. *)
  with_rlock t (fun () ->
      let reap_and_respawn () =
        Array.iter
          (fun n ->
            if Backend.exited n.b then begin
              Backend.pool_clear n.b;
              n.ntainted <- false;
              n.ntaint_floor <- None;
              spawn_node t n;
              ignore (wait_ready t n ~timeout_s:15.)
            end)
          nodes
      in
      let rec elect attempts =
        promote t
        ||
        if attempts = 0 then false
        else begin
          reap_and_respawn ();
          elect (attempts - 1)
        end
      in
      if not (elect 10) then failwith "replica cluster failed its first election";
      ignore (repair_round t (Array.to_list nodes)));
  Atomic.set t.promotions 0;
  if cfg.probe_interval_s > 0. then
    t.probe_thread <- Some (Thread.create (fun () -> probe_loop t) ());
  t

let shutdown t =
  if Atomic.compare_and_set t.stop false true then begin
    (match t.probe_thread with Some th -> Thread.join th | None -> ());
    t.probe_thread <- None;
    Array.iter
      (fun n -> Backend.stop n.b ~drain_timeout_s:10.)
      t.nodes;
    try Unix.rmdir t.sock_dir with Unix.Unix_error _ | Sys_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Introspection and the oracle's disruption hooks                     *)
(* ------------------------------------------------------------------ *)

let primary t = t.primary
let epoch t = t.epoch
let replica_count t = Array.length t.nodes
let promotions t = Atomic.get t.promotions
let truncated_tails t = Atomic.get t.truncated_tails
let quorum_failures t = Atomic.get t.quorum_failures
let undo_failures t = Atomic.get t.undo_failures
let repairs t = Atomic.get t.repairs
let node_pid t i = t.nodes.(i).b.pid
let node_dir t i = t.nodes.(i).ndir
let node_socket t i = t.nodes.(i).b.path
let tainted t i = t.nodes.(i).ntainted

let kill_node t i =
  let n = t.nodes.(i) in
  Backend.kill_quiet n.b Sys.sigkill;
  (* Reaped: forget the pid so nothing can signal a recycled one. *)
  if Backend.wait_exit ~timeout_s:5. n.b then n.b.pid <- -1;
  Backend.pool_clear n.b;
  Breaker.force_open n.nbreaker ~now:(Clock.now ())

let respawn_node t i =
  let n = t.nodes.(i) in
  Backend.pool_clear n.b;
  spawn_node t n;
  wait_ready t n ~timeout_s:15.

(* With the probe thread disabled (the oracle's deterministic mode)
   nobody reaps a backend felled by its own injected disk crash; this
   is the oracle's substitute, with the probe loop's bookkeeping. *)
let alive t i =
  let n = t.nodes.(i) in
  if Backend.exited n.b then begin
    Backend.pool_clear n.b;
    Breaker.force_open n.nbreaker ~now:(Clock.now ());
    n.b.pid <- -1;
    false
  end
  else n.b.pid > 0

let set_partition t i flag = Atomic.set t.nodes.(i).npartitioned flag

let statuses t =
  Array.map (fun n -> node_status ~digests:true t n) t.nodes

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metrics t =
  let b = Buffer.create 4096 in
  let parts =
    Array.to_list t.nodes
    |> List.filter_map (fun n ->
           match node_call t n "M" with
           | Reply reply when String.length reply > 0 && reply.[0] = 'M' ->
             Some
               (Backend.relabel ~label:"replica" n.nid
                  (String.sub reply 1 (String.length reply - 1)))
           | _ -> None)
  in
  Buffer.add_string b (Backend.dedup_metadata (String.concat "" parts));
  let sts = Array.map (fun n -> node_status t n) t.nodes in
  let ptotal =
    match sts.(t.primary) with Some st -> st.Repl_log.st_total | None -> 0
  in
  let gauge_series name help f =
    Buffer.add_string b
      (Printf.sprintf "# HELP %s %s\n# TYPE %s gauge\n" name help name);
    Array.iteri
      (fun i n ->
        Buffer.add_string b
          (Printf.sprintf "%s{replica=\"%d\"} %d\n" name n.nid (f i n)))
      t.nodes
  in
  gauge_series "lopsided_store_replica_role" "1 on the current primary, 0 on followers."
    (fun i _ -> if i = t.primary then 1 else 0);
  gauge_series "lopsided_store_replica_lag_bytes"
    "Durable log bytes this replica trails the primary by." (fun i _ ->
      match sts.(i) with
      | Some st -> max 0 (ptotal - st.Repl_log.st_total)
      | None -> ptotal);
  gauge_series "lopsided_store_replica_breaker_state"
    "Replica circuit breaker: 0 closed, 1 open, 2 half-open." (fun _ n ->
      Breaker.state_code n.nbreaker);
  gauge_series "lopsided_store_replica_tainted"
    "1 while an unconfirmed undo keeps the replica out of promotion." (fun _ n ->
      if n.ntainted then 1 else 0);
  let gauge name help v =
    Buffer.add_string b
      (Printf.sprintf "# HELP %s %s\n# TYPE %s gauge\n%s %d\n" name help name name v)
  in
  let counter name help v =
    Buffer.add_string b
      (Printf.sprintf "# HELP %s %s\n# TYPE %s counter\n%s %d\n" name help name name v)
  in
  gauge "lopsided_store_repl_epoch" "Current replication term." t.epoch;
  gauge "lopsided_store_repl_write_quorum" "Fsync'd copies required before a write is acked."
    t.cfg.write_quorum;
  counter "lopsided_store_repl_promotions_total"
    "Primary failovers: a follower promoted onto a bumped epoch." (promotions t);
  counter "lopsided_store_repl_truncated_tails_total"
    "Deposed-primary tails truncated by anti-entropy repair." (truncated_tails t);
  counter "lopsided_store_repl_quorum_failures_total"
    "Writes refused because fewer than W replicas acknowledged." (quorum_failures t);
  counter "lopsided_store_repl_undo_failures_total"
    "Unconfirmed rollbacks of quorum-failed writes (replica tainted)." (undo_failures t);
  counter "lopsided_store_repl_repairs_total"
    "Replicas brought byte-identical to the primary by anti-entropy." (repairs t);
  Buffer.contents b
