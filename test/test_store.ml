(* The crash-safe collection store: the I/O fault plane's determinism
   (same seed, same schedule — the discipline test_chaos proves for the
   shard transport, pushed down to the filesystem), the faultable file's
   repair contract, the segment codec, torn-tail vs mid-log recovery,
   manifest damage tolerance, the recorder's incremental sink, the store
   conservation checker, and a miniature in-suite run of the kill-point
   crash oracle. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

module Io_fault = Store.Io_fault
module Segment = Store.Segment
module Manifest = Store.Manifest
module Scrub = Store.Scrub
module Oracle = Store.Oracle

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "lopsided-test-store-%d-%d" (Unix.getpid ()) !n)
    in
    let rec rm_rf p =
      match Unix.lstat p with
      | exception Unix.Unix_error _ -> ()
      | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
        (try Unix.rmdir p with Unix.Unix_error _ -> ())
      | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    in
    rm_rf d;
    d

let doc_xml i = Printf.sprintf "<doc n=\"%d\"><p>%s</p></doc>" i (String.make 60 'z')

let put_ok s ~doc body =
  match Store.put s ~collection:"c" ~doc body with
  | Ok h -> h
  | Error e -> Alcotest.failf "put %s: %s" doc (Store.error_message e)

(* ------------------------------------------------------------------ *)
(* Io_fault plane                                                      *)
(* ------------------------------------------------------------------ *)

let test_plane_deterministic () =
  let p =
    Io_fault.of_seed ~short_write_rate:0.1 ~fsync_fail_rate:0.1 ~fsync_ignore_rate:0.05
      ~crash_rate:0.05 99
  in
  check bool_t "write schedule reproducible" true
    (Io_fault.schedule p ~op:Io_fault.Write 400 = Io_fault.schedule p ~op:Io_fault.Write 400);
  check bool_t "fsync schedule reproducible" true
    (Io_fault.schedule p ~op:Io_fault.Fsync 400 = Io_fault.schedule p ~op:Io_fault.Fsync 400);
  let q = Io_fault.of_seed ~short_write_rate:0.1 ~fsync_fail_rate:0.1 ~crash_rate:0.05 100 in
  check bool_t "different seed, different schedule" false
    (Io_fault.schedule p ~op:Io_fault.Write 400 = Io_fault.schedule q ~op:Io_fault.Write 400)

let test_plane_none_injects_nothing () =
  check bool_t "none is disabled" false (Io_fault.enabled Io_fault.none);
  let zero = Io_fault.of_seed 7 in
  check bool_t "zero rates disabled" false (Io_fault.enabled zero);
  check bool_t "no faults at zero rates" true
    (List.for_all Option.is_none (Io_fault.schedule zero ~op:Io_fault.Write 500))

let test_plane_rates_roughly_honored () =
  let p = Io_fault.of_seed ~fsync_fail_rate:0.1 42 in
  let faulted =
    List.length (List.filter Option.is_some (Io_fault.schedule p ~op:Io_fault.Fsync 2000))
  in
  (* 10% of 2000 = 200; allow generous slack, fail only on gross skew. *)
  check bool_t "fault count in a sane band" true (faulted > 100 && faulted < 400)

(* A plane that fails every fsync: the repair contract must leave the
   file back at the last barrier, so nothing unacknowledged survives. *)
let test_faultable_file_repair () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "f" in
  let p = Io_fault.of_seed ~fsync_fail_rate:1.0 5 in
  let f = Io_fault.openf ~plane:p path in
  Io_fault.append f "doomed bytes";
  check int_t "buffered, not committed" 0 (Io_fault.committed f);
  check int_t "logical length counts the buffer" 12 (Io_fault.length f);
  (match Io_fault.fsync f with
  | () -> Alcotest.fail "fsync_fail plane let a barrier through"
  | exception Io_fault.Fault _ -> ());
  Io_fault.repair f;
  check int_t "repair discards pending" 0 (Io_fault.length f);
  Io_fault.close f;
  check int_t "nothing reached the disk" 0 (Unix.stat path).Unix.st_size

let test_faultable_file_fsync_ignore () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let p = Io_fault.of_seed ~fsync_ignore_rate:1.0 5 in
  let f = Io_fault.openf ~plane:p (Filename.concat dir "f") in
  Io_fault.append f "hello";
  (* The lying disk: the barrier reports success... *)
  Io_fault.fsync f;
  (* ...but nothing became durable. *)
  check int_t "committed stays at the last real barrier" 0 (Io_fault.committed f);
  Io_fault.close f

(* ------------------------------------------------------------------ *)
(* Segment codec                                                       *)
(* ------------------------------------------------------------------ *)

let test_segment_crc_vector () =
  check int_t "IEEE 802.3 check value" 0xcbf43926 (Segment.crc32 "123456789")

let test_segment_roundtrip () =
  let r =
    { Segment.kind = `Put; epoch = 3; collection = "c"; doc = "d1";
      hash = String.make 32 'a'; snapshot = "<doc/>" }
  in
  let wire = Segment.encode r in
  (match Segment.scan_one wire 0 with
  | Segment.Rec (r', fin) ->
    check bool_t "record survives the codec" true (r' = r);
    check int_t "end offset is the wire length" (String.length wire) fin
  | _ -> Alcotest.fail "encoded record did not scan");
  (* A tombstone too. *)
  let d = { Segment.kind = `Delete; epoch = 0; collection = "c"; doc = "d1"; hash = ""; snapshot = "" } in
  match Segment.scan_one (Segment.encode d) 0 with
  | Segment.Rec (d', _) -> check bool_t "tombstone survives" true (d' = d)
  | _ -> Alcotest.fail "encoded tombstone did not scan"

let test_segment_flip_detected () =
  let r =
    { Segment.kind = `Put; epoch = 1; collection = "c"; doc = "d";
      hash = String.make 32 'b'; snapshot = "payload payload payload" }
  in
  let wire = Bytes.of_string (Segment.encode r) in
  Bytes.set wire 9 (Char.chr (Char.code (Bytes.get wire 9) lxor 0x40));
  match Segment.scan_one (Bytes.to_string wire) 0 with
  | Segment.Rec _ -> Alcotest.fail "flipped byte scanned as clean"
  | Segment.Torn _ | Segment.Damaged _ | Segment.End -> ()

(* ------------------------------------------------------------------ *)
(* Store: basics, rotation, recovery                                   *)
(* ------------------------------------------------------------------ *)

let test_store_basics_and_reopen () =
  let dir = fresh_dir () in
  let s = Store.open_store ~max_segment_bytes:512 dir in
  let hashes = List.init 12 (fun i -> (Printf.sprintf "d%d" i, put_ok s ~doc:(Printf.sprintf "d%d" i) (doc_xml i))) in
  check bool_t "rotation happened" true (Store.segment_count s > 1);
  (match Store.delete s ~collection:"c" ~doc:"d3" with
  | Ok true -> ()
  | _ -> Alcotest.fail "delete of a live doc");
  (match Store.delete s ~collection:"c" ~doc:"nope" with
  | Ok false -> ()
  | _ -> Alcotest.fail "delete of an absent doc must say so");
  check int_t "doc count tracks the tombstone" 11 (Store.doc_count s);
  Store.close s;
  let s2 = Store.open_store dir in
  check int_t "reopen recovers the live set" 11 (Store.doc_count s2);
  check bool_t "tombstone held across reopen" false (Store.mem s2 ~collection:"c" ~doc:"d3");
  List.iter
    (fun (doc, h) ->
      if doc <> "d3" then
        match Store.get s2 ~collection:"c" ~doc with
        | Ok (snap, h') ->
          check Alcotest.string (doc ^ " hash") h h';
          check Alcotest.string (doc ^ " content hash") h
            (Digest.to_hex (Digest.string snap))
        | Error e -> Alcotest.failf "get %s: %s" doc (Store.error_message e))
    hashes;
  check bool_t "collections lists c" true (Store.collections s2 = [ "c" ]);
  Store.close s2

let test_store_torn_tail_truncated () =
  let dir = fresh_dir () in
  let s = Store.open_store dir in
  let h0 = put_ok s ~doc:"keep" (doc_xml 0) in
  Store.close s;
  (* A crash mid-append: half a record at EOF. *)
  let seg = Filename.concat dir (Segment.seg_name 0) in
  let torn =
    let r = { Segment.kind = `Put; epoch = 0; collection = "c"; doc = "torn"; hash = String.make 32 'c'; snapshot = doc_xml 1 } in
    let w = Segment.encode r in
    String.sub w 0 (String.length w / 2)
  in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 seg in
  output_string oc torn;
  close_out oc;
  let size_with_tail = (Unix.stat seg).Unix.st_size in
  let s2 = Store.open_store dir in
  check int_t "one torn tail truncated" 1 (Store.counts s2).Store.n_truncated_tails;
  check bool_t "tail physically gone" true ((Unix.stat seg).Unix.st_size < size_with_tail);
  check bool_t "torn record not resurrected" false (Store.mem s2 ~collection:"c" ~doc:"torn");
  (match Store.get s2 ~collection:"c" ~doc:"keep" with
  | Ok (_, h) -> check Alcotest.string "earlier doc intact" h0 h
  | Error e -> Alcotest.failf "get keep: %s" (Store.error_message e));
  check int_t "nothing quarantined" 0 (List.length (Store.quarantined s2));
  Store.close s2;
  check bool_t "scrub is clean after truncation" true (Scrub.clean (Scrub.run dir))

let test_store_mid_log_damage_quarantined () =
  let dir = fresh_dir () in
  let s = Store.open_store ~max_segment_bytes:512 dir in
  for i = 0 to 11 do
    ignore (put_ok s ~doc:(Printf.sprintf "d%d" i) (doc_xml i))
  done;
  Store.close s;
  (* Bit rot inside the first record of segment 0 — live data follows,
     so this is mid-log damage, not a torn tail. *)
  let seg = Filename.concat dir (Segment.seg_name 0) in
  let fd = Unix.openfile seg [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd (Segment.header_len + 6) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 1 '\xff') 0 1);
  Unix.close fd;
  let s2 = Store.open_store dir in
  (* The damaged region is inside the checkpoint, so the read path is
     the detector: the victim's docs answer corrupt (and quarantine the
     segment); the other segments keep serving. *)
  let served, corrupt =
    List.fold_left
      (fun (ok, bad) (d, _) ->
        match Store.get s2 ~collection:"c" ~doc:d with
        | Ok _ -> (ok + 1, bad)
        | Error (`Corrupt _) -> (ok, bad + 1)
        | Error e -> Alcotest.failf "get %s: %s" d (Store.error_message e))
      (0, 0) (Store.list_docs s2 ~collection:"c")
  in
  check bool_t "victim docs corrupt" true (corrupt > 0);
  check bool_t "rest of the store serves" true (served > 0);
  check int_t "every doc answered" 12 (served + corrupt);
  check int_t "segment quarantined" 1 (List.length (Store.quarantined s2));
  check bool_t "crc failures counted, never served" true
    ((Store.counts s2).Store.n_read_crc_failures > 0);
  Store.close s2;
  (* Close checkpointed the quarantine; the offline scrub must agree
     nothing damaged is left unquarantined. *)
  let report = Scrub.run dir in
  check bool_t "scrub sees the damage" true (report.Scrub.damaged <> []);
  check int_t "all damage quarantined" 0 (List.length (Scrub.unquarantined_damage report));
  (* Reopen again: the quarantine persists via the manifest. *)
  let s3 = Store.open_store dir in
  check int_t "quarantine survives reopen" 1 (List.length (Store.quarantined s3));
  Store.close s3

let test_manifest_roundtrip_and_damage () =
  let m =
    {
      Manifest.next_seg = 3;
      active = 2;
      epoch = 7;
      segs = [ (0, 500); (2, 120) ];
      quarantined = [ (1, "bit rot") ];
      docs =
        [ { Manifest.l_collection = "c"; l_doc = "d"; l_hash = String.make 32 'd';
            l_seg = 0; l_off = 8; l_len = 90 } ];
    }
  in
  check bool_t "manifest codec round-trips" true (Manifest.decode (Manifest.encode m) = m);
  (* A damaged manifest is reported, not fatal — and the store rebuilds
     the index by scanning segments from their headers. *)
  let dir = fresh_dir () in
  let s = Store.open_store dir in
  let h = put_ok s ~doc:"survivor" (doc_xml 9) in
  Store.close s;
  let mpath = Filename.concat dir Manifest.file_name in
  let fd = Unix.openfile mpath [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 10 Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd 10 Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  (match Manifest.load ~dir with
  | `Damaged _ -> ()
  | `Manifest _ | `Missing -> Alcotest.fail "corrupted manifest loaded as clean");
  let s2 = Store.open_store dir in
  (match Store.get s2 ~collection:"c" ~doc:"survivor" with
  | Ok (_, h') -> check Alcotest.string "doc recovered by full scan" h h'
  | Error e -> Alcotest.failf "get survivor: %s" (Store.error_message e));
  Store.close s2

(* ------------------------------------------------------------------ *)
(* Recorder: incremental sink + torn-tail-tolerant load                *)
(* ------------------------------------------------------------------ *)

let rec_entry i =
  Server.Recorder.entry ~ts:(float_of_int i *. 0.01) ~meth:"POST" ~path:"/generate"
    ~tenant:"acme" ~deadline_ms:1000 ~body:(Printf.sprintf "body-%d" i) ()

let test_recorder_sink_incremental () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "cap.rec" in
  let r = Server.Recorder.create () in
  Server.Recorder.attach_sink r ~path ~every:4 ();
  for i = 0 to 5 do
    Server.Recorder.record r (rec_entry i)
  done;
  (* 6 recorded, flush-every-4: the file holds the first flush only —
     what a crash right now would preserve. *)
  let on_disk = Server.Recorder.load path in
  check int_t "flushed batch durable before detach" 4 (List.length on_disk);
  let written = Server.Recorder.detach_sink r in
  check int_t "detach flushes the backlog" 6 written;
  check int_t "all entries after detach" 6 (List.length (Server.Recorder.load path));
  (* A torn tail (crash mid-flush) keeps the parsed prefix. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x00\x00\x01\xffgarbage";
  close_out oc;
  let tolerated = Server.Recorder.load path in
  check int_t "torn tail tolerated" 6 (List.length tolerated);
  check Alcotest.string "entries intact" "body-5"
    (List.nth tolerated 5).Server.Recorder.e_body

let test_store_invariant_checker () =
  let acked = [ ("a", "h1"); ("b", "h2") ] in
  check int_t "clean run, no violations" 0
    (List.length
       (Server.Recorder.check_store_invariants ~acked ~recovered:acked ~escapes:0));
  check bool_t "lost acked write flagged" true
    (Server.Recorder.check_store_invariants ~acked ~recovered:[ ("a", "h1") ] ~escapes:0
     <> []);
  check bool_t "content mismatch flagged" true
    (Server.Recorder.check_store_invariants ~acked
       ~recovered:[ ("a", "h1"); ("b", "WRONG") ] ~escapes:0
     <> []);
  check bool_t "resurrection flagged" true
    (Server.Recorder.check_store_invariants ~acked
       ~recovered:(("ghost", "h3") :: acked) ~escapes:0
     <> []);
  check bool_t "escapes flagged" true
    (Server.Recorder.check_store_invariants ~acked ~recovered:acked ~escapes:1 <> [])

(* ------------------------------------------------------------------ *)
(* The crash oracle, in miniature                                      *)
(* ------------------------------------------------------------------ *)

(* A small in-suite run of the kill-point oracle (the bench runs the
   full 200+ trial matrix): re-exec this test binary as the child
   ingester — test_main calls [Oracle.maybe_run_child] first — under
   crash + short-write + fsync-fail faults, and require exact
   acknowledged-prefix recovery on every trial. *)
let test_oracle_exact_recovery () =
  let tmp = fresh_dir () in
  let rates =
    { Oracle.r_crash = 0.04; r_short = 0.02; r_ffail = 0.02; r_fignore = 0. }
  in
  let s =
    Oracle.run_trials ~exe:Sys.executable_name ~tmp ~trials:16 ~seed0:3100 ~n:30 rates
  in
  check int_t "16 trials ran" 16 s.Oracle.s_trials;
  check bool_t "some trials hit a kill point" true (s.Oracle.s_killed > 0);
  check int_t "no acked write lost" 0 s.Oracle.s_lost;
  check int_t "no unacked write resurrected" 0 s.Oracle.s_resurrected;
  check int_t "no checksum escapes" 0 s.Oracle.s_escapes;
  check int_t "no unquarantined damage" 0 s.Oracle.s_unquarantined_damage

(* ------------------------------------------------------------------ *)
(* Replication: quorum edges, failover, catch-up                       *)
(* ------------------------------------------------------------------ *)

module Replica = Store.Replica
module Repl_log = Store.Repl_log

let repl_config ?(segbytes = 64 * 1024) () =
  {
    Replica.default_config with
    Replica.max_segment_bytes = segbytes;
    probe_interval_s = 0.;  (* tests drive respawn/repair by hand *)
    call_timeout_s = 1.;
  }

let repl_put cl ~doc body =
  match Replica.put cl ~collection:"c" ~doc body with
  | Ok h -> h
  | Error e -> Alcotest.failf "replicated put %s: %s" doc (Replica.error_message e)

(* Epoch-stamped record codec: the replication term survives the
   segment round-trip, the promotion marker is a first-class record,
   and the replicate-frame payloads ship positions and digests
   faithfully. *)
let test_repl_epoch_codec () =
  let r =
    {
      Segment.kind = `Put;
      epoch = 7;
      collection = "c";
      doc = "d1";
      hash = "00112233445566778899aabbccddeeff";
      snapshot = "<doc/>";
    }
  in
  (match Segment.scan_one (Segment.magic ^ Segment.encode r) Segment.header_len with
  | Segment.Rec (r', _) ->
    check int_t "epoch survives the segment codec" 7 r'.Segment.epoch;
    check bool_t "record fields survive" true (r' = r)
  | _ -> Alcotest.fail "epoch-stamped record did not scan");
  (match
     Segment.scan_one
       (Segment.magic ^ Segment.encode (Segment.epoch_marker 9))
       Segment.header_len
   with
  | Segment.Rec (m, _) ->
    check bool_t "promotion marker is an `Epoch record" true (m.Segment.kind = `Epoch);
    check int_t "promotion marker carries the term" 9 m.Segment.epoch
  | _ -> Alcotest.fail "epoch marker did not scan");
  let w =
    {
      Repl_log.w_epoch = 3;
      w_expect = Some (2, 4096);
      w_kind = `Put;
      w_collection = "c";
      w_doc = "d2";
      w_body = "<doc n=\"2\"/>";
    }
  in
  let w' = Repl_log.decode_write (Repl_log.encode_write w) (ref 1) in
  check bool_t "replicate payload round-trips" true (w' = w);
  let a =
    { Repl_log.a_applied = true; a_hash = String.make 32 'a'; a_pre = (2, 4096); a_post = (2, 4300) }
  in
  check bool_t "write reply round-trips" true
    (Repl_log.decode_write_reply (Repl_log.encode_write_reply a) = a);
  let st =
    {
      Repl_log.st_epoch = 5;
      st_pos = (3, 128);
      st_total = 9000;
      st_segs = [ { Repl_log.g_id = 2; g_len = 4096; g_digest = String.make 32 'b' } ];
      st_quarantined = 1;
    }
  in
  check bool_t "status round-trips" true (Repl_log.decode_status (Repl_log.encode_status st) = st)

(* W unreachable: ingest refuses cleanly (and rolls the primary back),
   reads keep serving, and recovery of the followers restores writes. *)
let test_repl_quorum_unavailable_reads_serve () =
  let dir = fresh_dir () in
  let cl = Replica.create ~config:(repl_config ()) ~dir () in
  Fun.protect
    ~finally:(fun () -> Replica.shutdown cl)
    (fun () ->
      let h1 = repl_put cl ~doc:"d1" (doc_xml 1) in
      let p = Replica.primary cl in
      for i = 0 to Replica.replica_count cl - 1 do
        if i <> p then Replica.kill_node cl i
      done;
      (match Replica.put cl ~collection:"c" ~doc:"d2" (doc_xml 2) with
      | Error (`Unavailable _) -> ()
      | Ok _ -> Alcotest.fail "write acked without a quorum"
      | Error e -> Alcotest.failf "expected quorum refusal, got %s" (Replica.error_message e));
      check bool_t "quorum failure counted" true (Replica.quorum_failures cl > 0);
      (match Replica.get cl ~collection:"c" ~doc:"d1" with
      | Ok (_, h) -> check Alcotest.string "reads serve through the outage" h1 h
      | Error e -> Alcotest.failf "read during outage: %s" (Replica.error_message e));
      (match Replica.get cl ~collection:"c" ~doc:"d2" with
      | Error `Not_found -> ()
      | Ok _ -> Alcotest.fail "refused write visible"
      | Error e -> Alcotest.failf "read of refused doc: %s" (Replica.error_message e));
      for i = 0 to Replica.replica_count cl - 1 do
        if i <> p then check bool_t "respawned" true (Replica.respawn_node cl i)
      done;
      ignore (Replica.repair cl);
      ignore (repl_put cl ~doc:"d2" (doc_xml 2));
      check bool_t "converged after recovery" true
        (Replica.repair_until_converged cl ~max_rounds:4))

(* Deposed-primary rejoin: a record that reached only the old primary
   (injected behind the coordinator's back) is truncated on rejoin —
   never resurrected — once a new term has been established. *)
let test_repl_deposed_primary_truncates_tail () =
  let dir = fresh_dir () in
  let cl = Replica.create ~config:(repl_config ()) ~dir () in
  Fun.protect
    ~finally:(fun () -> Replica.shutdown cl)
    (fun () ->
      ignore (repl_put cl ~doc:"d1" (doc_xml 1));
      let p = Replica.primary cl in
      (* The unreplicated tail: a write shipped straight to the primary's
         backend, bypassing quorum. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX (Replica.node_socket cl p));
      Frame.send_frame fd
        (Repl_log.encode_write
           {
             Repl_log.w_epoch = Replica.epoch cl;
             w_expect = None;
             w_kind = `Put;
             w_collection = "c";
             w_doc = "ghost";
             w_body = doc_xml 99;
           });
      ignore (Frame.recv_frame fd);
      Unix.close fd;
      (* Depose it: partition, force a write through a new primary. *)
      Replica.set_partition cl p true;
      ignore (repl_put cl ~doc:"d2" (doc_xml 2));
      check bool_t "failover promoted a new primary" true (Replica.primary cl <> p);
      check bool_t "promotion counted" true (Replica.promotions cl > 0);
      (* Rejoin and repair: the ghost must go. *)
      Replica.set_partition cl p false;
      check bool_t "converged after rejoin" true
        (Replica.repair_until_converged cl ~max_rounds:6);
      check bool_t "unreplicated tail truncated" true (Replica.truncated_tails cl > 0);
      (match Replica.get cl ~collection:"c" ~doc:"ghost" with
      | Error `Not_found -> ()
      | Ok _ -> Alcotest.fail "unacked write resurrected after rejoin"
      | Error e -> Alcotest.failf "ghost read: %s" (Replica.error_message e));
      (match Replica.get cl ~collection:"c" ~doc:"d2" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "acked write lost: %s" (Replica.error_message e)))

(* Catch-up across a missed rotation: a follower that was dead through
   whole-segment turnover is streamed the missing suffix and converges
   byte-identically. *)
let test_repl_catchup_after_rotation () =
  let dir = fresh_dir () in
  let cl = Replica.create ~config:(repl_config ~segbytes:512 ()) ~dir () in
  Fun.protect
    ~finally:(fun () -> Replica.shutdown cl)
    (fun () ->
      ignore (repl_put cl ~doc:"d0" (doc_xml 0));
      let p = Replica.primary cl in
      let victim = (p + 1) mod Replica.replica_count cl in
      Replica.kill_node cl victim;
      (* ~200-byte docs against 512-byte segments: several rotations. *)
      for i = 1 to 12 do
        ignore (repl_put cl ~doc:(Printf.sprintf "d%d" i) (doc_xml i))
      done;
      check bool_t "victim respawned" true (Replica.respawn_node cl victim);
      check bool_t "catch-up converged" true (Replica.repair_until_converged cl ~max_rounds:6);
      check bool_t "anti-entropy actually repaired" true (Replica.repairs cl > 0);
      match Replica.statuses cl |> Array.to_list |> List.filter_map Fun.id with
      | st :: rest ->
        check bool_t "all replicas report one position" true
          (List.for_all (fun s -> s.Repl_log.st_pos = st.Repl_log.st_pos) rest)
      | [] -> Alcotest.fail "no statuses after catch-up")

(* The replication oracle, in miniature: a few seeded kill/partition
   storms (the bench runs the 200+ trial matrix) must lose nothing
   acked, resurrect nothing refused, and converge byte-identically. *)
let test_repl_oracle_mini () =
  let tmp = fresh_dir () in
  let rates = { Oracle.r_crash = 0.02; r_short = 0.02; r_ffail = 0.02; r_fignore = 0. } in
  let s = Oracle.run_repl_trials ~tmp ~trials:3 ~seed0:4200 ~n:18 rates in
  check int_t "3 trials ran" 3 s.Oracle.rs_trials;
  check int_t "no quorum-acked write lost" 0 s.Oracle.rs_lost;
  check int_t "no refused write resurrected" 0 s.Oracle.rs_resurrected;
  check int_t "every trial converged byte-identically" 0 s.Oracle.rs_diverged

(* A write shipped straight to one backend, bypassing the coordinator:
   an unreplicated tail on that node. *)
let ghost_put cl node ~doc body =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX (Replica.node_socket cl node));
      Frame.send_frame fd
        (Repl_log.encode_write
           {
             Repl_log.w_epoch = Replica.epoch cl;
             w_expect = None;
             w_kind = `Put;
             w_collection = "c";
             w_doc = doc;
             w_body = body;
           });
      ignore (Frame.recv_frame fd))

(* A follower that died mid-rotation holds a live zero-length segment
   (its header never became durable). The empty prefix has one digest,
   so repair streams that segment as a suffix from offset 0 and counts
   no truncated tail. *)
let test_repl_zero_length_segment_suffix () =
  let dir = fresh_dir () in
  let cl = Replica.create ~config:(repl_config ~segbytes:4096 ()) ~dir () in
  Fun.protect
    ~finally:(fun () -> Replica.shutdown cl)
    (fun () ->
      ignore (repl_put cl ~doc:"d0" (doc_xml 0));
      let p = Replica.primary cl in
      let victim = (p + 1) mod Replica.replica_count cl in
      Replica.kill_node cl victim;
      let oc =
        open_out_bin (Filename.concat (Replica.node_dir cl victim) (Segment.seg_name 1))
      in
      output_string oc (String.sub Segment.magic 0 3);
      close_out oc;
      for i = 1 to 40 do
        ignore (repl_put cl ~doc:(Printf.sprintf "d%d" i) (doc_xml i))
      done;
      check bool_t "victim respawned" true (Replica.respawn_node cl victim);
      (match (Replica.statuses cl).(victim) with
      | Some st ->
        check bool_t "victim holds a live zero-length segment" true
          (List.exists
             (fun g -> g.Repl_log.g_id = 1 && g.Repl_log.g_len = 0)
             st.Repl_log.st_segs)
      | None -> Alcotest.fail "no status from the respawned victim");
      let tails = Replica.truncated_tails cl in
      check bool_t "caught up" true (Replica.repair_until_converged cl ~max_rounds:4);
      check bool_t "anti-entropy repaired" true (Replica.repairs cl > 0);
      check int_t "no phantom truncated tail" tails (Replica.truncated_tails cl))

(* Multi-block segments, so digest caches hold full blocks: the old
   primary caches a tail that then diverges, is deposed, and rejoins.
   Repair must converge, and the segment files must match byte for byte
   by whole-file MD5 read from disk, not through the digest under
   test. *)
let test_repl_multiblock_convergence () =
  let dir = fresh_dir () in
  let cl = Replica.create ~config:(repl_config ~segbytes:(512 * 1024) ()) ~dir () in
  let big i c = Printf.sprintf "<doc n=\"%d\">%s</doc>" i (String.make 20_000 c) in
  Fun.protect
    ~finally:(fun () -> Replica.shutdown cl)
    (fun () ->
      for i = 0 to 11 do
        ignore (repl_put cl ~doc:(Printf.sprintf "d%d" i) (big i 'a'))
      done;
      check int_t "every follower in sync" 2 (Replica.repair cl);
      let p = Replica.primary cl in
      for i = 0 to 2 do
        ghost_put cl p ~doc:(Printf.sprintf "ghost%d" i) (big i 'g')
      done;
      (* Every node hashes its current image, the ghost blocks included. *)
      ignore (Replica.statuses cl);
      Replica.set_partition cl p true;
      for i = 12 to 16 do
        ignore (repl_put cl ~doc:(Printf.sprintf "d%d" i) (big i 'b'))
      done;
      check bool_t "old primary deposed" true (Replica.primary cl <> p);
      Replica.set_partition cl p false;
      check bool_t "converged after rejoin" true
        (Replica.repair_until_converged cl ~max_rounds:6);
      for i = 17 to 19 do
        ignore (repl_put cl ~doc:(Printf.sprintf "d%d" i) (big i 'c'))
      done;
      check bool_t "converged after more writes" true
        (Replica.repair_until_converged cl ~max_rounds:6);
      (match Replica.get cl ~collection:"c" ~doc:"ghost0" with
      | Error `Not_found -> ()
      | Ok _ -> Alcotest.fail "unacked ghost resurrected"
      | Error e -> Alcotest.failf "ghost read: %s" (Replica.error_message e));
      Replica.shutdown cl;
      let images =
        List.init (Replica.replica_count cl) (fun i -> Oracle.seg_digests (Replica.node_dir cl i))
      in
      check bool_t "segments on disk" true (List.hd images <> []);
      List.iteri
        (fun i img ->
          check bool_t (Printf.sprintf "replica %d byte-identical" i) true (img = List.hd images))
        images)

(* ------------------------------------------------------------------ *)
(* Anti-entropy digests: the cached hash list                          *)
(* ------------------------------------------------------------------ *)

module Seg_digest = Store.Seg_digest

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The uncached reference: the hash list of segment [id]'s bytes
   [0, upto), read whole from disk. *)
let fresh_digest dir id ~upto =
  Seg_digest.of_string
    (String.sub (read_whole (Filename.concat dir (Segment.seg_name id))) 0 upto)

(* Every live segment's cached digest, at its extent and at half of it,
   agrees with a fresh one. *)
let cache_agrees cache s =
  let dir = Store.dir s in
  let live = Store.live_segments s in
  Seg_digest.prune cache live;
  List.for_all
    (fun (id, committed) ->
      let len = Seg_digest.extent ~dir (id, committed) in
      List.for_all
        (fun upto -> Seg_digest.digest cache ~dir ~id ~upto = fresh_digest dir id ~upto)
        [ len; len / 2; len ])
    live

type digest_op = Put of int * int | Delete of int | Scrub_pass

let prop_digest_cache_differential =
  let gen =
    QCheck.Gen.(
      pair (int_bound 10_000)
        (list_size (int_range 5 40)
           (frequency
              [
                (6, map2 (fun d n -> Put (d, n)) (int_bound 7) (int_range 500 30_000));
                (2, map (fun d -> Delete d) (int_bound 7));
                (1, return Scrub_pass);
              ])))
  in
  let print (seed, ops) =
    Printf.sprintf "seed %d: %s" seed
      (String.concat "; "
         (List.map
            (function
              | Put (d, n) -> Printf.sprintf "put d%d %dB" d n
              | Delete d -> Printf.sprintf "delete d%d" d
              | Scrub_pass -> "scrub")
            ops))
  in
  QCheck.Test.make ~name:"cached segment digests equal fresh ones under faults" ~count:40
    (QCheck.make gen ~print) (fun (seed, ops) ->
      let dir = fresh_dir () in
      (* Create the first segment without faults, then reopen on the
         plane: open itself then writes nothing a fault could hit. *)
      Store.close (Store.open_store dir);
      let plane =
        Io_fault.of_seed ~short_write_rate:0.08 ~fsync_fail_rate:0.08 ~fsync_ignore_rate:0.04
          seed
      in
      (* 160 KiB segments: two full 64 KiB blocks and a tail each. *)
      let s = Store.open_store ~plane ~max_segment_bytes:(160 * 1024) dir in
      let cache = Seg_digest.create () in
      Fun.protect
        ~finally:(fun () -> Store.close s)
        (fun () ->
          List.for_all
            (fun op ->
              (match op with
              | Put (d, n) ->
                ignore
                  (Store.put s ~collection:"c" ~doc:(Printf.sprintf "d%d" d)
                     (String.make n (Char.chr (97 + (n mod 26)))))
              | Delete d -> ignore (Store.delete s ~collection:"c" ~doc:(Printf.sprintf "d%d" d))
              | Scrub_pass -> ignore (Store.scrub_pass s));
              cache_agrees cache s)
            ops))

(* Undo into an already-cached block, then re-append different bytes
   up to the same length: only the reset that file surgery performs
   keeps the cache exact. *)
let test_seg_digest_reset_after_undo () =
  let dir = fresh_dir () in
  let s = Store.open_store ~max_segment_bytes:(1024 * 1024) dir in
  let body c = String.make 20_000 c in
  let ends =
    List.init 10 (fun i ->
        ignore (put_ok s ~doc:(Printf.sprintf "d%d" i) (body 'x'));
        snd (Store.position s))
  in
  let cache = Seg_digest.create () in
  let len = Seg_digest.extent ~dir (0, List.assoc 0 (Store.live_segments s)) in
  check bool_t "several full blocks" true (len > 3 * Seg_digest.block_size);
  let before = Seg_digest.digest cache ~dir ~id:0 ~upto:len in
  (* A record boundary inside block 1, already hashed into the cache. *)
  let k, cut =
    List.find
      (fun (_, off) -> off > Seg_digest.block_size && off < 2 * Seg_digest.block_size)
      (List.mapi (fun i off -> (i, off)) ends)
  in
  Store.close s;
  Unix.truncate (Filename.concat dir (Segment.seg_name 0)) cut;
  List.iter
    (fun name -> try Unix.unlink (Filename.concat dir name) with Unix.Unix_error _ -> ())
    [ Manifest.file_name; Manifest.tmp_name ];
  let s = Store.open_store ~max_segment_bytes:(1024 * 1024) dir in
  for i = k + 1 to 9 do
    ignore (put_ok s ~doc:(Printf.sprintf "d%d" i) (body 'y'))
  done;
  let len' = Seg_digest.extent ~dir (0, List.assoc 0 (Store.live_segments s)) in
  Store.close s;
  check int_t "same length re-appended" len len';
  Seg_digest.reset cache;
  let after = Seg_digest.digest cache ~dir ~id:0 ~upto:len in
  check bool_t "different bytes, different digest" true (after <> before);
  check Alcotest.string "reset cache agrees with a fresh digest" (fresh_digest dir 0 ~upto:len)
    after

let test_seg_digest_empty_prefix () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir (Segment.seg_name 3) in
  close_out (open_out_bin path);
  let cache = Seg_digest.create () in
  check int_t "zero extent" 0 (Seg_digest.extent ~dir (3, 4096));
  check Alcotest.string "one digest for the empty prefix" (Seg_digest.of_string "")
    (Seg_digest.digest cache ~dir ~id:3 ~upto:0);
  check int_t "missing file has zero extent" 0 (Seg_digest.extent ~dir (4, 4096))

let suite =
  [
    ( "store",
      [
        Alcotest.test_case "fault schedule is seed-deterministic" `Quick
          test_plane_deterministic;
        Alcotest.test_case "zero rates inject nothing" `Quick test_plane_none_injects_nothing;
        Alcotest.test_case "rates roughly honored" `Quick test_plane_rates_roughly_honored;
        Alcotest.test_case "failed barrier repairs to the last barrier" `Quick
          test_faultable_file_repair;
        Alcotest.test_case "fsync_ignore lies without committing" `Quick
          test_faultable_file_fsync_ignore;
        Alcotest.test_case "crc32 standard vector" `Quick test_segment_crc_vector;
        Alcotest.test_case "segment record round-trips" `Quick test_segment_roundtrip;
        Alcotest.test_case "flipped byte never scans clean" `Quick test_segment_flip_detected;
        Alcotest.test_case "put/get/delete/rotate/reopen" `Quick test_store_basics_and_reopen;
        Alcotest.test_case "torn tail truncated, not quarantined" `Quick
          test_store_torn_tail_truncated;
        Alcotest.test_case "mid-log damage quarantined, store serves on" `Quick
          test_store_mid_log_damage_quarantined;
        Alcotest.test_case "manifest round-trip; damage rebuilds by scan" `Quick
          test_manifest_roundtrip_and_damage;
        Alcotest.test_case "recorder sink flushes incrementally" `Quick
          test_recorder_sink_incremental;
        Alcotest.test_case "store conservation checker flags violations" `Quick
          test_store_invariant_checker;
        Alcotest.test_case "crash oracle: exact acked-prefix recovery" `Slow
          test_oracle_exact_recovery;
        Alcotest.test_case "epoch-stamped records and replicate payloads round-trip" `Quick
          test_repl_epoch_codec;
        Alcotest.test_case "quorum unreachable: writes refuse, reads serve" `Slow
          test_repl_quorum_unavailable_reads_serve;
        Alcotest.test_case "deposed primary rejoins with its tail truncated" `Slow
          test_repl_deposed_primary_truncates_tail;
        Alcotest.test_case "catch-up across a missed segment rotation" `Slow
          test_repl_catchup_after_rotation;
        Alcotest.test_case "replication oracle: seeded storms, miniature" `Slow
          test_repl_oracle_mini;
        Alcotest.test_case "zero-length segment catches up by suffix" `Slow
          test_repl_zero_length_segment_suffix;
        Alcotest.test_case "multi-block segments converge byte for byte" `Slow
          test_repl_multiblock_convergence;
        Alcotest.test_case "digest cache reset after undo into a cached block" `Quick
          test_seg_digest_reset_after_undo;
        Alcotest.test_case "empty prefix has one digest" `Quick test_seg_digest_empty_prefix;
        QCheck_alcotest.to_alcotest prop_digest_cache_differential;
      ] );
  ]
