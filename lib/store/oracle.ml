(* The crash oracle: prove recovery, don't assert it.

   A trial re-execs the current binary as a child ingester (the
   [AWBSTORE_ORACLE] environment variable carries the spec, the same
   re-exec discipline as the shard backends), which opens a store with
   a seeded I/O fault plane and ingests a deterministic document
   sequence, printing one flushed ack line per durable operation:

     A <doc> <hash>   put acknowledged (fsync barrier passed)
     D <doc>          delete acknowledged
     E <doc>          operation failed and was repaired; not durable

   At a seeded kill point the child [_exit]s mid-operation. The parent
   replays the ack stream into the expected live set, reopens the store
   fault-free, and checks recovery against it *exactly*: every
   acknowledged write present with its acknowledged content hash (no
   lost acks), nothing present that was never acknowledged (no
   resurrection), zero read-time checksum failures (no escapes), and a
   post-recovery scrub with no unquarantined damage.

   Under fsync-ignore schedules (a lying disk) exact equality is
   unachievable by construction — the caller gates those trials on the
   weaker invariants: recovered is a subset of acknowledged, nothing
   resurrected, nothing corrupt served. *)

let env_var = "AWBSTORE_ORACLE"

type rates = {
  r_crash : float;
  r_short : float;
  r_ffail : float;
  r_fignore : float;
}

let no_rates = { r_crash = 0.; r_short = 0.; r_ffail = 0.; r_fignore = 0. }

let spec_to_string ~dir ~seed ~n ~segbytes rates =
  Backend.Spec.(
    encode
      [
        ("dir", dir);
        ("seed", string_of_int seed);
        ("n", string_of_int n);
        ("segbytes", string_of_int segbytes);
        ("crash", float rates.r_crash);
        ("short", float rates.r_short);
        ("ffail", float rates.r_ffail);
        ("fignore", float rates.r_fignore);
      ])

let spec_of_string s =
  Backend.Spec.(
    decode s (fun f ->
        ( str f "dir",
          int f "seed",
          int f "n",
          int f "segbytes",
          {
            r_crash = float_of f "crash";
            r_short = float_of f "short";
            r_ffail = float_of f "ffail";
            r_fignore = float_of f "fignore";
          } )))

let collection = "oracle"
let doc_name i = Printf.sprintf "d%d" i

(* Deterministic per-doc content; size varies so records straddle
   rotation boundaries at the child's small segment cap. *)
let doc_body ~seed i =
  Printf.sprintf "<doc id=\"d%d\" seed=\"%d\"><payload>%s</payload></doc>" i seed
    (String.make (16 + ((i * 37) + seed) mod 240) 'x')

(* ------------------------------------------------------------------ *)
(* Child                                                               *)
(* ------------------------------------------------------------------ *)

let run_child (dir, seed, n, segbytes, rates) =
  let plane =
    Io_fault.of_seed ~short_write_rate:rates.r_short ~fsync_fail_rate:rates.r_ffail
      ~fsync_ignore_rate:rates.r_fignore ~crash_rate:rates.r_crash seed
  in
  (* Opening the store sits on the fault plane too (the first segment's
     header append + fsync): a fault there is a death before any ack —
     exit quietly with a distinct code, the parent's comparison against
     the (empty) acknowledged prefix still runs. *)
  let store =
    try Log.open_store ~plane ~max_segment_bytes:segbytes dir
    with Io_fault.Fault _ -> exit 3
  in
  for i = 0 to n - 1 do
    (* Mix tombstones into the stream: every seventh step deletes an
       earlier doc, so recovery is checked against deletes too. *)
    (if i mod 7 = 3 && i >= 2 then
       let target = doc_name (i - 2) in
       match Log.delete store ~collection ~doc:target with
       | Ok true -> Printf.printf "D %s\n%!" target
       | Ok false -> ()
       | Error _ -> Printf.printf "E %s\n%!" target);
    let doc = doc_name i in
    match Log.put store ~collection ~doc (doc_body ~seed i) with
    | Ok hash -> Printf.printf "A %s %s\n%!" doc hash
    | Error _ -> Printf.printf "E %s\n%!" doc
  done;
  (* The final checkpoint (and its manifest swap) sits on the fault
     plane too — a kill here must still recover. *)
  (match Log.checkpoint store with Ok () | Error _ -> ());
  Log.close store;
  print_string "DONE\n";
  exit 0

let maybe_run_child () =
  match Sys.getenv_opt env_var with
  | None -> ()
  | Some s -> (
    match spec_of_string s with
    | Ok spec -> run_child spec
    | Error e ->
      prerr_endline ("oracle child: " ^ Backend.Spec.error_message e);
      exit 2)

(* ------------------------------------------------------------------ *)
(* Parent                                                              *)
(* ------------------------------------------------------------------ *)

type trial = {
  tr_exit : int;  (* child exit code; 137 = injected kill point *)
  tr_killed : bool;
  tr_completed : bool;  (* child printed DONE *)
  tr_acked : int;  (* expected live docs after replaying the ack stream *)
  tr_recovered : int;
  tr_lost : int;  (* acked but missing or wrong content after recovery *)
  tr_resurrected : int;  (* recovered but never acknowledged *)
  tr_escapes : int;  (* read-time checksum failures *)
  tr_truncated_tails : int;
  tr_quarantined : int;
  tr_unquarantined_damage : int;
}

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let read_all fd =
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents b

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let run_trial ~exe ~dir ~seed ~n ?(segbytes = 4096) rates =
  rm_rf dir;
  let spec = spec_to_string ~dir ~seed ~n ~segbytes rates in
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pr, pw = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process_env exe [| exe |] (Backend.env_with env_var spec) dev_null pw Unix.stderr
  in
  Unix.close pw;
  Unix.close dev_null;
  let out = read_all pr in
  Unix.close pr;
  let status = waitpid_retry pid in
  let exit_code =
    match status with Unix.WEXITED c -> c | Unix.WSIGNALED s -> 128 + s | Unix.WSTOPPED s -> 128 + s
  in
  (* Replay the ack stream into the expected live set. *)
  let expected = Hashtbl.create 64 in
  let completed = ref false in
  String.split_on_char '\n' out
  |> List.iter (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ "A"; doc; hash ] -> Hashtbl.replace expected doc hash
         | [ "D"; doc ] -> Hashtbl.remove expected doc
         | [ "E"; _ ] -> ()
         | [ "DONE" ] -> completed := true
         | _ -> ());
  (* Recover fault-free and compare, then scrub what recovery left. *)
  let store = Log.open_store dir in
  let recovered = Log.list_docs store ~collection in
  let lost = ref 0 and resurrected = ref 0 in
  Hashtbl.iter
    (fun doc hash ->
      match Log.get store ~collection ~doc with
      | Ok (snapshot, h) when h = hash && Digest.to_hex (Digest.string snapshot) = hash -> ()
      | Ok _ | Error _ -> incr lost)
    expected;
  List.iter (fun (doc, _) -> if not (Hashtbl.mem expected doc) then incr resurrected) recovered;
  let c = Log.counts store in
  let quarantined = List.length (Log.quarantined store) in
  Log.close store;
  let scrub = Scrub.run dir in
  let trial =
    {
      tr_exit = exit_code;
      tr_killed = exit_code = 137;
      tr_completed = !completed;
      tr_acked = Hashtbl.length expected;
      tr_recovered = List.length recovered;
      tr_lost = !lost;
      tr_resurrected = !resurrected;
      tr_escapes = c.Log.n_read_crc_failures;
      tr_truncated_tails = c.Log.n_truncated_tails;
      tr_quarantined = quarantined;
      tr_unquarantined_damage = List.length (Scrub.unquarantined_damage scrub);
    }
  in
  rm_rf dir;
  trial

type summary = {
  s_trials : int;
  s_killed : int;
  s_completed : int;
  s_acked : int;
  s_recovered : int;
  s_lost : int;
  s_resurrected : int;
  s_escapes : int;
  s_truncated_tails : int;
  s_quarantined : int;
  s_unquarantined_damage : int;
}

let run_trials ~exe ~tmp ~trials ~seed0 ~n rates =
  let z =
    {
      s_trials = 0;
      s_killed = 0;
      s_completed = 0;
      s_acked = 0;
      s_recovered = 0;
      s_lost = 0;
      s_resurrected = 0;
      s_escapes = 0;
      s_truncated_tails = 0;
      s_quarantined = 0;
      s_unquarantined_damage = 0;
    }
  in
  let acc = ref z in
  for i = 0 to trials - 1 do
    let dir = Filename.concat tmp (Printf.sprintf "trial-%d" (seed0 + i)) in
    let tr = run_trial ~exe ~dir ~seed:(seed0 + i) ~n rates in
    let s = !acc in
    acc :=
      {
        s_trials = s.s_trials + 1;
        s_killed = s.s_killed + (if tr.tr_killed then 1 else 0);
        s_completed = s.s_completed + (if tr.tr_completed then 1 else 0);
        s_acked = s.s_acked + tr.tr_acked;
        s_recovered = s.s_recovered + tr.tr_recovered;
        s_lost = s.s_lost + tr.tr_lost;
        s_resurrected = s.s_resurrected + tr.tr_resurrected;
        s_escapes = s.s_escapes + tr.tr_escapes;
        s_truncated_tails = s.s_truncated_tails + tr.tr_truncated_tails;
        s_quarantined = s.s_quarantined + tr.tr_quarantined;
        s_unquarantined_damage = s.s_unquarantined_damage + tr.tr_unquarantined_damage;
      }
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* The partition-aware replication oracle                              *)
(* ------------------------------------------------------------------ *)

(* A replication trial drives a live 3-replica cluster (the backends
   re-exec'd children with per-node disk fault planes, the coordinator
   in-process with the seeded chaos plane on its frames) through a
   deterministic ingest while a seeded disruption schedule SIGKILLs
   nodes, partitions them away, and heals/respawns them a few steps
   later. The ledger classifies every write by what the coordinator
   promised:

     acked       quorum met        -> must survive, byte-exact, on
                                      every replica after repair
     refused     rolled back and   -> must be absent everywhere (an
                 confirmed            unacked write never resurrects)
     ambiguous   rollback not      -> gated on convergence only: all
                 confirmed            replicas must agree on it

   After the storm every partition heals, every corpse respawns, and
   anti-entropy must converge the cluster; the audit then reopens each
   node's directory fault-free and checks the ledger against all of
   them, plus byte-identity of the segment files across nodes. Lying
   fsync (fsync-ignore) is deliberately excluded from replication
   trials: a disk that acks durability it never provided voids the
   quorum contract itself, and PR 8's single-store oracle already owns
   those weaker invariants. *)

type repl_trial = {
  rt_ops : int;
  rt_acked : int;  (* live docs per the acked ledger *)
  rt_refused : int;  (* quorum-refused writes, rollback confirmed *)
  rt_ambiguous : int;  (* rollback unconfirmed (node tainted) *)
  rt_kills : int;
  rt_partitions : int;
  rt_primary_disrupted : bool;  (* a kill/partition hit the then-primary *)
  rt_promotions : int;
  rt_truncated_tails : int;
  rt_repairs : int;
  rt_converged : bool;  (* repair converged and segment files byte-match *)
  rt_lost : int;  (* acked but missing/wrong on some replica *)
  rt_resurrected : int;  (* present on some replica but never acked *)
}

let repl_doc_body ~seed i =
  Printf.sprintf "<doc id=\"r%d\" seed=\"%d\"><payload>%s</payload></doc>" i seed
    (String.make (16 + ((i * 53) + seed) mod 200) 'y')

let seg_digests dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Segment.seg_id n <> None)
  |> List.sort compare
  |> List.map (fun n ->
         let ic = open_in_bin (Filename.concat dir n) in
         let data =
           Fun.protect
             ~finally:(fun () -> close_in_noerr ic)
             (fun () -> really_input_string ic (in_channel_length ic))
         in
         (n, Digest.to_hex (Digest.string data)))

let run_repl_trial ~dir ~seed ~n ?(replicas = 3) ?(write_quorum = 2) ?(segbytes = 4096)
    ?(chaos = true) rates =
  rm_rf dir;
  let cl =
    Replica.create
      ~config:
        {
          Replica.default_config with
          Replica.replicas;
          write_quorum;
          max_segment_bytes = segbytes;
          probe_interval_s = 0.;  (* the schedule owns respawn and repair *)
          call_timeout_s = 0.25;
          chaos = (if chaos then Some (Chaos.of_seed seed) else None);
          io_faults = Some (seed, rates.r_short, rates.r_ffail, 0., rates.r_crash);
        }
      ~dir ()
  in
  let u tag i = Chaos.uniform ~seed ~tag ~shard:0 ~seq:i in
  let acked = Hashtbl.create 64 in
  let ambiguous = Hashtbl.create 8 in
  let refused = ref 0 in
  let kills = ref 0 and partitions = ref 0 in
  let primary_disrupted = ref false in
  let dead = Array.make replicas None in
  let cut = Array.make replicas None in
  let record ~is_delete doc outcome =
    match (outcome : Replica.write_outcome) with
    | Replica.Acked _ when is_delete -> Hashtbl.remove acked doc
    | Replica.Acked { hash; _ } -> Hashtbl.replace acked doc hash
    | Replica.Refused { clean = true; _ } -> incr refused
    | Replica.Refused { clean = false; _ } -> Hashtbl.replace ambiguous doc ()
  in
  for i = 0 to n - 1 do
    (* A backend felled by its own injected disk crash is a kill the
       schedule didn't order: book it so it respawns like one. *)
    for j = 0 to replicas - 1 do
      if dead.(j) = None && not (Replica.alive cl j) then dead.(j) <- Some i
    done;
    (* Scheduled recoveries first: corpses respawn ~4 steps after the
       kill, partitions heal ~5 steps after the cut. *)
    for j = 0 to replicas - 1 do
      (match dead.(j) with
      | Some k when i - k >= 4 -> if Replica.respawn_node cl j then dead.(j) <- None
      | _ -> ());
      match cut.(j) with
      | Some k when i - k >= 5 ->
        Replica.set_partition cl j false;
        cut.(j) <- None
      | _ -> ()
    done;
    (* One seeded disruption draw per step; the victim draw leans on
       the current primary, so failover — not mere follower churn — is
       what most trials exercise. *)
    let d = u "disrupt" i in
    (if d < 0.14 then begin
       let v = u "victim" i in
       let p = Replica.primary cl in
       let tgt =
         if v < 0.45 then p
         else (p + 1 + (int_of_float (v *. 997.) mod max 1 (replicas - 1))) mod replicas
       in
       if dead.(tgt) = None && cut.(tgt) = None then
         if d < 0.07 then begin
           Replica.kill_node cl tgt;
           dead.(tgt) <- Some i;
           incr kills;
           if tgt = p then primary_disrupted := true
         end
         else begin
           Replica.set_partition cl tgt true;
           cut.(tgt) <- Some i;
           incr partitions;
           if tgt = p then primary_disrupted := true
         end
     end);
    (* Background anti-entropy on a cadence, as the probe thread would. *)
    if i mod 5 = 4 then ignore (Replica.repair cl);
    (if i mod 7 = 3 && i >= 2 then
       let target = doc_name (i - 2) in
       record ~is_delete:true target
         (Replica.write_outcome cl ~kind:`Delete ~collection ~doc:target ~body:""));
    let doc = doc_name i in
    record ~is_delete:false doc
      (Replica.write_outcome cl ~kind:`Put ~collection ~doc ~body:(repl_doc_body ~seed i))
  done;
  (* The storm is over: heal everything, bring every corpse back, and
     demand convergence. Repair itself runs against the still-live disk
     fault planes, so a round can crash a backend — respawn and retry
     until the cluster settles. *)
  Array.iteri (fun j _ -> Replica.set_partition cl j false) cut;
  let rec settle tries =
    for j = 0 to replicas - 1 do
      if not (Replica.alive cl j) then ignore (Replica.respawn_node cl j)
    done;
    if Replica.repair_until_converged cl ~max_rounds:2 then true
    else if tries <= 1 then false
    else settle (tries - 1)
  in
  let converged = settle 8 in
  let promotions = Replica.promotions cl in
  let truncated_tails = Replica.truncated_tails cl in
  let repairs = Replica.repairs cl in
  let dirs = List.init replicas (Replica.node_dir cl) in
  Replica.shutdown cl;
  (* Fault-free audit of every node directory against the ledger. *)
  let lost = ref 0 and resurrected = ref 0 in
  List.iter
    (fun d ->
      let store = Log.open_store d in
      Hashtbl.iter
        (fun doc hash ->
          if not (Hashtbl.mem ambiguous doc) then
            match Log.get store ~collection ~doc with
            | Ok (snapshot, h)
              when h = hash && Digest.to_hex (Digest.string snapshot) = hash ->
              ()
            | Ok _ | Error _ -> incr lost)
        acked;
      List.iter
        (fun (doc, _) ->
          if (not (Hashtbl.mem acked doc)) && not (Hashtbl.mem ambiguous doc) then
            incr resurrected)
        (Log.list_docs store ~collection);
      Log.close store)
    dirs;
  let images = List.map seg_digests dirs in
  let identical =
    match images with [] -> true | first :: rest -> List.for_all (( = ) first) rest
  in
  let trial =
    {
      rt_ops = n;
      rt_acked = Hashtbl.length acked;
      rt_refused = !refused;
      rt_ambiguous = Hashtbl.length ambiguous;
      rt_kills = !kills;
      rt_partitions = !partitions;
      rt_primary_disrupted = !primary_disrupted;
      rt_promotions = promotions;
      rt_truncated_tails = truncated_tails;
      rt_repairs = repairs;
      rt_converged = converged && identical;
      rt_lost = !lost;
      rt_resurrected = !resurrected;
    }
  in
  rm_rf dir;
  trial

type repl_summary = {
  rs_trials : int;
  rs_ops : int;
  rs_acked : int;
  rs_refused : int;
  rs_ambiguous : int;
  rs_kills : int;
  rs_partitions : int;
  rs_primary_disrupted : int;  (* trials whose primary was killed/partitioned *)
  rs_promotions : int;
  rs_truncated_tails : int;
  rs_repairs : int;
  rs_diverged : int;  (* trials that failed to converge byte-identically *)
  rs_lost : int;
  rs_resurrected : int;
}

let run_repl_trials ~tmp ~trials ~seed0 ~n ?(chaos = true) rates =
  let z =
    {
      rs_trials = 0;
      rs_ops = 0;
      rs_acked = 0;
      rs_refused = 0;
      rs_ambiguous = 0;
      rs_kills = 0;
      rs_partitions = 0;
      rs_primary_disrupted = 0;
      rs_promotions = 0;
      rs_truncated_tails = 0;
      rs_repairs = 0;
      rs_diverged = 0;
      rs_lost = 0;
      rs_resurrected = 0;
    }
  in
  let acc = ref z in
  for i = 0 to trials - 1 do
    let dir = Filename.concat tmp (Printf.sprintf "repl-%d" (seed0 + i)) in
    let tr = run_repl_trial ~dir ~seed:(seed0 + i) ~n ~chaos rates in
    let s = !acc in
    acc :=
      {
        rs_trials = s.rs_trials + 1;
        rs_ops = s.rs_ops + tr.rt_ops;
        rs_acked = s.rs_acked + tr.rt_acked;
        rs_refused = s.rs_refused + tr.rt_refused;
        rs_ambiguous = s.rs_ambiguous + tr.rt_ambiguous;
        rs_kills = s.rs_kills + tr.rt_kills;
        rs_partitions = s.rs_partitions + tr.rt_partitions;
        rs_primary_disrupted =
          s.rs_primary_disrupted + (if tr.rt_primary_disrupted then 1 else 0);
        rs_promotions = s.rs_promotions + tr.rt_promotions;
        rs_truncated_tails = s.rs_truncated_tails + tr.rt_truncated_tails;
        rs_repairs = s.rs_repairs + tr.rt_repairs;
        rs_diverged = s.rs_diverged + (if tr.rt_converged then 0 else 1);
        rs_lost = s.rs_lost + tr.rt_lost;
        rs_resurrected = s.rs_resurrected + tr.rt_resurrected;
      }
  done;
  !acc
