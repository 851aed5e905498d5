(* The repository benchmark. One workload per invocation:

     perfbench --workload gen_cold|gen_warm|store_rw --seed N --seconds S --trace 0|1

   The real [awbserve serve] binary runs as a separate process; one
   client process drives it from at most [nproc] (capped at 2) keep-alive
   connections, one thread each, in a closed loop: a docgen caller waits
   for its document before asking for the next. Every response is
   checked against an in-process reference. Counters scraped from
   /metrics before and after the timed window must reconcile with what
   the client sent.

   [--trace 0] prints the end-to-end metrics. [--trace 1] runs the same
   window, then replays the workload's requests in-process through each
   layer's public functions under spans (see replay.ml) and prints the
   per-layer metrics. The last line of stdout is the result JSON. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload gen_cold|gen_warm|store_rw --seed N --seconds S --trace 0|1";
  exit 2

(* Parsed on first use: a replica backend re-exec of this binary has
   other arguments and never reaches [main]. *)
let args =
  lazy
    (let tbl = Hashtbl.create 4 in
     let rec go = function
       | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
         Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
         go rest
       | [] -> ()
       | _ -> usage ()
     in
     go (List.tl (Array.to_list Sys.argv));
     tbl)

let arg name = match Hashtbl.find_opt (Lazy.force args) name with Some v -> v | None -> usage ()
let int_arg name = match int_of_string_opt (arg name) with Some n -> n | None -> usage ()

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type op = {
  cls : string;  (** request class: engine, or store operation *)
  meth : string;
  path : string;
  body : string;
  check : string -> bool;  (** the 2xx body is correct (may record state) *)
}

type sample = { scls : string; total_ns : int; ttfb_ns : int; body_ns : int }

type tally = {
  mutable samples : sample list;
  mutable sent : int;
  mutable good : int;
  mutable bad : int;
  mutable sent_by : (string * int) list;
}

let new_tally () = { samples = []; sent = 0; good = 0; bad = 0; sent_by = [] }

let note_sent t cls =
  t.sent <- t.sent + 1;
  t.sent_by <-
    (cls, 1 + Option.value ~default:0 (List.assoc_opt cls t.sent_by))
    :: List.remove_assoc cls t.sent_by

(* One exchange: a non-2xx answer, a wrong body and a broken connection
   are all failures. *)
let fire c tally op =
  note_sent tally op.cls;
  match Client.exchange c ~meth:op.meth ~path:op.path ~body:op.body with
  | r ->
    if r.Client.status >= 200 && r.Client.status < 300 && op.check r.Client.body then
      tally.good <- tally.good + 1
    else begin
      tally.bad <- tally.bad + 1;
      Printf.eprintf "perfbench: %s %s -> %d (wrong or failed)\n%!" op.meth op.path r.Client.status
    end;
    tally.samples <-
      {
        scls = op.cls;
        total_ns = r.Client.t_done - r.Client.t_send;
        ttfb_ns = r.Client.t_first - r.Client.t_send;
        body_ns = r.Client.t_done - r.Client.t_first;
      }
      :: tally.samples
  | exception ((Client.Conn_error _ | End_of_file | Unix.Unix_error _) as e) ->
    tally.bad <- tally.bad + 1;
    Printf.eprintf "perfbench: %s %s -> %s\n%!" op.meth op.path (Printexc.to_string e);
    Client.close c

(* Run [work j c tally] on one thread per connection and merge. *)
let on_connections ~port ~conns work =
  let tallies = Array.init conns (fun _ -> new_tally ()) in
  let threads =
    List.init conns (fun j ->
        Thread.create
          (fun () ->
            let c = Client.create port in
            Fun.protect ~finally:(fun () -> Client.close c) (fun () -> work j c tallies.(j)))
          ())
  in
  List.iter Thread.join threads;
  let m = new_tally () in
  Array.iter
    (fun t ->
      m.samples <- t.samples @ m.samples;
      m.good <- m.good + t.good;
      m.bad <- m.bad + t.bad;
      List.iter (fun (cls, n) -> for _ = 1 to n do note_sent m cls done) t.sent_by)
    tallies;
  m

let run_ops ~port ~conns ops =
  on_connections ~port ~conns (fun j c t -> List.iter (fire c t) (ops j))

let closed_loop ~port ~conns ~seconds next =
  let t0 = Clock.now_ns () in
  let t_end = t0 + Clock.ns_of_s (float_of_int seconds) in
  let tally =
    on_connections ~port ~conns (fun j c t ->
        let next = next j in
        while Clock.now_ns () < t_end do
          fire c t (next ())
        done)
  in
  (tally, Clock.s_of_ns (Clock.now_ns () - t0))

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sorted_ms f samples =
  let a = Array.of_list (List.map (fun s -> float_of_int (f s) /. 1e6) samples) in
  Array.sort compare a;
  a

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  pct a 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let get_ok port path =
  match Client.get port path with
  | status, body -> if status = 200 then Some body else None
  | exception _ -> None

let ready_when pred port =
  get_ok port "/readyz" <> None
  && match get_ok port "/metrics" with Some m -> pred (Prom.parse m) | None -> false

(* A live workload: how to start the server, what to send before timing
   (warm-up or preload, every response checked), the per-connection
   request stream, and the checks run after the window. *)
type live = {
  server_args : string -> string list;  (** spawn directory -> args *)
  ready : int -> bool;
  warm : int -> op list;
  next : int -> unit -> op;
  service_classes : string list;  (** classes that reach the Service layer *)
  readback : Client.t -> tally -> unit;  (** after the window *)
  acked : unit -> int * int;  (** acknowledged PUTs, bytes; cumulative *)
  live_bytes : unit -> int;
  notes : string list;  (** in-process oracle failures found at set-up *)
}

let cold_live (c : Inputs.cold) ~conns =
  let n = Array.length c.Inputs.bodies in
  let op k =
    {
      cls = "generate";
      meth = "POST";
      path = "/generate";
      body = c.Inputs.bodies.(k);
      check = String.equal c.Inputs.expected.(k);
    }
  in
  {
    server_args =
      (fun _ ->
        [
          "--shards"; string_of_int Inputs.cold_shards; "--cache"; string_of_int Inputs.cold_cache;
          "--keepalive";
        ]);
    ready =
      ready_when (fun m ->
          Prom.count m "lopsided_shard_healthy" = Inputs.cold_shards
          && Prom.sum m "lopsided_shard_healthy" = float_of_int Inputs.cold_shards);
    (* One pass over the working set: caches full, heaps grown. *)
    warm =
      (fun j ->
        List.filter_map
          (fun k -> if k mod conns = j then Some (op k) else None)
          (List.init n Fun.id));
    next =
      (fun j ->
        let i = ref (j - conns) in
        fun () ->
          i := !i + conns;
          op (!i mod n));
    service_classes = [ "generate" ];
    readback = (fun _ _ -> ());
    acked = (fun () -> (0, 0));
    live_bytes = (fun () -> 0);
    notes = [];
  }

let warm_live (w : Inputs.warm) ~model_file =
  let expected = function
    | `Host | `Functional -> w.Inputs.host_out
    | `Xq -> w.Inputs.xq_out
  in
  let op engine =
    let path, body = Inputs.warm_request engine in
    {
      cls = Docgen.engine_name engine;
      meth = "POST";
      path;
      body;
      check = String.equal (expected engine);
    }
  in
  let mix = Inputs.warm_mix in
  {
    server_args = (fun _ -> [ "--model"; model_file; "--keepalive"; "--max-inflight"; "2" ]);
    ready = ready_when (fun _ -> true);
    warm = (fun _ -> List.concat_map (fun e -> [ op e; op e ]) [ `Host; `Functional; `Xq ]);
    next =
      (fun j ->
        let i = ref (j - 1) in
        fun () ->
          incr i;
          op mix.(!i mod Array.length mix));
    service_classes = [ "host"; "functional"; "xq" ];
    readback = (fun _ _ -> ());
    acked = (fun () -> (0, 0));
    live_bytes = (fun () -> 0);
    notes =
      (if w.Inputs.host_out = w.Inputs.functional_out then []
       else [ "host and functional engines disagree on report.xml in-process" ]);
  }

let store_live (s : Inputs.store) ~seed ~conns =
  let pool = s.Inputs.pool in
  let last = Array.copy s.Inputs.initial in
  let acked = Atomic.make 0 and acked_bytes = Atomic.make 0 in
  let put id k =
    {
      cls = "write";
      meth = "PUT";
      path = Inputs.doc_path id;
      body = pool.(k);
      check =
        (fun _ ->
          (* Each connection owns its ids, so only it writes [last.(id)]. *)
          last.(id) <- k;
          Atomic.incr acked;
          ignore (Atomic.fetch_and_add acked_bytes (String.length pool.(k)));
          true);
    }
  in
  let get id =
    {
      cls = "read";
      meth = "GET";
      path = Inputs.doc_path id;
      body = "";
      check = (fun b -> b = pool.(last.(id)));
    }
  in
  {
    server_args =
      (fun dir ->
        [
          "--store"; Filename.concat dir "store"; "--replicas"; "3"; "--write-quorum"; "2";
          "--keepalive";
        ]);
    ready =
      ready_when (fun m ->
          Prom.count m "lopsided_store_replica_role" = 3
          && Prom.sum m "lopsided_store_replica_role" = 1.
          && Prom.sum m "lopsided_store_replica_breaker_state" = 0.);
    warm =
      (fun j ->
        List.filter_map
          (fun id -> if id mod conns = j then Some (put id s.Inputs.initial.(id)) else None)
          (List.init Inputs.store_ids Fun.id));
    next =
      (fun j ->
        let draw = Inputs.store_ops ~seed ~conn:j ~conns in
        fun () ->
          match draw last with
          | Inputs.Put (id, k) -> put id k
          | Inputs.Get id -> get id
          | Inputs.Query (id, shape) ->
            {
              cls = "query";
              meth = "POST";
              path = Inputs.query_path;
              body = Inputs.query_text shape id;
              check = (fun b -> b = s.Inputs.query_ref.(shape).(last.(id)));
            });
    service_classes = [ "query" ];
    (* Every id must read back its last acknowledged version. *)
    readback = (fun c t -> for id = 0 to Inputs.store_ids - 1 do fire c t (get id) done);
    acked = (fun () -> (Atomic.get acked, Atomic.get acked_bytes));
    live_bytes = (fun () -> Array.fold_left (fun acc k -> acc + String.length pool.(k)) 0 last);
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed body

let show (name, v, unit) = Printf.printf "  %-30s %14.4f %s\n" name v unit

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* What each workload claims to stress, checked on the traced run's
   per-layer figures. A claim that fails says the workload no longer
   measures what its description says; it is reported, not counted as
   an output failure. *)
let claims workload metrics =
  let m name =
    match List.find_opt (fun (n, _, _) -> n = name) metrics with Some (_, v, _) -> v | None -> 0.
  in
  let run = m "service.run_ms" in
  match workload with
  | "gen_cold" ->
    let ingest = m "xml_base.parse_ms" +. m "awb.import_ms" in
    [
      ("service.model_hit_ratio <= 0.05", m "service.model_hit_ratio" <= 0.05);
      ( Printf.sprintf "parse + import (%.0f%% of service.run) is its largest share"
          (100. *. ratio ingest run),
        ingest > m "docgen.host_ms" && ingest > m "xml_base.serialize_ms" );
    ]
  | "gen_warm" ->
    let docgen = m "docgen.host_ms" +. m "docgen.functional_ms" +. m "docgen.xq_ms" in
    [
      ("service.model_hit_ratio >= 0.95", m "service.model_hit_ratio" >= 0.95);
      ( Printf.sprintf "docgen.* (%.0f%% of service.run) dominates" (100. *. ratio docgen run),
        ratio docgen run >= 0.5 );
    ]
  | _ -> [ ("store.segments_rotated >= 2 in the window", m "store.segments_rotated" >= 2.) ]

(* Set-ups per untraced run; the median is [setup_s]. The last server
   started is the one measured. *)
let setups = 7

(* Replay sizes per pass: about a second of in-process work each. *)
let replay_requests = function "gen_cold" -> 24 | "gen_warm" -> 10 | _ -> 100

let main () =
  let workload = arg "workload" and seed = int_arg "seed" and seconds = int_arg "seconds" in
  let trace =
    match arg "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if not (List.mem workload [ "gen_cold"; "gen_warm"; "store_rw" ]) then usage ();
  if seconds < 1 then usage ();
  if not (Sys.file_exists Proc.awbserve) then begin
    prerr_endline ("perfbench: " ^ Proc.awbserve ^ " not built; run perfbench/run.sh");
    exit 2
  end;
  (* store_rw uses one connection: the replica coordinator serializes
     writes, reads and its 100 ms anti-entropy probe behind one lock, so
     a second connection added ~10% throughput but tripled the spread of
     throughput and p50 between runs. *)
  let conns =
    if workload = "store_rw" then 1 else max 1 (min 2 (Domain.recommended_domain_count ()))
  in
  let rundir =
    Printf.sprintf ".perfbench_run/%s-s%d-t%d-%d" workload seed (Bool.to_int trace)
      (Unix.getpid ())
  in
  mkdir_p (Filename.concat rundir "tmp");
  (* Shard and replica sockets live under TMPDIR: keep them in the run
     directory, on a short relative path. *)
  let env =
    Array.append
      [| "TMPDIR=" ^ Filename.concat rundir "tmp" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.length kv >= 7 && String.sub kv 0 7 = "TMPDIR="))
            (Array.to_list (Unix.environment ()))))
  in
  Filename.set_temp_dir_name (Filename.concat rundir "tmp");
  (* Inputs and references: before any server starts, outside set-up. *)
  let t_in = Clock.now () in
  let cold = lazy (Inputs.gen_cold seed) in
  let warm = lazy (Inputs.gen_warm seed) in
  let store = lazy (Inputs.gen_store seed) in
  let live =
    match workload with
    | "gen_cold" -> cold_live (Lazy.force cold) ~conns
    | "gen_warm" ->
      let w = Lazy.force warm in
      let model_file = Filename.concat rundir "model.xml" in
      Out_channel.with_open_bin model_file (fun oc -> output_string oc w.Inputs.model_xml);
      warm_live w ~model_file
    | _ -> store_live (Lazy.force store) ~seed ~conns
  in
  let inputs_s = Clock.now () -. t_in in
  (* Set-up: spawn until the server and all its backends are ready. *)
  let n_setups = if trace then 1 else setups in
  let times = ref [] in
  let srv = ref None in
  for k = 1 to n_setups do
    let dir = Filename.concat rundir (Printf.sprintf "spawn-%d" k) in
    mkdir_p dir;
    let s, dt =
      Proc.start ~env ~log:(Filename.concat dir "server.log") ~ready:live.ready
        (live.server_args dir)
    in
    times := dt :: !times;
    if k < n_setups then begin
      Proc.stop s;
      rm_rf (Filename.concat dir "store")
    end
    else srv := Some s
  done;
  let srv = Option.get !srv in
  let port = srv.Proc.port in
  let setup_s = median !times in
  (* Warm-up or preload, then the timed window between two scrapes. *)
  let warmed = run_ops ~port ~conns live.warm in
  let scrape () =
    match get_ok port "/metrics" with Some m -> Prom.parse m | None -> failwith "/metrics failed"
  in
  let before = scrape () in
  let acked0, acked_bytes0 = live.acked () in
  let tally, window_s = closed_loop ~port ~conns ~seconds live.next in
  let after = scrape () in
  let acked1, acked_bytes1 = live.acked () in
  let rss_front, rss_backend = Proc.tree_rss_mb srv in
  let readback = new_tally () in
  let rc = Client.create port in
  live.readback rc readback;
  Client.close rc;
  Proc.stop srv;
  (* Checks: outputs, counter conservation, undisturbed run. *)
  let problems = ref live.notes in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if warmed.bad > 0 then problem "%d warm-up/preload requests failed" warmed.bad;
  let d name = Prom.delta ~before ~after name in
  let sent_to_service =
    List.fold_left
      (fun acc cls -> acc + Option.value ~default:0 (List.assoc_opt cls tally.sent_by))
      0 live.service_classes
  in
  let svc_reqs = d "lopsided_service_requests_total" in
  if int_of_float svc_reqs <> sent_to_service then
    problem "conservation: client sent %d service requests, /metrics counted %.0f"
      sent_to_service svc_reqs;
  let acked_puts = acked1 - acked0 and acked_bytes = acked_bytes1 - acked_bytes0 in
  let primary =
    Option.value ~default:"0"
      (Prom.label_where after "lopsided_store_replica_role" ~label:"replica" ~value:1.)
  in
  let on_primary name = Prom.delta ~where:[ ("replica", primary) ] ~before ~after name in
  if workload = "store_rw" then begin
    let ingests = on_primary "lopsided_store_ingests_total" in
    if int_of_float ingests <> acked_puts then
      problem "conservation: %d PUTs acked, primary counted %.0f ingests" acked_puts ingests
  end;
  let disturbances =
    [
      ("server.shed", d "lopsided_server_shed_total");
      ("shard.failovers", d "lopsided_shard_failovers_total");
      ("shard.restarts", d "lopsided_shard_restarts_total");
      ("shard.hedges", d "lopsided_shard_hedges_total");
      ("repl.promotions", d "lopsided_store_repl_promotions_total");
      ("repl.quorum_failures", d "lopsided_store_repl_quorum_failures_total");
    ]
  in
  List.iter (fun (n, v) -> if v <> 0. then problem "disturbed run: %s = %.0f" n v) disturbances;
  let attempted = tally.sent + readback.sent in
  let failed = tally.bad + readback.bad in
  (* End-to-end figures, tracing off in the client. *)
  let lat = sorted_ms (fun s -> s.total_ns) tally.samples in
  let class_p50 cls =
    pct (sorted_ms (fun s -> s.total_ns) (List.filter (fun s -> s.scls = cls) tally.samples)) 0.5
  in
  let end_to_end =
    [
      ("setup_s", setup_s, "s");
      ("throughput_rps", float_of_int tally.good /. window_s, "1/s");
      ("p50_ms", pct lat 0.5, "ms");
      ("peak_rss_mb", rss_front +. rss_backend, "MB");
    ]
  in
  let classes =
    match workload with
    | "gen_warm" -> [ "host"; "functional"; "xq" ]
    | "store_rw" -> [ "write"; "read"; "query" ]
    | _ -> []
  in
  (* Printed, not gated: fail_frac is 0 at a correct commit, the tail
     percentiles spread past any allowed bound on a shared host, and the
     per-class medians exist on one workload each. *)
  let class_metrics =
    ("fail_frac", ratio (float_of_int failed) (float_of_int attempted), "ratio")
    :: ("p95_ms", pct lat 0.95, "ms")
    :: ("p99_ms", pct lat 0.99, "ms")
    :: List.map (fun c -> (c ^ "_p50_ms", class_p50 c, "ms")) classes
  in
  (* Per-layer figures from the /metrics deltas. *)
  let phase name = d ("lopsided_service_" ^ name ^ "_seconds_total") *. 1000. in
  let per_req v = ratio v svc_reqs in
  let hits = d "lopsided_service_model_cache_hits_total"
  and misses = d "lopsided_service_model_cache_misses_total" in
  let mean_lat_ms = mean (List.map (fun s -> float_of_int s.total_ns /. 1e6) tally.samples) in
  let phases_ms = phase "template" +. phase "model" +. phase "generate" +. phase "serialize" in
  let from_metrics =
    [
      ("service.model_hit_ratio", ratio hits (hits +. misses), "ratio");
      ("service.template_ms_per_req", per_req (phase "template"), "ms/req");
      ("service.model_ms_per_req", per_req (phase "model"), "ms/req");
      ("service.generate_ms_per_req", per_req (phase "generate"), "ms/req");
      ("service.serialize_ms_per_req", per_req (phase "serialize"), "ms/req");
      ("server.outside_service_ms", mean_lat_ms -. ratio phases_ms (float_of_int tally.sent), "ms");
      ( "server.keepalive_reuse_ratio",
        ratio (d "lopsided_server_keepalive_reused_total") (float_of_int tally.sent),
        "ratio" );
    ]
    @ List.map (fun (n, v) -> (n, v, "count")) disturbances
    @ [
        ( "store.fsyncs_per_write",
          ratio (d "lopsided_store_fsyncs_total") (float_of_int acked_puts),
          "ratio" );
        ( "store.write_amp",
          ratio (d "lopsided_store_appended_bytes_total") (float_of_int acked_bytes),
          "ratio" );
        ( "store.space_amp",
          ratio
            (Prom.sum ~where:[ ("replica", primary) ] after "lopsided_store_appended_bytes_total")
            (float_of_int (live.live_bytes ())),
          "ratio" );
        ("store.segments_rotated", on_primary "lopsided_store_segments", "count");
        ("process.rss_mb.front", rss_front, "MB");
        ("process.rss_mb.backend", rss_backend, "MB");
        ("client.ttfb_ms", pct (sorted_ms (fun s -> s.ttfb_ns) tally.samples) 0.5, "ms");
        ("client.body_ms", pct (sorted_ms (fun s -> s.body_ns) tally.samples) 0.5, "ms");
      ]
  in
  let layer_metrics =
    if not trace then []
    else begin
      (* The traced run: replay in-process, tracing off and on in turn. *)
      let n = replay_requests workload in
      let replay_dir = Filename.concat rundir "replay" in
      mkdir_p replay_dir;
      let store_env = ref None in
      let run_pass =
        match workload with
        | "gen_cold" -> Replay.cold (Lazy.force cold)
        | "gen_warm" -> Replay.warm (Lazy.force warm)
        | _ ->
          let s = Lazy.force store in
          let plan = Replay.store_plan ~seed s n in
          let e = Replay.store_open ~dir:replay_dir s plan in
          store_env := Some e;
          Replay.store s plan e
      in
      let timed on =
        Spans.reset ();
        Spans.on := on;
        let t0 = Clock.now () in
        let p = run_pass n in
        let dt = Clock.now () -. t0 in
        Spans.on := false;
        (p, dt)
      in
      let off1 = timed false in
      let on1 = timed true in
      let off2 = timed false in
      let on2, on2_s = timed true in
      let spans = !Spans.all in
      Option.iter Replay.store_close !store_env;
      Spans.write (Filename.concat rundir "spans.jsonl") spans;
      List.iter
        (fun (p, _) ->
          if p.Replay.mismatches > 0 then
            problem "replay: %d results differ from the references" p.Replay.mismatches)
        [ off1; on1; off2; (on2, on2_s) ];
      let overhead =
        ratio (Float.min (snd on1) on2_s) (Float.min (snd off1) (snd off2)) -. 1.
      in
      let selfs = Spans.self_ns spans in
      let sum f name =
        List.fold_left
          (fun acc (s, self) -> if s.Spans.name = name then acc +. f s self else acc)
          0. selfs
      in
      let self_ms name = sum (fun _ self -> float_of_int self /. 1e6) name in
      let dur_ms name = sum (fun s _ -> float_of_int (s.Spans.t1 - s.Spans.t0) /. 1e6) name in
      let alloc_mb name = sum (fun s _ -> s.Spans.words *. 8. /. 1e6) name in
      let reqs = float_of_int on2.Replay.requests in
      let per_req_ms name = self_ms name /. reqs in
      let layer_ids =
        List.filter_map
          (fun (s, _) -> if s.Spans.name = "service.layers" then Some s.Spans.id else None)
          selfs
      in
      let children_self_ms =
        List.fold_left
          (fun acc (s, self) ->
            if List.mem s.Spans.parent layer_ids then acc +. (float_of_int self /. 1e6) else acc)
          0. selfs
      in
      let timed_layer name = (name ^ "_ms", per_req_ms name, "ms/req") in
      List.map timed_layer [ "http.read"; "wire.frame"; "xml_base.parse" ]
      @ [
          ( "xml_base.parse_mb_s",
            ratio (float_of_int on2.Replay.parse_bytes /. 1e6) (dur_ms "xml_base.parse" /. 1000.),
            "MB/s" );
          ("xml_base.parse_alloc_mb", alloc_mb "xml_base.parse" /. reqs, "MB/req");
          timed_layer "awb.import";
          ("awb.import_alloc_mb", alloc_mb "awb.import" /. reqs, "MB/req");
        ]
      @ List.map timed_layer
          [
            "docgen.host"; "docgen.functional"; "docgen.xq"; "xml_base.serialize"; "service.run";
          ]
      @ [ ("trace.coverage", ratio children_self_ms (dur_ms "service.run"), "ratio") ]
      @ List.map timed_layer
          [
            "store.put"; "store.get"; "replica.put"; "replica.get"; "xquery.compile"; "xquery.run";
          ]
      @ [ ("trace.overhead_frac", overhead, "ratio") ]
    end
  in
  let correct = failed = 0 && !problems = [] in
  rm_rf (Filename.concat rundir "replay");
  for k = 1 to n_setups do
    rm_rf (Filename.concat (Filename.concat rundir (Printf.sprintf "spawn-%d" k)) "store")
  done;
  (* Report. *)
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d conns=%d (closed loop)\n" workload seed
    seconds (Bool.to_int trace) conns;
  Printf.printf "  inputs generated in %.2f s; %d set-ups; window %.2f s; %d requests (%s)\n"
    inputs_s n_setups window_s tally.sent
    (String.concat ", "
       (List.map (fun (c, n) -> Printf.sprintf "%s %d" c n) (List.sort compare tally.sent_by)));
  let acked_mb = float_of_int acked_bytes /. 1e6 in
  if workload = "store_rw" then
    Printf.printf "  %d PUTs acknowledged in the window (%.1f MB)\n" acked_puts acked_mb;
  Printf.printf "end-to-end (percentiles over %d samples):\n" (Array.length lat);
  List.iter show (end_to_end @ class_metrics);
  Printf.printf "per-layer (/metrics deltas over the window%s):\n"
    (if trace then ", then the traced replay" else "");
  List.iter show (from_metrics @ layer_metrics);
  if trace then
    List.iter
      (fun (claim, holds) ->
        Printf.printf "workload claim: %s: %s\n" claim (if holds then "holds" else "DOES NOT HOLD"))
      (claims workload (from_metrics @ layer_metrics));
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev !problems);
  print_result ~correct ~attempted ~failed
    (if trace then from_metrics @ layer_metrics else end_to_end);
  if not correct then exit 1

let () =
  (* The traced store replay runs replica backends by re-exec'ing this
     binary. *)
  Server.Store.Replica.maybe_run_backend ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Proc.stop_all;
  match main () with
  | () -> ()
  | exception e ->
    Proc.stop_all ();
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    exit 2
