(* Horizontal sharding: one front process, N backend worker processes.

   The front consistent-hash routes each generate body (template +
   model content — exactly what the Service layer's content-hash caches
   key on) to a backend over a Unix-domain socket, so every shard's
   template/model/plan/result caches stay warm on its slice of the key
   space. Process boundaries, not threads: a backend that dies takes
   only its own caches with it, the supervisor respawns it, and the
   router fails the in-flight keys over to ring successors meanwhile.

   Spawn (a [--shard-backend] re-exec of the host binary), the
   connection pool, the chaos-wrapped framed call, the serve loop, and
   reap and drain are {!Backend}'s; this module keeps the generate
   codec, the ring, hedging, health and work probes, and rolling
   restart. Any binary that calls {!maybe_run_backend} first thing in
   main can host a backend, so the server, the tests, and the bench all
   spawn clusters without knowing each other's paths.

   Wire protocol: Frame's length-prefixed, CRC32-trailed binary frames
   (see frame.ml for the framing itself), one per message:

     payload  = op byte, op-specific fields
     'P' ping     -> 'P'
     'M' metrics  -> 'M' + prometheus text (shard-labeled)
     'D' drain    -> 'D' ack; backend finishes in-flight frames and exits 0
     'G' generate = u8 level, u32 deadline-ms (0 = none),
                    lp id, lp engine, lp body
               -> 'G' + u16 status, u16 nheaders, (lp key, lp value)*, lp body
     'N' nack     <- the peer's frame arrived with a bad CRC; carries a
                     reason. Answered in place of desyncing the stream.

   where lp s = u32 length + bytes. Strings cross the boundary verbatim;
   there is nothing to escape and nothing to re-parse.

   Resilience, front side: per-shard circuit breakers (Breaker) gate
   routing before the ring walk, a deterministic chaos plane (Chaos)
   can be interposed on data-plane frames, and optionally a hedge fires
   the in-flight generate at the ring successor once the primary
   overstays the p95-latency estimate. *)

let spec_env = "AWBSERVE_SHARD_SPEC"
let backend_flag = "--shard-backend"

let perr = Frame.perr
let add_u8 = Frame.add_u8
let add_u16 = Frame.add_u16
let add_u32 = Frame.add_u32
let add_lp = Frame.add_lp
let get_u8 = Frame.get_u8
let get_u16 = Frame.get_u16
let get_u32 = Frame.get_u32
let get_lp = Frame.get_lp

(* ------------------------------------------------------------------ *)
(* Generate request / response payloads                                *)
(* ------------------------------------------------------------------ *)

let level_code = function Docgen.Spec.Full -> 0 | Docgen.Spec.Skeleton -> 1
let level_of_code = function 1 -> Docgen.Spec.Skeleton | _ -> Docgen.Spec.Full

let encode_generate ~id ~engine ~level ~deadline_ms ~body =
  let b = Buffer.create (String.length body + 64) in
  Buffer.add_char b 'G';
  add_u8 b (level_code level);
  add_u32 b deadline_ms;
  add_lp b id;
  add_lp b engine;
  add_lp b body;
  Buffer.contents b

let encode_reply ~status ~headers ~body =
  let b = Buffer.create (String.length body + 128) in
  Buffer.add_char b 'G';
  add_u16 b status;
  add_u16 b (List.length headers);
  List.iter
    (fun (k, v) ->
      add_lp b k;
      add_lp b v)
    headers;
  add_lp b body;
  Buffer.contents b

let decode_reply payload =
  let pos = ref 0 in
  (match get_u8 payload pos with
  | c when c = Char.code 'G' -> ()
  | c -> perr "unexpected reply op %c" (Char.chr c));
  let status = get_u16 payload pos in
  let nheaders = get_u16 payload pos in
  let headers =
    List.init nheaders (fun _ ->
        let k = get_lp payload pos in
        let v = get_lp payload pos in
        (k, v))
  in
  let body = get_lp payload pos in
  (status, headers, body)

(* ------------------------------------------------------------------ *)
(* Backend spec (crosses the exec boundary via the environment)        *)
(* ------------------------------------------------------------------ *)

type spec = {
  sp_socket : string;
  sp_id : int;
  sp_cache_capacity : int;
  sp_result_cache_cap : int;
  sp_model : string;  (* "banking" | "glass" | "file:<path>" *)
}

let spec_of_string s =
  Backend.Spec.(
    decode s (fun f ->
        {
          sp_socket = str f "sock";
          sp_id = int f "id";
          sp_cache_capacity = int f "cache";
          sp_result_cache_cap = int f "result_cache";
          sp_model = str f "model";
        }))

let model_of_spec = function
  | "banking" -> Service.Model_value (Awb.Samples.banking_model ())
  | "glass" -> Service.Model_value (Awb.Samples.glass_model ())
  | s when String.length s > 5 && String.sub s 0 5 = "file:" ->
    let path = String.sub s 5 (String.length s - 5) in
    let ic = open_in_bin path in
    let xml =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Service.Model_xml { metamodel = Awb.Samples.it_architecture; xml }
  | s -> failwith ("unknown shard model spec " ^ s)

(* ------------------------------------------------------------------ *)
(* Backend process                                                     *)
(* ------------------------------------------------------------------ *)

(* Serve one generate frame against the shard-local service. The model
   comes from the composite body when present (the cache-locality path)
   and falls back to the spec's configured model. *)
let backend_generate svc ~fallback_model payload pos =
  let level = level_of_code (get_u8 payload pos) in
  let deadline_ms = get_u32 payload pos in
  let id = get_lp payload pos in
  let engine_name = get_lp payload pos in
  let body = get_lp payload pos in
  match Docgen.engine_of_string engine_name with
  | Error m ->
    encode_reply ~status:400
      ~headers:[ ("Content-Type", "application/json") ]
      ~body:(Http.error_body ~code:"bad-request" ~message:m ~request_id:id)
  | Ok engine -> (
    let template_xml, model_xml = Composite.split body in
    let model =
      match model_xml with
      | Some xml -> Service.Model_xml { metamodel = Awb.Samples.it_architecture; xml }
      | None -> fallback_model
    in
    let deadline = if deadline_ms = 0 then None else Some (float_of_int deadline_ms /. 1000.) in
    let sreq =
      Service.request ~engine ?deadline ~level ~id
        ~template:(Service.Template_xml template_xml) ~model ()
    in
    match (Service.run svc sreq).Service.result with
    | Ok out ->
      let headers =
        ("Content-Type", "application/xml")
        :: ("X-Engine", Docgen.engine_name out.Service.engine_used)
        :: (if level = Docgen.Spec.Skeleton then [ ("X-Degraded", "skeleton") ] else [])
        @
        match out.Service.problems with
        | [] -> []
        | ps -> [ ("X-Problems", string_of_int (List.length ps)) ]
      in
      encode_reply ~status:200 ~headers ~body:out.Service.document
    | Error e ->
      let status, code, message, headers = Service_http.of_error e in
      encode_reply ~status
        ~headers:(("Content-Type", "application/json") :: headers)
        ~body:(Http.error_body ~code ~message ~request_id:id)
    | exception e ->
      encode_reply ~status:500
        ~headers:[ ("Content-Type", "application/json") ]
        ~body:
          (Http.error_body ~code:"internal" ~message:(Printexc.to_string e)
             ~request_id:id))

let backend_main sp =
  let drain = Backend.drain_on_sigterm () in
  let svc =
    Service.create
      ~config:
        {
          Service.default_config with
          Service.cache_capacity = sp.sp_cache_capacity;
          result_cache_cap = sp.sp_result_cache_cap;
        }
      ()
  in
  let fallback_model = model_of_spec sp.sp_model in
  Backend.serve ~drain ~path:sp.sp_socket (fun payload ->
      let pos = ref 0 in
      match Char.chr (get_u8 payload pos) with
      | 'P' -> "P"
      | 'M' ->
        "M"
        ^ Service.counters_to_prometheus
            ~labels:[ ("shard", string_of_int sp.sp_id) ]
            (Service.counters svc)
      | 'G' -> backend_generate svc ~fallback_model payload pos
      | c -> perr "unknown op %c" c);
  exit 0

let maybe_run_backend () =
  Backend.maybe_run ~flag:backend_flag ~env_var:spec_env spec_of_string backend_main

(* ------------------------------------------------------------------ *)
(* The front-process cluster                                           *)
(* ------------------------------------------------------------------ *)

type cluster_config = {
  shards : int;
  replicas : int;  (* virtual nodes per shard on the ring *)
  cache_capacity : int;  (* per-shard artifact cache entries *)
  result_cache_cap : int;
  model_spec : string;
  socket_dir : string option;  (* default: a fresh directory under TMPDIR *)
  probe_interval_s : float;
  call_timeout_s : float;  (* response wait with no request deadline *)
  drain_timeout_s : float;  (* rolling restart: wait for in-flight, then for exit *)
  chaos : Chaos.config option;  (* fault plane on data-plane frames *)
  breaker : Breaker.config;  (* per-shard circuit breaker thresholds *)
  hedge : bool;  (* re-issue slow generates to the ring successor *)
  hedge_min_delay_s : float;  (* floor under the p95-EWMA hedge delay *)
}

let default_cluster_config =
  {
    shards = 4;
    replicas = 64;
    cache_capacity = 128;
    result_cache_cap = 0;
    model_spec = "banking";
    socket_dir = None;
    probe_interval_s = 0.1;
    call_timeout_s = 300.;
    drain_timeout_s = 30.;
    chaos = None;
    breaker = Breaker.default_config;
    hedge = false;
    hedge_min_delay_s = 0.05;
  }

type shard = {
  b : Backend.t;  (* [b.healthy]: passes ping and work probes *)
  sdraining : bool Atomic.t;
  sinflight : int Atomic.t;
  sbreaker : Breaker.t;
}

type t = {
  cfg : cluster_config;
  dir : string;
  router : Router.t;
  members : shard array;
  failovers : int Atomic.t;
  restarts : int Atomic.t;
  reloads : int Atomic.t;
  hedges : int Atomic.t;
  hedge_wins : int Atomic.t;
  unavailable : int Atomic.t;  (* 503s answered because no shard could take the request *)
  p95_s : float Atomic.t;  (* EWMA p95 of successful call latency, drives the hedge delay *)
  stop : bool Atomic.t;
  mutable probe_thread : Thread.t option;
}

(* Pings, metrics, drains, and health probes are exempt from the chaos
   plane so the supervisor's view stays truthful; only data-plane
   generates ride through it. *)
let ping s ~timeout_s =
  match Backend.call s.b "P" ~timeout_s with "P" -> true | _ -> false | exception _ -> false

let spawn_backend t s =
  Backend.spawn s.b ~flag:backend_flag ~env_var:spec_env
    [
      ("sock", s.b.path);
      ("id", string_of_int s.b.id);
      ("cache", string_of_int t.cfg.cache_capacity);
      ("result_cache", string_of_int t.cfg.result_cache_cap);
      ("model", t.cfg.model_spec);
    ]

(* The half-open work probe. Ping proves the backend's event loop is
   alive; only a real (tiny) generate against its fallback model proves
   the service underneath still does work. Health restoration requires
   both — a process that answers pings but wedges on generation must
   not flap back to healthy, take a slice of traffic, time it all out,
   and go unhealthy again, over and over. *)
let probe_template = "<document><p>shard probe</p></document>"

let probe_generate s =
  let payload =
    encode_generate ~id:"__probe__" ~engine:"host" ~level:Docgen.Spec.Full
      ~deadline_ms:2000 ~body:probe_template
  in
  match decode_reply (Backend.call s.b payload ~timeout_s:3.) with
  | status, _, _ -> status < 500
  | exception _ -> false

let restore_health s =
  if ping s ~timeout_s:1. && probe_generate s then begin
    Atomic.set s.b.healthy true;
    (* The successful work probe is exactly the breaker's half-open
       admission test: close the circuit with it. *)
    Breaker.record_success s.sbreaker;
    true
  end
  else false

let wait_healthy s ~timeout_s =
  let deadline = Clock.now () +. timeout_s in
  let rec go () =
    if restore_health s then true
    else if Clock.now () > deadline then false
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

(* Reap and respawn dead backends; re-probe unhealthy ones. Runs every
   [probe_interval_s]; a shard being rolled (sdraining) is left alone —
   rolling_restart owns its lifecycle. *)
let probe_loop t =
  while not (Atomic.get t.stop) do
    Thread.delay t.cfg.probe_interval_s;
    if not (Atomic.get t.stop) then
      Array.iter
        (fun s ->
          if not (Atomic.get s.sdraining) then begin
            if Backend.exited s.b then begin
              (* The backend died (crash, OOM, kill -9). Everything it
                 held is gone; open the breaker outright (no need to
                 count failures against a corpse), respawn, and let the
                 ring's failover cover its keys until the work probe
                 passes again. *)
              Atomic.set s.b.healthy false;
              Breaker.force_open s.sbreaker ~now:(Clock.now ());
              Backend.pool_clear s.b;
              if not (Atomic.get t.stop) then begin
                Atomic.incr t.restarts;
                spawn_backend t s
              end
            end;
            if not (Atomic.get s.b.healthy) then ignore (restore_health s)
          end)
        t.members
  done

let start ?(config = default_cluster_config) () =
  (* The front writes to backend sockets that can die at any moment
     (that's the whole failover story); a write to a killed backend must
     surface as EPIPE, not terminate the process. Server.start also sets
     this, but Shard.start must be safe standalone (tests, embedding). *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Backend.socket_dir ~prefix:"awb-shards" config.socket_dir in
  let n = max 1 config.shards in
  let members =
    Array.init n (fun i ->
        {
          b =
            Backend.create ~id:i
              ~path:(Filename.concat dir (Printf.sprintf "shard-%d.sock" i))
              ~healthy:false;
          sdraining = Atomic.make false;
          sinflight = Atomic.make 0;
          sbreaker = Breaker.create ~config:config.breaker ();
        })
  in
  let t =
    {
      cfg = config;
      dir;
      router = Router.create ~replicas:config.replicas (List.init n (fun i -> i));
      members;
      failovers = Atomic.make 0;
      restarts = Atomic.make 0;
      reloads = Atomic.make 0;
      hedges = Atomic.make 0;
      hedge_wins = Atomic.make 0;
      unavailable = Atomic.make 0;
      p95_s = Atomic.make (max 0.001 config.hedge_min_delay_s);
      stop = Atomic.make false;
      probe_thread = None;
    }
  in
  Array.iter (fun s -> spawn_backend t s) members;
  Array.iter
    (fun s ->
      if not (wait_healthy s ~timeout_s:15.) then
        failwith (Printf.sprintf "shard %d did not come up" s.b.id))
    members;
  t.probe_thread <- Some (Thread.create (fun () -> probe_loop t) ());
  t

let shard_count t = Array.length t.members
let failovers t = Atomic.get t.failovers
let restarts t = Atomic.get t.restarts
let reloads t = Atomic.get t.reloads
let hedges t = Atomic.get t.hedges
let hedge_wins t = Atomic.get t.hedge_wins
let unavailable t = Atomic.get t.unavailable
let breaker_states t = Array.map (fun s -> Breaker.state_code s.sbreaker) t.members
let pids t = Array.map (fun s -> s.b.pid) t.members
let healthy_count t =
  Array.fold_left (fun acc s -> if Atomic.get s.b.healthy then acc + 1 else acc) 0 t.members

(* Frugal streaming p95: on each successful-call latency, step the
   estimate up hard when the sample exceeds it and down softly when it
   doesn't (19:1, the 95th-percentile balance point). Cheap, lock-free,
   and good enough to aim a hedge delay — this is a trigger threshold,
   not a reported statistic. *)
let observe_latency t dt =
  let rec go () =
    let cur = Atomic.get t.p95_s in
    let step = Float.max 0.0005 (cur *. 0.05) in
    let next =
      if dt > cur then cur +. (step *. 0.95) else Float.max 0.001 (cur -. (step *. 0.05))
    in
    if not (Atomic.compare_and_set t.p95_s cur next) then go ()
  in
  go ()

(* One routed attempt against shard [sid], with breaker bookkeeping:
   every outcome — including a hedge loser's — feeds the shard's
   breaker, so the trip thresholds see the true failure stream. *)
let attempt_call t sid payload ~timeout_s =
  let s = t.members.(sid) in
  Atomic.incr s.sinflight;
  let t0 = Clock.now () in
  let result =
    Fun.protect
      ~finally:(fun () -> Atomic.decr s.sinflight)
      (fun () -> try Ok (Backend.call ?chaos:t.cfg.chaos s.b payload ~timeout_s) with e -> Error e)
  in
  (match result with
  | Ok _ ->
    Breaker.record_success s.sbreaker;
    observe_latency t (Clock.now () -. t0)
  | Error e ->
    Breaker.record_failure s.sbreaker ~timeout:(Backend.is_timeout_exn e) ~now:(Clock.now ()) ());
  result

(* Hedged attempt: first response wins. The primary gets the hedge
   delay (p95 EWMA, floored at the configured minimum) to answer; past
   that — or the moment it fails — the same payload goes to the ring
   successor, and whichever attempt completes with Ok first is the
   answer. The loser is not interrupted: its thread runs to its own
   timeout, its outcome still feeds its shard's breaker, and its reply
   is simply discarded ([hedges] counts fired hedges, [hedge_wins] the
   ones whose reply was used). *)
let hedged_call t sid ~route_key ~payload ~timeout_s ~excluded =
  let mutex = Mutex.create () in
  let results = ref [] in
  let snapshot () =
    Mutex.lock mutex;
    let r = !results in
    Mutex.unlock mutex;
    r
  in
  let launch tag hid =
    ignore
      (Thread.create
         (fun () ->
           let r = attempt_call t hid payload ~timeout_s in
           Mutex.lock mutex;
           results := (tag, r) :: !results;
           Mutex.unlock mutex)
         ())
  in
  let launched = ref 1 in
  launch `Primary sid;
  let hedge_delay = Float.max t.cfg.hedge_min_delay_s (Atomic.get t.p95_s) in
  let t0 = Clock.now () in
  let hard_deadline = t0 +. timeout_s +. 1. in
  while snapshot () = [] && Clock.now () -. t0 < hedge_delay do
    Thread.delay 0.002
  done;
  (match snapshot () with
  | (_, Ok _) :: _ -> () (* the primary answered inside the hedge delay *)
  | _ -> (
    match
      Router.route_excluding t.router ~exclude:(fun i -> i = sid || excluded i) route_key
    with
    | Some hid when Breaker.try_probe t.members.(hid).sbreaker ~now:(Clock.now ()) ->
      Atomic.incr t.hedges;
      incr launched;
      launch `Hedge hid
    | _ -> () (* nowhere to hedge; ride the primary out *)))
  ;
  let rec settle () =
    let r = snapshot () in
    match List.find_opt (fun (_, res) -> Result.is_ok res) r with
    | Some (tag, res) ->
      if tag = `Hedge then Atomic.incr t.hedge_wins;
      res
    | None ->
      if List.length r >= !launched then
        match r with (_, e) :: _ -> e | [] -> assert false
      else if Clock.now () > hard_deadline then
        Error (Unix.Unix_error (Unix.ETIMEDOUT, "hedged_call", ""))
      else begin
        Thread.delay 0.002;
        settle ()
      end
  in
  settle ()

(* Route and forward one generate. The breaker gates routing before the
   ring walk (an Open shard is skipped without spending a request on
   it; a Half-open shard admits exactly one probe). Failover: a shard
   that errors mid-exchange is marked unhealthy (the probe thread
   restores it after a successful work probe) and the request retries
   on the next ring successor — safe because generation is read-only.
   The response is (status, headers, body), ready for the front end to
   decorate and write. *)
let generate t ~id ~engine ~level ~deadline_ms ~body =
  let timeout_s =
    if deadline_ms = 0 then t.cfg.call_timeout_s
    else Float.min t.cfg.call_timeout_s ((float_of_int deadline_ms /. 1000.) +. 5.)
  in
  let payload = encode_generate ~id ~engine ~level ~deadline_ms ~body in
  (* Route on the model section, digested: the ring must see the same
     key for every request against the same model regardless of
     template, and the FNV ring hash walks its input byte by byte in
     boxed Int64 arithmetic — feeding it a raw multi-hundred-kilobyte
     body costs milliseconds per request where a 16-byte MD5 is free. *)
  let route_key =
    match Composite.split body with
    | _, Some model -> Digest.string model
    | _, None -> body
  in
  let failed = Array.make (Array.length t.members) false in
  let excluded sid =
    failed.(sid)
    || (not (Atomic.get t.members.(sid).b.healthy))
    || Atomic.get t.members.(sid).sdraining
    || Breaker.blocked t.members.(sid).sbreaker ~now:(Clock.now ())
  in
  let no_shards message =
    (* Counted so end-of-run conservation can account for every 503 the
       tier answered: these come from routing, not the admission queue. *)
    Atomic.incr t.unavailable;
    Service_http.unavailable ~code:"no-shards" ~message ~request_id:id ~retry_after_s:1.
  in
  let rec attempt tries =
    if tries >= Array.length t.members then no_shards "every shard failed"
    else
      match Router.route_excluding t.router ~exclude:excluded route_key with
      | None -> no_shards "no healthy shard available"
      | Some sid -> (
        let s = t.members.(sid) in
        if not (Breaker.try_probe s.sbreaker ~now:(Clock.now ())) then begin
          (* Lost the half-open probe slot to a concurrent request:
             leave the breaker alone and walk on. *)
          failed.(sid) <- true;
          attempt (tries + 1)
        end
        else
          let result =
            if t.cfg.hedge && Array.length t.members > 1 then
              hedged_call t sid ~route_key ~payload ~timeout_s ~excluded
            else attempt_call t sid payload ~timeout_s
          in
          match result with
          | Ok reply -> decode_reply reply
          | Error _ ->
            Atomic.set s.b.healthy false;
            Backend.pool_clear s.b;
            failed.(sid) <- true;
            Atomic.incr t.failovers;
            attempt (tries + 1))
  in
  attempt 0

(* Aggregated /metrics: each shard's exposition arrives already
   shard-labeled on its sample lines; concatenating them repeats the
   HELP/TYPE metadata, which is deduplicated. *)
let metrics t =
  let parts =
    Array.to_list t.members
    |> List.filter_map (fun s ->
           if not (Atomic.get s.b.healthy) then None
           else
             match Backend.call s.b "M" ~timeout_s:2. with
             | reply when String.length reply > 0 && reply.[0] = 'M' ->
               Some (String.sub reply 1 (String.length reply - 1))
             | _ -> None
             | exception _ -> None)
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b (Backend.dedup_metadata (String.concat "" parts));
  Buffer.add_string b
    "# HELP lopsided_shard_healthy 1 when the shard passes ping and work probes.\n";
  Buffer.add_string b "# TYPE lopsided_shard_healthy gauge\n";
  Array.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "lopsided_shard_healthy{shard=\"%d\"} %d\n" s.b.id
           (if Atomic.get s.b.healthy then 1 else 0)))
    t.members;
  Buffer.add_string b
    "# HELP lopsided_shard_breaker_state Circuit breaker: 0 closed, 1 open, 2 half-open.\n";
  Buffer.add_string b "# TYPE lopsided_shard_breaker_state gauge\n";
  Array.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "lopsided_shard_breaker_state{shard=\"%d\"} %d\n" s.b.id
           (Breaker.state_code s.sbreaker)))
    t.members;
  let counter name help v =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n# TYPE %s counter\n%s %d\n" name help name name v)
  in
  counter "lopsided_shard_failovers_total"
    "Generates re-routed to a ring successor after a shard failed." (failovers t);
  counter "lopsided_shard_restarts_total"
    "Backend processes respawned by the supervisor after dying." (restarts t);
  counter "lopsided_shard_reloads_total"
    "Backend processes cycled by a rolling restart." (reloads t);
  counter "lopsided_shard_hedges_total"
    "Hedge requests fired at a ring successor after the hedge delay." (hedges t);
  counter "lopsided_shard_hedge_wins_total"
    "Hedged generates whose hedge reply arrived first and was used." (hedge_wins t);
  counter "lopsided_shard_unavailable_total"
    "Generates answered 503 because no shard could take the request." (unavailable t);
  Buffer.contents b

(* Zero-downtime reload: cycle one shard at a time. While a shard is
   down its keys fail over to ring successors (~1/N of traffic sees a
   cold cache, briefly); the rest of the fleet keeps its warm caches.
   Each old process finishes its in-flight work before exiting: routing
   stops first, then we wait for the front-side in-flight count to hit
   zero, and the backend's own drain finishes any frame already on a
   connection. *)
let rolling_restart t =
  Array.iter
    (fun s ->
      Atomic.set s.sdraining true;
      (* New requests stopped routing here the instant sdraining went
         true; wait for the ones already being exchanged. *)
      let deadline = Clock.now () +. t.cfg.drain_timeout_s in
      while Atomic.get s.sinflight > 0 && Clock.now () < deadline do
        Thread.delay 0.01
      done;
      Atomic.set s.b.healthy false;
      Backend.stop s.b ~drain_timeout_s:t.cfg.drain_timeout_s;
      spawn_backend t s;
      Atomic.incr t.reloads;
      ignore (wait_healthy s ~timeout_s:15.);
      Atomic.set s.sdraining false)
    t.members

let shutdown t =
  if Atomic.compare_and_set t.stop false true then begin
    (match t.probe_thread with Some th -> Thread.join th | None -> ());
    t.probe_thread <- None;
    Array.iter
      (fun s ->
        Atomic.set s.sdraining true;
        Atomic.set s.b.healthy false;
        Backend.stop s.b ~drain_timeout_s:t.cfg.drain_timeout_s)
      t.members;
    try Unix.rmdir t.dir with Unix.Unix_error _ | Sys_error _ -> ()
  end
