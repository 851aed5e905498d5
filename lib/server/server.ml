(* The HTTP front end: admission control first, work second.

   Thread/domain layout:

     acceptor (systhread) — accept only. Accepted connections go into a
       second bounded queue; when even that is full (every reader held
       by a slow client) the connection is refused with 503 without
       reading a byte. The acceptor never blocks on a client, so
       admission decisions and the drain trigger stay responsive no
       matter how traffic behaves.
     readers (systhreads) — pop a connection, read and parse the
       request under a whole-request deadline, then route. Everything
       that can be answered without generation work (health, readiness,
       metrics, rate-limit 429s, quarantine 429s, queue-full 503s) is
       answered right here. Admitted jobs go into the bounded job queue.
     workers (OCaml domains, max_inflight of them) — pop, generate via
       Service.run (or forward to a shard backend in cluster mode),
       answer. A worker that dies (the injected Crash fault, or a
       genuine bug) is noticed and replaced by the supervisor; the
       process survives.
     supervisor (systhread) — polls worker slots, joins finished
       domains, respawns crashed ones, counts restarts.
     idle watcher (systhread, keep-alive only) — holds connections
       between requests so readers never block on an idle socket;
       readable connections go back to the reader queue, idle-timeout
       expiries are closed.

   Connections are persistent when keep-alive is enabled: each carries a
   pooled parse/serialize buffer for its whole life (cleared between
   requests, never reallocated), pipelined bytes that arrive beyond one
   request's body are carried to the next parse, and ownership moves
   reader -> worker -> (reader queue | idle watcher) so exactly one
   thread touches a connection at a time.

   Overload never queues invisibly: the queue has a hard capacity and
   everything beyond it is refused with 503 + Retry-After the moment it
   arrives. Sheds are cheap (no parse of the template, no worker, no
   service call), which is what keeps goodput flat when offered load is
   a multiple of capacity.

   Graceful drain (SIGTERM or Server.drain): flip readiness, refuse new
   work, 503 the queued-but-unstarted, tighten every in-flight
   evaluation's deadline through Service.preempt_inflight so overruns
   die with a structured resource:deadline, then join everything and
   close the listener. *)

module Fault = Service.Fault

type config = {
  host : string;
  port : int;
  max_inflight : int;
  queue_cap : int;
  tenant_cap : int;
  rate : float;
  burst : float;
  default_deadline_s : float option;
  drain_deadline_s : float;
  shed_unready_threshold : float;
  io_timeout_s : float;
  max_body_bytes : int;
  default_engine : Docgen.engine;
  model : Service.model_source option;
  fault : Fault.config option;
  brownout : Brownout.config option;
  keepalive : bool;
  idle_timeout_s : float;
  max_conn_requests : int;
  recorder : Recorder.t option;
      (* when set, admitted /generate requests are captured into this
         ring for later replay (awbserve --record) *)
  store : Store.t option;
      (* the persistent collection store behind /collections/*; None
         answers those routes 503 no-store *)
  repl : Store.Replica.t option;
      (* when set, /collections/* is served by the replicated cluster
         instead of [store]: writes are quorum-acked, reads follow the
         primary through failover *)
  scrub_interval_s : float;
      (* > 0 starts a background thread running one incremental scrub
         pass against the local store on this cadence (the replicated
         backends scrub themselves; see Replica.config.scrub_interval_s) *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_inflight = 4;
    queue_cap = 64;
    (* Clamped to queue_cap by Fair_queue: the default is "no per-tenant
       bulkhead", i.e. exactly the PR-4 single global FIFO bound. *)
    tenant_cap = max_int;
    rate = 0.;
    burst = 8.;
    default_deadline_s = None;
    drain_deadline_s = 5.;
    shed_unready_threshold = 0.9;
    io_timeout_s = 2.;
    max_body_bytes = 4 * 1024 * 1024;
    default_engine = `Host;
    model = None;
    fault = None;
    brownout = None;
    (* Off by default: one request per connection, exactly the PR-4/5
       wire behaviour. Clients that read to EOF keep working. *)
    keepalive = false;
    idle_timeout_s = 5.;
    max_conn_requests = 1000;
    recorder = None;
    store = None;
    repl = None;
    scrub_interval_s = 0.;
  }

(* The pseudo-tenant that stale-while-revalidate refresh jobs queue
   under. Low weight: under contention the fair queue serves it a
   quarter as often as a unit-weight tenant, so refreshes never crowd
   out interactive work. *)
let refresh_tenant = "~refresh"

(* A live client connection. The buffer is checked out of the pool at
   accept and travels with the connection until close; [cpending] is
   pipelined overshoot from the last parse, already received but not yet
   parsed. Ownership is exclusive: at any moment exactly one of the
   reader queue, a worker, or the idle watcher holds the connection. *)
type conn = {
  cfd : Unix.file_descr;
  cpeer : string;
  cbuf : Buffer.t;
  mutable cpending : string;
  mutable cserved : int;  (* requests answered on this connection *)
}

type job = {
  jconn : conn option;
      (* None = background refresh: regenerate and let the service's
         result cache absorb the output; no client is waiting. *)
  jka : bool;  (* keep the connection open after answering *)
  jreq : Http.request;
  jid : string;
  jarrival : float; (* Clock.now at admission; queue wait counts against the deadline *)
  jtenant : string;
  jlevel : Docgen.Spec.level;
}

(* One worker domain's lifecycle, owned by the supervisor. [finished]
   is the worker's last write before its domain terminates; [crashed]
   distinguishes a death from a clean queue-closed exit; [retired] is
   set by the supervisor once the domain is joined and no replacement
   was spawned. *)
type slot = {
  mutable domain : unit Domain.t option;
  finished : bool Atomic.t;
  crashed : bool Atomic.t;
  retired : bool Atomic.t;
}

type t = {
  config : config;
  svc : Service.t;
  cluster : Shard.t option;
  model : Service.model_source;
  metrics : Metrics.t;
  buffers : Buffer_pool.t;
  bucket : Token_bucket.t;
  brownout : Brownout.t option;
  queue : job Fair_queue.t;
  conns : conn Admission.t;
      (* connections with (possible) bytes to read, feeding the readers *)
  busy : int Atomic.t; (* jobs a worker is currently handling *)
  reqno : int Atomic.t;
  sigterm : bool Atomic.t;
  sighup : bool Atomic.t;
  drain_started : bool Atomic.t;
  is_draining : bool Atomic.t;
  drain_deadline_ns : int Atomic.t; (* 0 = not draining *)
  stop_accept : bool Atomic.t;
  stop_supervisor : bool Atomic.t;
  stop_watcher : bool Atomic.t;
  is_stopped : bool Atomic.t;
  slots : slot array;
  idle_mutex : Mutex.t;
  mutable idle_conns : (conn * float) list;  (* connection, expiry *)
  mutable watcher_gone : bool;
      (* guarded by idle_mutex: true once the watcher has done its
         final sweep and will never look at idle_conns again — a
         register after that must close the connection itself *)
  idle_wake : Unix.file_descr * Unix.file_descr;
      (* self-pipe: registering a connection (or stopping) wakes the
         watcher out of its select immediately *)
  mutable listen_fd : Unix.file_descr option;
  mutable actual_port : int;
  mutable acceptor : Thread.t option;
  mutable readers : Thread.t list;
  mutable supervisor : Thread.t option;
  mutable watcher : Thread.t option;
  stop_scrub : bool Atomic.t;
  mutable scrubber : Thread.t option;
      (* online scrub against the local store (scrub_interval_s > 0) *)
}

let create ?(config = default_config) ?cluster svc =
  {
    config;
    svc;
    cluster;
    model =
      (match config.model with
      | Some m -> m
      | None -> Service.Model_value (Awb.Samples.banking_model ()));
    metrics = Metrics.create ();
    buffers = Buffer_pool.create ();
    bucket = Token_bucket.create ~rate:config.rate ~burst:config.burst;
    brownout = Option.map Brownout.create config.brownout;
    queue = Fair_queue.create ~capacity:config.queue_cap ~tenant_cap:config.tenant_cap;
    (* Headroom beyond the job queue: health checks and requests bound
       for a 429/503 also pass through here, and they cost microseconds
       each once a reader picks them up. *)
    conns = Admission.create ~capacity:(config.queue_cap + 64);
    busy = Atomic.make 0;
    reqno = Atomic.make 0;
    sigterm = Atomic.make false;
    sighup = Atomic.make false;
    drain_started = Atomic.make false;
    is_draining = Atomic.make false;
    drain_deadline_ns = Atomic.make 0;
    stop_accept = Atomic.make false;
    stop_supervisor = Atomic.make false;
    stop_watcher = Atomic.make false;
    is_stopped = Atomic.make false;
    slots =
      Array.init (max 1 config.max_inflight) (fun _ ->
          {
            domain = None;
            finished = Atomic.make false;
            crashed = Atomic.make false;
            retired = Atomic.make false;
          });
    idle_mutex = Mutex.create ();
    idle_conns = [];
    watcher_gone = false;
    idle_wake =
      (let r, w = Unix.pipe ~cloexec:true () in
       Unix.set_nonblock w;
       (r, w));
    listen_fd = None;
    actual_port = 0;
    acceptor = None;
    readers = [];
    supervisor = None;
    watcher = None;
    stop_scrub = Atomic.make false;
    scrubber = None;
  }

let config t = t.config
let port t = t.actual_port
let draining t = Atomic.get t.is_draining
let stopped t = Atomic.get t.is_stopped
let metrics t = t.metrics
let service t = t.svc
let cluster t = t.cluster
let queue_depth t = Fair_queue.depth t.queue
let inflight t = Atomic.get t.busy

let ready t =
  (not (Atomic.get t.is_draining))
  && (not (Atomic.get t.is_stopped))
  && Metrics.shed_fraction t.metrics ~now:(Clock.now ())
     < t.config.shed_unready_threshold

(* One brownout controller step, fed the live signals (or the Fault
   load_signal override, which is how tests force transitions). Brownout
   off means permanently Normal. Called from /generate routing and from
   /metrics — scraping alone is enough to observe recovery. *)
let mode t =
  match t.brownout with
  | None -> Brownout.Normal
  | Some b ->
    let override =
      match t.config.fault with Some f -> f.Fault.load_signal | None -> None
    in
    Brownout.note b ?override
      ~queue_occupancy:
        (float_of_int (queue_depth t) /. float_of_int (max 1 t.config.queue_cap))
      ~shed_fraction:(Metrics.shed_fraction t.metrics ~now:(Clock.now ()))
      ~now:(Clock.now ()) ()

(* The mode as last evaluated, for response headers: reading it must not
   step the controller (header emission is not an observation). *)
let current_mode t =
  match t.brownout with None -> Brownout.Normal | Some b -> Brownout.mode b

let metrics_body t =
  let m = mode t in
  let buffers =
    Printf.sprintf
      "# HELP lopsided_server_buffers_created_total Pool misses: buffers allocated.\n\
       # TYPE lopsided_server_buffers_created_total counter\n\
       lopsided_server_buffers_created_total %d\n\
       # HELP lopsided_server_buffers_reused_total Pool hits: buffers reused.\n\
       # TYPE lopsided_server_buffers_reused_total counter\n\
       lopsided_server_buffers_reused_total %d\n\
       # HELP lopsided_server_buffers_dropped_total Buffers released on checkin (oversize or idle cap).\n\
       # TYPE lopsided_server_buffers_dropped_total counter\n\
       lopsided_server_buffers_dropped_total %d\n\
       # HELP lopsided_server_buffers_idle Buffers currently idle in the pool.\n\
       # TYPE lopsided_server_buffers_idle gauge\n\
       lopsided_server_buffers_idle %d\n"
      (Buffer_pool.created t.buffers)
      (Buffer_pool.reused t.buffers)
      (Buffer_pool.dropped t.buffers)
      (Buffer_pool.idle t.buffers)
  in
  Service.counters_to_prometheus (Service.counters t.svc)
  ^ Metrics.to_prometheus t.metrics ~mode:(Brownout.mode_index m)
      ~queue_depth:(queue_depth t) ~inflight:(inflight t) ~ready:(ready t) ()
  ^ buffers
  ^ (match t.config.store with None -> "" | Some s -> Store.to_prometheus s)
  ^ (match t.config.repl with None -> "" | Some r -> Store.Replica.metrics r)
  ^ (match t.cluster with None -> "" | Some c -> Shard.metrics c)

(* ------------------------------------------------------------------ *)
(* Connection lifecycle                                                 *)
(* ------------------------------------------------------------------ *)

(* The one place a connection dies: the socket closes and the buffer
   goes back to the pool. Exclusive ownership makes double-close a
   logic bug, not a runtime hazard. *)
let close_conn t conn =
  Backend.close_quiet conn.cfd;
  Buffer_pool.checkin t.buffers conn.cbuf

(* Wake the watcher out of its select: a byte down the self-pipe. The
   pipe is non-blocking — a full pipe means wakeups are already queued,
   so the failure needs no handling. *)
let idle_wake t =
  try ignore (Unix.write (snd t.idle_wake) (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

(* Park a connection with the idle watcher until bytes arrive or the
   idle timeout expires. The watcher-gone check and the push happen
   under the same mutex as the watcher's final sweep: a register racing
   the stop either lands in that sweep (and is closed there) or
   observes [watcher_gone] and closes here — never a parked connection
   nobody will ever select on. *)
let idle_register t conn =
  if Atomic.get t.is_draining then close_conn t conn
  else begin
    let expiry = Clock.now () +. t.config.idle_timeout_s in
    Mutex.lock t.idle_mutex;
    let parked = not t.watcher_gone in
    if parked then t.idle_conns <- (conn, expiry) :: t.idle_conns;
    Mutex.unlock t.idle_mutex;
    if parked then idle_wake t else close_conn t conn
  end

(* After a response: recycle a keep-alive connection (already-received
   pipelined bytes go straight back to the readers; an empty connection
   parks with the idle watcher), close anything else. *)
let finish_conn t conn ~ka =
  conn.cserved <- conn.cserved + 1;
  if ka && not (Atomic.get t.is_draining) then begin
    if conn.cpending <> "" then begin
      match Admission.push t.conns conn with
      | `Accepted -> ()
      | `Shed -> close_conn t conn
    end
    else idle_register t conn
  end
  else close_conn t conn

(* The idle watcher: one select over every parked connection plus the
   wake pipe, blocking until a socket turns readable, a park/stop pokes
   the pipe, or the nearest idle expiry lapses. Readable connections
   rejoin the reader queue immediately (the next request — or EOF — is
   waiting), expired ones close. Event-driven on purpose: a polling loop
   would put its tick interval into every sequential keep-alive client's
   p50. *)
let watcher_loop t =
  let wake_r = fst t.idle_wake in
  let take () =
    Mutex.lock t.idle_mutex;
    let l = t.idle_conns in
    t.idle_conns <- [];
    Mutex.unlock t.idle_mutex;
    l
  in
  let drain_pipe () =
    let junk = Bytes.create 64 in
    let rec go () =
      match Unix.read wake_r junk 0 64 with
      | 64 -> go ()
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    (* The pipe read blocks when the select woke for a socket, not the
       pipe — check readability first. *)
    match Unix.select [ wake_r ] [] [] 0. with
    | [ _ ], _, _ -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  (* Unix.select tops out a little above 1000 descriptors (FD_SETSIZE);
     feeding it more raises Invalid_argument, which used to dump every
     parked connection on the readers at once. Select over at most this
     many per pass and only expiry-check the overflow; re-parking puts
     the overflow ahead of the just-selected survivors, so every parked
     connection rotates into a select within a pass or two (each pass
     blocks at most 0.5 s). *)
  let max_select = 1000 in
  let rec split_at n = function
    | [] -> ([], [])
    | l when n <= 0 -> ([], l)
    | x :: rest ->
      let a, b = split_at (n - 1) rest in
      (x :: a, b)
  in
  while not (Atomic.get t.stop_watcher) do
    let items = take () in
    let selected, overflow = split_at max_select items in
    let now = Clock.now () in
    let timeout =
      List.fold_left (fun acc (_, expiry) -> Float.min acc (expiry -. now)) 0.5 items
      |> Float.max 0.001
    in
    let readable =
      match
        Unix.select (wake_r :: List.map (fun (c, _) -> c.cfd) selected) [] [] timeout
      with
      | r, _, _ -> r
      | exception (Unix.Unix_error _ | Invalid_argument _) ->
        (* A bad descriptor poisons the whole select: hand everything
           back to the readers, whose per-connection reads will sort the
           live from the dead. *)
        List.map (fun (c, _) -> c.cfd) selected
    in
    drain_pipe ();
    let now = Clock.now () in
    let keep_selected =
      List.filter
        (fun (c, expiry) ->
          if List.memq c.cfd readable then begin
            (match Admission.push t.conns c with
            | `Accepted -> ()
            | `Shed -> close_conn t c);
            false
          end
          else if now > expiry then begin
            close_conn t c;
            false
          end
          else true)
        selected
    in
    let keep_overflow =
      List.filter
        (fun (c, expiry) ->
          if now > expiry then begin
            close_conn t c;
            false
          end
          else true)
        overflow
    in
    let keep = keep_overflow @ keep_selected in
    if keep <> [] then begin
      Mutex.lock t.idle_mutex;
      t.idle_conns <- keep @ t.idle_conns;
      Mutex.unlock t.idle_mutex
    end
  done;
  (* Stopped (drain): mark the watcher gone and sweep, both under the
     mutex idle_register pushes under, so a register racing the stop
     either lands in this sweep or closes its own connection. *)
  Mutex.lock t.idle_mutex;
  t.watcher_gone <- true;
  let parked = t.idle_conns in
  t.idle_conns <- [];
  Mutex.unlock t.idle_mutex;
  List.iter (fun (c, _) -> close_conn t c) parked

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

(* Every response carries the request id (the client's own X-Request-Id
   echoed back, or the generated one) and the service mode, so a client
   can correlate logs and notice degradation without scraping /metrics. *)
let std_headers t ~request_id headers =
  ("X-Request-Id", request_id)
  :: ("X-Service-Mode", Brownout.mode_name (current_mode t))
  :: headers

(* Like {!Http.write_response}, returns whether the full response went
   out: [false] means the stream is truncated and a keep-alive caller
   must close the connection, not recycle it. *)
let respond_error t fd ~request_id ~status ?(headers = []) ?(keep_alive = false) ?buf
    ~code ~message () =
  Http.write_response fd ~status ~keep_alive ?buf
    ~headers:(std_headers t ~request_id (("Content-Type", "application/json") :: headers))
    ~body:(Http.error_body ~code ~message ~request_id)
    ()

let retry_after = Service_http.retry_after

(* The shed-path Retry-After: how long the queue should take to drain at
   the recent completion rate, clamped to [1, 30] s. Used by the 503
   shed paths and (since PR 7) the rate-limit 429s too — a flat
   token-bucket constant told a throttled client to hammer again in one
   second regardless of how deep the backlog actually was. *)
let retry_after_derived t =
  retry_after
    (Metrics.retry_after_estimate_s t.metrics ~queue_depth:(queue_depth t)
       ~now:(Clock.now ()))

(* The Service error taxonomy, mapped onto HTTP — shared with the shard
   backends so both sides of the boundary answer identically. *)
let http_of_error = Service_http.of_error

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let parse_deadline_ms req =
  match Http.header req "x-deadline-ms" with
  | None -> Ok None
  | Some v -> (
    match float_of_string_opt (String.trim v) with
    | Some ms when ms > 0. -> Ok (Some (ms /. 1000.))
    | _ -> Error "malformed X-Deadline-Ms header")

let parse_engine t req =
  let name =
    match (Http.query_param req "engine", Http.header req "x-engine") with
    | Some q, _ -> Some q
    | None, h -> h
  in
  match name with
  | None -> Ok t.config.default_engine
  | Some n -> Docgen.engine_of_string n

(* The service request for a body, resolving a composite body's inline
   model (content-hash cached by the service) against the configured
   fallback. *)
let service_request t ~engine ?deadline ?level ~id body =
  let template_xml, model_xml = Composite.split body in
  let model =
    match model_xml with
    | Some xml -> Service.Model_xml { metamodel = Awb.Samples.it_architecture; xml }
    | None -> t.model
  in
  Service.request ~engine ?deadline ?level ~id
    ~template:(Service.Template_xml template_xml) ~model ()

(* A background stale-while-revalidate refresh: regenerate at Full
   level and let the service's result cache absorb the output. No
   client socket; failures are silent (the stale entry stays until a
   later refresh succeeds or it is evicted). *)
let handle_refresh t (job : job) =
  match parse_engine t job.jreq with
  | Error _ -> ()
  | Ok engine -> (
    let sreq =
      service_request t ~engine ?deadline:t.config.default_deadline_s ~id:job.jid
        job.jreq.Http.body
    in
    try ignore (Service.run t.svc sreq) with Fault.Crashed _ as e -> raise e | _ -> ())

(* ------------------------------------------------------------------ *)
(* Collection store routes                                             *)
(* ------------------------------------------------------------------ *)

(* /collections/:name/docs/:id and /collections/:name/query *)
let store_path path =
  match String.split_on_char '/' path with
  | [ ""; "collections"; c; "docs"; d ] when c <> "" && d <> "" -> Some (`Doc (c, d))
  | [ ""; "collections"; c; "query" ] when c <> "" -> Some (`Query c)
  | _ -> None

(* The store tier behind /collections/*: one local store, or the
   replicated cluster when --replicas is set. *)
type store_tier = Local of Store.t | Repl of Store.Replica.t

let store_tier t =
  match t.config.repl with
  | Some r -> Some (Repl r)
  | None -> Option.map (fun s -> Local s) t.config.store

let tier_put tier ~collection ~doc body : (string, Store.Replica.error) result =
  match tier with
  | Local s -> (Store.put s ~collection ~doc body :> (string, Store.Replica.error) result)
  | Repl r -> Store.Replica.put r ~collection ~doc body

let tier_delete tier ~collection ~doc : (bool, Store.Replica.error) result =
  match tier with
  | Local s -> (Store.delete s ~collection ~doc :> (bool, Store.Replica.error) result)
  | Repl r -> Store.Replica.delete r ~collection ~doc

let tier_get tier ~collection ~doc : (string * string, Store.Replica.error) result =
  match tier with
  | Local s -> (Store.get s ~collection ~doc :> (string * string, Store.Replica.error) result)
  | Repl r -> Store.Replica.get r ~collection ~doc

let store_error_response : Store.Replica.error -> int * string * string = function
  | `Not_found -> (404, "store:not-found", "document not found")
  | `Corrupt reason -> (500, "store:corrupt", reason)
  | `Io reason -> (503, "store:io", reason)
  | `Unavailable reason -> (503, "store:unavailable", reason)

(* Serve one admitted store job on a worker. PUT validates the body is
   well-formed XML before anything touches disk — the store holds parsed
   documents, not blobs — and acks only after the fsync barrier. The
   query arm resolves doc() against the collection's live documents, so
   a query can never observe an unacknowledged or quarantined write. *)
let handle_store t (job : job) conn ~ka tier op =
  let fd = conn.cfd in
  let fail ?headers (status, code, message) =
    respond_error t fd ~request_id:job.jid ~status ?headers ~keep_alive:ka ~buf:conn.cbuf
      ~code ~message ()
  in
  (* A store-tier 503 (I/O error, quarantine, write quorum unavailable)
     promises recovery: it carries the same derived Retry-After as the
     shed paths and is counted as a refusal for the recorder's
     conservation checker. *)
  let fail_store ((status, _, _) as r) =
    if status = 503 then begin
      Metrics.incr_store_refused t.metrics;
      fail ~headers:(retry_after_derived t) r
    end
    else fail r
  in
  match (op, job.jreq.Http.meth) with
  | `Doc (collection, doc), "PUT" -> (
    match Xml_base.Parser.parse_string job.jreq.Http.body with
    | exception _ -> fail (400, "bad-request", "body is not well-formed XML")
    | _tree -> (
      match tier_put tier ~collection ~doc job.jreq.Http.body with
      | Ok hash ->
        Http.write_response fd ~status:200
          ~headers:
            (std_headers t ~request_id:job.jid
               [ ("Content-Type", "text/plain"); ("X-Doc-Hash", hash) ])
          ~keep_alive:ka ~buf:conn.cbuf ~body:(hash ^ "\n") ()
      | Error e -> fail_store (store_error_response e)))
  | `Doc (collection, doc), "DELETE" -> (
    match tier_delete tier ~collection ~doc with
    | Ok true ->
      Http.write_response fd ~status:200
        ~headers:(std_headers t ~request_id:job.jid [ ("Content-Type", "text/plain") ])
        ~keep_alive:ka ~buf:conn.cbuf ~body:"deleted\n" ()
    | Ok false -> fail (404, "store:not-found", "document not found")
    | Error e -> fail_store (store_error_response e))
  | `Query collection, "POST" -> (
    let doc_resolver uri =
      match tier_get tier ~collection ~doc:uri with
      | Ok (snapshot, _) -> (
        try Some (Xml_base.Parser.parse_string snapshot) with _ -> None)
      | Error _ -> None
    in
    match Service.run_query t.svc ~doc_resolver job.jreq.Http.body with
    | Ok items ->
      let body =
        String.concat "\n" (List.map Xquery.Value.item_to_string items) ^ "\n"
      in
      Http.write_response fd ~status:200
        ~headers:(std_headers t ~request_id:job.jid [ ("Content-Type", "text/plain") ])
        ~keep_alive:ka ~buf:conn.cbuf ~body ()
    | Error e ->
      let status, code, message, headers = http_of_error e in
      fail ~headers (status, code, message))
  | _ -> fail (405, "method-not-allowed", "unsupported method for this store route")

(* Serve one admitted job, then recycle or close the connection. Catches
   its own failures into a 500. The one exception deliberately let
   through is Fault.Crashed — that is the injected worker death the
   supervisor test needs to be real (the connection closes first so the
   client sees a reset, not a hang). A short or failed response write
   forces the connection closed regardless of keep-alive: its stream is
   truncated mid-response and cannot be recycled. *)
let handle_client t (job : job) conn =
  let fd = conn.cfd in
  let ka = job.jka && not (Atomic.get t.is_draining) in
  let wrote_ok =
    try
     match (parse_deadline_ms job.jreq, parse_engine t job.jreq) with
     | Error m, _ | _, Error m ->
       respond_error t fd ~request_id:job.jid ~status:400 ~keep_alive:ka ~buf:conn.cbuf
         ~code:"bad-request" ~message:m ()
     | Ok client_deadline, Ok engine -> (
       (* The deadline the client asked for covers queue wait: a
          request that spent its whole budget queued answers 504
          without burning a generation. Drain tightens further. *)
       let deadline =
         let base =
           match client_deadline with
           | Some _ as d -> d
           | None -> t.config.default_deadline_s
         in
         let base = Option.map (fun d -> d -. (Clock.now () -. job.jarrival)) base in
         let drain_ns = Atomic.get t.drain_deadline_ns in
         if drain_ns = 0 then base
         else
           let remaining = Clock.s_of_ns (drain_ns - Clock.now_ns ()) in
           Some (match base with None -> remaining | Some d -> Float.min d remaining)
       in
       match deadline with
       | Some d when d <= 0. ->
         respond_error t fd ~request_id:job.jid ~status:504 ~keep_alive:ka ~buf:conn.cbuf
           ~code:"resource:deadline" ~message:"deadline expired while queued" ()
       | _ -> (
         match (store_tier t, store_path job.jreq.Http.path) with
         | Some tier, Some op ->
           (* Store traffic is served by the front process even when
              generation is sharded: the store (or its replica
              coordinator) is local state. *)
           handle_store t job conn ~ka tier op
         | _ -> (
         match t.cluster with
         | Some cluster ->
           (* Sharded: forward the raw body — the routing key is its
              content, exactly what the shard's caches key on. *)
           let deadline_ms =
             match deadline with
             | None -> 0
             | Some d -> max 1 (int_of_float (Float.ceil (d *. 1000.)))
           in
           let status, headers, body =
             Shard.generate cluster ~id:job.jid
               ~engine:(Docgen.engine_name engine) ~level:job.jlevel ~deadline_ms
               ~body:job.jreq.Http.body
           in
           if job.jlevel = Docgen.Spec.Skeleton && status = 200 then
             Metrics.incr_skeletons t.metrics;
           Http.write_response fd ~status
             ~headers:(std_headers t ~request_id:job.jid headers)
             ~keep_alive:ka ~buf:conn.cbuf ~body ()
         | None -> (
           let sreq =
             service_request t ~engine ?deadline ~level:job.jlevel ~id:job.jid
               job.jreq.Http.body
           in
           let resp = Service.run t.svc sreq in
           match resp.Service.result with
           | Ok out ->
             if job.jlevel = Docgen.Spec.Skeleton then Metrics.incr_skeletons t.metrics;
             let headers =
               std_headers t ~request_id:job.jid
                 (("Content-Type", "application/xml")
                 :: ("X-Engine", Docgen.engine_name out.Service.engine_used)
                 ::
                 (if job.jlevel = Docgen.Spec.Skeleton then
                    [ ("X-Degraded", "skeleton") ]
                  else [])
                 @
                 match out.Service.problems with
                 | [] -> []
                 | ps -> [ ("X-Problems", string_of_int (List.length ps)) ])
             in
             Http.write_response fd ~status:200 ~headers ~keep_alive:ka ~buf:conn.cbuf
               ~body:out.Service.document ()
           | Error e ->
             let status, code, message, headers = http_of_error e in
             respond_error t fd ~request_id:job.jid ~status ~headers ~keep_alive:ka
               ~buf:conn.cbuf ~code ~message ()))))
    with
    | Fault.Crashed _ as e ->
      close_conn t conn;
      raise e
    | e ->
      respond_error t fd ~request_id:job.jid ~status:500 ~keep_alive:ka ~buf:conn.cbuf
        ~code:"internal" ~message:(Printexc.to_string e) ()
  in
  finish_conn t conn ~ka:(ka && wrote_ok)

let handle_job t (job : job) =
  (match t.config.fault with
  | Some f when Fault.fires f Fault.Crash ~key:job.jid ~attempt:0 ->
    (match job.jconn with Some conn -> close_conn t conn | None -> ());
    raise (Fault.Crashed ("injected worker crash on " ^ job.jid))
  | _ -> ());
  match job.jconn with
  | None -> handle_refresh t job
  | Some conn -> handle_client t job conn

let rec worker_loop t =
  match Fair_queue.pop t.queue with
  | None -> ()
  | Some job ->
    Atomic.incr t.busy;
    let t0 = Clock.now () in
    let result =
      try
        handle_job t job;
        None
      with e -> Some e
    in
    let t1 = Clock.now () in
    Atomic.decr t.busy;
    Metrics.note_completion t.metrics ~now:t1;
    Option.iter (fun b -> Brownout.observe_service_time b (t1 -. t0)) t.brownout;
    (match result with
    | None -> ()
    | Some (Fault.Crashed _ as e) -> raise e
    | Some _ -> () (* handle_job already answered 500; keep serving *));
    worker_loop t

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let spawn_worker t slot =
  Atomic.set slot.finished false;
  Atomic.set slot.crashed false;
  Atomic.set slot.retired false;
  slot.domain <-
    Some
      (Domain.spawn (fun () ->
           (try worker_loop t with _ -> Atomic.set slot.crashed true);
           Atomic.set slot.finished true))

(* Poll the slots: join domains that have terminated, respawn crashed
   ones (unless the queue is closed — drain wants workers gone). The
   finished flag is the worker's last write, so Domain.join here returns
   promptly. *)
let supervisor_loop t =
  let all_retired () = Array.for_all (fun s -> Atomic.get s.retired) t.slots in
  while not ((Atomic.get t.stop_supervisor && all_retired ()) || (Fair_queue.closed t.queue && all_retired ()))
  do
    Thread.delay 0.01;
    Array.iter
      (fun slot ->
        match slot.domain with
        | Some d when Atomic.get slot.finished ->
          Domain.join d;
          slot.domain <- None;
          if Atomic.get slot.crashed && not (Fair_queue.closed t.queue) then begin
            Metrics.incr_worker_restarts t.metrics;
            spawn_worker t slot
          end
          else Atomic.set slot.retired true
        | _ -> ())
      t.slots
  done

(* ------------------------------------------------------------------ *)
(* Admission and routing (the readers)                                 *)
(* ------------------------------------------------------------------ *)

let peer_key = function
  | Unix.ADDR_INET (addr, _) -> Unix.string_of_inet_addr addr
  | Unix.ADDR_UNIX path -> path

let fresh_id t req =
  match Http.header req "x-request-id" with
  | Some id when id <> "" -> id
  | _ -> Printf.sprintf "r%d" (Atomic.fetch_and_add t.reqno 1)

(* The tenant key for fair queueing: the X-Tenant header when present,
   the peer address otherwise. *)
let tenant_key peer req =
  match Http.header req "x-tenant" with
  | Some v when String.trim v <> "" -> String.trim v
  | _ -> peer

(* Try to answer from the result cache past freshness (stale-while-
   revalidate). Returns [Some write_ok] when the response was written
   ([write_ok] false = truncated, the caller must close); also enqueues
   a low-priority background refresh for the entry, unless one was
   claimed recently or the queue has no room (the stale answer stands
   either way). *)
let try_serve_stale t conn ~ka ~id ~tenant (req : Http.request) =
  match parse_engine t req with
  | Error _ -> None (* the worker path owns the 400 *)
  | Ok engine -> (
    let sreq = service_request t ~engine ~id req.Http.body in
    match Service.lookup_result t.svc sreq with
    | None -> None
    | Some (out, age_s) ->
      Metrics.incr_stale_served t.metrics;
      Metrics.note_tenant t.metrics ~tenant ~outcome:`Served;
      let headers =
        std_headers t ~request_id:id
          [
            ("Content-Type", "application/xml");
            ("X-Engine", Docgen.engine_name out.Service.engine_used);
            ("X-Degraded", "stale");
            ("Age", string_of_int (max 0 (int_of_float age_s)));
            ("Warning", "110 - \"Response is Stale\"");
          ]
      in
      let wok =
        Http.write_response conn.cfd ~status:200 ~headers ~keep_alive:ka ~buf:conn.cbuf
          ~body:out.Service.document ()
      in
      if Service.claim_refresh t.svc sreq then begin
        let refresh =
          {
            jconn = None;
            jka = false;
            jreq = req;
            jid = id ^ ".refresh";
            jarrival = Clock.now ();
            jtenant = refresh_tenant;
            jlevel = Docgen.Spec.Full;
          }
        in
        match Fair_queue.push t.queue ~tenant:refresh_tenant ~weight:0.25 refresh with
        | `Accepted -> Metrics.incr_refreshes t.metrics
        | `Shed _ -> ()
      end;
      Some wok)

(* Capture an admitted request into the recorder ring: exactly the
   traffic that cost a queue slot, with the client's own deadline, so
   replay reproduces the admitted workload. *)
let record_admitted t (req : Http.request) ~tenant =
  match t.config.recorder with
  | None -> ()
  | Some r ->
    Metrics.incr_recorded t.metrics;
    let deadline_ms =
      match Http.header req "x-deadline-ms" with
      | Some v -> (
        match float_of_string_opt (String.trim v) with
        | Some ms when ms > 0. -> int_of_float ms
        | _ -> 0)
      | None -> 0
    in
    Recorder.record r
      (Recorder.entry ~meth:req.Http.meth ~path:req.Http.path ~tenant ~deadline_ms
         ~body:req.Http.body ())

(* Store routes. Document reads are answered inline on the reader (one
   pread plus a CRC check); writes and queries go through the same
   admission path as /generate — drain refusal, rate limiting, critical
   brownout shed, fair-queue bulkheads, recorder capture — so every
   governance layer sees ingest traffic too. *)
let route_store t conn ~ka (req : Http.request) op =
  let fd = conn.cfd in
  let id = fresh_id t req in
  let refuse ~status ?(headers = []) ~code ~message () =
    let wok =
      respond_error t fd ~request_id:id ~status ~headers ~keep_alive:ka ~buf:conn.cbuf
        ~code ~message ()
    in
    finish_conn t conn ~ka:(ka && wok)
  in
  match (store_tier t, op, req.Http.meth) with
  | None, _, _ ->
    refuse ~status:503 ~code:"no-store"
      ~message:"no collection store is configured (start with --store DIR)" ()
  | Some tier, `Doc (collection, doc), "GET" -> (
    match tier_get tier ~collection ~doc with
    | Ok (snapshot, hash) ->
      let wok =
        Http.write_response fd ~status:200
          ~headers:
            (std_headers t ~request_id:id
               [ ("Content-Type", "application/xml"); ("X-Doc-Hash", hash) ])
          ~keep_alive:ka ~buf:conn.cbuf ~body:snapshot ()
      in
      finish_conn t conn ~ka:(ka && wok)
    | Error e ->
      let ((status, code, message) : int * string * string) = store_error_response e in
      if status = 503 then begin
        Metrics.incr_store_refused t.metrics;
        refuse ~status ~headers:(retry_after_derived t) ~code ~message ()
      end
      else refuse ~status ~code ~message ())
  | Some _, `Doc _, ("PUT" | "DELETE") | Some _, `Query _, "POST" ->
    let tenant = tenant_key conn.cpeer req in
    if Atomic.get t.is_draining then begin
      Metrics.incr_shed t.metrics;
      ignore
        (respond_error t fd ~request_id:id ~status:503 ~headers:(retry_after 1.)
           ~buf:conn.cbuf ~code:"draining" ~message:"server is draining" ());
      close_conn t conn
    end
    else if not (Token_bucket.admit t.bucket ~key:conn.cpeer ~now:(Clock.now ())) then begin
      Metrics.incr_rate_limited t.metrics;
      refuse ~status:429 ~headers:(retry_after_derived t) ~code:"rate-limited"
        ~message:(Printf.sprintf "client %s exceeds %.1f requests/s" conn.cpeer t.config.rate)
        ()
    end
    else if mode t = Brownout.Critical then begin
      (* Critical brownout sheds ingest like generation: durable writes
         are exactly the deferrable kind of work. *)
      Metrics.incr_shed t.metrics;
      Metrics.note_tenant t.metrics ~tenant ~outcome:`Shed;
      refuse ~status:503 ~headers:(retry_after_derived t) ~code:"overloaded"
        ~message:"service is in critical brownout; store writes are shed" ()
    end
    else begin
      let job =
        {
          jconn = Some conn;
          jka = ka;
          jreq = req;
          jid = id;
          jarrival = Clock.now ();
          jtenant = tenant;
          jlevel = Docgen.Spec.Full;
        }
      in
      match Fair_queue.push t.queue ~tenant job with
      | `Accepted ->
        Metrics.incr_accepted t.metrics;
        Metrics.note_tenant t.metrics ~tenant ~outcome:`Served;
        record_admitted t req ~tenant
      | `Shed `Tenant_full ->
        Metrics.incr_tenant_rejected t.metrics;
        Metrics.note_tenant t.metrics ~tenant ~outcome:`Shed;
        refuse ~status:429 ~headers:(retry_after_derived t) ~code:"tenant-overloaded"
          ~message:
            (Printf.sprintf "tenant %s has %d requests queued (cap %d)" tenant
               (Fair_queue.tenant_depth t.queue tenant)
               (min t.config.queue_cap t.config.tenant_cap))
          ()
      | `Shed `Queue_full ->
        Metrics.incr_shed t.metrics;
        Metrics.note_tenant t.metrics ~tenant ~outcome:`Shed;
        refuse ~status:503 ~headers:(retry_after_derived t) ~code:"overloaded"
          ~message:(Printf.sprintf "admission queue full (%d waiting)" t.config.queue_cap)
          ()
    end
  | Some _, `Doc _, _ ->
    refuse ~status:405 ~headers:[ ("Allow", "GET, PUT, DELETE") ] ~code:"method-not-allowed"
      ~message:"use GET, PUT or DELETE on /collections/:name/docs/:id" ()
  | Some _, `Query _, _ ->
    refuse ~status:405 ~headers:[ ("Allow", "POST") ] ~code:"method-not-allowed"
      ~message:"use POST on /collections/:name/query" ()

(* Route one parsed request. Inline answers (health, metrics, every
   refusal) are written here and the connection recycled or closed per
   [ka]; admitted generate jobs hand the connection to a worker. *)
let route t conn ~ka (req : Http.request) =
  let fd = conn.cfd in
  let inline_response ~status ?(headers = []) body =
    let wok = Http.write_response fd ~status ~headers ~keep_alive:ka ~buf:conn.cbuf ~body () in
    finish_conn t conn ~ka:(ka && wok)
  in
  match (req.Http.meth, req.Http.path) with
  | "GET", "/healthz" ->
    (* Liveness: answers 200 as long as the process serves at all,
       including during drain. *)
    inline_response ~status:200
      ~headers:(std_headers t ~request_id:(fresh_id t req) [ ("Content-Type", "text/plain") ])
      "ok\n"
  | "GET", "/readyz" ->
    let is_ready = ready t in
    inline_response
      ~status:(if is_ready then 200 else 503)
      ~headers:(std_headers t ~request_id:(fresh_id t req) [ ("Content-Type", "text/plain") ])
      (if is_ready then "ready\n" else if draining t then "draining\n" else "shedding\n")
  | "GET", "/metrics" ->
    inline_response ~status:200
      ~headers:
        (std_headers t ~request_id:(fresh_id t req)
           [ ("Content-Type", "text/plain; version=0.0.4") ])
      (metrics_body t)
  | "POST", "/generate" ->
    let id = fresh_id t req in
    let tenant = tenant_key conn.cpeer req in
    let m = mode t in
    if Atomic.get t.is_draining then begin
      Metrics.incr_shed t.metrics;
      ignore
        (respond_error t fd ~request_id:id ~status:503 ~headers:(retry_after 1.)
           ~buf:conn.cbuf ~code:"draining" ~message:"server is draining" ());
      close_conn t conn
    end
    else if not (Token_bucket.admit t.bucket ~key:conn.cpeer ~now:(Clock.now ())) then begin
      Metrics.incr_rate_limited t.metrics;
      (* Derived Retry-After (completion-rate EWMA over the queue), not
         the token bucket's flat refill constant: when the server is
         backed up, "come back in 1 s" just re-offers the flood. *)
      let wok =
        respond_error t fd ~request_id:id ~status:429 ~headers:(retry_after_derived t)
          ~keep_alive:ka ~buf:conn.cbuf ~code:"rate-limited"
          ~message:(Printf.sprintf "client %s exceeds %.1f requests/s" conn.cpeer t.config.rate)
          ()
      in
      finish_conn t conn ~ka:(ka && wok)
    end
    else begin
      match Service.quarantine_remaining t.svc ~template_xml:req.Http.body with
      | Some remaining ->
        (* Admission-time breaker check: the known-bad template never
           costs a queue slot or a worker. *)
        Metrics.incr_quarantine_429 t.metrics;
        let wok =
          respond_error t fd ~request_id:id ~status:429 ~headers:(retry_after remaining)
            ~keep_alive:ka ~buf:conn.cbuf ~code:"quarantined"
            ~message:(Printf.sprintf "template is quarantined for another %.1f s" remaining)
            ()
        in
        finish_conn t conn ~ka:(ka && wok)
      | None ->
        (* Brownout ladder. Degraded/Critical first try a stale cache
           hit — an instant useful answer plus a background refresh.
           On a miss, Degraded admits the job at Skeleton level (cheap
           but useful), Critical stops admitting generation work
           altogether. Normal is the PR-4 path unchanged. *)
        let stale_served =
          match m with
          | Brownout.Normal -> None
          | Brownout.Degraded | Brownout.Critical ->
            try_serve_stale t conn ~ka ~id ~tenant req
        in
        match stale_served with
        | Some wok -> finish_conn t conn ~ka:(ka && wok)
        | None when m = Brownout.Critical ->
          Metrics.incr_shed t.metrics;
          Metrics.note_tenant t.metrics ~tenant ~outcome:`Shed;
          let wok =
            respond_error t fd ~request_id:id ~status:503 ~headers:(retry_after_derived t)
              ~keep_alive:ka ~buf:conn.cbuf ~code:"overloaded"
              ~message:"service is in critical brownout; only cached results are served"
              ()
          in
          finish_conn t conn ~ka:(ka && wok)
        | None -> begin
          let jlevel =
            if m = Brownout.Degraded then Docgen.Spec.Skeleton else Docgen.Spec.Full
          in
          let job =
            {
              jconn = Some conn;
              jka = ka;
              jreq = req;
              jid = id;
              jarrival = Clock.now ();
              jtenant = tenant;
              jlevel;
            }
          in
          match Fair_queue.push t.queue ~tenant job with
          | `Accepted ->
            Metrics.incr_accepted t.metrics;
            Metrics.note_tenant t.metrics ~tenant ~outcome:`Served;
            record_admitted t req ~tenant
          | `Shed `Tenant_full ->
            (* The flooding tenant's own bulkhead is full: their 429,
               everyone else's queue space is untouched. *)
            Metrics.incr_tenant_rejected t.metrics;
            Metrics.note_tenant t.metrics ~tenant ~outcome:`Shed;
            let wok =
              respond_error t fd ~request_id:id ~status:429
                ~headers:(retry_after_derived t) ~keep_alive:ka ~buf:conn.cbuf
                ~code:"tenant-overloaded"
                ~message:
                  (Printf.sprintf "tenant %s has %d requests queued (cap %d)" tenant
                     (Fair_queue.tenant_depth t.queue tenant)
                     (min t.config.queue_cap t.config.tenant_cap))
                ()
            in
            finish_conn t conn ~ka:(ka && wok)
          | `Shed `Queue_full ->
            Metrics.incr_shed t.metrics;
            Metrics.note_tenant t.metrics ~tenant ~outcome:`Shed;
            let wok =
              respond_error t fd ~request_id:id ~status:503
                ~headers:(retry_after_derived t) ~keep_alive:ka ~buf:conn.cbuf
                ~code:"overloaded"
                ~message:
                  (Printf.sprintf "admission queue full (%d waiting)" t.config.queue_cap)
                ()
            in
            finish_conn t conn ~ka:(ka && wok)
        end
    end
  | _, "/healthz" | _, "/readyz" | _, "/metrics" ->
    inline_response ~status:405
      ~headers:(std_headers t ~request_id:(fresh_id t req) [])
      ""
  | _, "/generate" ->
    inline_response ~status:405
      ~headers:(std_headers t ~request_id:(fresh_id t req) [ ("Allow", "POST") ])
      ""
  | _, path when store_path path <> None ->
    route_store t conn ~ka req (Option.get (store_path path))
  | _ ->
    let wok =
      respond_error t fd ~request_id:(fresh_id t req) ~status:404 ~keep_alive:ka
        ~buf:conn.cbuf ~code:"not-found" ~message:(req.Http.meth ^ " " ^ req.Http.path) ()
    in
    finish_conn t conn ~ka:(ka && wok)

let handle_conn t conn =
  (* Whole-request budget: the per-recv socket timeout alone would let a
     drip-feed client (1 byte per just-under-timeout interval) hold this
     reader for timeout x bytes. Twice the io timeout is generous for a
     legitimate client on the small bodies templates are, and bounds how
     long one connection can occupy a reader. *)
  let deadline_ns = Clock.now_ns () + Clock.ns_of_s (2. *. t.config.io_timeout_s) in
  let pending = conn.cpending in
  conn.cpending <- "";
  match
    Http.read_request ~max_body_bytes:t.config.max_body_bytes ~deadline_ns ~pending
      ~buf:conn.cbuf conn.cfd
  with
  | exception Http.Bad_request m ->
    Metrics.incr_bad_requests t.metrics;
    ignore
      (respond_error t conn.cfd ~request_id:"-" ~status:400 ~code:"bad-request" ~message:m ());
    close_conn t conn
  | exception
      ( Http.Timeout
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ) ->
    (* The receive timeout or the whole-request deadline fired: a
       slow-loris or dead client. Cut it off with a clean 408 rather
       than leaving the connection hung. *)
    Metrics.incr_bad_requests t.metrics;
    ignore (Http.write_response conn.cfd ~status:408 ~body:"" ());
    close_conn t conn
  | exception Unix.Unix_error _ -> close_conn t conn
  | None -> close_conn t conn (* clean EOF: client done with the connection *)
  | Some (req, leftover) ->
    conn.cpending <- leftover;
    if conn.cserved > 0 then Metrics.incr_keepalive_reused t.metrics;
    let ka =
      t.config.keepalive
      && Http.wants_keep_alive req
      && conn.cserved + 1 < t.config.max_conn_requests
      && not (Atomic.get t.is_draining)
    in
    route t conn ~ka req

(* The reader pool: everything that touches a client socket before
   admission happens here, never on the acceptor. Sized past the worker
   count so a handful of slow clients (each bounded by the read deadline
   anyway) cannot starve health checks. *)
let reader_count config = max 2 config.max_inflight

let rec reader_loop t =
  match Admission.pop t.conns with
  | None -> ()
  | Some conn ->
    (try handle_conn t conn with _ -> close_conn t conn);
    reader_loop t

(* Trigger-once drain used by both SIGTERM and the public drain. *)
let rec drain_now t =
  if Atomic.compare_and_set t.drain_started false true then begin
    Atomic.set t.is_draining true;
    let deadline_ns = Clock.now_ns () + Clock.ns_of_s t.config.drain_deadline_s in
    Atomic.set t.drain_deadline_ns deadline_ns;
    (* Everything queued but unstarted is refused now — the client gets
       a crisp 503 instead of a response that would arrive after the
       process is gone. *)
    let pending = Fair_queue.flush t.queue in
    List.iter
      (fun job ->
        match job.jconn with
        | None -> () (* a background refresh owes nobody an answer *)
        | Some conn ->
          Metrics.incr_drained t.metrics;
          ignore
            (respond_error t conn.cfd ~request_id:job.jid ~status:503
               ~headers:(retry_after 1.) ~code:"draining"
               ~message:"server is draining; request was not started" ());
          close_conn t conn)
      pending;
    Fair_queue.close t.queue;
    (* In-flight work gets the drain window, enforced by the evaluator
       itself: overruns die with resource:deadline, answered as 504. The
       preempt deadline is sticky inside Service, so an attempt that was
       already dequeued but not yet registered when this runs is
       tightened at registration — no evaluation slips past the drain
       with an unbounded deadline. *)
    ignore (Service.preempt_inflight t.svc ~deadline_ns);
    (* Workers exit once the (closed) queue is empty; the supervisor
       joins and retires them, then exits itself. *)
    (match t.supervisor with Some th -> Thread.join th | None -> ());
    Atomic.set t.stop_supervisor true;
    (* Workers are gone: nothing races the final store checkpoint, so
       the manifest lands exactly on the acknowledged state. The scrub
       thread stops first for the same reason. *)
    Atomic.set t.stop_scrub true;
    (match t.scrubber with Some th -> Thread.join th | None -> ());
    t.scrubber <- None;
    (match t.config.store with
    | Some s -> ( match Store.checkpoint s with Ok () | Error _ -> ())
    | None -> ());
    (* The replicated cluster drains its backends (checkpoint + clean
       exit) the same way. *)
    (match t.config.repl with Some r -> Store.Replica.shutdown r | None -> ());
    Atomic.set t.stop_accept true;
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    (* Readers stayed up until here so /healthz and /readyz kept
       answering during the drain. Closing their queue lets them finish
       what they hold (generate is already refused with 503) and exit;
       each is bounded by the whole-request read deadline. *)
    Admission.close t.conns;
    List.iter Thread.join t.readers;
    t.readers <- [];
    (* Idle keep-alive connections get a clean close. *)
    Atomic.set t.stop_watcher true;
    idle_wake t;
    (match t.watcher with Some th -> Thread.join th | None -> ());
    t.watcher <- None;
    Backend.close_quiet (fst t.idle_wake);
    Backend.close_quiet (snd t.idle_wake);
    (match t.listen_fd with
    | Some fd ->
      t.listen_fd <- None;
      Backend.close_quiet fd
    | None -> ());
    (* The shard cluster (if any) drains last: in-flight forwards are
       done, so every backend exits as soon as it finishes its frame. *)
    (match t.cluster with Some c -> Shard.shutdown c | None -> ());
    Atomic.set t.is_stopped true
  end
  else await t

and await t = while not (Atomic.get t.is_stopped) do Thread.delay 0.01 done

let drain = drain_now

(* SIGHUP: zero-downtime reload. Sharded mode rolls the backends one at
   a time (fresh processes, cold caches, no dropped requests);
   single-process mode clears the compiled-artifact caches and closes
   every quarantine breaker in place. *)
let reload t =
  match t.cluster with
  | Some c -> Shard.rolling_restart c
  | None -> Service.reload t.svc

let accept_loop t fd =
  while not (Atomic.get t.stop_accept) do
    if Atomic.get t.sigterm && not (Atomic.get t.drain_started) then
      (* Drain on its own thread so the acceptor keeps answering
         health checks and shedding /generate while in-flight work
         finishes. *)
      ignore (Thread.create (fun () -> drain_now t) ());
    if Atomic.compare_and_set t.sighup true false then
      ignore (Thread.create (fun () -> reload t) ());
    match Unix.accept ~cloexec:true fd with
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error _ -> if Atomic.get t.stop_accept then () else Thread.delay 0.01
    | fd', addr ->
      (try
         Unix.setsockopt_float fd' Unix.SO_RCVTIMEO t.config.io_timeout_s;
         Unix.setsockopt_float fd' Unix.SO_SNDTIMEO t.config.io_timeout_s
       with Unix.Unix_error _ -> ());
      let conn =
        {
          cfd = fd';
          cpeer = peer_key addr;
          cbuf = Buffer_pool.checkout t.buffers;
          cpending = "";
          cserved = 0;
        }
      in
      (match Admission.push t.conns conn with
      | `Accepted -> ()
      | `Shed ->
        (* Every reader is held by a slow client and the backlog is
           full: refuse without reading a byte. The tiny response fits
           any socket buffer, so this write cannot block the acceptor. *)
        Metrics.incr_shed t.metrics;
        ignore
          (respond_error t fd' ~request_id:"-" ~status:503 ~headers:(retry_after 1.)
             ~code:"overloaded" ~message:"connection backlog full" ());
        close_conn t conn)
  done

let start t =
  (* A peer that disconnects before we answer — routine when overloaded
     clients time out and hang up — turns the response write into
     SIGPIPE, whose default action kills the process before any
     exception handler runs. Ignored, the write fails with EPIPE, which
     every write path here already swallows. *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string t.config.host, t.config.port));
  Unix.listen fd 128;
  (* The accept timeout doubles as the poll interval for the stop and
     SIGTERM flags. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.05 with Unix.Unix_error _ -> ());
  (match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> t.actual_port <- p
  | _ -> ());
  t.listen_fd <- Some fd;
  Array.iter (fun slot -> spawn_worker t slot) t.slots;
  t.readers <-
    List.init (reader_count t.config) (fun _ -> Thread.create (fun () -> reader_loop t) ());
  t.supervisor <- Some (Thread.create (fun () -> supervisor_loop t) ());
  if t.config.keepalive then
    t.watcher <- Some (Thread.create (fun () -> watcher_loop t) ());
  (* Online scrub: one incremental checksum pass over the live local
     store per cadence tick, quarantining whatever rotted in place.
     Replicated backends run their own scrubbers in-process. *)
  (match t.config.store with
  | Some store when t.config.scrub_interval_s > 0. ->
    t.scrubber <-
      Some
        (Thread.create
           (fun () ->
             while not (Atomic.get t.stop_scrub) do
               let deadline = Clock.now () +. t.config.scrub_interval_s in
               while (not (Atomic.get t.stop_scrub)) && Clock.now () < deadline do
                 Thread.delay 0.05
               done;
               if not (Atomic.get t.stop_scrub) then ignore (Store.scrub_pass store)
             done)
           ())
  | _ -> ());
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t fd) ())

let install_sigterm t =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set t.sigterm true))

let install_sighup t =
  if not Sys.win32 then
    Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> Atomic.set t.sighup true))

module Http = Http
module Token_bucket = Token_bucket
module Admission = Admission
module Metrics = Metrics
module Brownout = Brownout
module Fair_queue = Fair_queue
module Buffer_pool = Buffer_pool
module Router = Router
module Shard = Shard
module Composite = Composite
module Service_http = Service_http
module Frame = Frame
module Chaos = Chaos
module Breaker = Breaker
module Recorder = Recorder
module Store = Store
