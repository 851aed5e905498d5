(* The document-generation service: request in, response out, as fast as
   repeat traffic allows.

   Three content-hash-keyed LRU caches hold the artifacts that are
   expensive to rebuild per request — parsed templates, imported models,
   and Xquery.Engine.compile'd programs (the xq engine's dispatch core
   above all). One mutex guards all three: contention is negligible next
   to generation work, and the lock doubles as the happens-before edge
   that publishes a tree parsed by one domain to every other. Cached
   values are read-only by construction — the engines copy template
   nodes, never mutate them — so cross-domain sharing is safe. The one
   piece of node state written on the read path, the lazily built
   document-order numbering, is precomputed below before a tree enters
   the cache (and Node.renumber's atomic valid flag keeps even a lazy
   rebuild publication-safe), so queries over a shared tree never race.

   Batches fan out over Pool (work-stealing across OCaml 5 domains).
   Each request is error-isolated: parse failures, generation failures,
   blown deadlines, and stray exceptions all land in that request's
   response, never in its neighbours'.

   Requests are resource-governed. A request deadline is wired into the
   evaluator's own budget machinery (Xquery.Context.limits) so a runaway
   query is preempted mid-walk, not merely noticed at the next phase
   boundary; fuel / recursion-depth / node-allocation budgets from the
   config ride along in the same limits record. Failures get three
   layers of containment: declared-transient failures retry with
   exponential backoff, fast-evaluator faults degrade to one seed-
   evaluator re-run, and a template whose generation keeps failing is
   quarantined (content-hash circuit breaker) for a cooldown rather than
   allowed to burn budget on every batch. The Fault module injects all
   four failure modes deterministically for tests. *)

module Lru = Lru
module Pool = Pool
module Fault = Fault
module N = Xml_base.Node
module Spec = Docgen.Spec

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type template_source =
  | Template_xml of string (* parsed + whitespace-stripped, cached by content hash *)
  | Template_node of N.t (* pre-parsed; bypasses the cache *)

type model_source =
  | Model_xml of { metamodel : Awb.Metamodel.t; xml : string } (* imported, cached *)
  | Model_value of Awb.Model.t (* pre-built; bypasses the cache *)

type request = {
  id : string;
  template : template_source;
  model : model_source;
  engine : Docgen.engine;
  backend : Spec.query_backend option;
  deadline : float option; (* seconds from submission *)
  level : Spec.level; (* Full, or Skeleton under brownout *)
}

let request ?(engine = `Host) ?backend ?deadline ?(level = Spec.Full) ~id ~template
    ~model () =
  { id; template; model; engine; backend; deadline; level }

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type error =
  | Template_error of string
  | Model_error of string
  | Generation_failed of { code : string; message : string; location : string }
  | Resource_exhausted of { resource : Xquery.Errors.resource; message : string }
  | Deadline_exceeded of { elapsed_s : float; deadline_s : float }
  | Quarantined of { template : string; retry_after_s : float }
  | Internal_error of string

let error_to_string = function
  | Template_error m -> "template error: " ^ m
  | Model_error m -> "model error: " ^ m
  | Generation_failed { code; message; location } ->
    let code = if code = "" then "" else Printf.sprintf " [%s]" code in
    if location = "" then Printf.sprintf "generation failed%s: %s" code message
    else Printf.sprintf "generation failed%s at %s: %s" code location message
  | Resource_exhausted { resource; message } ->
    Printf.sprintf "%s: %s" (Xquery.Errors.resource_code resource) message
  | Deadline_exceeded { elapsed_s; deadline_s } ->
    Printf.sprintf "deadline exceeded: %.1f ms elapsed against a %.1f ms budget"
      (elapsed_s *. 1000.) (deadline_s *. 1000.)
  | Quarantined { template; retry_after_s } ->
    Printf.sprintf "template %s quarantined; retry in %.1f s" template retry_after_s
  | Internal_error m -> "internal error: " ^ m

type timings = {
  template_s : float;
  model_s : float;
  generate_s : float;
  serialize_s : float;
  total_s : float;
}

type output = {
  document : string;
  problems : string list;
  stats : Spec.stats;
  engine_used : Docgen.engine;
  timings : timings;
}

type response = { request_id : string; result : (output, error) result }

(* ------------------------------------------------------------------ *)
(* Configuration and state                                             *)
(* ------------------------------------------------------------------ *)

type config = {
  domains : int; (* default width of run_batch *)
  mode : Xquery.Engine.Exec_opts.mode;
      (* execution mode for XQuery-backed work: Fast (default) or Plan
         (compile-to-plan executor); Seed pins the reference algorithms.
         A fast-path fault still degrades the failing request to Seed. *)
  cache_capacity : int; (* entries per artifact cache; 0 disables caching *)
  default_deadline : float option; (* seconds; a per-request deadline wins *)
  fuel : int option; (* evaluator step budget per attempt *)
  max_depth : int option; (* user-function recursion depth *)
  max_nodes : int option; (* constructed-node budget per attempt *)
  retries : int; (* extra attempts for declared-transient failures *)
  backoff_s : float; (* base of the exponential retry backoff *)
  backoff_cap_s : float; (* ceiling of one backoff sleep, jitter included *)
  quarantine_after : int; (* consecutive failures that trip the breaker; 0 disables *)
  quarantine_cooldown_s : float; (* how long a tripped template stays out *)
  result_cache_cap : int;
      (* completed generations kept for stale-while-revalidate; 0 disables *)
  fault : Fault.config option; (* deterministic fault injection; None in production *)
}

let default_config =
  {
    domains = 1;
    mode = Xquery.Engine.Exec_opts.Fast;
    cache_capacity = 128;
    default_deadline = None;
    fuel = None;
    max_depth = None;
    max_nodes = None;
    retries = 2;
    backoff_s = 0.001;
    backoff_cap_s = 0.25;
    quarantine_after = 0;
    quarantine_cooldown_s = 30.;
    result_cache_cap = 0;
    fault = None;
  }

type counters = {
  requests : int;
  succeeded : int;
  failed : int;
  deadline_failures : int;
  resource_failures : int;
  retries : int;
  fast_fallbacks : int;
  quarantine_trips : int;
  quarantine_rejections : int;
  quarantine_releases : int;
  batches : int;
  steals : int;
  template_hits : int;
  template_misses : int;
  model_hits : int;
  model_misses : int;
  query_hits : int;
  query_misses : int;
  stylesheet_hits : int;
  stylesheet_misses : int;
  result_hits : int;
  result_misses : int;
  result_stores : int;
  plan_compiles : int;
  plan_hits : int;
  plan_execs : int;
  plan_parallel_fragments : int;
  evictions : int;
  opt_lets_eliminated : int;
  opt_constants_folded : int;
  opt_count_rewrites : int;
  opt_paths_hoisted : int;
  template_s : float;
  model_s : float;
  generate_s : float;
  serialize_s : float;
}

type phase_totals = {
  mutable acc_template_s : float;
  mutable acc_model_s : float;
  mutable acc_generate_s : float;
  mutable acc_serialize_s : float;
}

(* Per-template circuit-breaker state, keyed by template content hash.
   [streak] counts consecutive generation failures; once it reaches
   [quarantine_after] the template sits out until the monotonic instant
   [until]. All access is under the service mutex. *)
type breaker = { mutable streak : int; mutable until : float }

(* One stale-while-revalidate cache entry: a finished Full-level
   generation, with the monotonic instant it was stored and the last
   time a background refresh was claimed for it (so a storm of stale
   hits enqueues one refresh, not thousands). *)
type cached_result = {
  output : output;
  stored_ns : int;
  mutable refresh_claimed_ns : int;
}

type t = {
  config : config;
  mutex : Mutex.t;
  templates : N.t Lru.t;
  models : Awb.Model.t Lru.t;
  queries : Xquery.Engine.compiled Lru.t;
  stylesheets : Xslt.stylesheet Lru.t;
  results : cached_result Lru.t;
  mutable model_digest : (string * string) option;
      (* the last [Model_xml] export digested, and its digest: a server's
         configured model is the same string on every request *)
  mutable value_model_keys : (Awb.Model.t * string) list;
      (* identity keys for pre-built Model_value models (no content to
         hash); bounded — beyond the cap such requests are just not
         result-cached *)
  quarantine : (string, breaker) Hashtbl.t;
  inflight : (int, Xquery.Context.limits) Hashtbl.t;
      (* the limits record of every generation attempt currently running,
         keyed by a fresh token; lets [preempt_inflight] (the server's
         graceful drain) tighten deadlines on work already in progress *)
  mutable inflight_next : int;
  mutable preempt_ns : int;
      (* sticky preemption deadline, 0 = none. Once [preempt_inflight]
         has run, any attempt registered afterwards is tightened to this
         at registration — without it, an attempt racing the preempt
         sweep (popped from a queue before drain, registered after)
         would keep an unbounded deadline and stall the drain. *)
  mutable requests : int;
  mutable succeeded : int;
  mutable failed : int;
  mutable deadline_failures : int;
  mutable resource_failures : int;
  mutable retries : int;
  mutable fast_fallbacks : int;
  mutable quarantine_trips : int;
  mutable quarantine_rejections : int;
  mutable quarantine_releases : int;
  mutable result_hits : int;
  mutable result_misses : int;
  mutable result_stores : int;
  mutable plan_compiles : int;
  mutable plan_hits : int;
  mutable plan_execs : int;
  mutable plan_parallel_fragments : int;
  mutable batches : int;
  mutable steals : int;
  totals : phase_totals;
  opt_totals : Xquery.Optimizer.stats;
      (* optimizer pass hits, accumulated on query-cache misses: what the
         rewriter actually did to the queries this service compiled *)
}

let create ?(config = default_config) () =
  {
    config;
    mutex = Mutex.create ();
    templates = Lru.create ~capacity:config.cache_capacity;
    models = Lru.create ~capacity:config.cache_capacity;
    queries = Lru.create ~capacity:config.cache_capacity;
    stylesheets = Lru.create ~capacity:config.cache_capacity;
    results = Lru.create ~capacity:config.result_cache_cap;
    model_digest = None;
    value_model_keys = [];
    quarantine = Hashtbl.create 16;
    inflight = Hashtbl.create 16;
    inflight_next = 0;
    preempt_ns = 0;
    requests = 0;
    succeeded = 0;
    failed = 0;
    deadline_failures = 0;
    resource_failures = 0;
    retries = 0;
    fast_fallbacks = 0;
    quarantine_trips = 0;
    quarantine_rejections = 0;
    quarantine_releases = 0;
    result_hits = 0;
    result_misses = 0;
    result_stores = 0;
    plan_compiles = 0;
    plan_hits = 0;
    plan_execs = 0;
    plan_parallel_fragments = 0;
    batches = 0;
    steals = 0;
    totals =
      { acc_template_s = 0.; acc_model_s = 0.; acc_generate_s = 0.; acc_serialize_s = 0. };
    opt_totals = Xquery.Optimizer.new_stats ();
  }

let config t = t.config

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Find-or-compute. The computation runs OUTSIDE the lock so a cold
   parse on one domain never serializes the others; the worst case is
   two domains computing the same artifact once, last add wins. *)
let cached t lru key compute =
  match with_lock t (fun () -> Lru.find lru key) with
  | Some v -> v
  | None ->
    let v = compute () in
    with_lock t (fun () -> Lru.add lru key v);
    v

let digest s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Cached artifact access                                              *)
(* ------------------------------------------------------------------ *)

let template_of_source t = function
  | Template_node n -> n
  | Template_xml xml ->
    cached t t.templates ("tpl:" ^ digest xml) (fun () ->
        let tpl = Xml_base.Parser.strip_whitespace (Xml_base.Parser.parse_string xml) in
        (* Number the tree before it is published: every domain that
           queries the shared template then finds the document-order
           cache warm and the read path stays write-free. *)
        N.prepare_document_order tpl;
        tpl)

(* One-slot memo on the export string's physical identity; the digest
   itself is computed outside the lock. *)
let model_digest t xml =
  match with_lock t (fun () -> t.model_digest) with
  | Some (x, d) when x == xml -> d
  | _ ->
    let d = digest xml in
    with_lock t (fun () -> t.model_digest <- Some (xml, d));
    d

let model_of_source t = function
  | Model_value m -> m
  | Model_xml { metamodel; xml } ->
    cached t t.models
      (Printf.sprintf "model:%s:%s" (Awb.Metamodel.name metamodel) (model_digest t xml))
      (fun () -> Awb.Xml_io.import_string metamodel xml)

(* Fold one freshly compiled program's optimizer stats into the service
   totals. Called from inside a [cached] compute, so no lock is held. *)
let record_opt_stats t (compiled : Xquery.Engine.compiled) =
  match compiled.Xquery.Engine.opt_stats with
  | None -> ()
  | Some (s : Xquery.Optimizer.stats) ->
    with_lock t (fun () ->
        let o = t.opt_totals in
        o.Xquery.Optimizer.lets_eliminated <-
          o.Xquery.Optimizer.lets_eliminated + s.Xquery.Optimizer.lets_eliminated;
        o.Xquery.Optimizer.traces_eliminated <-
          o.Xquery.Optimizer.traces_eliminated + s.Xquery.Optimizer.traces_eliminated;
        o.Xquery.Optimizer.constants_folded <-
          o.Xquery.Optimizer.constants_folded + s.Xquery.Optimizer.constants_folded;
        o.Xquery.Optimizer.count_cmp_rewrites <-
          o.Xquery.Optimizer.count_cmp_rewrites + s.Xquery.Optimizer.count_cmp_rewrites;
        o.Xquery.Optimizer.paths_hoisted <-
          o.Xquery.Optimizer.paths_hoisted + s.Xquery.Optimizer.paths_hoisted)

let compile_query t src =
  try
    Ok
      (cached t t.queries ("xq:" ^ digest src) (fun () ->
           let c = Xquery.Engine.compile src in
           record_opt_stats t c;
           c))
  with Xquery.Errors.Error _ as e -> Error (Printexc.to_string e)

(* The xq engine's dispatch core, compiled once and cached like any
   other query artifact. *)
let xq_core t =
  cached t t.queries
    ("xq:" ^ digest Docgen.Xq_engine.query_source)
    (fun () ->
      let c = Docgen.Xq_engine.compile () in
      record_opt_stats t c;
      c)

let clear_caches t =
  with_lock t (fun () ->
      Lru.clear t.templates;
      Lru.clear t.models;
      Lru.clear t.queries;
      Lru.clear t.stylesheets;
      Lru.clear t.results)

(* Zero-downtime reload: drop every compiled artifact and close every
   quarantine breaker, so the next request re-parses templates from
   their current sources with a clean failure history. The front end
   wires this to SIGHUP in single-process mode; sharded mode restarts
   backend processes instead, which is this plus a fresh heap. *)
let reload t =
  clear_caches t;
  with_lock t (fun () -> Hashtbl.reset t.quarantine)

(* Worker pool for the plan executor's data-parallel fragments: wired up
   only when the service owns more than one domain and the work runs in
   Plan mode. The executor decides per-fragment whether the loop is safe
   and big enough to split; each invocation here is one such fragment. *)
let plan_pool t ~mode =
  if t.config.domains > 1 && mode = Xquery.Engine.Exec_opts.Plan then
    Some
      (fun (tasks : (unit -> unit) array) ->
        with_lock t (fun () ->
            t.plan_parallel_fragments <- t.plan_parallel_fragments + 1);
        ignore (Pool.run ~domains:t.config.domains tasks))
  else None

(* Plan-cache accounting for one Plan-mode run of [compiled]: the plan is
   memoized on the compiled record, so "already lowered" is a cache hit
   in the same sense as the artifact LRUs. *)
let note_plan_run t compiled =
  with_lock t (fun () ->
      if Xquery.Engine.plan_cached compiled then t.plan_hits <- t.plan_hits + 1
      else t.plan_compiles <- t.plan_compiles + 1;
      t.plan_execs <- t.plan_execs + 1)

(* ------------------------------------------------------------------ *)
(* Stale-while-revalidate result cache                                 *)
(* ------------------------------------------------------------------ *)

(* A finished generation is identified by everything that determines its
   bytes: template content, model content, engine, and query backend.
   Deadlines and budgets shape *whether* a run finishes, not what a
   finished run produced, so they stay out of the key. *)

let max_value_model_keys = 32

let value_model_key t (m : Awb.Model.t) =
  (* Caller holds the lock. Physical identity: a pre-built model has no
     serialized content to hash, but the same value resubmitted is the
     same model. *)
  match List.find_opt (fun (m', _) -> m' == m) t.value_model_keys with
  | Some (_, k) -> Some k
  | None ->
    if List.length t.value_model_keys >= max_value_model_keys then None
    else begin
      let k = Printf.sprintf "mv:%d" (List.length t.value_model_keys) in
      t.value_model_keys <- (m, k) :: t.value_model_keys;
      Some k
    end

let result_key t (req : request) =
  (* Caller holds the lock (for the Model_value identity registry). *)
  if t.config.result_cache_cap <= 0 then None
  else
    match req.template with
    | Template_node _ -> None (* no content hash; mirrors the quarantine rule *)
    | Template_xml xml -> (
      let model_key =
        match req.model with
        | Model_xml { metamodel; xml } ->
          Some (Printf.sprintf "mx:%s:%s" (Awb.Metamodel.name metamodel) (digest xml))
        | Model_value m -> value_model_key t m
      in
      match model_key with
      | None -> None
      | Some mk ->
        let backend =
          match req.backend with
          | None -> "-"
          | Some Spec.Native_queries -> "native"
          | Some Spec.Xquery_queries -> "xquery"
        in
        Some
          (Printf.sprintf "res:%s:%s:%s:%s" (digest xml) mk
             (Docgen.engine_name req.engine) backend))

(* A stale hit: the cached output plus its age in seconds. Counted
   against the service's own hit/miss counters, not the LRU's. *)
let lookup_result t (req : request) =
  with_lock t (fun () ->
      match result_key t req with
      | None -> None
      | Some key -> (
        match Lru.find t.results key with
        | Some e ->
          t.result_hits <- t.result_hits + 1;
          Some (e.output, Clock.s_of_ns (Clock.now_ns () - e.stored_ns))
        | None ->
          t.result_misses <- t.result_misses + 1;
          None))

(* How long one background-refresh claim suppresses further claims for
   the same entry. A successful refresh replaces the entry (resetting
   the claim); a refresh that dies just lets the claim lapse. *)
let refresh_claim_cooldown_s = 10.

(* First-claim-wins dedup for background refreshes: true means the
   caller should enqueue a refresh for this request, false means one is
   already on its way (or there is nothing cached to refresh). *)
let claim_refresh t (req : request) =
  with_lock t (fun () ->
      match result_key t req with
      | None -> false
      | Some key -> (
        match Lru.find t.results key with
        | None -> false
        | Some e ->
          let now_ns = Clock.now_ns () in
          if now_ns - e.refresh_claimed_ns > Clock.ns_of_s refresh_claim_cooldown_s
          then begin
            e.refresh_claimed_ns <- now_ns;
            true
          end
          else false))

(* Only completed Full-level generations enter the cache: a skeleton is
   an emergency answer, never something to re-serve as "the" document. *)
let store_result t (req : request) (out : output) =
  if req.level = Spec.Full then
    with_lock t (fun () ->
        match result_key t req with
        | None -> ()
        | Some key ->
          t.result_stores <- t.result_stores + 1;
          Lru.add t.results key
            { output = out; stored_ns = Clock.now_ns (); refresh_claimed_ns = 0 })

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

exception Fail of error

(* Monotonic seconds. Deadlines measured against the wall clock jump
   with NTP slews; these never go backwards. *)
let now () = Clock.now ()

(* Engines never raise budget exceptions across their API: a trip comes
   back as a <generation-failed> document whose <code> child carries the
   resource:* taxonomy. Rebuild the structured error from it here. *)
let generation_failure ~t0 ~deadline (result : Spec.result) =
  if N.is_element result.Spec.document && N.name result.Spec.document = "generation-failed"
  then
    let get child =
      match N.child_element result.Spec.document child with
      | Some c -> N.string_value c
      | None -> ""
    in
    let code = get "code" in
    match Xquery.Errors.resource_of_code code with
    | Some Xquery.Errors.Deadline ->
      Some
        (Deadline_exceeded
           { elapsed_s = now () -. t0; deadline_s = Option.value deadline ~default:0. })
    | Some resource -> Some (Resource_exhausted { resource; message = get "message" })
    | None ->
      Some (Generation_failed { code; message = get "message"; location = get "location" })
  else None

(* ------------------------------------------------------------------ *)
(* Quarantine (per-template circuit breaker)                           *)
(* ------------------------------------------------------------------ *)

(* Quarantine is content-hash keyed, so it applies to Template_xml
   sources (the cached, repeat-traffic case the breaker exists for);
   pre-parsed Template_node requests bypass it like they bypass the
   cache. *)
let quarantine_key = function
  | Template_xml xml -> Some (digest xml)
  | Template_node _ -> None

(* Gate a request on its template's breaker. Raises [Fail (Quarantined ...)]
   while the cooldown runs; the first request after the cooldown closes
   the breaker again (counted as a release) and proceeds. *)
let quarantine_check t key =
  match key with
  | None -> ()
  | Some key ->
    if t.config.quarantine_after > 0 then
      with_lock t (fun () ->
          match Hashtbl.find_opt t.quarantine key with
          | Some b when b.streak >= t.config.quarantine_after ->
            let remaining = b.until -. now () in
            if remaining > 0. then begin
              t.quarantine_rejections <- t.quarantine_rejections + 1;
              raise (Fail (Quarantined { template = key; retry_after_s = remaining }))
            end
            else begin
              b.streak <- 0;
              t.quarantine_releases <- t.quarantine_releases + 1
            end
          | _ -> ())

(* Front-end pre-check: how long an XML template's breaker stays open,
   without running anything. Lets the HTTP server answer 429 at
   admission time, before the request ever costs a queue slot or a
   worker. A rejection here is counted like one from the normal path. *)
let quarantine_remaining t ~template_xml =
  if t.config.quarantine_after <= 0 then None
  else
    let key = digest template_xml in
    with_lock t (fun () ->
        match Hashtbl.find_opt t.quarantine key with
        | Some b when b.streak >= t.config.quarantine_after ->
          let remaining = b.until -. now () in
          if remaining > 0. then begin
            t.quarantine_rejections <- t.quarantine_rejections + 1;
            Some remaining
          end
          else None
        | _ -> None)

(* Generation-phase failures advance the breaker; a success closes it.
   Input-side failures (bad template XML, bad model) don't count — they
   never reach generation, so they say nothing about the template's
   behaviour under budget. *)
let quarantine_note t key result =
  match key with
  | None -> ()
  | Some key ->
    if t.config.quarantine_after > 0 then
      with_lock t (fun () ->
          let counts =
            match result with
            | Ok _ | Error (Template_error _ | Model_error _ | Quarantined _) -> false
            | Error
                ( Generation_failed _ | Resource_exhausted _ | Deadline_exceeded _
                | Internal_error _ ) ->
              true
          in
          match (Hashtbl.find_opt t.quarantine key, counts, result) with
          | None, false, _ -> ()
          | Some b, false, Ok _ -> b.streak <- 0
          | Some _, false, _ -> ()
          | entry, true, _ ->
            let b =
              match entry with
              | Some b -> b
              | None ->
                let b = { streak = 0; until = 0. } in
                Hashtbl.replace t.quarantine key b;
                b
            in
            b.streak <- b.streak + 1;
            if b.streak = t.config.quarantine_after then begin
              b.until <- now () +. t.config.quarantine_cooldown_s;
              t.quarantine_trips <- t.quarantine_trips + 1
            end)

(* One request, start-to-finish, on whichever domain picked it up. [t0]
   is the (monotonic) submission time the deadline counts from. The
   deadline is enforced twice over: checks at every phase boundary here,
   and — the part that matters for runaway queries — the same absolute
   instant wired into the evaluator's own limits, so generation is
   preempted mid-walk by the amortized budget check. *)
let execute t ~t0 (req : request) : response * timings =
  let deadline =
    match req.deadline with Some _ as d -> d | None -> t.config.default_deadline
  in
  let check_deadline () =
    match deadline with
    | Some d ->
      let elapsed_s = now () -. t0 in
      if elapsed_s > d then raise (Fail (Deadline_exceeded { elapsed_s; deadline_s = d }))
    | None -> ()
  in
  (* Fault-injection selections: pure functions of (seed, request id),
     fixed before the attempt loop so a replay is bit-for-bit identical
     no matter which domain runs the request. *)
  let inj kind =
    match t.config.fault with
    | Some f -> Fault.fires f kind ~key:req.id ~attempt:0
    | None -> false
  in
  let inj_deadline = inj Fault.Deadline
  and inj_fuel = inj Fault.Fuel
  and inj_transient = inj Fault.Transient
  and inj_fast = inj Fault.Fast_path in
  let transient_attempts =
    match t.config.fault with Some f -> f.Fault.transient_attempts | None -> 0
  in
  (* Fresh budgets per attempt — a retry must not inherit the fuel its
     predecessor burned. The deadline stays absolute across attempts:
     the caller's patience does not reset with ours. Always a concrete
     record (unlimited fields when unconfigured): every attempt is
     registered in the in-flight table so [preempt_inflight] can reach
     it, budgets or not. *)
  let limits_for () =
    let deadline_ns =
      if inj_deadline then Some (Clock.now_ns ()) (* already behind us *)
      else Option.map (fun d -> int_of_float ((t0 +. d) *. 1e9)) deadline
    in
    let fuel = if inj_fuel then Some 64 else t.config.fuel in
    Xquery.Context.make_limits ?fuel ?max_depth:t.config.max_depth
      ?max_nodes:t.config.max_nodes ?deadline_ns ()
  in
  let qkey = quarantine_key req.template in
  let tpl_s = ref 0. and model_s = ref 0. and gen_s = ref 0. and ser_s = ref 0. in
  let timed cell mk_error f =
    check_deadline ();
    let s = now () in
    let v =
      try f ()
      with
      | Fail _ as e -> raise e
      | Xml_base.Parser.Parse_error { line; col; message } ->
        raise (Fail (mk_error (Printf.sprintf "line %d col %d: %s" line col message)))
      | Failure m | Invalid_argument m -> raise (Fail (mk_error m))
    in
    cell := !cell +. (now () -. s);
    v
  in
  let started = now () in
  let result =
    try
      quarantine_check t qkey;
      let template =
        timed tpl_s (fun m -> Template_error m) (fun () -> template_of_source t req.template)
      in
      let model =
        timed model_s (fun m -> Model_error m) (fun () -> model_of_source t req.model)
      in
      let gen =
        timed gen_s
          (fun m -> Generation_failed { code = ""; message = m; location = "" })
          (fun () ->
            let run_once ~fast_eval =
              let limits = limits_for () in
              let token =
                with_lock t (fun () ->
                    if
                      t.preempt_ns <> 0
                      && limits.Xquery.Context.deadline_ns > t.preempt_ns
                    then limits.Xquery.Context.deadline_ns <- t.preempt_ns;
                    let id = t.inflight_next in
                    t.inflight_next <- id + 1;
                    Hashtbl.replace t.inflight id limits;
                    id)
              in
              (* The seed re-run pins Seed; otherwise the config mode
                 decides (Fast by default, Plan for the compiled
                 executor). *)
              let mode =
                match fast_eval with
                | Some false -> Xquery.Engine.Exec_opts.Seed
                | Some true -> Xquery.Engine.Exec_opts.Fast
                | None -> t.config.mode
              in
              let level =
                match req.level with
                | Spec.Full -> Xquery.Engine.Exec_opts.Full
                | Spec.Skeleton -> Xquery.Engine.Exec_opts.Skeleton
              in
              let opts =
                Xquery.Engine.Exec_opts.make ~mode ~limits ~level
                  ?pool:(plan_pool t ~mode) ()
              in
              Fun.protect
                ~finally:(fun () -> with_lock t (fun () -> Hashtbl.remove t.inflight token))
                (fun () ->
                  match req.engine with
                  | `Xq ->
                    let core = xq_core t in
                    if mode = Xquery.Engine.Exec_opts.Plan then note_plan_run t core;
                    Docgen.Xq_engine.generate_spec ?backend:req.backend ~compiled:core
                      ~opts model ~template
                  | (`Host | `Functional) as engine ->
                    Docgen.run ?backend:req.backend ~engine ~opts model ~template)
            in
            (* The attempt loop: transient failures retry with
               exponential backoff (bounded by config.retries); a fast-
               evaluator fault gets exactly one re-run on the seed
               evaluator. Budget trips come back as documents, not
               exceptions, so they fall straight through. *)
            let rec attempt n ~on_seed =
              check_deadline ();
              match
                if inj_transient && n < transient_attempts then
                  raise (Fault.Transient "injected transient generation failure");
                if inj_fast && not on_seed then
                  raise (Fault.Fast_path_fault "injected fast-path fault");
                run_once ~fast_eval:(if on_seed then Some false else None)
              with
              | result -> result
              | exception (Fail _ as e) -> raise e
              | exception Xquery.Errors.Error { code; message } ->
                raise (Fail (Generation_failed { code; message; location = "" }))
              | exception Fault.Transient _ when n < t.config.retries ->
                with_lock t (fun () -> t.retries <- t.retries + 1);
                (* Capped exponential backoff with decorrelated jitter.
                   Pure exponential backoff synchronizes: every request
                   that failed in the same burst retries at the same
                   instant and the herd thunders again. The jitter draw
                   is a pure function of (fault seed, request id,
                   attempt), so different requests desynchronize while a
                   seeded governance test still replays byte-for-byte. *)
                let ceiling = Float.min t.config.backoff_cap_s
                    (t.config.backoff_s *. (2. ** float_of_int n))
                in
                let seed =
                  match t.config.fault with Some f -> f.Fault.seed | None -> 0
                in
                let u = Fault.jitter ~seed ~key:req.id ~attempt:n in
                Unix.sleepf (ceiling *. (0.5 +. (0.5 *. u)));
                attempt (n + 1) ~on_seed
              | exception Fault.Transient msg ->
                raise
                  (Fail
                     (Generation_failed
                        { code = "transient"; message = msg; location = "" }))
              | exception _ when not on_seed ->
                (* Graceful degradation: an internal fault while the
                   fast evaluator is eligible gets one re-run pinned to
                   the seed evaluator before the request is failed. *)
                with_lock t (fun () -> t.fast_fallbacks <- t.fast_fallbacks + 1);
                attempt n ~on_seed:true
              | exception Fault.Fast_path_fault msg -> raise (Fail (Internal_error msg))
            in
            attempt 0 ~on_seed:false)
      in
      match generation_failure ~t0 ~deadline gen with
      | Some err -> Error err
      | None ->
        let document =
          timed ser_s
            (fun m -> Internal_error m)
            (fun () -> Xml_base.Serialize.to_string gen.Spec.document)
        in
        (* A deadline blown during serialization still counts. *)
        check_deadline ();
        Ok
          {
            document;
            problems = gen.Spec.problems;
            stats = gen.Spec.stats;
            engine_used = req.engine;
            timings =
              {
                template_s = !tpl_s;
                model_s = !model_s;
                generate_s = !gen_s;
                serialize_s = !ser_s;
                total_s = now () -. started;
              };
          }
    with
    | Fail e -> Error e
    | e -> Error (Internal_error (Printexc.to_string e))
  in
  quarantine_note t qkey result;
  (match result with Ok out -> store_result t req out | Error _ -> ());
  let timings =
    {
      template_s = !tpl_s;
      model_s = !model_s;
      generate_s = !gen_s;
      serialize_s = !ser_s;
      total_s = now () -. started;
    }
  in
  ({ request_id = req.id; result }, timings)

(* Fold one finished request into the service counters; caller holds no
   lock. *)
let record t (responses : (response * timings) list) =
  with_lock t (fun () ->
      List.iter
        (fun (resp, (tm : timings)) ->
          t.requests <- t.requests + 1;
          (match resp.result with
          | Ok _ -> t.succeeded <- t.succeeded + 1
          | Error (Deadline_exceeded _) ->
            t.failed <- t.failed + 1;
            t.deadline_failures <- t.deadline_failures + 1
          | Error (Resource_exhausted _) ->
            t.failed <- t.failed + 1;
            t.resource_failures <- t.resource_failures + 1
          | Error _ -> t.failed <- t.failed + 1);
          t.totals.acc_template_s <- t.totals.acc_template_s +. tm.template_s;
          t.totals.acc_model_s <- t.totals.acc_model_s +. tm.model_s;
          t.totals.acc_generate_s <- t.totals.acc_generate_s +. tm.generate_s;
          t.totals.acc_serialize_s <- t.totals.acc_serialize_s +. tm.serialize_s)
        responses)

let run t req =
  let pair = execute t ~t0:(now ()) req in
  record t [ pair ];
  fst pair

let run_batch ?domains t (reqs : request list) : response list =
  let domains =
    match domains with Some d -> max 1 d | None -> max 1 t.config.domains
  in
  let t0 = now () in
  let tasks = Array.of_list (List.map (fun r () -> execute t ~t0 r) reqs) in
  let results, pstats = Pool.run ~domains tasks in
  with_lock t (fun () ->
      t.batches <- t.batches + 1;
      t.steals <- t.steals + pstats.Pool.steals);
  let ids = Array.of_list (List.map (fun r -> r.id) reqs) in
  let pairs =
    Array.to_list
      (Array.mapi
         (fun i -> function
           | Ok pair -> pair
           | Error e ->
             (* Pool already isolates task exceptions, and execute never
                raises; belt and braces. *)
             ( { request_id = ids.(i); result = Error (Internal_error (Printexc.to_string e)) },
               {
                 template_s = 0.;
                 model_s = 0.;
                 generate_s = 0.;
                 serialize_s = 0.;
                 total_s = 0.;
               } ))
         results)
  in
  record t pairs;
  List.map fst pairs

(* ------------------------------------------------------------------ *)
(* Bare XQuery execution (the shell's path into the service)           *)
(* ------------------------------------------------------------------ *)

(* One-shot XQuery execution with the same machinery document requests
   get: compiled-query cache, resource governance with in-flight
   registration, per-query quarantine, and one seed-evaluator re-run on
   an internal fault. *)
let run_query t ?(compat = Xquery.Context.default_compat) ?(typed_mode = false)
    ?(optimize = true) ?context_item ?(vars = []) ?mode ?doc_resolver src :
    (Xquery.Value.sequence, error) result =
  let mode = Option.value mode ~default:t.config.mode in
  let t0 = now () in
  let qkey = Some ("q:" ^ digest src) in
  let deadline = t.config.default_deadline in
  let classify = function
    | Fail e -> e
    | Xquery.Errors.Error { code; message } ->
      Generation_failed { code; message; location = "" }
    | Xquery.Errors.Resource_exhausted { resource = Xquery.Errors.Deadline; _ } ->
      Deadline_exceeded
        { elapsed_s = now () -. t0; deadline_s = Option.value deadline ~default:0. }
    | Xquery.Errors.Resource_exhausted { resource; limit; used } ->
      Resource_exhausted
        { resource; message = Xquery.Errors.resource_message resource ~limit ~used }
    | e -> Internal_error (Printexc.to_string e)
  in
  let deterministic = function
    | Fail _ | Xquery.Errors.Error _ | Xquery.Errors.Resource_exhausted _ -> true
    | _ -> false
  in
  let result =
    try
      quarantine_check t qkey;
      let compiled =
        (* The cache key carries every flag that changes what [compile]
           produces, so a galax-compat program never answers a
           default-compat request. *)
        let key =
          Printf.sprintf "xq:%d:%b:%b:%s" (Hashtbl.hash compat) typed_mode optimize
            (digest src)
        in
        cached t t.queries key (fun () ->
            let c = Xquery.Engine.compile ~compat ~typed_mode ~optimize src in
            record_opt_stats t c;
            c)
      in
      let run_attempt mode =
        let limits =
          Xquery.Context.make_limits ?fuel:t.config.fuel ?max_depth:t.config.max_depth
            ?max_nodes:t.config.max_nodes
            ?deadline_ns:
              (Option.map (fun d -> int_of_float ((t0 +. d) *. 1e9)) deadline)
            ()
        in
        let token =
          with_lock t (fun () ->
              if t.preempt_ns <> 0 && limits.Xquery.Context.deadline_ns > t.preempt_ns
              then limits.Xquery.Context.deadline_ns <- t.preempt_ns;
              let id = t.inflight_next in
              t.inflight_next <- id + 1;
              Hashtbl.replace t.inflight id limits;
              id)
        in
        Fun.protect
          ~finally:(fun () -> with_lock t (fun () -> Hashtbl.remove t.inflight token))
          (fun () ->
            if mode = Xquery.Engine.Exec_opts.Plan then note_plan_run t compiled;
            let opts =
              Xquery.Engine.Exec_opts.make ~mode ~limits ?context_item ~vars
                ?doc_resolver ?pool:(plan_pool t ~mode) ()
            in
            Xquery.Engine.run ~opts compiled)
      in
      match run_attempt mode with
      | v -> Ok v
      | exception e when deterministic e -> Error (classify e)
      | exception _ when mode <> Xquery.Engine.Exec_opts.Seed ->
        (* Same degradation as document generation: one re-run pinned to
           the seed evaluator before the query is failed. *)
        with_lock t (fun () -> t.fast_fallbacks <- t.fast_fallbacks + 1);
        (match run_attempt Xquery.Engine.Exec_opts.Seed with
        | v -> Ok v
        | exception e -> Error (classify e))
      | exception e -> Error (classify e)
    with
    | Fail e -> Error e
    | e -> Error (classify e)
  in
  quarantine_note t qkey result;
  with_lock t (fun () ->
      t.requests <- t.requests + 1;
      match result with
      | Ok _ -> t.succeeded <- t.succeeded + 1
      | Error (Deadline_exceeded _) ->
        t.failed <- t.failed + 1;
        t.deadline_failures <- t.deadline_failures + 1
      | Error (Resource_exhausted _) ->
        t.failed <- t.failed + 1;
        t.resource_failures <- t.resource_failures + 1
      | Error _ -> t.failed <- t.failed + 1);
  result

(* ------------------------------------------------------------------ *)
(* XSLT stylesheets                                                    *)
(* ------------------------------------------------------------------ *)

let compile_stylesheet t xml =
  try
    Ok
      (cached t t.stylesheets ("xsl:" ^ digest xml) (fun () ->
           Xslt.compile (Xml_base.Parser.parse_string xml)))
  with
  | Xslt.Error m -> Error (Template_error m)
  | Xml_base.Parser.Parse_error { line; col; message } ->
    Error (Template_error (Printf.sprintf "line %d col %d: %s" line col message))

(* Apply a stylesheet (compiled through the cache) to a source tree.
   Quarantine is keyed by stylesheet content hash, and the configured
   default deadline is enforced coarsely — checked after the transform —
   since the XSLT engine has no mid-walk budget hook of its own. *)
let apply_stylesheet t ~stylesheet_xml source =
  let qkey = Some ("xsl:" ^ digest stylesheet_xml) in
  let t0 = now () in
  let result =
    try
      quarantine_check t qkey;
      match compile_stylesheet t stylesheet_xml with
      | Error e -> Error e
      | Ok sheet -> (
        match Xslt.apply sheet source with
        | nodes -> Ok nodes
        | exception Xslt.Error m ->
          Error (Generation_failed { code = ""; message = m; location = "" })
        | exception Xquery.Errors.Error { code; message } ->
          Error (Generation_failed { code; message; location = "" }))
    with Fail e -> Error e
  in
  let result =
    match (result, t.config.default_deadline) with
    | Ok _, Some d when now () -. t0 > d ->
      Error (Deadline_exceeded { elapsed_s = now () -. t0; deadline_s = d })
    | r, _ -> r
  in
  quarantine_note t qkey result;
  with_lock t (fun () ->
      t.requests <- t.requests + 1;
      match result with
      | Ok _ -> t.succeeded <- t.succeeded + 1
      | Error (Deadline_exceeded _) ->
        t.failed <- t.failed + 1;
        t.deadline_failures <- t.deadline_failures + 1
      | Error _ -> t.failed <- t.failed + 1);
  result

(* ------------------------------------------------------------------ *)
(* Drain hook                                                          *)
(* ------------------------------------------------------------------ *)

(* Tighten every in-flight generation's deadline to at most
   [deadline_ns]. The write is a plain int store into a limits record a
   worker domain is reading: the evaluator's slow check (every ~1k
   steps) picks it up, so the evaluation trips resource:deadline within
   one check interval and surfaces as a structured Deadline_exceeded.
   This is the server's graceful-drain abort path; it never cancels
   anything outright, it only moves the moment the evaluator's own
   governance preempts the work. *)
let preempt_inflight t ~deadline_ns =
  with_lock t (fun () ->
      (* Sticky: attempts that register after this call (they may already
         have been dequeued by a server worker) are tightened at
         registration, closing the race between the sweep below and a
         concurrent [run]. Repeated calls keep the tightest deadline. *)
      t.preempt_ns <-
        (if t.preempt_ns = 0 then deadline_ns else min t.preempt_ns deadline_ns);
      Hashtbl.fold
        (fun _ (l : Xquery.Context.limits) n ->
          if l.Xquery.Context.deadline_ns > deadline_ns then begin
            l.Xquery.Context.deadline_ns <- deadline_ns;
            n + 1
          end
          else n)
        t.inflight 0)

let inflight_count t = with_lock t (fun () -> Hashtbl.length t.inflight)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let counters t : counters =
  with_lock t (fun () ->
      {
        requests = t.requests;
        succeeded = t.succeeded;
        failed = t.failed;
        deadline_failures = t.deadline_failures;
        resource_failures = t.resource_failures;
        retries = t.retries;
        fast_fallbacks = t.fast_fallbacks;
        quarantine_trips = t.quarantine_trips;
        quarantine_rejections = t.quarantine_rejections;
        quarantine_releases = t.quarantine_releases;
        batches = t.batches;
        steals = t.steals;
        template_hits = Lru.hits t.templates;
        template_misses = Lru.misses t.templates;
        model_hits = Lru.hits t.models;
        model_misses = Lru.misses t.models;
        query_hits = Lru.hits t.queries;
        query_misses = Lru.misses t.queries;
        stylesheet_hits = Lru.hits t.stylesheets;
        stylesheet_misses = Lru.misses t.stylesheets;
        result_hits = t.result_hits;
        result_misses = t.result_misses;
        result_stores = t.result_stores;
        plan_compiles = t.plan_compiles;
        plan_hits = t.plan_hits;
        plan_execs = t.plan_execs;
        plan_parallel_fragments = t.plan_parallel_fragments;
        evictions =
          Lru.evictions t.templates + Lru.evictions t.models + Lru.evictions t.queries
          + Lru.evictions t.stylesheets + Lru.evictions t.results;
        opt_lets_eliminated = t.opt_totals.Xquery.Optimizer.lets_eliminated;
        opt_constants_folded = t.opt_totals.Xquery.Optimizer.constants_folded;
        opt_count_rewrites = t.opt_totals.Xquery.Optimizer.count_cmp_rewrites;
        opt_paths_hoisted = t.opt_totals.Xquery.Optimizer.paths_hoisted;
        template_s = t.totals.acc_template_s;
        model_s = t.totals.acc_model_s;
        generate_s = t.totals.acc_generate_s;
        serialize_s = t.totals.acc_serialize_s;
      })

let reset_counters t =
  with_lock t (fun () ->
      t.requests <- 0;
      t.succeeded <- 0;
      t.failed <- 0;
      t.deadline_failures <- 0;
      t.resource_failures <- 0;
      t.retries <- 0;
      t.fast_fallbacks <- 0;
      t.quarantine_trips <- 0;
      t.quarantine_rejections <- 0;
      t.quarantine_releases <- 0;
      t.result_hits <- 0;
      t.result_misses <- 0;
      t.result_stores <- 0;
      t.plan_compiles <- 0;
      t.plan_hits <- 0;
      t.plan_execs <- 0;
      t.plan_parallel_fragments <- 0;
      t.batches <- 0;
      t.steals <- 0;
      Lru.reset_counters t.templates;
      Lru.reset_counters t.models;
      Lru.reset_counters t.queries;
      Lru.reset_counters t.stylesheets;
      Lru.reset_counters t.results;
      t.opt_totals.Xquery.Optimizer.lets_eliminated <- 0;
      t.opt_totals.Xquery.Optimizer.traces_eliminated <- 0;
      t.opt_totals.Xquery.Optimizer.constants_folded <- 0;
      t.opt_totals.Xquery.Optimizer.count_cmp_rewrites <- 0;
      t.opt_totals.Xquery.Optimizer.paths_hoisted <- 0;
      t.totals.acc_template_s <- 0.;
      t.totals.acc_model_s <- 0.;
      t.totals.acc_generate_s <- 0.;
      t.totals.acc_serialize_s <- 0.)

(* Prometheus metric names admit only [a-zA-Z0-9_:]; anything else in a
   name would corrupt the whole exposition for every scraper. Applied to
   every name emitted below, so a future counter with a hostile name
   degrades to underscores instead of breaking /metrics. *)
let sanitize_metric_name name =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c | _ -> '_')
    name

(* Prometheus text exposition (version 0.0.4): "# HELP", "# TYPE", then
   one sample per line. Shared by the HTTP server's /metrics endpoint
   and awbserve --metrics; test_server scrapes and re-parses every line
   it emits. *)
let counters_to_prometheus ?(labels = []) (c : counters) =
  let b = Buffer.create 4096 in
  (* Labels (e.g. shard="2" on a sharded backend's exposition) go on the
     sample line only — HELP/TYPE stay label-free so a front end can
     concatenate several shards' expositions and dedup the metadata. *)
  let label_suffix =
    match labels with
    | [] -> ""
    | kvs ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (sanitize_metric_name k) v)
             kvs)
      ^ "}"
  in
  let sample ?(typ = "counter") name help value =
    let name = sanitize_metric_name name in
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
    Buffer.add_string b (Printf.sprintf "%s%s %s\n" name label_suffix value)
  in
  let int_sample name help v = sample name help (string_of_int v) in
  let seconds name help v = sample name help (Printf.sprintf "%.6f" v) in
  int_sample "lopsided_service_requests_total" "Requests the service has finished." c.requests;
  int_sample "lopsided_service_succeeded_total" "Requests that produced a document." c.succeeded;
  int_sample "lopsided_service_failed_total" "Requests that ended in an error." c.failed;
  int_sample "lopsided_service_deadline_failures_total"
    "Requests preempted by their deadline." c.deadline_failures;
  int_sample "lopsided_service_resource_failures_total"
    "Requests stopped by a non-deadline resource budget." c.resource_failures;
  int_sample "lopsided_service_retries_total" "Transient-failure retries performed."
    c.retries;
  int_sample "lopsided_service_fast_fallbacks_total"
    "Fast-evaluator faults degraded to the seed evaluator." c.fast_fallbacks;
  int_sample "lopsided_service_quarantine_trips_total" "Template circuit breakers opened."
    c.quarantine_trips;
  int_sample "lopsided_service_quarantine_rejections_total"
    "Requests refused while a breaker was open." c.quarantine_rejections;
  int_sample "lopsided_service_quarantine_releases_total"
    "Breakers closed again after cooldown." c.quarantine_releases;
  int_sample "lopsided_service_batches_total" "Batches served." c.batches;
  int_sample "lopsided_service_steals_total" "Work-stealing steals across batches." c.steals;
  int_sample "lopsided_service_template_cache_hits_total" "Template cache hits."
    c.template_hits;
  int_sample "lopsided_service_template_cache_misses_total" "Template cache misses."
    c.template_misses;
  int_sample "lopsided_service_model_cache_hits_total" "Model cache hits." c.model_hits;
  int_sample "lopsided_service_model_cache_misses_total" "Model cache misses."
    c.model_misses;
  int_sample "lopsided_service_query_cache_hits_total" "Compiled-query cache hits."
    c.query_hits;
  int_sample "lopsided_service_query_cache_misses_total" "Compiled-query cache misses."
    c.query_misses;
  int_sample "lopsided_service_stylesheet_cache_hits_total" "Compiled-stylesheet cache hits."
    c.stylesheet_hits;
  int_sample "lopsided_service_stylesheet_cache_misses_total"
    "Compiled-stylesheet cache misses." c.stylesheet_misses;
  int_sample "lopsided_service_plan_compiles_total"
    "Physical plans lowered (plan-cache misses)." c.plan_compiles;
  int_sample "lopsided_service_plan_hits_total"
    "Plan-mode runs served by an already-lowered plan." c.plan_hits;
  int_sample "lopsided_service_plan_execs_total" "Plan-executor runs started." c.plan_execs;
  int_sample "lopsided_service_plan_parallel_fragments_total"
    "Plan loop fragments fanned across domains." c.plan_parallel_fragments;
  int_sample "lopsided_service_result_cache_hits_total"
    "Stale-while-revalidate result cache hits." c.result_hits;
  int_sample "lopsided_service_result_cache_misses_total"
    "Stale-while-revalidate result cache misses." c.result_misses;
  int_sample "lopsided_service_result_cache_stores_total"
    "Completed generations stored in the result cache." c.result_stores;
  int_sample "lopsided_service_cache_evictions_total" "Evictions summed over the caches."
    c.evictions;
  int_sample "lopsided_service_opt_lets_eliminated_total" "Optimizer: lets eliminated."
    c.opt_lets_eliminated;
  int_sample "lopsided_service_opt_constants_folded_total" "Optimizer: constants folded."
    c.opt_constants_folded;
  int_sample "lopsided_service_opt_count_rewrites_total"
    "Optimizer: count comparisons rewritten." c.opt_count_rewrites;
  int_sample "lopsided_service_opt_paths_hoisted_total"
    "Optimizer: loop-invariant paths hoisted." c.opt_paths_hoisted;
  seconds "lopsided_service_template_seconds_total" "Time spent parsing templates."
    c.template_s;
  seconds "lopsided_service_model_seconds_total" "Time spent importing models." c.model_s;
  seconds "lopsided_service_generate_seconds_total" "Time spent generating documents."
    c.generate_s;
  seconds "lopsided_service_serialize_seconds_total" "Time spent serializing documents."
    c.serialize_s;
  Buffer.contents b

let pp_counters fmt (c : counters) =
  Format.fprintf fmt
    "@[<v>requests: %d (%d ok, %d failed, %d deadline, %d resource)@,\
     resilience: %d retries, %d fast fallbacks, quarantine %d trips / %d rejections / %d \
     releases@,\
     batches: %d (steals: %d)@,\
     template cache: %d hits / %d misses@,\
     model cache: %d hits / %d misses@,\
     query cache: %d hits / %d misses@,\
     stylesheet cache: %d hits / %d misses@,\
     result cache: %d hits / %d misses / %d stores@,\
     plans: %d compiled, %d cache hits, %d runs, %d parallel fragments@,\
     evictions: %d@,\
     optimizer: %d lets eliminated, %d constants folded, %d count rewrites, %d paths \
     hoisted@,\
     phase totals: template %.3f ms, model %.3f ms, generate %.3f ms, serialize %.3f ms@]"
    c.requests c.succeeded c.failed c.deadline_failures c.resource_failures c.retries
    c.fast_fallbacks c.quarantine_trips c.quarantine_rejections c.quarantine_releases
    c.batches c.steals c.template_hits
    c.template_misses c.model_hits c.model_misses c.query_hits c.query_misses
    c.stylesheet_hits c.stylesheet_misses
    c.result_hits c.result_misses c.result_stores
    c.plan_compiles c.plan_hits c.plan_execs c.plan_parallel_fragments c.evictions
    c.opt_lets_eliminated c.opt_constants_folded c.opt_count_rewrites c.opt_paths_hoisted
    (c.template_s *. 1000.) (c.model_s *. 1000.) (c.generate_s *. 1000.)
    (c.serialize_s *. 1000.)
