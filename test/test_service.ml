(* The service layer: LRU behaviour, cache counters, deadlines as typed
   errors, error isolation within a batch, and the serial-vs-parallel
   oracle (byte-identical documents across 1, 2, and 4 domains). *)

let check = Alcotest.check
let string_t = Alcotest.string
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let banking = Awb.Samples.banking_model ()

let users_tpl =
  "<document><ol><for nodes=\"start type(User); sort-by label\"><li><label/></li></for></ol>\
   </document>"

let report_tpl =
  "<document><table-of-contents/><for nodes=\"start type(User); sort-by label\">\
   <section><heading><label/></heading>\
   <p><value-of query=\"start focus; follow uses; distinct; sort-by label\"/></p>\
   </section></for><table-of-omissions types=\"User Document\"/></document>"

let failing_tpl =
  "<document><for nodes=\"start type(Document); sort-by label\">\
   <p><required-property name=\"version\"/></p></for></document>"

(* ------------------------------------------------------------------ *)
(* The LRU itself                                                      *)
(* ------------------------------------------------------------------ *)

let test_lru_hit_miss_eviction () =
  let lru = Service.Lru.create ~capacity:2 in
  Service.Lru.add lru "a" 1;
  Service.Lru.add lru "b" 2;
  check (Alcotest.option int_t) "hit a" (Some 1) (Service.Lru.find lru "a");
  (* "a" was just used, so adding "c" must evict "b". *)
  Service.Lru.add lru "c" 3;
  check bool_t "b evicted" false (Service.Lru.mem lru "b");
  check bool_t "a survives" true (Service.Lru.mem lru "a");
  check bool_t "c present" true (Service.Lru.mem lru "c");
  check (Alcotest.option int_t) "miss b" None (Service.Lru.find lru "b");
  check int_t "hits" 1 (Service.Lru.hits lru);
  check int_t "misses" 1 (Service.Lru.misses lru);
  check int_t "evictions" 1 (Service.Lru.evictions lru);
  check int_t "length" 2 (Service.Lru.length lru)

let test_lru_replace_and_zero_capacity () =
  let lru = Service.Lru.create ~capacity:2 in
  Service.Lru.add lru "k" 1;
  Service.Lru.add lru "k" 2;
  check (Alcotest.option int_t) "replaced" (Some 2) (Service.Lru.find lru "k");
  check int_t "no eviction on replace" 0 (Service.Lru.evictions lru);
  let off = Service.Lru.create ~capacity:0 in
  Service.Lru.add off "k" 1;
  check bool_t "capacity 0 stores nothing" false (Service.Lru.mem off "k")

(* ------------------------------------------------------------------ *)
(* Cache behaviour through the service                                 *)
(* ------------------------------------------------------------------ *)

let svc ?(domains = 1) ?(capacity = 32) () =
  Service.create
    ~config:
      { Service.default_config with Service.domains; cache_capacity = capacity }
    ()

let req ?engine ?deadline ~id tpl =
  Service.request ?engine ?deadline ~id ~template:(Service.Template_xml tpl)
    ~model:(Service.Model_value banking) ()

let ok_exn (r : Service.response) =
  match r.Service.result with
  | Ok out -> out
  | Error e -> Alcotest.failf "%s failed: %s" r.Service.request_id (Service.error_to_string e)

let test_template_cache_hits () =
  let t = svc () in
  List.iter
    (fun i -> ignore (ok_exn (Service.run t (req ~id:(string_of_int i) users_tpl))))
    [ 1; 2; 3 ];
  let c = Service.counters t in
  check int_t "one template miss" 1 c.Service.template_misses;
  check int_t "two template hits" 2 c.Service.template_hits;
  check int_t "requests" 3 c.Service.requests;
  check int_t "succeeded" 3 c.Service.succeeded

let test_model_cache_hits () =
  let xml = Awb.Xml_io.export_string banking in
  let t = svc () in
  let model = Service.Model_xml { metamodel = Awb.Samples.it_architecture; xml } in
  let mk id = Service.request ~id ~template:(Service.Template_xml users_tpl) ~model () in
  let r1 = Service.run t (mk "a") and r2 = Service.run t (mk "b") in
  check string_t "same output from cached model" (ok_exn r1).Service.document
    (ok_exn r2).Service.document;
  let c = Service.counters t in
  check int_t "one model miss" 1 c.Service.model_misses;
  check int_t "one model hit" 1 c.Service.model_hits;
  (* The digest is memoized on the string's identity; the key must still
     follow the content: an equal copy hits, another model misses, and
     the first string hits again after it. *)
  let other = Awb.Xml_io.export_string (Awb.Samples.glass_model ()) in
  List.iter
    (fun xml ->
      let model = Service.Model_xml { metamodel = Awb.Samples.it_architecture; xml } in
      ignore
        (ok_exn
           (Service.run t
              (Service.request ~id:"c" ~template:(Service.Template_xml users_tpl) ~model ()))))
    [ Bytes.to_string (Bytes.of_string xml); other; xml ];
  let c = Service.counters t in
  check int_t "misses: one per distinct export" 2 c.Service.model_misses;
  check int_t "hits: equal content, any string" 3 c.Service.model_hits

let test_query_cache_via_xq_engine () =
  let t = svc () in
  let tpl = "<document><for nodes=\"type:User\"><li><label/></li></for></document>" in
  ignore (ok_exn (Service.run t (req ~engine:`Xq ~id:"x1" tpl)));
  ignore (ok_exn (Service.run t (req ~engine:`Xq ~id:"x2" tpl)));
  let c = Service.counters t in
  check int_t "xq core compiled once" 1 c.Service.query_misses;
  check int_t "second run hit the compiled core" 1 c.Service.query_hits

let test_compile_query_cached () =
  let t = svc () in
  (match Service.compile_query t "1 + 1" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "compile failed: %s" m);
  (match Service.compile_query t "1 + 1" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "recompile failed: %s" m);
  let c = Service.counters t in
  check int_t "compiled once" 1 c.Service.query_misses;
  check int_t "served from cache" 1 c.Service.query_hits;
  match Service.compile_query t "1 +" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "syntax error accepted"

let test_eviction_counted () =
  let t = svc ~capacity:1 () in
  ignore (ok_exn (Service.run t (req ~id:"a" users_tpl)));
  ignore (ok_exn (Service.run t (req ~id:"b" report_tpl)));
  ignore (ok_exn (Service.run t (req ~id:"c" users_tpl)));
  let c = Service.counters t in
  check bool_t "evictions counted" true (c.Service.evictions >= 2);
  check int_t "every lookup missed" 3 c.Service.template_misses

(* ------------------------------------------------------------------ *)
(* Deadlines and error isolation                                       *)
(* ------------------------------------------------------------------ *)

let test_deadline_expiry_is_typed () =
  let t = svc () in
  let r = Service.run t (req ~deadline:0. ~id:"late" users_tpl) in
  (match r.Service.result with
  | Error (Service.Deadline_exceeded { deadline_s; _ }) ->
    check (Alcotest.float 1e-9) "deadline echoed" 0. deadline_s
  | Error e -> Alcotest.failf "wrong error: %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Deadline_exceeded");
  let c = Service.counters t in
  check int_t "counted as deadline failure" 1 c.Service.deadline_failures

let test_default_deadline_from_config () =
  let t =
    Service.create
      ~config:{ Service.default_config with Service.default_deadline = Some 0. }
      ()
  in
  match (Service.run t (req ~id:"late" users_tpl)).Service.result with
  | Error (Service.Deadline_exceeded _) -> ()
  | _ -> Alcotest.fail "config deadline not applied"

let test_error_isolation_in_batch () =
  let t = svc ~domains:2 () in
  let batch =
    [
      req ~id:"ok1" users_tpl;
      { (req ~id:"broken" failing_tpl) with Service.template = Service.Template_xml "<oops" };
      req ~id:"genfail" failing_tpl;
      req ~id:"ok2" report_tpl;
    ]
  in
  match Service.run_batch t batch with
  | [ r1; r2; r3; r4 ] ->
    ignore (ok_exn r1);
    ignore (ok_exn r4);
    (match r2.Service.result with
    | Error (Service.Template_error _) -> ()
    | _ -> Alcotest.fail "parse failure not typed as Template_error");
    (match r3.Service.result with
    | Error (Service.Generation_failed { message; _ }) ->
      check bool_t "carries the engine message" true
        (Astring.String.is_infix ~affix:"should have a property version" message)
    | _ -> Alcotest.fail "generation failure not typed as Generation_failed")
  | rs -> Alcotest.failf "expected 4 responses, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Resource governance and fault injection                             *)
(* ------------------------------------------------------------------ *)

let gov_svc ?(domains = 1) ?deadline ?fuel ?(retries = 2) ?(quarantine_after = 0)
    ?(cooldown = 30.) ?fault () =
  Service.create
    ~config:
      {
        Service.default_config with
        Service.domains;
        default_deadline = deadline;
        fuel;
        retries;
        backoff_s = 0.0005;
        quarantine_after;
        quarantine_cooldown_s = cooldown;
        fault;
      }
    ()

let fault ?(seed = 42) ?(deadline_rate = 0.) ?(fuel_rate = 0.) ?(transient_rate = 0.)
    ?(transient_attempts = 2) ?(fast_fault_rate = 0.) ?(crash_rate = 0.) () =
  {
    Service.Fault.seed;
    deadline_rate;
    fuel_rate;
    transient_rate;
    transient_attempts;
    fast_fault_rate;
    crash_rate;
    load_signal = None;
  }

(* Templates whose generation would run for hours unpreempted: nested
   for-loops multiply the model's node fan-out a dozen times over. One
   per template dialect (the host/functional engines speak the AWB query
   language, the xq dispatch core its own nodes= spec). *)
let runaway_host_tpl =
  let rec go n =
    if n = 0 then "<p><label/></p>"
    else "<for nodes=\"start type(User); sort-by label\">" ^ go (n - 1) ^ "</for>"
  in
  "<document>" ^ go 12 ^ "</document>"

let runaway_xq_tpl =
  let rec go n = if n = 0 then "<x/>" else "<for nodes=\"all\">" ^ go (n - 1) ^ "</for>" in
  "<document>" ^ go 8 ^ "</document>"

(* The acceptance scenario: a runaway query under a 50 ms deadline is
   preempted mid-generation — inside the evaluator, not at a phase
   boundary it never reaches — on both template dialects, in bounded
   time, while a well-behaved request in the same batch completes. *)
let test_midquery_deadline_preemption () =
  let t = gov_svc ~domains:2 ~deadline:0.05 () in
  let t0 = Unix.gettimeofday () in
  let rs =
    Service.run_batch t
      [
        req ~engine:`Xq ~id:"runaway-xq" runaway_xq_tpl;
        req ~id:"ok" users_tpl;
        req ~id:"runaway-host" runaway_host_tpl;
      ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check bool_t "preempted in bounded time" true (elapsed < 5.);
  (match rs with
  | [ rxq; rok; rhost ] ->
    ignore (ok_exn rok);
    List.iter
      (fun (r : Service.response) ->
        match r.Service.result with
        | Error (Service.Deadline_exceeded { deadline_s; _ }) ->
          check (Alcotest.float 1e-9) "deadline echoed" 0.05 deadline_s
        | Error e ->
          Alcotest.failf "%s: wrong error %s" r.Service.request_id
            (Service.error_to_string e)
        | Ok _ -> Alcotest.failf "%s: runaway completed?" r.Service.request_id)
      [ rxq; rhost ]
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs));
  check int_t "both counted as deadline failures" 2
    (Service.counters t).Service.deadline_failures

(* The drain race: preempt_inflight runs BEFORE the request registers —
   the server's drain can fire while a worker holds a job it has popped
   but not yet started. The preempt deadline must stick and bound the
   later attempt; without stickiness this runaway (no client deadline,
   no default) would run essentially forever and wedge the drain. *)
let test_preempt_deadline_is_sticky () =
  let t = gov_svc ~retries:0 () in
  ignore
    (Service.preempt_inflight t ~deadline_ns:(Clock.now_ns () + Clock.ns_of_s 0.05));
  let t0 = Unix.gettimeofday () in
  (match (Service.run t (req ~id:"late-arrival" runaway_host_tpl)).Service.result with
  | Error (Service.Deadline_exceeded _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "runaway completed past a sticky preempt deadline");
  check bool_t "bounded by the sticky deadline" true (Unix.gettimeofday () -. t0 < 5.);
  (* Repeated preempts keep the tightest deadline: a later, looser drain
     request must not loosen the bound. *)
  ignore
    (Service.preempt_inflight t ~deadline_ns:(Clock.now_ns () + Clock.ns_of_s 60.));
  match (Service.run t (req ~id:"still-bounded" runaway_host_tpl)).Service.result with
  | Error (Service.Deadline_exceeded _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "loosening preempt deadline was accepted"

let test_transient_retry_recovers () =
  (* transient_attempts = 2: the injected fault fires on attempts 0 and
     1, so 2 retries recover the request. *)
  let t = gov_svc ~retries:2 ~fault:(fault ~transient_rate:1.0 ~transient_attempts:2 ()) () in
  ignore (ok_exn (Service.run t (req ~id:"flaky" users_tpl)));
  let c = Service.counters t in
  check int_t "two retries performed" 2 c.Service.retries;
  check int_t "request succeeded" 1 c.Service.succeeded

let test_transient_exhausts_retries () =
  let t = gov_svc ~retries:1 ~fault:(fault ~transient_rate:1.0 ~transient_attempts:5 ()) () in
  (match (Service.run t (req ~id:"doomed" users_tpl)).Service.result with
  | Error (Service.Generation_failed { code; _ }) ->
    check string_t "structured transient code" "transient" code
  | Error e -> Alcotest.failf "wrong error: %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "expected failure after retry budget");
  check int_t "one retry performed" 1 (Service.counters t).Service.retries

let xq_users_tpl = "<document><for nodes=\"type:User\"><li><label/></li></for></document>"

let test_fast_fault_degrades_to_seed () =
  let t = gov_svc ~fault:(fault ~fast_fault_rate:1.0 ()) () in
  ignore (ok_exn (Service.run t (req ~engine:`Xq ~id:"fastfault" xq_users_tpl)));
  let c = Service.counters t in
  check int_t "one fallback to the seed evaluator" 1 c.Service.fast_fallbacks;
  check int_t "request succeeded anyway" 1 c.Service.succeeded

let test_injected_fuel_exhaustion () =
  let t = gov_svc ~fault:(fault ~fuel_rate:1.0 ()) () in
  (match (Service.run t (req ~engine:`Xq ~id:"starved" xq_users_tpl)).Service.result with
  | Error (Service.Resource_exhausted { resource = Xquery.Errors.Fuel; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "expected fuel exhaustion");
  check int_t "counted as resource failure" 1 (Service.counters t).Service.resource_failures

let test_injected_deadline_overrun () =
  let t = gov_svc ~fault:(fault ~deadline_rate:1.0 ()) () in
  (match (Service.run t (req ~id:"overrun" users_tpl)).Service.result with
  | Error (Service.Deadline_exceeded _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "expected deadline overrun");
  check int_t "counted as deadline failure" 1 (Service.counters t).Service.deadline_failures

(* Same seed, same faults: the injector must be schedule-independent. *)
let test_fault_injection_deterministic () =
  let outcome () =
    let t = gov_svc ~retries:0 ~fault:(fault ~seed:7 ~transient_rate:0.5 ()) () in
    List.map
      (fun i ->
        match
          (Service.run t (req ~id:(Printf.sprintf "r%d" i) users_tpl)).Service.result
        with
        | Ok _ -> true
        | Error _ -> false)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  check (Alcotest.list bool_t) "same seed, same fault pattern" (outcome ()) (outcome ());
  check bool_t "a 0.5 rate both fires and spares across 8 requests" true
    (let o = outcome () in
     List.mem true o && List.mem false o)

let test_quarantine_trip_and_release () =
  let t = gov_svc ~quarantine_after:2 ~cooldown:0.05 () in
  let fail_once id =
    match (Service.run t (req ~id failing_tpl)).Service.result with
    | Error (Service.Generation_failed _) -> ()
    | r ->
      Alcotest.failf "%s: expected Generation_failed, got %s" id
        (match r with Ok _ -> "Ok" | Error e -> Service.error_to_string e)
  in
  fail_once "f1";
  fail_once "f2" (* second consecutive failure trips the breaker *);
  (match (Service.run t (req ~id:"f3" failing_tpl)).Service.result with
  | Error (Service.Quarantined { retry_after_s; _ }) ->
    check bool_t "cooldown echoed" true (retry_after_s > 0.)
  | r ->
    Alcotest.failf "expected Quarantined, got %s"
      (match r with Ok _ -> "Ok" | Error e -> Service.error_to_string e));
  (* Other templates are untouched by the open breaker. *)
  ignore (ok_exn (Service.run t (req ~id:"good" users_tpl)));
  Unix.sleepf 0.06;
  (* Past the cooldown the breaker closes and the template runs again. *)
  fail_once "f4";
  let c = Service.counters t in
  check int_t "one trip" 1 c.Service.quarantine_trips;
  check int_t "one rejection" 1 c.Service.quarantine_rejections;
  check int_t "one release" 1 c.Service.quarantine_releases

(* A quarantined template must not block other domains' work: a batch
   mixing rejected and healthy requests completes with the healthy ones
   untouched. *)
let test_quarantine_isolated_across_domains () =
  let t = gov_svc ~domains:4 ~quarantine_after:2 ~cooldown:30. () in
  List.iter
    (fun id -> ignore (Service.run t (req ~id failing_tpl)))
    [ "trip1"; "trip2" ];
  let rs =
    Service.run_batch t
      [
        req ~id:"bad1" failing_tpl;
        req ~id:"good1" users_tpl;
        req ~id:"bad2" failing_tpl;
        req ~engine:`Xq ~id:"good2"
          "<document><for nodes=\"type:User\"><li><label/></li></for></document>";
        req ~id:"bad3" failing_tpl;
        req ~id:"good3" report_tpl;
      ]
  in
  List.iter
    (fun (r : Service.response) ->
      let is_bad =
        Astring.String.is_prefix ~affix:"bad" r.Service.request_id
      in
      match r.Service.result with
      | Error (Service.Quarantined _) when is_bad -> ()
      | Ok _ when not is_bad -> ()
      | Ok _ -> Alcotest.failf "%s: quarantined template ran" r.Service.request_id
      | Error e ->
        Alcotest.failf "%s: %s" r.Service.request_id (Service.error_to_string e))
    rs;
  check int_t "three rejections" 3 (Service.counters t).Service.quarantine_rejections

(* ------------------------------------------------------------------ *)
(* The serial-vs-parallel oracle                                       *)
(* ------------------------------------------------------------------ *)

let oracle_batch () =
  (* A mixed batch: different templates, engines, and repeat traffic. *)
  List.concat_map
    (fun round ->
      [
        req ~id:(Printf.sprintf "u%d" round) users_tpl;
        req ~engine:`Functional ~id:(Printf.sprintf "r%d" round) report_tpl;
        req ~engine:`Xq ~id:(Printf.sprintf "x%d" round)
          "<document><for nodes=\"type:User\"><li><label/></li></for></document>";
      ])
    [ 1; 2; 3; 4 ]

let test_parallel_matches_serial () =
  let serial = Service.run_batch ~domains:1 (svc ()) (oracle_batch ()) in
  List.iter
    (fun domains ->
      let par = Service.run_batch ~domains (svc ()) (oracle_batch ()) in
      check int_t "same cardinality" (List.length serial) (List.length par);
      List.iter2
        (fun (a : Service.response) (b : Service.response) ->
          check string_t "ids in request order" a.Service.request_id b.Service.request_id;
          check string_t
            (Printf.sprintf "%s byte-identical across %d domains" a.Service.request_id
               domains)
            (ok_exn a).Service.document (ok_exn b).Service.document)
        serial par)
    [ 2; 4 ]

let test_pool_runs_everything_once () =
  let n = 37 in
  let tasks = Array.init n (fun i () -> i * i) in
  let results, stats = Service.Pool.run ~domains:4 tasks in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> check int_t "task result in its slot" (i * i) v
      | Error e -> Alcotest.failf "task %d failed: %s" i (Printexc.to_string e))
    results;
  check int_t "all tasks executed exactly once" n
    (Array.fold_left ( + ) 0 stats.Service.Pool.executed)

let test_pool_isolates_exceptions () =
  let tasks =
    Array.init 8 (fun i () -> if i = 3 then failwith "boom" else i)
  in
  let results, _ = Service.Pool.run ~domains:2 tasks in
  Array.iteri
    (fun i r ->
      match (i, r) with
      | 3, Error (Failure m) -> check string_t "the failure" "boom" m
      | 3, _ -> Alcotest.fail "task 3 should have failed"
      | _, Ok v -> check int_t "neighbours unharmed" i v
      | _, Error e -> Alcotest.failf "task %d failed: %s" i (Printexc.to_string e))
    results

(* ------------------------------------------------------------------ *)
(* The re-exported top-level API                                       *)
(* ------------------------------------------------------------------ *)

let test_lopsided_generate_document () =
  let model_xml = Awb.Xml_io.export_string banking in
  (match
     Lopsided.generate_document ~metamodel:Awb.Samples.it_architecture ~model_xml
       ~template_xml:users_tpl ()
   with
  | Ok { Lopsided.document; problems } ->
    check bool_t "document generated" true
      (Astring.String.is_infix ~affix:"<li>alice</li>" document);
    check bool_t "banking model problems surface" true (problems <> [])
  | Error m -> Alcotest.failf "generate_document failed: %s" m);
  match
    Lopsided.generate_document ~metamodel:Awb.Samples.it_architecture ~model_xml
      ~template_xml:"<oops" ()
  with
  | Error m -> check bool_t "typed template error" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "malformed template accepted"

let test_engine_dispatch_agreement () =
  let template =
    Xml_base.Parser.strip_whitespace (Xml_base.Parser.parse_string report_tpl)
  in
  let doc engine =
    Xml_base.Serialize.to_string
      (Docgen.generate ~engine banking ~template).Docgen.Spec.document
  in
  check string_t "host and functional agree through the dispatcher" (doc `Host)
    (doc `Functional);
  List.iter
    (fun e ->
      check bool_t "engine name round-trips" true
        (Docgen.engine_of_string (Docgen.engine_name e) = Ok e))
    Docgen.all_engines

(* ------------------------------------------------------------------ *)
(* Result cache (stale-while-revalidate support)                       *)
(* ------------------------------------------------------------------ *)

let test_result_cache_store_and_lookup () =
  let t =
    Service.create
      ~config:{ Service.default_config with Service.result_cache_cap = 8 }
      ()
  in
  let r = req ~id:"first" users_tpl in
  (* Before any generation: a miss. *)
  check bool_t "empty cache misses" true (Service.lookup_result t r = None);
  let out = ok_exn (Service.run t r) in
  (* A completed Full-level generation is cached; the lookup returns the
     same bytes plus a non-negative age. *)
  (match Service.lookup_result t (req ~id:"other-id" users_tpl) with
  | None -> Alcotest.fail "completed generation was not cached"
  | Some (cached, age_s) ->
    check string_t "cached document identical" out.Service.document
      cached.Service.document;
    check bool_t "age non-negative" true (age_s >= 0.));
  (* The key covers the engine: another engine's result is a miss. *)
  check bool_t "different engine misses" true
    (Service.lookup_result t (req ~engine:`Functional ~id:"x" users_tpl) = None);
  (* And the template bytes. *)
  check bool_t "different template misses" true
    (Service.lookup_result t
       (req ~id:"y" "<document><p>other</p></document>")
    = None);
  (* Failures are never cached. *)
  let bad =
    "<document><for nodes=\"start type(Document); sort-by label\">\
     <p><required-property name=\"version\"/></p></for></document>"
  in
  (match (Service.run t (req ~id:"fails" bad)).Service.result with
  | Ok _ -> Alcotest.fail "expected the required-property template to fail"
  | Error _ -> ());
  check bool_t "failure not cached" true (Service.lookup_result t (req ~id:"z" bad) = None);
  let c = Service.counters t in
  check bool_t "stores counted" true (c.Service.result_stores >= 1);
  check bool_t "hits counted" true (c.Service.result_hits >= 1);
  check bool_t "misses counted" true (c.Service.result_misses >= 3)

let test_result_cache_refresh_claim () =
  let t =
    Service.create
      ~config:{ Service.default_config with Service.result_cache_cap = 8 }
      ()
  in
  let r = req ~id:"r1" users_tpl in
  (* Nothing cached: nothing to refresh. *)
  check bool_t "no entry, no claim" false (Service.claim_refresh t r);
  ignore (ok_exn (Service.run t r));
  (* First claim wins; duplicates inside the cooldown are refused, so a
     burst of stale hits enqueues one background refresh, not dozens. *)
  check bool_t "first claim wins" true (Service.claim_refresh t r);
  check bool_t "duplicate claim refused" false (Service.claim_refresh t r);
  (* A successful re-generation stores afresh and resets the claim. *)
  ignore (ok_exn (Service.run t (req ~id:"r2" users_tpl)));
  check bool_t "claim reset by store" true (Service.claim_refresh t r)

let test_result_cache_disabled_by_default () =
  let t = svc () in
  let r = req ~id:"d1" users_tpl in
  ignore (ok_exn (Service.run t r));
  check bool_t "cap 0 stores nothing" true (Service.lookup_result t r = None);
  check int_t "no stores counted" 0 (Service.counters t).Service.result_stores

let test_request_level_reaches_engine () =
  let t = svc () in
  let toc_tpl =
    "<document><table-of-contents/><section><heading>Users</heading>\
     <p>body</p></section></document>"
  in
  let full = ok_exn (Service.run t (req ~id:"lvl-full" toc_tpl)) in
  let skel_req =
    Service.request ~level:Docgen.Spec.Skeleton ~id:"lvl-skel"
      ~template:(Service.Template_xml toc_tpl)
      ~model:(Service.Model_value banking) ()
  in
  let skel = ok_exn (Service.run t skel_req) in
  check bool_t "full computed the toc" true
    (Astring.String.is_infix ~affix:"toc-depth-0" full.Service.document);
  check bool_t "skeleton stubbed the toc" true
    (Astring.String.is_infix ~affix:"table-of-contents degraded" skel.Service.document)

let suite =
  [
    ( "service.lru",
      [
        Alcotest.test_case "hit/miss/eviction" `Quick test_lru_hit_miss_eviction;
        Alcotest.test_case "replace + zero capacity" `Quick test_lru_replace_and_zero_capacity;
      ] );
    ( "service.cache",
      [
        Alcotest.test_case "template cache hits" `Quick test_template_cache_hits;
        Alcotest.test_case "model cache hits" `Quick test_model_cache_hits;
        Alcotest.test_case "xq core compiled once" `Quick test_query_cache_via_xq_engine;
        Alcotest.test_case "compile_query cached" `Quick test_compile_query_cached;
        Alcotest.test_case "evictions counted" `Quick test_eviction_counted;
      ] );
    ( "service.requests",
      [
        Alcotest.test_case "deadline expiry is typed" `Quick test_deadline_expiry_is_typed;
        Alcotest.test_case "config default deadline" `Quick test_default_deadline_from_config;
        Alcotest.test_case "batch isolates errors" `Quick test_error_isolation_in_batch;
      ] );
    ( "service.governance",
      [
        Alcotest.test_case "mid-query deadline preemption" `Quick
          test_midquery_deadline_preemption;
        Alcotest.test_case "preempt deadline is sticky" `Quick
          test_preempt_deadline_is_sticky;
        Alcotest.test_case "transient retry recovers" `Quick test_transient_retry_recovers;
        Alcotest.test_case "transient exhausts retries" `Quick
          test_transient_exhausts_retries;
        Alcotest.test_case "fast fault degrades to seed" `Quick
          test_fast_fault_degrades_to_seed;
        Alcotest.test_case "injected fuel exhaustion" `Quick test_injected_fuel_exhaustion;
        Alcotest.test_case "injected deadline overrun" `Quick
          test_injected_deadline_overrun;
        Alcotest.test_case "fault injection is deterministic" `Quick
          test_fault_injection_deterministic;
        Alcotest.test_case "quarantine trips and releases" `Quick
          test_quarantine_trip_and_release;
        Alcotest.test_case "quarantine isolated across domains" `Quick
          test_quarantine_isolated_across_domains;
      ] );
    ( "service.parallel",
      [
        Alcotest.test_case "parallel output = serial output (2, 4 domains)" `Quick
          test_parallel_matches_serial;
        Alcotest.test_case "pool executes each task once" `Quick
          test_pool_runs_everything_once;
        Alcotest.test_case "pool isolates exceptions" `Quick test_pool_isolates_exceptions;
      ] );
    ( "service.result-cache",
      [
        Alcotest.test_case "store and lookup" `Quick test_result_cache_store_and_lookup;
        Alcotest.test_case "refresh claim dedup" `Quick test_result_cache_refresh_claim;
        Alcotest.test_case "disabled by default" `Quick test_result_cache_disabled_by_default;
        Alcotest.test_case "request level reaches the engine" `Quick
          test_request_level_reaches_engine;
      ] );
    ( "service.api",
      [
        Alcotest.test_case "Lopsided.generate_document" `Quick test_lopsided_generate_document;
        Alcotest.test_case "engine dispatcher agreement" `Quick
          test_engine_dispatch_agreement;
      ] );
  ]
