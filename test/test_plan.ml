(* The compiled plan executor (the Fast mode): the unified Exec_opts
   API, resource governance charged inside plan operators (not just
   between them), data-parallel loop fragments, and the service layer's
   plan cache and counters.

   Result identity against the seed algorithms is covered by the
   three-way randomized oracle in test_eval_perf; this file covers the
   properties the oracle can't see — budgets tripping mid-plan, parallel
   determinism, and accounting. *)

module E = Xquery.Engine
module V = Xquery.Value
module N = Xml_base.Node

let check = Alcotest.check
let string_t = Alcotest.string
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let plan_opts ?limits ?context_item ?pool () =
  E.Exec_opts.make ~mode:E.Exec_opts.Fast ?limits ?context_item ?pool ()

let run_plan ?limits ?context_item ?pool q =
  E.run ~opts:(plan_opts ?limits ?context_item ?pool ()) (E.compile q)

let display ?limits ?context_item ?pool q =
  V.to_display_string (run_plan ?limits ?context_item ?pool q)

(* ------------------------------------------------------------------ *)
(* Exec_opts                                                           *)
(* ------------------------------------------------------------------ *)

let test_exec_opts_defaults () =
  let d = E.Exec_opts.default in
  check bool_t "default mode is Fast" true (d.E.Exec_opts.mode = E.Exec_opts.Fast);
  check bool_t "no limits" true (d.E.Exec_opts.limits = None);
  check bool_t "full level" true (d.E.Exec_opts.level = E.Exec_opts.Full);
  check bool_t "no pool" true (d.E.Exec_opts.pool = None);
  check string_t "mode names round-trip" "fast"
    (E.Exec_opts.mode_name E.Exec_opts.Fast);
  (match E.Exec_opts.mode_of_string "seed" with
  | Ok E.Exec_opts.Seed -> ()
  | _ -> Alcotest.fail "mode_of_string seed");
  List.iter
    (fun m ->
      match E.Exec_opts.mode_of_string m with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "unknown mode %s accepted" m)
    [ "turbo"; "plan" ]

let test_run_modes_agree () =
  let q = "for $x in 1 to 5 return $x * $x" in
  let c = E.compile q in
  let run mode = V.to_display_string (E.run ~opts:(E.Exec_opts.make ~mode ()) c) in
  check string_t "seed = fast" (run E.Exec_opts.Seed) (run E.Exec_opts.Fast)

let test_plan_memoized () =
  let c = E.compile "1 + 1" in
  check bool_t "no plan before first use" false (E.plan_cached c);
  ignore (E.run ~opts:(plan_opts ()) c);
  check bool_t "plan memoized after a run" true (E.plan_cached c);
  ignore (E.plan_of c);
  check bool_t "still cached" true (E.plan_cached c)

let test_explain_renders_plan () =
  let c = E.compile "/doc/a/b" in
  let text = E.explain c ~mode:E.Exec_opts.Fast in
  check bool_t "mentions the pipeline" true
    (Astring.String.is_infix ~affix:"child::a" text);
  check bool_t "mentions the rewriter stats" true
    (Astring.String.is_infix ~affix:"plan rewriter" text)

(* ------------------------------------------------------------------ *)
(* Budgets charge inside plan operators                                *)
(* ------------------------------------------------------------------ *)

let expect_trip resource ?limits q =
  match run_plan ?limits q with
  | _ -> Alcotest.failf "%s: expected a %s trip" q (Xquery.Errors.resource_code resource)
  | exception Xquery.Errors.Resource_exhausted { resource = r; _ } ->
    check string_t q
      (Xquery.Errors.resource_code resource)
      (Xquery.Errors.resource_code r)

let test_fuel_trips_in_plan_loop () =
  (* The tight for-loop must tick per iteration: a million-iteration loop
     under a 10k-step budget dies mid-loop, not after materializing. *)
  expect_trip Xquery.Errors.Fuel
    ~limits:(Xquery.Context.make_limits ~fuel:10_000 ())
    "for $i in 1 to 1000000 return $i"

let test_fuel_trips_in_range () =
  expect_trip Xquery.Errors.Fuel
    ~limits:(Xquery.Context.make_limits ~fuel:10_000 ())
    "count(1 to 10000000)"

let test_fuel_trips_in_step_pipeline () =
  (* Path steps tick per candidate node inside the fused pipeline. *)
  let kids = List.init 2000 (fun _ -> N.element ~children:[ N.element "b" ] "a") in
  let doc = N.document [ N.element ~children:kids "root" ] in
  match
    E.run
      ~opts:
        (plan_opts
           ~limits:(Xquery.Context.make_limits ~fuel:500 ())
           ~context_item:(V.Node doc) ())
      (E.compile "count(//a/b)")
  with
  | _ -> Alcotest.fail "expected a fuel trip inside the step pipeline"
  | exception Xquery.Errors.Resource_exhausted { resource = Xquery.Errors.Fuel; _ } -> ()

let test_deadline_trips_in_plan () =
  expect_trip Xquery.Errors.Deadline
    ~limits:(Xquery.Context.make_limits ~deadline_ns:(Clock.now_ns () - 1) ())
    "for $i in 1 to 1000000 return $i"

let test_depth_trips_in_plan_calls () =
  expect_trip Xquery.Errors.Depth
    ~limits:(Xquery.Context.make_limits ~max_depth:64 ())
    "declare function local:f($n) { local:f($n + 1) }; local:f(1)"

let test_nodes_trip_in_plan_construction () =
  (* The node budget charges copied {e content} (an empty <x/> is free,
     in every mode); give each constructed element a child. *)
  expect_trip Xquery.Errors.Nodes
    ~limits:(Xquery.Context.make_limits ~max_nodes:100 ())
    "for $i in 1 to 100000 return <x><y/></x>"

let test_untripped_budgets_change_nothing () =
  let q = "for $i in 1 to 100 return $i * 2" in
  let generous =
    Xquery.Context.make_limits ~fuel:100_000_000 ~max_depth:100_000
      ~max_nodes:100_000_000 ()
  in
  check string_t "generous budgets are invisible" (display q) (display ~limits:generous q)

(* ------------------------------------------------------------------ *)
(* Data-parallel loop fragments                                        *)
(* ------------------------------------------------------------------ *)

(* A pool that actually crosses domains: four workers race over the task
   array. The executor must produce output identical to the sequential
   run no matter how the chunks interleave. *)
let domain_pool ?(workers = 4) () =
  fun (tasks : (unit -> unit) array) ->
    let n = Array.length tasks in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        tasks.(i) ();
        work ()
      end
    in
    let doms = List.init (workers - 1) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join doms

let test_parallel_fragment_determinism () =
  (* Big enough to cross the parallel threshold; the body is pure
     arithmetic, so the loop is parallel-safe. *)
  let q = "for $i in 1 to 5000 return $i * 7 - 3" in
  let sequential = display q in
  for _ = 1 to 5 do
    check string_t "parallel run = sequential run" sequential
      (display ~pool:(domain_pool ()) q)
  done

let test_parallel_fragment_nodes () =
  (* Node results from worker domains concatenate in loop order. *)
  let kids = List.init 1000 (fun i -> N.element ~children:[ N.text (string_of_int i) ] "a") in
  let doc = N.document [ N.element ~children:kids "root" ] in
  let ctx = V.Node doc in
  let q = "for $x in //a return $x" in
  check string_t "node order preserved across domains"
    (V.to_display_string (run_plan ~context_item:ctx q))
    (V.to_display_string (run_plan ~context_item:ctx ~pool:(domain_pool ()) q))

let test_parallel_fragment_error_determinism () =
  (* Whichever chunk fails first in loop order must win: the same error
     a sequential run reports, every time. *)
  let q = "for $i in 1 to 2000 return if ($i = 1500) then 1 div 0 else $i" in
  let show f = try ignore (f ()); "no error" with e -> Printexc.to_string e in
  let sequential = show (fun () -> run_plan q) in
  for _ = 1 to 5 do
    check string_t "same error as sequential" sequential
      (show (fun () -> run_plan ~pool:(domain_pool ()) q))
  done

let test_parallel_respects_finite_budgets () =
  (* A finite fuel budget pins the loop to the sequential path (shared
     mutable budget accounting doesn't cross domains), and the budget
     still trips. *)
  match
    run_plan
      ~limits:(Xquery.Context.make_limits ~fuel:1_000 ())
      ~pool:(domain_pool ()) "for $i in 1 to 5000 return $i"
  with
  | _ -> Alcotest.fail "expected a fuel trip"
  | exception Xquery.Errors.Resource_exhausted { resource = Xquery.Errors.Fuel; _ } -> ()

(* ------------------------------------------------------------------ *)
(* The service layer: plan cache, counters, run_query, stylesheets     *)
(* ------------------------------------------------------------------ *)

let plan_svc ?(domains = 1) () =
  Service.create
    ~config:
      { Service.default_config with Service.domains }
    ()

let test_service_plan_counters () =
  let t = plan_svc () in
  (match Service.run_query t "1 + 1" with
  | Ok v -> check string_t "result" "2" (V.to_display_string v)
  | Error e -> Alcotest.failf "run_query failed: %s" (Service.error_to_string e));
  (match Service.run_query t "1 + 1" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "second run failed: %s" (Service.error_to_string e));
  let c = Service.counters t in
  check int_t "one plan compile" 1 c.Service.plan_compiles;
  check int_t "one plan-cache hit" 1 c.Service.plan_hits;
  check int_t "two plan runs" 2 c.Service.plan_execs;
  check int_t "one query-cache miss" 1 c.Service.query_misses;
  check int_t "one query-cache hit" 1 c.Service.query_hits;
  check int_t "both requests succeeded" 2 c.Service.succeeded

let test_service_run_query_budget () =
  let t =
    Service.create
      ~config:
        {
          Service.default_config with
          Service.fuel = Some 1_000;
        }
      ()
  in
  match Service.run_query t "for $i in 1 to 1000000 return $i" with
  | Ok _ -> Alcotest.fail "expected a budget trip through run_query"
  | Error (Service.Resource_exhausted { resource = Xquery.Errors.Fuel; _ }) ->
    let c = Service.counters t in
    check int_t "counted as a resource failure" 1 c.Service.resource_failures
  | Error e -> Alcotest.failf "wrong error: %s" (Service.error_to_string e)

let test_service_run_query_bad_query () =
  let t = plan_svc () in
  match Service.run_query t "1 +" with
  | Ok _ -> Alcotest.fail "parse error expected"
  | Error (Service.Generation_failed _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Service.error_to_string e)

let test_service_parallel_fragments_counter () =
  let t = plan_svc ~domains:4 () in
  (match Service.run_query t "for $i in 1 to 5000 return $i * 2" with
  | Ok v -> check int_t "all items" 5000 (List.length v)
  | Error e -> Alcotest.failf "run_query failed: %s" (Service.error_to_string e));
  let c = Service.counters t in
  check bool_t "at least one parallel fragment" true (c.Service.plan_parallel_fragments >= 1)

let test_service_stylesheet_cache () =
  let t = plan_svc () in
  let xsl =
    "<xsl:stylesheet xmlns:xsl=\"http://www.w3.org/1999/XSL/Transform\">\
     <xsl:template match=\"/\"><out><xsl:apply-templates/></out></xsl:template>\
     <xsl:template match=\"b\"><bee/></xsl:template></xsl:stylesheet>"
  in
  let doc = Xml_base.Parser.parse_string "<a><b/><b/></a>" in
  let apply () =
    match Service.apply_stylesheet t ~stylesheet_xml:xsl doc with
    | Ok nodes -> String.concat "" (List.map Xml_base.Serialize.to_string nodes)
    | Error e -> Alcotest.failf "apply failed: %s" (Service.error_to_string e)
  in
  check string_t "transform output" "<out><bee/><bee/></out>" (apply ());
  check string_t "second application" "<out><bee/><bee/></out>" (apply ());
  let c = Service.counters t in
  check int_t "one stylesheet miss" 1 c.Service.stylesheet_misses;
  check int_t "one stylesheet hit" 1 c.Service.stylesheet_hits;
  match Service.compile_stylesheet t "<not-a-stylesheet/>" with
  | Error (Service.Template_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "bad stylesheet accepted"

let suite =
  [
    ( "plan.exec-opts",
      [
        Alcotest.test_case "defaults and mode parsing" `Quick test_exec_opts_defaults;
        Alcotest.test_case "two modes, one answer" `Quick test_run_modes_agree;
        Alcotest.test_case "plan is memoized on the compiled record" `Quick
          test_plan_memoized;
        Alcotest.test_case "explain renders the plan" `Quick test_explain_renders_plan;
      ] );
    ( "plan.budgets",
      [
        Alcotest.test_case "fuel trips inside the tight loop" `Quick
          test_fuel_trips_in_plan_loop;
        Alcotest.test_case "fuel trips inside a range" `Quick test_fuel_trips_in_range;
        Alcotest.test_case "fuel trips inside a fused step pipeline" `Quick
          test_fuel_trips_in_step_pipeline;
        Alcotest.test_case "expired deadline preempts the loop" `Quick
          test_deadline_trips_in_plan;
        Alcotest.test_case "recursion depth trips in plan calls" `Quick
          test_depth_trips_in_plan_calls;
        Alcotest.test_case "node budget trips in plan construction" `Quick
          test_nodes_trip_in_plan_construction;
        Alcotest.test_case "untripped budgets change nothing" `Quick
          test_untripped_budgets_change_nothing;
      ] );
    ( "plan.parallel",
      [
        Alcotest.test_case "4-domain fragments = sequential output" `Quick
          test_parallel_fragment_determinism;
        Alcotest.test_case "node order survives the fan-out" `Quick
          test_parallel_fragment_nodes;
        Alcotest.test_case "first error in loop order wins" `Quick
          test_parallel_fragment_error_determinism;
        Alcotest.test_case "finite budgets force the sequential path" `Quick
          test_parallel_respects_finite_budgets;
      ] );
    ( "plan.service",
      [
        Alcotest.test_case "plan cache counters" `Quick test_service_plan_counters;
        Alcotest.test_case "run_query maps budget trips" `Quick
          test_service_run_query_budget;
        Alcotest.test_case "run_query maps parse errors" `Quick
          test_service_run_query_bad_query;
        Alcotest.test_case "parallel fragments counted" `Quick
          test_service_parallel_fragments_counter;
        Alcotest.test_case "stylesheet cache and errors" `Quick
          test_service_stylesheet_cache;
      ] );
  ]
