let () =
  (* The shard tests spawn backend processes by re-exec'ing this binary;
     when this IS such a backend, serve frames and exit instead of
     running the suite. Must come before anything else in main. *)
  Server.Shard.maybe_run_backend ();
  (* Likewise the store tests spawn crash-oracle child ingesters and
     replica store backends. *)
  Store.Oracle.maybe_run_child ();
  Store.Replica.maybe_run_backend ();
  Alcotest.run "lopsided"
    (Test_xml_base.suite @ Test_xquery.suite @ Test_xquery_extra.suite @ Test_awb.suite @ Test_awb_edit.suite @ Test_awb_store.suite @ Test_awb_query.suite
   @ Test_docgen.suite @ Test_eval_perf.suite @ Test_plan.suite @ Test_docgen_random.suite @ Test_xqlib.suite @ Test_xslt.suite @ Test_use_cases.suite @ Test_golden.suite @ Test_cli.suite @ Test_paper_tables.suite @ Test_service.suite @ Test_limits.suite @ Test_server.suite @ Test_shard.suite @ Test_chaos.suite @ Test_store.suite @ Test_backend.suite)
