(* The Fast mode — the compiled plan executor with its doc-order keys,
   hash node-set algebra and early-exit streams — must be an
   optimization, not a dialect: on any query it accepts, it has to
   produce byte-identical output to the seed algorithms of the reference
   tree-walker. The randomized oracle here runs every (document, query)
   pair three ways — optimized + fast, optimized + seed, unoptimized +
   seed — and requires the same display string from all three.

   The query grammar is deliberately restricted to non-raising
   constructs: every generated query is valid on every generated
   document (empty results are fine), so a mismatch can only mean an
   evaluator bug, never a differently-reported error. *)

module N = Xml_base.Node
module E = Xquery.Engine
module V = Xquery.Value

(* ------------------------------------------------------------------ *)
(* Random documents                                                   *)
(* ------------------------------------------------------------------ *)

let tags = [ "a"; "b"; "c"; "d" ]
let values = [ "v1"; "v2"; "v3" ]

let gen_doc : N.t QCheck.arbitrary =
  let open QCheck.Gen in
  (* Nodes are mutable and single-parent: build fresh trees at sample
     time, never share a node value across generated documents. *)
  let rec node depth =
    if depth = 0 then map N.text (oneofl [ "x"; "y"; "v1" ])
    else
      let* tag = oneofl tags in
      let* with_attr = bool in
      let* attrs =
        if with_attr then
          let* v = oneofl values in
          return [ N.attribute "v" v ]
        else return []
      in
      let* fanout = int_range 0 3 in
      let* children = list_repeat fanout (node (depth - 1)) in
      return (N.element ~attrs ~children tag)
  in
  let g =
    let* kids = list_repeat 3 (node 3) in
    return (N.document [ N.element ~children:kids "root" ])
  in
  QCheck.make ~print:Xml_base.Serialize.to_string g

(* ------------------------------------------------------------------ *)
(* Random queries                                                     *)
(* ------------------------------------------------------------------ *)

(* Everything here is total on the documents above: paths may come back
   empty, string comparisons over untyped attribute values never raise,
   and a context item is always bound (hoisted paths evaluate even when
   the loop they were lifted from is empty). *)
let gen_query : string QCheck.arbitrary =
  let open QCheck.Gen in
  let path =
    oneofl
      [
        "//a"; "//b"; "//c"; "//a//b"; "//b/c"; "/root/a"; "//a/@v"; "//b/@v";
        "//*/@v"; "//a/text()";
        (* node-only EBV predicates: the lazy layer streams these *)
        "//a[b]"; "//a[@v]"; "//a//b[c]";
      ]
  in
  let nodeset =
    oneof
      [
        path;
        (let* p = path in
         let* q = path in
         return (Printf.sprintf "(%s | %s)" p q));
        (let* p = path in
         let* q = path in
         return (Printf.sprintf "(%s intersect %s)" p q));
        (let* p = path in
         let* q = path in
         return (Printf.sprintf "(%s except %s)" p q));
      ]
  in
  let g =
    oneof
      [
        nodeset;
        (let* p = nodeset in
         return (Printf.sprintf "count(%s)" p));
        (let* p = nodeset in
         return (Printf.sprintf "exists(%s)" p));
        (let* p = nodeset in
         return (Printf.sprintf "empty(%s)" p));
        (let* p = nodeset in
         let* k = int_range 1 3 in
         return (Printf.sprintf "(%s)[%d]" p k));
        (* the count-comparison rewrite targets, both orders *)
        (let* p = nodeset in
         return (Printf.sprintf "count(%s) > 0" p));
        (let* p = nodeset in
         return (Printf.sprintf "count(%s) = 0" p));
        (let* p = nodeset in
         return (Printf.sprintf "0 < count(%s)" p));
        (* existential general comparison over untyped values *)
        (let* p = path in
         let* v = oneofl values in
         return (Printf.sprintf "%s = \"%s\"" p v));
        (let* p = path in
         let* v = oneofl values in
         return (Printf.sprintf "%s != \"%s\"" p v));
        (let* p = path in
         return (Printf.sprintf "distinct-values(%s)" p));
        (* quantifiers with lazy sources *)
        (let* p = path in
         let* v = oneofl values in
         return (Printf.sprintf "some $x in %s satisfies $x = \"%s\"" p v));
        (let* p = path in
         let* v = oneofl values in
         return (Printf.sprintf "every $x in %s satisfies $x = \"%s\"" p v));
        (* FLWORs: invariant-path hoisting, positional variables, where *)
        (let* p = path in
         let* q = path in
         return (Printf.sprintf "for $x in %s return count(%s)" p q));
        (let* p = path in
         let* q = oneofl [ "b"; "c"; "@v" ] in
         return (Printf.sprintf "for $x in %s where exists($x/%s) return $x" p q));
        (let* p = path in
         return (Printf.sprintf "for $x at $i in %s where $i = 2 return $x" p));
        (let* p = path in
         let* q = path in
         return
           (Printf.sprintf "for $x in %s let $y := count(%s) where $y > 1 return $y" p
              q));
      ]
  in
  QCheck.make ~print:(fun s -> s) g

let run ?(optimize = true) ~mode doc q =
  V.to_display_string (E.eval_query ~optimize ~mode ~context_item:(V.Node doc) q)

let prop_fast_matches_seed =
  QCheck.Test.make ~name:"random queries: plan executor (fast) = seed = unoptimized seed"
    ~count:500
    (QCheck.pair gen_doc gen_query)
    (fun (doc, q) ->
      let fast = run ~mode:E.Exec_opts.Fast doc q in
      let seed = run ~mode:E.Exec_opts.Seed doc q in
      let raw = run ~optimize:false ~mode:E.Exec_opts.Seed doc q in
      if fast <> seed then
        QCheck.Test.fail_reportf "fast/seed disagree on %s:\n  fast: %s\n  seed: %s" q
          fast seed
      else if seed <> raw then
        QCheck.Test.fail_reportf "optimizer changed %s:\n  opt: %s\n  raw: %s" q seed
          raw
      else true)

(* ------------------------------------------------------------------ *)
(* Document-order keys under mutation                                 *)
(* ------------------------------------------------------------------ *)

let all_nodes doc =
  List.concat_map (fun n -> n :: N.attributes n) (N.descendant_or_self doc)

let sign x = compare x 0

(* Every pair, both orders: the O(1) cached-key comparator must agree
   with the seed's path-walking comparator. *)
let check_order_agrees what doc =
  let ns = all_nodes doc in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let fast = sign (N.compare_document_order a b) in
          let slow = sign (N.compare_document_order_via_paths a b) in
          if fast <> slow then
            Alcotest.failf "%s: keys disagree with paths (%d vs %d) for #%d / #%d" what
              fast slow (N.id a) (N.id b))
        ns)
    ns

let build_mutation_doc () =
  let leaf i = N.element ~attrs:[ N.attribute "v" (string_of_int i) ] "leaf" in
  let sec i =
    N.element ~children:(List.init 3 (fun j -> leaf ((10 * i) + j))) "sec"
  in
  N.document [ N.element ~children:(List.init 3 sec) "root" ]

let test_doc_order_keys_mutation () =
  let doc = build_mutation_doc () in
  check_order_agrees "fresh tree" doc;
  let root = List.hd (N.children doc) in
  let secs = N.children root in
  (* append after the numbering is cached: the key cache must notice *)
  N.append_child root (N.element "appendix");
  check_order_agrees "after append_child" doc;
  N.insert_child root 1 (N.element "inserted");
  check_order_agrees "after insert_child" doc;
  (* structural reorder through set_children *)
  let kids = N.children root in
  List.iter N.detach kids;
  N.set_children root (List.rev kids);
  check_order_agrees "after set_children reorder" doc;
  (* detach a subtree, check the remaining tree, then graft it back *)
  let sec0 = List.hd secs in
  N.detach sec0;
  check_order_agrees "after detach (remaining tree)" doc;
  check_order_agrees "after detach (detached subtree)" sec0;
  N.append_child root sec0;
  check_order_agrees "after re-adopt" doc;
  (* attribute mutations renumber too: attributes carry order keys *)
  N.set_attribute root "id" "r1";
  check_order_agrees "after set_attribute" doc;
  N.remove_attribute root "id";
  check_order_agrees "after remove_attribute" doc

(* Four domains sort the same freshly built — hence unnumbered — tree:
   each must observe the same correct order even though they race to
   build the lazy pre-order numbering (the renumber publication goes
   through the atomic valid flag). *)
let test_doc_order_concurrent_domains () =
  let leaf i = N.element ~attrs:[ N.attribute "v" (string_of_int i) ] "leaf" in
  let sec i =
    N.element ~children:(List.init 20 (fun j -> leaf ((100 * i) + j))) "sec"
  in
  let doc = N.document [ N.element ~children:(List.init 50 sec) "root" ] in
  let ns = all_nodes doc in
  let expected = List.map N.id (List.sort N.compare_document_order_via_paths ns) in
  let sort () = List.map N.id (List.sort N.compare_document_order ns) in
  let workers = List.init 4 (fun _ -> Domain.spawn sort) in
  List.iteri
    (fun i d ->
      Alcotest.(check (list int))
        (Printf.sprintf "domain %d agrees with the path oracle" i)
        expected (Domain.join d))
    workers

let test_doc_order_cross_tree () =
  let d1 = build_mutation_doc () and d2 = build_mutation_doc () in
  let a = List.hd (N.children d1) and b = List.hd (N.children d2) in
  (* distinct trees: both comparators order them consistently and
     asymmetrically *)
  let ab = sign (N.compare_document_order a b) in
  let ba = sign (N.compare_document_order b a) in
  Alcotest.(check int) "cross-tree antisymmetric" (-ab) ba;
  Alcotest.(check bool) "cross-tree decided" true (ab <> 0)

(* ------------------------------------------------------------------ *)
(* Fast/seed agreement on reviewed edge cases                         *)
(* ------------------------------------------------------------------ *)

(* Errors count as observable outcomes: the plan executor must raise
   exactly when the seed raises, with the same code and message. *)
let check_fast_matches_seed doc q =
  let show mode =
    try run ~mode doc q
    with Xquery.Errors.Error _ as e -> "raised " ^ Printexc.to_string e
  in
  Alcotest.(check string) q (show E.Exec_opts.Seed) (show E.Exec_opts.Fast)

let test_lazy_ebv_duplicate_atomics () =
  (* (//a//b) reaches the single <b> through both nested <a>s; the seed
     dedups the parenthesized node set before /name() atomizes it, so
     its EBV sees one atomic — an undeduped stream would see two and
     raise FORG0006. The plan executor must materialize atomizing
     operands and agree with the seed (including on the unparenthesized
     forms, where duplicate atomics make BOTH modes raise). *)
  let doc = Xml_base.Parser.parse_string "<root><a><a><b>x</b></a></a></root>" in
  List.iter (check_fast_matches_seed doc)
    [
      "boolean((//a//b)/name())";
      "not((//a//b)/name())";
      "boolean(//a//b/name())";
      "not(//a//b/name())";
      "boolean(//a//b/text())";
      "boolean(//a//b)";
      "exists(//a//b[ancestor::a])";
      "some $x in //a//b satisfies $x = \"x\"";
    ];
  Alcotest.(check string) "atomizing path EBV" "true"
    (run ~mode:E.Exec_opts.Fast doc "boolean((//a//b)/name())")

let test_lazy_filter_streams_correctly () =
  (* Nested <a>s: //a//b reaches the inner <b> twice, and a depth-first
     walk of //a/b meets the outer <a>'s <b>x</b> before the inner <a>'s
     <b>2</b>, out of document order. *)
  let doc =
    Xml_base.Parser.parse_string
      "<root><a><b>1</b><a><b>2<c/></b></a><b>x</b></a><a v=\"1\"/><a><d/></a></root>"
  in
  List.iter (check_fast_matches_seed doc)
    [
      "exists(//a[b])";
      "empty(//a[b])";
      "exists(//a[@v])";
      "exists(//a//b[c])";
      "count(//a[b])";
      (* positional predicates must NOT stream: stream order/multiplicity
         differs from the eager deduped base *)
      "exists((//a//b)[2])";
      "count((//a//b)[1])";
      "//a//b";
      "//a/b";
      "(//a/b)[2]";
      "exists(//a/b)";
      "boolean(//a//b)";
      "//a//b = \"2\"";
      (* "x" = 2 raises FORG0001: the witness "2" must be found first *)
      "//a/b = 2";
      "//a//b != 1";
      (* bodies that raise on an item after the witness (document order) *)
      "some $x in //a/b satisfies (if ($x = \"2\") then true() else if ($x = \"x\") then \
       error() else false())";
      "every $x in //a/b satisfies (if ($x = \"2\") then false() else if ($x = \"x\") \
       then error() else true())";
      "some $x in //a//b satisfies (if ($x = \"1\") then true() else error())";
      "some $i in 1 to 10 satisfies (if ($i = 2) then true() else if ($i > 2) then \
       error() else false())";
      (* streamed EBV: ranges and node-only loops *)
      "boolean(5 to 5)";
      "boolean(0 to 0)";
      "boolean(1 to 3)";
      "not(for $x in //a return $x/b)";
      "if (for $x in //a return $x/d) then 1 else 2";
    ]

let test_distinct_values_large_ints () =
  let doc = Xml_base.Parser.parse_string "<r/>" in
  let q = "distinct-values((9007199254740993, 9007199254740992, 9007199254740993))" in
  check_fast_matches_seed doc q;
  (* 2^53 and 2^53+1 collapse to the same double; as ints they must stay
     distinct, exactly as the seed's int/int comparison keeps them. *)
  Alcotest.(check string) "big ints stay distinct"
    "9007199254740993 9007199254740992" (run ~mode:E.Exec_opts.Fast doc q);
  (* doubles mixed with non-representable ints fall back to the scan *)
  check_fast_matches_seed doc
    "distinct-values((9007199254740993, 9007199254740992.0))";
  check_fast_matches_seed doc "distinct-values((1, 1.0, 2, \"s\"))"

(* ------------------------------------------------------------------ *)
(* Optimizer rewrites                                                 *)
(* ------------------------------------------------------------------ *)

let opt_stats q =
  match (E.compile q).E.opt_stats with
  | Some st -> st
  | None -> Alcotest.fail "optimizer stats missing"

let test_count_cmp_rewrite () =
  let st = opt_stats "count(//a) > 0" in
  Alcotest.(check int) "count(e) > 0 rewritten" 1
    st.Xquery.Optimizer.count_cmp_rewrites;
  let st = opt_stats "0 = count(//a)" in
  Alcotest.(check int) "0 = count(e) rewritten" 1
    st.Xquery.Optimizer.count_cmp_rewrites;
  (* count against a non-sentinel literal is left alone *)
  let st = opt_stats "count(//a) > 2" in
  Alcotest.(check int) "count(e) > 2 untouched" 0
    st.Xquery.Optimizer.count_cmp_rewrites

let test_path_hoisting () =
  let st = opt_stats "for $x in //a return count(//b)" in
  Alcotest.(check int) "invariant path hoisted" 1 st.Xquery.Optimizer.paths_hoisted;
  (* a path over the loop variable depends on the binding: not hoisted *)
  let st = opt_stats "for $x in //a return count($x/b)" in
  Alcotest.(check int) "variant path kept" 0 st.Xquery.Optimizer.paths_hoisted

(* ------------------------------------------------------------------ *)
(* Service counters                                                   *)
(* ------------------------------------------------------------------ *)

let test_service_opt_counters () =
  let svc = Service.create () in
  let q = "for $x in //a return count(//b) > 0" in
  (match Service.compile_query svc q with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "compile failed: %s" m);
  (* second compile is a cache hit and must not double-count the pass *)
  ignore (Service.compile_query svc q);
  let c = Service.counters svc in
  Alcotest.(check int) "count rewrites accumulated once" 1
    c.Service.opt_count_rewrites;
  Alcotest.(check int) "hoists accumulated once" 1 c.Service.opt_paths_hoisted;
  Alcotest.(check int) "one miss" 1 c.Service.query_misses;
  Alcotest.(check int) "one hit" 1 c.Service.query_hits

let suite =
  [
    ( "eval.fast-path-oracle",
      List.map QCheck_alcotest.to_alcotest [ prop_fast_matches_seed ] );
    ( "eval.doc-order-keys",
      [
        Alcotest.test_case "keys agree with paths across mutations" `Quick
          test_doc_order_keys_mutation;
        Alcotest.test_case "cross-tree comparisons stay consistent" `Quick
          test_doc_order_cross_tree;
        Alcotest.test_case "concurrent domains agree on one shared tree" `Quick
          test_doc_order_concurrent_domains;
      ] );
    ( "eval.fast-path-edge-cases",
      [
        Alcotest.test_case "EBV of atomizing paths with duplicate nodes" `Quick
          test_lazy_ebv_duplicate_atomics;
        Alcotest.test_case "streamed filters agree with eager filters" `Quick
          test_lazy_filter_streams_correctly;
        Alcotest.test_case "distinct-values keeps large ints exact" `Quick
          test_distinct_values_large_ints;
      ] );
    ( "eval.optimizer-rewrites",
      [
        Alcotest.test_case "count comparisons become exists/empty" `Quick
          test_count_cmp_rewrite;
        Alcotest.test_case "loop-invariant paths hoist to lets" `Quick
          test_path_hoisting;
        Alcotest.test_case "service accumulates optimizer stats" `Quick
          test_service_opt_counters;
      ] );
  ]
