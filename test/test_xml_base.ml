(* Tests for the XML substrate: node model, parser, serializer. *)

module N = Xml_base.Node
module P = Xml_base.Parser
module S = Xml_base.Serialize

let check = Alcotest.check
let string_t = Alcotest.string
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let parse = P.parse_string
let root_elt s = match N.children (parse s) with e :: _ -> e | [] -> assert false

(* ------------------------------------------------------------------ *)
(* Node model                                                          *)
(* ------------------------------------------------------------------ *)

let test_construction () =
  let e =
    N.element "book"
      ~attrs:[ N.attribute "year" "1983" ]
      ~children:[ N.text "hi"; N.element "chapter" ]
  in
  check string_t "name" "book" (N.name e);
  check int_t "children" 2 (List.length (N.children e));
  check int_t "attributes" 1 (List.length (N.attributes e));
  check (Alcotest.option string_t) "attr" (Some "1983") (N.attr e "year");
  check (Alcotest.option string_t) "missing attr" None (N.attr e "missing")

let test_parent_links () =
  let kid = N.element "kid" in
  let e = N.element "parent" ~children:[ kid ] in
  (match N.parent kid with
  | Some p -> check bool_t "parent is e" true (N.same p e)
  | None -> Alcotest.fail "kid should have a parent");
  check bool_t "root" true (N.same (N.root kid) e)

let test_single_parent_enforced () =
  let kid = N.element "kid" in
  let _ = N.element "a" ~children:[ kid ] in
  Alcotest.check_raises "second attach rejected"
    (Invalid_argument
       "Xml_base.Node: node already has a parent (detach or copy it first)")
    (fun () -> ignore (N.element "b" ~children:[ kid ]))

let test_string_value () =
  let e = root_elt "<a>one<b>two<c>three</c></b><!--no-->four</a>" in
  check string_t "concatenated text" "onetwothreefour" (N.string_value e)

let test_descendants_order () =
  let e = root_elt "<a><b><c/></b><d/></a>" in
  let names = List.map N.name (N.descendants e) in
  check (Alcotest.list string_t) "document order" [ "b"; "c"; "d" ] names

let test_axes () =
  let e = root_elt "<a><b/><c/><d/><e/></a>" in
  let c = List.nth (N.children e) 1 in
  check (Alcotest.list string_t) "following" [ "d"; "e" ]
    (List.map N.name (N.following_siblings c));
  check (Alcotest.list string_t) "preceding nearest-first" [ "b" ]
    (List.map N.name (N.preceding_siblings c));
  let d = List.nth (N.children e) 2 in
  check (Alcotest.list string_t) "preceding of d" [ "c"; "b" ]
    (List.map N.name (N.preceding_siblings d));
  check (Alcotest.list string_t) "ancestors nearest-first" [ "a" ]
    (List.filter_map
       (fun n -> if N.is_element n then Some (N.name n) else None)
       (N.ancestors c));
  check int_t "document ends the chain" 2 (List.length (N.ancestors c))

let test_document_order_compare () =
  let doc = parse "<a y=\"1\"><b><c/></b><d/></a>" in
  let a = List.hd (N.children doc) in
  let b = List.hd (N.children a) in
  let c = List.hd (N.children b) in
  let d = List.nth (N.children a) 1 in
  let y = List.hd (N.attributes a) in
  check bool_t "a < b" true (N.compare_document_order a b < 0);
  check bool_t "b < c" true (N.compare_document_order b c < 0);
  check bool_t "c < d" true (N.compare_document_order c d < 0);
  check bool_t "attr after owner" true (N.compare_document_order a y < 0);
  check bool_t "attr before children" true (N.compare_document_order y b < 0);
  check int_t "reflexive" 0 (N.compare_document_order c c);
  check bool_t "antisymmetric" true (N.compare_document_order d c > 0)

let test_cross_tree_order () =
  let t1 = N.element "first" in
  let t2 = N.element "second" in
  check bool_t "creation order across trees" true (N.compare_document_order t1 t2 < 0)

let test_mutation () =
  let e = root_elt "<a><b/><c/></a>" in
  let b = List.hd (N.children e) in
  N.remove_child e b;
  check (Alcotest.list string_t) "removed" [ "c" ] (List.map N.name (N.children e));
  check bool_t "b detached" true (N.parent b = None);
  N.append_child e (N.element "z");
  N.insert_child e 0 (N.element "front");
  check (Alcotest.list string_t) "after edits" [ "front"; "c"; "z" ]
    (List.map N.name (N.children e));
  let c = List.nth (N.children e) 1 in
  N.replace_child e ~old:c [ N.element "c1"; N.element "c2" ];
  check (Alcotest.list string_t) "replaced with two" [ "front"; "c1"; "c2"; "z" ]
    (List.map N.name (N.children e))

let test_set_attribute () =
  let e = N.element "e" in
  N.set_attribute e "x" "1";
  N.set_attribute e "x" "2";
  N.set_attribute e "y" "3";
  check (Alcotest.option string_t) "overwrite" (Some "2") (N.attr e "x");
  check int_t "two attrs" 2 (List.length (N.attributes e));
  N.remove_attribute e "x";
  check (Alcotest.option string_t) "removed" None (N.attr e "x")

let test_copy_is_fresh () =
  let e = root_elt "<a x=\"1\"><b>t</b></a>" in
  let e' = N.copy e in
  check bool_t "not same node" false (N.same e e');
  check string_t "same serialization" (S.to_string e) (S.to_string e');
  check bool_t "copy parentless" true (N.parent e' = None);
  (* Mutating the copy must not affect the original. *)
  N.set_attribute e' "x" "99";
  check (Alcotest.option string_t) "original intact" (Some "1") (N.attr e "x")

let test_find_helpers () =
  let e = root_elt "<a><b/><x/><b><b/></b></a>" in
  check int_t "find_all b" 3 (List.length (N.find_all (fun n -> N.is_element n && N.name n = "b") e));
  check int_t "child_elements" 3 (List.length (N.child_elements e));
  check bool_t "child_element finds first" true
    (match N.child_element e "b" with Some _ -> true | None -> false);
  check int_t "child_elements_named" 2 (List.length (N.child_elements_named e "b"))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_simple () =
  let e = root_elt "<a x=\"1\" y='two'><b/>text</a>" in
  check string_t "tag" "a" (N.name e);
  check (Alcotest.option string_t) "double quote" (Some "1") (N.attr e "x");
  check (Alcotest.option string_t) "single quote" (Some "two") (N.attr e "y")

let test_parse_entities () =
  let e = root_elt "<a x=\"&lt;&amp;&quot;\">&lt;hi&gt; &amp; &apos;&#65;&#x42;</a>" in
  check (Alcotest.option string_t) "attr entities" (Some "<&\"") (N.attr e "x");
  check string_t "text entities" "<hi> & 'AB" (N.string_value e)

let test_parse_cdata () =
  let e = root_elt "<a><![CDATA[<not><parsed> & raw]]></a>" in
  check string_t "cdata" "<not><parsed> & raw" (N.string_value e)

let test_parse_comment_pi () =
  let doc = parse "<?xml version=\"1.0\"?><!-- hi --><a><!--in--><?target data?></a>" in
  let e = List.hd (N.children doc) in
  let kinds = List.map N.kind (N.children e) in
  check bool_t "comment+pi kept" true
    (kinds = [ N.Comment; N.Processing_instruction ])

let test_parse_doctype_skipped () =
  let doc = parse "<!DOCTYPE html [ <!ENTITY x \"y\"> ]><a/>" in
  check int_t "root only" 1 (List.length (N.children doc))

let test_parse_errors () =
  let fails s =
    match parse s with
    | exception P.Parse_error _ -> true
    | _ -> false
  in
  check bool_t "mismatched tag" true (fails "<a></b>");
  check bool_t "unterminated" true (fails "<a>");
  check bool_t "duplicate attr" true (fails "<a x=\"1\" x=\"2\"/>");
  check bool_t "bad entity" true (fails "<a>&nope;</a>");
  check bool_t "trailing garbage" true (fails "<a/><b/>");
  check bool_t "lt in attr" true (fails "<a x=\"<\"/>")

(* Positions are derived from the byte offset of the error; these are
   the line, column and message the parser has always reported. *)
let test_parse_error_position () =
  List.iter
    (fun (src, want_line, want_col, want_message) ->
      match parse src with
      | exception P.Parse_error { line; col; message } ->
        check int_t (src ^ ": line") want_line line;
        check int_t (src ^ ": col") want_col col;
        check string_t (src ^ ": message") want_message message
      | _ -> Alcotest.fail ("expected a parse error: " ^ src))
    [
      ("<a>\n  <b></c>\n</a>", 2, 9, "mismatched closing tag: expected </b>, found </c>");
      ("<a>\n  <b x=\"1\" x=\"2\"/>\n</a>", 2, 17, "duplicate attribute x");
      ("<a>\n\n  text &nope; more\n</a>", 3, 14, "unknown entity &nope;");
      ("<a>\n  <b x=\"<\"/>\n</a>", 2, 9, "'<' not allowed in attribute value");
      ("<a>\n  <!-- never closed\n\n", 4, 1, "unterminated comment");
      ( "<?xml version=\"1.0\"?>\n<a>\n  <b>\n</a>",
        4,
        4,
        "mismatched closing tag: expected </b>, found </a>" );
      ("<a>\n  &#xZZ;\n</a>", 2, 6, "empty character reference");
      ("<a>\n  <b>&#1114112;</b>\n</a>", 2, 16, "character reference out of range");
      ("\n\n  <a/>\n  <b/>\n", 4, 3, "trailing content after the root element");
      ("<a>\n  <b\n     y='1'\n     z=2/>\n</a>", 4, 8, "expected a quoted attribute value");
      ("<a>\n  <![CDATA[ open\n", 3, 1, "unterminated CDATA section");
      ("<a>\n  <b>\n", 3, 1, "expected '<', found '\\000'");
    ]

let test_parse_fragment () =
  let items = P.parse_fragment "hello <b>world</b> bye" in
  check int_t "three items" 3 (List.length items);
  check bool_t "middle is element" true (N.is_element (List.nth items 1))

let test_strip_whitespace () =
  let doc = parse "<a>\n  <b> keep me </b>\n  <c/>\n</a>" in
  let stripped = P.strip_whitespace doc in
  let a = List.hd (N.children stripped) in
  check int_t "only elements left" 2 (List.length (N.children a));
  let b = List.hd (N.children a) in
  check string_t "inner text kept verbatim" " keep me " (N.string_value b)

(* ------------------------------------------------------------------ *)
(* Serializer                                                          *)
(* ------------------------------------------------------------------ *)

let test_serialize_roundtrip () =
  let src = "<a x=\"1\"><b>hi &amp; bye</b><c/>tail</a>" in
  check string_t "roundtrip" src (S.to_string (root_elt src))

let test_serialize_escaping () =
  let e = N.element "a" ~attrs:[ N.attribute "q" "a\"b<c&d" ] ~children:[ N.text "<&>" ] in
  check string_t "escaped" "<a q=\"a&quot;b&lt;c&amp;d\">&lt;&amp;&gt;</a>" (S.to_string e)

let test_serialize_decl () =
  let doc = parse "<a/>" in
  check bool_t "decl prefix" true
    (String.length (S.to_string ~decl:true doc) > String.length (S.to_string doc))

let test_html_serialization () =
  let doc =
    parse
      "<html><head><meta charset=\"utf-8\"/><style>b &gt; i {}</style></head>\
       <body>line<br/><div/><img src=\"x.png\"/></body></html>"
  in
  let html = S.to_html_string doc in
  check bool_t "void br" true (Astring.String.is_infix ~affix:"line<br>" html);
  check bool_t "void img no slash" true (Astring.String.is_infix ~affix:"<img src=\"x.png\">" html);
  check bool_t "empty div gets closing tag" true (Astring.String.is_infix ~affix:"<div></div>" html);
  check bool_t "style content raw" true (Astring.String.is_infix ~affix:"b > i {}" html);
  check bool_t "no self-closing" false (Astring.String.is_infix ~affix:"/>" html)

let test_pretty () =
  let doc = parse "<a><b>text</b><c><d/></c></a>" in
  let pretty = S.to_pretty_string doc in
  check bool_t "has newlines" true (String.contains pretty '\n');
  (* Pretty output must re-parse to the same significant structure. *)
  let again = P.strip_whitespace (parse pretty) in
  check string_t "pretty reparses" (S.to_string (P.strip_whitespace doc)) (S.to_string again)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random XML tree generator used by round-trip properties. *)
let gen_tree : N.t QCheck.arbitrary =
  let open QCheck.Gen in
  let name_g = oneofl [ "a"; "b"; "cee"; "d-e"; "x_1" ] in
  let text_g = oneofl [ "hi"; "a&b"; "<tag>"; "  spaced  "; "q\"q"; "'" ] in
  let rec tree depth =
    if depth = 0 then map N.text text_g
    else
      frequency
        [
          (2, map N.text text_g);
          (1, map N.comment (oneofl [ "note"; "x y" ]));
          ( 3,
            let* tag = name_g in
            let* nattrs = int_bound 2 in
            let* attrnames = flatten_l (List.init nattrs (fun _ -> name_g)) in
            let attrnames = List.sort_uniq compare attrnames in
            let* attrvals = flatten_l (List.map (fun _ -> text_g) attrnames) in
            let attrs = List.map2 N.attribute attrnames attrvals in
            let* nkids = int_bound 3 in
            let* kids = flatten_l (List.init nkids (fun _ -> tree (depth - 1))) in
            return (N.element tag ~attrs ~children:kids) );
        ]
  in
  let root =
    let* tag = name_g in
    let* nkids = int_bound 3 in
    let* kids = flatten_l (List.init nkids (fun _ -> tree 3)) in
    return (N.element tag ~children:kids)
  in
  QCheck.make root ~print:S.to_string

let prop_roundtrip =
  QCheck.Test.make ~name:"serialize then parse preserves structure" ~count:200 gen_tree
    (fun t ->
      let s = S.to_string t in
      let t' = List.hd (N.children (parse s)) in
      S.to_string t' = s)

let prop_copy_equal =
  QCheck.Test.make ~name:"copy serializes identically" ~count:200 gen_tree (fun t ->
      S.to_string (N.copy t) = S.to_string t)

let prop_doc_order_total =
  QCheck.Test.make ~name:"document order is total and matches traversal" ~count:100 gen_tree
    (fun t ->
      let all = N.find_all (fun _ -> true) t in
      let sorted = List.sort N.compare_document_order all in
      List.for_all2 N.same all sorted)

let prop_string_value_parse =
  QCheck.Test.make ~name:"string_value survives a round-trip" ~count:200 gen_tree (fun t ->
      let t' = List.hd (N.children (parse (S.to_string t))) in
      N.string_value t' = N.string_value t)

(* Fuzz: garbage never crashes the parser with anything but Parse_error. *)
let prop_parser_total =
  let gen =
    QCheck.Gen.(
      string_size
        ~gen:(oneofl [ '<'; '>'; '/'; '='; '"'; '\''; '&'; ';'; '!'; '-'; '['; ']';
                       '?'; 'a'; 'b'; '1'; ' '; '\n'; '#'; 'x' ])
        (int_bound 60))
  in
  QCheck.Test.make ~name:"parser is total (clean errors only)" ~count:500
    (QCheck.make gen ~print:(fun s -> s))
    (fun s ->
      match P.parse_string s with
      | _ -> true
      | exception P.Parse_error _ -> true
      | exception _ -> false)

let suite =
  [
    ( "xml_base.node",
      [
        Alcotest.test_case "construction" `Quick test_construction;
        Alcotest.test_case "parent links" `Quick test_parent_links;
        Alcotest.test_case "single parent enforced" `Quick test_single_parent_enforced;
        Alcotest.test_case "string value" `Quick test_string_value;
        Alcotest.test_case "descendants order" `Quick test_descendants_order;
        Alcotest.test_case "sibling and ancestor axes" `Quick test_axes;
        Alcotest.test_case "document order compare" `Quick test_document_order_compare;
        Alcotest.test_case "cross-tree order" `Quick test_cross_tree_order;
        Alcotest.test_case "mutation" `Quick test_mutation;
        Alcotest.test_case "set/remove attribute" `Quick test_set_attribute;
        Alcotest.test_case "copy is fresh" `Quick test_copy_is_fresh;
        Alcotest.test_case "find helpers" `Quick test_find_helpers;
      ] );
    ( "xml_base.parser",
      [
        Alcotest.test_case "simple" `Quick test_parse_simple;
        Alcotest.test_case "entities" `Quick test_parse_entities;
        Alcotest.test_case "cdata" `Quick test_parse_cdata;
        Alcotest.test_case "comments and PIs" `Quick test_parse_comment_pi;
        Alcotest.test_case "doctype skipped" `Quick test_parse_doctype_skipped;
        Alcotest.test_case "malformed inputs rejected" `Quick test_parse_errors;
        Alcotest.test_case "error carries position" `Quick test_parse_error_position;
        Alcotest.test_case "fragments" `Quick test_parse_fragment;
        Alcotest.test_case "strip whitespace" `Quick test_strip_whitespace;
      ] );
    ( "xml_base.serialize",
      [
        Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
        Alcotest.test_case "escaping" `Quick test_serialize_escaping;
        Alcotest.test_case "declaration" `Quick test_serialize_decl;
        Alcotest.test_case "pretty printing" `Quick test_pretty;
        Alcotest.test_case "html mode" `Quick test_html_serialization;
      ] );
    ( "xml_base.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_roundtrip;
          prop_copy_equal;
          prop_doc_order_total;
          prop_string_value_parse;
          prop_parser_total;
        ] );
  ]
