(* Tests for the AWB substrate: metamodel, model, XML round-trip, advisory
   validation, synthetic generation. *)

module MM = Awb.Metamodel
module M = Awb.Model
module IO = Awb.Xml_io
module V = Awb.Validate

let check = Alcotest.check
let string_t = Alcotest.string
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Metamodel                                                           *)
(* ------------------------------------------------------------------ *)

let mm = Awb.Samples.it_architecture

let test_type_hierarchy () =
  check bool_t "User <= Person" true (MM.is_subtype mm "User" "Person");
  check bool_t "User <= Element" true (MM.is_subtype mm "User" "Element");
  check bool_t "reflexive" true (MM.is_subtype mm "Server" "Server");
  check bool_t "not supertype" false (MM.is_subtype mm "Person" "User");
  check bool_t "unrelated" false (MM.is_subtype mm "Server" "Person");
  check bool_t "unknown only itself" true (MM.is_subtype mm "Alien" "Alien");
  check bool_t "unknown not Element" false (MM.is_subtype mm "Alien" "Element")

let test_relation_hierarchy () =
  check bool_t "favors <= likes" true (MM.is_subrelation mm "favors" "likes");
  check bool_t "likes not <= favors" false (MM.is_subrelation mm "likes" "favors")

let test_inherited_properties () =
  let props = MM.properties_of mm "User" in
  check bool_t "own property" true (List.mem_assoc "superuser" props);
  check bool_t "parent property" true (List.mem_assoc "firstName" props);
  check bool_t "grandparent property" true (List.mem_assoc "name" props)

let test_duplicate_type_rejected () =
  let m2 = MM.create "x" in
  let m2 = MM.add_node_type m2 "A" in
  (match MM.add_node_type m2 "A" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate node type accepted");
  match MM.add_node_type m2 "B" ~parent:"Nope" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown parent accepted"

(* ------------------------------------------------------------------ *)
(* Model                                                               *)
(* ------------------------------------------------------------------ *)

let test_model_basics () =
  let m = Awb.Samples.banking_model () in
  check bool_t "has nodes" true (M.node_count m > 10);
  check bool_t "has relations" true (M.relation_count m > 10);
  let users = M.nodes_of_type m "User" in
  check int_t "three users" 3 (List.length users);
  (* nodes_of_type includes subtypes. *)
  check int_t "users are persons" 3 (List.length (M.nodes_of_type m "Person"));
  let alice = List.find (fun n -> M.prop_string n "name" = "alice") users in
  check string_t "label" "alice" (M.label m alice);
  check string_t "prop" "Alice" (M.prop_string alice "firstName");
  check string_t "missing prop" "" (M.prop_string alice "nope")

let test_follow () =
  let m = Awb.Samples.banking_model () in
  let alice =
    List.find (fun n -> M.prop_string n "name" = "alice") (M.nodes_of_type m "User")
  in
  let bob =
    List.find (fun n -> M.prop_string n "name" = "bob") (M.nodes_of_type m "User")
  in
  check int_t "alice likes one" 1 (List.length (M.follow m alice ~rtype:"likes" `Forward));
  (* favors is a subrelation of likes. *)
  check int_t "bob likes via favors" 1 (List.length (M.follow m bob ~rtype:"likes" `Forward));
  check int_t "bob liked by alice" 1 (List.length (M.follow m bob ~rtype:"likes" `Backward));
  check int_t "alice follows all" 2 (List.length (M.follow m alice `Forward))

let test_user_overrides () =
  let m = Awb.Samples.banking_model () in
  let carol =
    List.find (fun n -> M.prop_string n "name" = "carol") (M.nodes_of_type m "User")
  in
  check string_t "user-added property" "Ming" (M.prop_string carol "middleName");
  (* carol uses TellerApp directly, off-metamodel. *)
  let used = M.follow m carol ~rtype:"uses" `Forward in
  check bool_t "off-metamodel edge stored" true
    (List.exists (fun n -> M.prop_string n "name" = "TellerApp") used)

let test_remove () =
  let m = Awb.Samples.banking_model () in
  let before_rels = M.relation_count m in
  let alice =
    List.find (fun n -> M.prop_string n "name" = "alice") (M.nodes_of_type m "User")
  in
  M.remove_node m alice;
  check bool_t "node gone" true (M.find_node m alice.M.id = None);
  check bool_t "incident relations gone" true (M.relation_count m < before_rels);
  check bool_t "no dangling relations" true
    (List.for_all
       (fun (r : M.relation) ->
         M.find_node m r.M.source <> None && M.find_node m r.M.target <> None)
       (M.relations m))

(* ------------------------------------------------------------------ *)
(* XML round-trip                                                      *)
(* ------------------------------------------------------------------ *)

let test_export_shape () =
  let m = Awb.Samples.banking_model () in
  let doc = IO.export m in
  let root = List.hd (Xml_base.Node.children doc) in
  check string_t "root" "awb-model" (Xml_base.Node.name root);
  check (Alcotest.option string_t) "metamodel attr" (Some "it-architecture")
    (Xml_base.Node.attr root "metamodel");
  let nodes = Xml_base.Node.child_elements_named root "node" in
  check int_t "node elements" (M.node_count m) (List.length nodes);
  let rels = Xml_base.Node.child_elements_named root "relation" in
  check int_t "relation elements" (M.relation_count m) (List.length rels)

let test_roundtrip () =
  let m = Awb.Samples.banking_model () in
  let m' = IO.import_string mm (IO.export_string m) in
  check string_t "same export after roundtrip" (IO.export_string m) (IO.export_string m');
  check int_t "node count" (M.node_count m) (M.node_count m');
  check int_t "relation count" (M.relation_count m) (M.relation_count m')

let test_import_rejects_dangling () =
  let bad =
    "<awb-model metamodel=\"x\"><relation id=\"R1\" type=\"has\" source=\"N1\" \
     target=\"N2\"/></awb-model>"
  in
  match IO.import_string mm bad with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "dangling endpoints accepted"

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let codes ws = List.sort_uniq compare (List.map (fun w -> w.V.w_code) ws)

let test_validate_banking () =
  let ws = V.check (Awb.Samples.banking_model ()) in
  let cs = codes ws in
  (* The model deliberately contains: one version-less document, carol's
     middleName, and two off-metamodel relations (uses Program, has User
     is declared... has System->User is declared). *)
  check bool_t "missing version flagged" true (List.mem "missing-property" cs);
  check bool_t "undeclared property flagged" true (List.mem "undeclared-property" cs);
  check bool_t "off-metamodel relation flagged" true (List.mem "off-metamodel-relation" cs);
  (* exactly-one is satisfied: no warning. *)
  check bool_t "sbd ok" false (List.mem "exactly-one" cs)

let test_validate_exactly_one () =
  let m = M.create mm in
  let ws = V.check m in
  check bool_t "zero sbd flagged" true (List.mem "exactly-one" (codes ws));
  ignore (M.add_node m "SystemBeingDesigned" ~props:[ ("name", M.V_string "a") ]);
  ignore (M.add_node m "SystemBeingDesigned" ~props:[ ("name", M.V_string "b") ]);
  let ws = V.check m in
  check bool_t "two sbd flagged" true
    (List.exists
       (fun w -> w.V.w_code = "exactly-one" && w.V.w_message =
          "there should be exactly one SystemBeingDesigned node, but there were 2")
       ws)

let test_validate_glass_has_no_sbd_warning () =
  (* "the glass catalog doesn't have a SystemBeingDesigned node at all,
     nor a warning about it." *)
  let ws = V.check (Awb.Samples.glass_model ()) in
  check bool_t "no exactly-one warning" false (List.mem "exactly-one" (codes ws));
  check int_t "glass model is clean" 0 (List.length ws)

let test_validate_unknown_types () =
  let m = M.create mm in
  ignore (M.add_node m "SystemBeingDesigned");
  let alien = M.add_node m "Weasel" in
  let sbd = List.hd (M.nodes_of_type m "SystemBeingDesigned") in
  ignore (M.relate m "zaps" ~source:alien ~target:sbd);
  let cs = codes (V.check m) in
  check bool_t "unknown node type" true (List.mem "unknown-node-type" cs);
  check bool_t "unknown relation type" true (List.mem "unknown-relation-type" cs)

(* ------------------------------------------------------------------ *)
(* Synthetic models                                                    *)
(* ------------------------------------------------------------------ *)

let test_synth_deterministic () =
  let a = IO.export_string (Awb.Synth.generate_of_size ~seed:7 100) in
  let b = IO.export_string (Awb.Synth.generate_of_size ~seed:7 100) in
  check bool_t "same seed, same model" true (a = b);
  let c = IO.export_string (Awb.Synth.generate_of_size ~seed:8 100) in
  check bool_t "different seed, different model" true (a <> c)

let test_synth_shape () =
  let m = Awb.Synth.generate_of_size 200 in
  check bool_t "roughly sized" true (abs (M.node_count m - 200) < 60);
  check int_t "exactly one sbd" 1 (List.length (M.nodes_of_type m "SystemBeingDesigned"));
  check bool_t "has users" true (M.nodes_of_type m "User" <> []);
  check bool_t "has versionless documents" true
    (List.exists
       (fun (n : M.node) -> M.prop n "version" = None)
       (M.nodes_of_type m "Document"));
  (* Export of a synthetic model round-trips too. *)
  let m' = IO.import_string mm (IO.export_string m) in
  check int_t "roundtrip nodes" (M.node_count m) (M.node_count m')

(* Property: export/import round-trip over random synthetic models. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"synthetic models round-trip through XML" ~count:20
    QCheck.(pair (int_range 10 150) (int_range 1 1000))
    (fun (size, seed) ->
      let m = Awb.Synth.generate_of_size ~seed size in
      let s = IO.export_string m in
      IO.export_string (IO.import_string mm s) = s)

(* [import_string] builds the model straight from the scanner's events;
   [import] replays a parsed tree into the same rules. Both must agree
   on every input: the same export, or the same exception and message. *)
let import_outcome f =
  match f () with
  | m -> "model " ^ IO.export_string m
  | exception Xml_base.Parser.Parse_error { line; col; message } ->
    Printf.sprintf "parse error %d:%d %s" line col message
  | exception Failure m -> "failure " ^ m
  | exception Invalid_argument m -> "invalid " ^ m

let same_import s =
  let streamed = import_outcome (fun () -> IO.import_string mm s) in
  let via_tree = import_outcome (fun () -> IO.import mm (Xml_base.Parser.parse_string s)) in
  if streamed = via_tree then true
  else QCheck.Test.fail_reportf "import_string: %s\nimport: %s" streamed via_tree

let test_parse_error_outranks_model_error () =
  (* Each model error comes first in the text, the malformed XML later:
     the tree path parses first, so malformed XML wins. *)
  List.iter
    (fun s ->
      (match IO.import_string mm s with
      | exception Xml_base.Parser.Parse_error _ -> ()
      | _ -> Alcotest.fail ("expected a parse error: " ^ s));
      check bool_t "same as the tree path" true (same_import s))
    [
      "<awb-model><relation id=\"R1\" type=\"has\" source=\"N1\" target=\"N2\"/>\
       <node id=\"N1\"></awb-model>";
      "<awb-model><node id=\"N1\"/><node id=\"N1\"/><node id=\"N2\" id=\"N3\"/></awb-model>";
      "<model><node id=\"N1\"/></model><!-- unterminated";
    ];
  check bool_t "wrong root" true (same_import "<model><node id=\"N1\"/></model>")

(* Within one element the checks run attributes first, then properties,
   then the insert into the model; the first failing check names the
   error. These messages pin that order on both import paths. *)
let test_model_error_order () =
  let two = "<awb-model><node id=\"A\" type=\"User\"/><node id=\"B\" type=\"User\"/>" in
  let nameless = "<property>x</property>" in
  List.iter
    (fun (body, want) ->
      let s = two ^ body ^ "</awb-model>" in
      check bool_t ("same as the tree path: " ^ body) true (same_import s);
      check string_t body want (import_outcome (fun () -> IO.import_string mm s)))
    [
      ( "<relation source=\"A\" target=\"B\">" ^ nameless ^ "</relation>",
        "failure awb-model: <relation> without type" );
      ( "<relation type=\"t\" source=\"A\" target=\"B\">" ^ nameless ^ "</relation>",
        "failure awb-model: <property> without a name" );
      ( "<relation id=\"R\" type=\"t\" target=\"C\">" ^ nameless ^ "</relation>",
        "failure awb-model: <relation> without source" );
      ( "<relation id=\"R\" type=\"t\" source=\"A\" target=\"B\"/>\
         <relation id=\"R\" type=\"t\" source=\"A\" target=\"B\">" ^ nameless ^ "</relation>",
        "failure awb-model: <property> without a name" );
      ( "<relation id=\"R\" type=\"t\" source=\"A\" target=\"B\"/>\
         <relation id=\"R\" type=\"t\" source=\"A\" target=\"B\"/>",
        "invalid Awb.Model: duplicate relation id R" );
      ("<node type=\"User\">" ^ nameless ^ "</node>", "failure awb-model: <node> without an id");
      ("<node id=\"A\">" ^ nameless ^ "</node>", "failure awb-model: <property> without a name");
      ("<node id=\"A\"/><surprise/>", "invalid Awb.Model: duplicate node id A");
    ]

(* An export with every construct the scanner treats specially. *)
let rich_export =
  "<?xml version=\"1.0\"?>\n<!DOCTYPE awb-model [ <!ENTITY x \"y\"> ]>\n<!-- lead -->\n\
   <awb-model metamodel=\"it-architecture\">\n\
   <node id=\"N1\" type=\"User\"><property name=\"name\">A &amp; <![CDATA[<b>]]> \
   <!-- c --> z&#x41;</property><other>skipped<property name=\"zz\">q</property></other>\
   <property name=\"age\" kind=\"int\"> 42 </property></node>\n\
   <node id=\"N2\" type=\"User\"><property name=\"h\" kind=\"html\">&lt;p&gt;x<i>in</i>y\
   </property><property name=\"on\" kind=\"bool\">true</property></node>\n\
   <relation id=\"R1\" type=\"likes\" source=\"N1\" target=\"N2\">\
   <property name=\"w\" kind=\"int\">1</property></relation>\n\
   <!-- mid --><?pi data?>\n</awb-model>\n<!-- trailing --><?done x?>\n"

let import_bases =
  lazy
    (Array.of_list
       (rich_export
       :: List.map IO.export_string
            [
              Awb.Samples.banking_model ();
              Awb.Samples.glass_model ();
              Awb.Synth.generate_of_size ~seed:3 30;
              Awb.Synth.generate_of_size ~seed:4 60;
            ]))

(* Offsets of [pat] in [s]. *)
let occurrences s pat =
  let n = String.length pat in
  let rec go i acc =
    if i + n > String.length s then List.rev acc
    else go (i + 1) (if String.sub s i n = pat then i :: acc else acc)
  in
  go 0 []

let splice s at drop ins =
  String.sub s 0 at ^ ins ^ String.sub s (at + drop) (String.length s - at - drop)

(* Mutation [kind] applied at the [k]-th matching site (mod the count). *)
let mutate s (kind, k) =
  let at pat f = match occurrences s pat with [] -> s | l -> f (List.nth l (k mod List.length l)) in
  let len = String.length s in
  match kind with
  | 0 -> String.sub s 0 (k mod (len + 1))
  | 1 ->
    let bytes = "<>&\"'/=;!-x\n" in
    splice s (k mod len) 1 (String.make 1 bytes.[k / 7 mod String.length bytes])
  | 2 -> at "<node " (fun i -> splice s (i + 5) 0 " type=\"Dup\"")
  | 3 ->
    let attr = [| " id=\""; " type=\""; " source=\""; " target=\""; " name=\"" |].(k mod 5) in
    at attr (fun i -> splice s i (String.index_from s (i + String.length attr) '"' + 1 - i) "")
  | 4 -> at " target=\"" (fun i -> splice s (i + 9) 0 "gone-")
  | 5 -> Str.global_replace (Str.regexp_string "awb-model") "wrong-root" s
  | 6 -> at "</node>" (fun i -> splice s (i + 7) 0 "<surprise/>")
  | 7 ->
    let bits = [| "&amp;x"; "<![CDATA[<y>]]>"; "<!-- c -->"; "&#x41;"; "<b>in</b>"; "<?p?>" |] in
    at "</property>" (fun i -> splice s i 0 bits.(k / 3 mod Array.length bits))
  | _ ->
    (* Duplicate a whole <node> element: a duplicate id. *)
    at "<node " (fun i ->
        match List.find_opt (fun j -> j > i) (occurrences s "<node " @ occurrences s "<relation ") with
        | Some j -> splice s j 0 (String.sub s i (j - i))
        | None -> s)

let prop_import_differential =
  let gen =
    QCheck.Gen.(
      pair (int_bound 4) (list_size (int_bound 3) (pair (int_bound 8) (int_bound 1_000_000))))
  in
  let print (b, ms) =
    Printf.sprintf "base %d, mutations [%s]" b
      (String.concat "; " (List.map (fun (k, n) -> Printf.sprintf "%d@%d" k n) ms))
  in
  QCheck.Test.make ~name:"import_string agrees with import of the parsed tree" ~count:300
    (QCheck.make gen ~print)
    (fun (b, ms) -> same_import (List.fold_left mutate (Lazy.force import_bases).(b) ms))

let suite =
  [
    ( "awb.metamodel",
      [
        Alcotest.test_case "type hierarchy" `Quick test_type_hierarchy;
        Alcotest.test_case "relation hierarchy" `Quick test_relation_hierarchy;
        Alcotest.test_case "inherited properties" `Quick test_inherited_properties;
        Alcotest.test_case "duplicate/unknown rejected" `Quick test_duplicate_type_rejected;
      ] );
    ( "awb.model",
      [
        Alcotest.test_case "basics" `Quick test_model_basics;
        Alcotest.test_case "follow relations" `Quick test_follow;
        Alcotest.test_case "user overrides" `Quick test_user_overrides;
        Alcotest.test_case "removal" `Quick test_remove;
      ] );
    ( "awb.xml",
      [
        Alcotest.test_case "export shape" `Quick test_export_shape;
        Alcotest.test_case "round-trip" `Quick test_roundtrip;
        Alcotest.test_case "dangling endpoints rejected" `Quick test_import_rejects_dangling;
        Alcotest.test_case "parse errors outrank model errors" `Quick
          test_parse_error_outranks_model_error;
        Alcotest.test_case "model error order" `Quick test_model_error_order;
      ] );
    ( "awb.validate",
      [
        Alcotest.test_case "banking warnings" `Quick test_validate_banking;
        Alcotest.test_case "exactly-one advisory" `Quick test_validate_exactly_one;
        Alcotest.test_case "glass catalog is quiet" `Quick test_validate_glass_has_no_sbd_warning;
        Alcotest.test_case "unknown types" `Quick test_validate_unknown_types;
      ] );
    ( "awb.synth",
      [
        Alcotest.test_case "deterministic" `Quick test_synth_deterministic;
        Alcotest.test_case "shape" `Quick test_synth_shape;
      ] );
    ( "awb.properties",
      List.map QCheck_alcotest.to_alcotest [ prop_roundtrip; prop_import_differential ] );
  ]

(* ------------------------------------------------------------------ *)
(* Reflection: AWB retargeted to itself                                *)
(* ------------------------------------------------------------------ *)

let mm_fingerprint m2 =
  (* A canonical description of a metamodel for equality checks. *)
  let nt name =
    let t = Option.get (MM.find_node_type m2 name) in
    ( name,
      t.MM.nt_parent,
      List.sort compare t.MM.nt_properties,
      t.MM.nt_label_property )
  in
  let rt name =
    let t = Option.get (MM.find_relation_type m2 name) in
    (name, t.MM.rt_parent, List.sort compare t.MM.rt_pairs)
  in
  ( List.map nt (List.sort compare (MM.node_type_names m2)),
    List.map rt (List.sort compare (MM.relation_type_names m2)),
    List.sort compare (MM.advisories m2) )

let test_reflect_roundtrip () =
  List.iter
    (fun source ->
      let reflected = Awb.Reflect.metamodel_as_model source in
      (* The reflection is a clean model of the meta-metamodel. *)
      check int_t
        ("reflection of " ^ MM.name source ^ " is advisory-clean")
        0
        (List.length (V.check reflected));
      let back = Awb.Reflect.model_to_metamodel reflected in
      check bool_t ("roundtrip " ^ MM.name source) true
        (mm_fingerprint source = mm_fingerprint back))
    [ Awb.Samples.it_architecture; Awb.Samples.glass_catalog; Awb.Reflect.meta_metamodel ]

let test_reflect_queryable () =
  (* The whole point: the workbench machinery works on metamodels. *)
  let m = Awb.Reflect.metamodel_as_model Awb.Samples.it_architecture in
  let subtypes_of_person =
    Awb_query.Native.eval_string m "start node(nt-Person); follow extends backward"
  in
  check (Alcotest.list string_t) "who extends Person" [ "User" ]
    (List.map (fun n -> M.prop_string n "name") subtypes_of_person);
  let person_props =
    Awb_query.Native.eval_string m
      "start node(nt-Person); follow declares; sort-by label"
  in
  check (Alcotest.list string_t) "Person declares"
    [ "biography"; "birthYear"; "firstName"; "lastName" ]
    (List.map (fun n -> M.prop_string n "name") person_props)

let test_reflect_docgen () =
  (* Generate metamodel documentation with the ordinary docgen. *)
  let m = Awb.Reflect.metamodel_as_model Awb.Samples.glass_catalog in
  let template =
    Xml_base.Parser.strip_whitespace
      (Xml_base.Parser.parse_string
         "<document><for nodes=\"start type(NodeType); sort-by label\">\
          <p><label/>: <count-of query=\"start focus; follow declares\"/> properties</p>\
          </for></document>")
  in
  let r = Docgen.generate ~engine:`Host m ~template in
  check bool_t "documents GlassPiece" true
    (Astring.String.is_infix ~affix:"GlassPiece: 3 properties"
       (Xml_base.Serialize.to_string r.Docgen.Spec.document))

let suite =
  suite
  @ [
      ( "awb.reflect",
        [
          Alcotest.test_case "metamodel <-> model round-trip" `Quick test_reflect_roundtrip;
          Alcotest.test_case "metamodels are queryable" `Quick test_reflect_queryable;
          Alcotest.test_case "metamodel documentation" `Quick test_reflect_docgen;
        ] );
    ]
