module N = Xml_base.Node

let kind_name = function
  | Model.V_string _ -> "string"
  | Model.V_int _ -> "int"
  | Model.V_bool _ -> "bool"
  | Model.V_html _ -> "html"

let property_element (pname, v) =
  N.element "property"
    ~attrs:[ N.attribute "name" pname; N.attribute "kind" (kind_name v) ]
    ~children:[ N.text (Model.value_to_string v) ]

let sorted_props tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let export model =
  let node_element (n : Model.node) =
    N.element "node"
      ~attrs:[ N.attribute "id" n.Model.id; N.attribute "type" n.Model.ntype ]
      ~children:(List.map property_element (sorted_props n.Model.props))
  in
  let relation_element (r : Model.relation) =
    N.element "relation"
      ~attrs:
        [
          N.attribute "id" r.Model.rel_id;
          N.attribute "type" r.Model.rtype;
          N.attribute "source" r.Model.source;
          N.attribute "target" r.Model.target;
        ]
      ~children:(List.map property_element (sorted_props r.Model.rprops))
  in
  let root =
    N.element "awb-model"
      ~attrs:[ N.attribute "metamodel" (Metamodel.name (Model.metamodel model)) ]
      ~children:
        (List.map node_element (Model.nodes model)
        @ List.map relation_element (Model.relations model))
  in
  N.document [ root ]

let export_string model = Xml_base.Serialize.to_string ~decl:true (export model)

let parse_value kind text =
  match kind with
  | "int" -> (
    match int_of_string_opt (String.trim text) with
    | Some n -> Model.V_int n
    | None -> Model.V_string text)
  | "bool" -> (
    match String.trim text with
    | "true" -> Model.V_bool true
    | "false" -> Model.V_bool false
    | _ -> Model.V_string text)
  | "html" -> Model.V_html text
  | _ -> Model.V_string text

(* The import rules, fed the events of one export. Each element is
   checked in a fixed order (its attributes, then its properties, then
   the insert into the model), so a scan and a replayed tree find the
   same first model error. That error is held back until the events are
   done: a scan must still raise Parse_error for malformed XML later in
   the text. *)

(* The <node> or <relation> being read, its attribute checks passed. *)
type item =
  | No_item
  | Node_item of { id : string; ntype : string }
  | Relation_item of {
      attrs : (string * string) list;
      rtype : string;
      source : Model.node;
      target : Model.node;
    }

type importer = {
  model : Model.t;
  mutable depth : int; (* open elements *)
  mutable seen_root : bool;
  mutable error : exn option;
  mutable item : item;
  mutable props : (string * Model.value) list; (* reversed *)
  mutable prop : (string * string) option; (* name and kind of an open <property> *)
  mutable text : string list; (* its character data, reversed *)
}

(* A required attribute; [what] names it in the error. *)
let required attrs elt a what =
  match List.assoc_opt a attrs with
  | Some v -> v
  | None -> failwith (Printf.sprintf "awb-model: <%s> without %s" elt what)

let start_item im name attrs =
  match name with
  | "node" ->
    let id = required attrs "node" "id" "an id" in
    Node_item { id; ntype = Option.value ~default:"Element" (List.assoc_opt "type" attrs) }
  | "relation" ->
    let endpoint a =
      let id = required attrs "relation" a a in
      match Model.find_node im.model id with
      | Some n -> n
      | None -> failwith (Printf.sprintf "awb-model: dangling %s %s" a id)
    in
    let source = endpoint "source" in
    let target = endpoint "target" in
    Relation_item { attrs; rtype = required attrs "relation" "type" "type"; source; target }
  | other -> failwith (Printf.sprintf "awb-model: unexpected element <%s>" other)

let finish_item im =
  let props = List.rev im.props in
  (match im.item with
  | No_item -> ()
  | Node_item { id; ntype } -> ignore (Model.add_node im.model ~id ~props ntype)
  | Relation_item { attrs; rtype; source; target } ->
    let id = required attrs "relation" "id" "id" in
    ignore (Model.relate im.model ~id ~props rtype ~source ~target));
  im.item <- No_item;
  im.props <- []

(* [depth] counts the elements open around this one. *)
let start_element im name attrs =
  match im.depth with
  | 0 ->
    im.seen_root <- true;
    if name <> "awb-model" then failwith "awb-model: missing root element"
  | 1 -> im.item <- start_item im name attrs
  | 2 when name = "property" ->
    let pname = required attrs "property" "name" "a name" in
    im.prop <- Some (pname, Option.value ~default:"string" (List.assoc_opt "kind" attrs));
    im.text <- []
  | _ -> ()

let end_element im =
  match (im.depth, im.prop) with
  | 2, Some (pname, kind) ->
    let text = match im.text with [ s ] -> s | l -> String.concat "" (List.rev l) in
    im.props <- (pname, parse_value kind text) :: im.props;
    im.prop <- None
  | 1, _ -> finish_item im
  | _ -> ()

let capture im f =
  if im.error = None then
    try f () with (Failure _ | Invalid_argument _) as e -> im.error <- Some e

(* Feed [events] a handler over a fresh importer; return the model. *)
let build mm events =
  let im =
    {
      model = Model.create mm;
      depth = 0;
      seen_root = false;
      error = None;
      item = No_item;
      props = [];
      prop = None;
      text = [];
    }
  in
  events
    {
      Xml_base.Parser.start_element =
        (fun name attrs ->
          capture im (fun () -> start_element im name attrs);
          im.depth <- im.depth + 1);
      end_element =
        (fun () ->
          im.depth <- im.depth - 1;
          capture im (fun () -> end_element im));
      text = (fun s -> if im.error = None && im.prop <> None then im.text <- s :: im.text);
      comment = ignore;
      pi = (fun ~target:_ -> ignore);
    };
  match im.error with
  | Some e -> raise e
  | None ->
    if not im.seen_root then failwith "awb-model: missing root element";
    im.model

let import_string mm s = build mm (fun h -> Xml_base.Parser.scan h s)

let import mm doc =
  let root =
    match
      List.find_opt (fun k -> N.is_element k && N.name k = "awb-model") (N.children doc)
    with
    | Some r -> r
    | None -> doc
  in
  build mm (fun h -> Xml_base.Parser.replay h root)

let export_metamodel mm =
  let node_type name =
    let attrs =
      N.attribute "name" name
      ::
      (match Metamodel.find_node_type mm name with
      | Some { Metamodel.nt_parent = Some p; _ } -> [ N.attribute "parent" p ]
      | _ -> [])
    in
    N.element "node-type" ~attrs
  in
  let relation_type name =
    let attrs =
      N.attribute "name" name
      ::
      (match Metamodel.find_relation_type mm name with
      | Some { Metamodel.rt_parent = Some p; _ } -> [ N.attribute "parent" p ]
      | _ -> [])
    in
    N.element "relation-type" ~attrs
  in
  N.element "metamodel"
    ~attrs:[ N.attribute "name" (Metamodel.name mm) ]
    ~children:
      (List.map node_type (Metamodel.node_type_names mm)
      @ List.map relation_type (Metamodel.relation_type_names mm))
