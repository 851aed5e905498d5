type t = { store_dir : string; mm : Metamodel.t }

let open_store ~dir mm =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    raise (Sys_error (Printf.sprintf "%s exists and is not a directory" dir));
  { store_dir = dir; mm }

let dir t = t.store_dir

let snapshot_file t n = Filename.concat t.store_dir (Printf.sprintf "snapshot-%d.xml" n)
let journal_file t = Filename.concat t.store_dir "journal.xml"

(* ------------------------------------------------------------------ *)
(* Command serialization                                               *)
(* ------------------------------------------------------------------ *)

module N = Xml_base.Node

let value_to_attrs v =
  match v with
  | Model.V_string s -> [ N.attribute "kind" "string"; N.attribute "value" s ]
  | Model.V_html s -> [ N.attribute "kind" "html"; N.attribute "value" s ]
  | Model.V_int n -> [ N.attribute "kind" "int"; N.attribute "value" (string_of_int n) ]
  | Model.V_bool b ->
    [ N.attribute "kind" "bool"; N.attribute "value" (if b then "true" else "false") ]

let value_of_elt e =
  let v = Option.value ~default:"" (N.attr e "value") in
  match Option.value ~default:"string" (N.attr e "kind") with
  | "int" -> Model.V_int (int_of_string v)
  | "bool" -> Model.V_bool (v = "true")
  | "html" -> Model.V_html v
  | _ -> Model.V_string v

let command_to_xml (c : Edit.command) =
  match c with
  | Edit.Add_node { id; ntype; props } ->
    N.element "add-node"
      ~attrs:
        (N.attribute "type" ntype
        :: (match id with Some i -> [ N.attribute "id" i ] | None -> []))
      ~children:
        (List.map
           (fun (pname, v) ->
             N.element "prop" ~attrs:(N.attribute "name" pname :: value_to_attrs v))
           props)
  | Edit.Remove_node id -> N.element "remove-node" ~attrs:[ N.attribute "id" id ]
  | Edit.Set_property { node_id; pname; value } ->
    N.element "set-property"
      ~attrs:
        (N.attribute "node" node_id :: N.attribute "name" pname :: value_to_attrs value)
  | Edit.Remove_property { node_id; pname } ->
    N.element "remove-property"
      ~attrs:[ N.attribute "node" node_id; N.attribute "name" pname ]
  | Edit.Relate { id; rtype; source_id; target_id } ->
    N.element "relate"
      ~attrs:
        (N.attribute "type" rtype
         :: N.attribute "source" source_id
         :: N.attribute "target" target_id
        :: (match id with Some i -> [ N.attribute "id" i ] | None -> []))
  | Edit.Unrelate rel_id -> N.element "unrelate" ~attrs:[ N.attribute "id" rel_id ]

let req e a =
  match N.attr e a with
  | Some v -> v
  | None -> failwith (Printf.sprintf "journal: <%s> lacks %s" (N.name e) a)

let command_of_xml e =
  match N.name e with
  | "add-node" ->
    Edit.Add_node
      {
        id = N.attr e "id";
        ntype = req e "type";
        props =
          List.map
            (fun p -> (req p "name", value_of_elt p))
            (N.child_elements_named e "prop");
      }
  | "remove-node" -> Edit.Remove_node (req e "id")
  | "set-property" ->
    Edit.Set_property
      { node_id = req e "node"; pname = req e "name"; value = value_of_elt e }
  | "remove-property" ->
    Edit.Remove_property { node_id = req e "node"; pname = req e "name" }
  | "relate" ->
    Edit.Relate
      {
        id = N.attr e "id";
        rtype = req e "type";
        source_id = req e "source";
        target_id = req e "target";
      }
  | "unrelate" -> Edit.Unrelate (req e "id")
  | other -> failwith (Printf.sprintf "journal: unknown command <%s>" other)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let versions t =
  if not (Sys.file_exists t.store_dir) then []
  else
    Sys.readdir t.store_dir |> Array.to_list
    |> List.filter_map (fun f ->
           match Scanf.sscanf_opt f "snapshot-%d.xml" (fun n -> n) with
           | Some n when snapshot_file t n = Filename.concat t.store_dir f -> Some n
           | _ -> None)
    |> List.sort compare

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let clear_journal t =
  if Sys.file_exists (journal_file t) then Sys.remove (journal_file t)

let save_snapshot t model =
  let next = match List.rev (versions t) with [] -> 1 | n :: _ -> n + 1 in
  write_file (snapshot_file t next) (Xml_io.export_string model);
  clear_journal t;
  next

let load_version t n =
  let path = snapshot_file t n in
  if Sys.file_exists path then
    Some (Xml_io.import_string t.mm (read_file path))
  else None

let load_latest t =
  match List.rev (versions t) with
  | [] -> None
  | n :: _ -> Option.map (fun m -> (n, m)) (load_version t n)

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let journal t =
  if not (Sys.file_exists (journal_file t)) then []
  else
    let doc = Xml_base.Parser.parse_string (read_file (journal_file t)) in
    let root = List.hd (N.children doc) in
    List.map command_of_xml (N.child_elements root)

let write_journal t commands =
  let doc = N.document [ N.element "journal" ~children:(List.map command_to_xml commands) ] in
  write_file (journal_file t) (Xml_base.Serialize.to_string ~decl:true doc)

let append_command t c = write_journal t (journal t @ [ c ])

let recover t =
  match load_latest t with
  | None -> None
  | Some (_, model) ->
    let session = Edit.start model in
    List.iter
      (fun c -> try Edit.apply session c with Edit.Edit_error _ -> ())
      (journal t);
    Some (Edit.model session)
