module M = Awb.Model
module MM = Awb.Metamodel

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c -> if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* All declared concrete subtypes of [ty] (the calculus is subtype-aware;
   the XML export is not, so the compiler expands the hierarchy into an
   explicit name list and leans on existential "=" for membership). *)
let concrete_subtypes mm ty =
  let declared = MM.node_type_names mm in
  let subs = List.filter (fun t -> MM.is_subtype mm t ty) declared in
  if List.mem ty subs then subs else ty :: subs

let concrete_subrelations mm rel =
  let declared = MM.relation_type_names mm in
  let subs = List.filter (fun r -> MM.is_subrelation mm r rel) declared in
  if List.mem rel subs then subs else rel :: subs

let name_list names = "(" ^ String.concat ", " (List.map quote names) ^ ")"

let prop_path pname = Printf.sprintf "property[@name = %s]" (quote pname)

let literal_for lit =
  match int_of_string_opt (String.trim lit) with
  | Some n -> string_of_int n
  | None -> quote lit

let step_binding mm prev var = function
  | Ast.Follow { rel; dir; to_type } ->
    let rels = name_list (concrete_subrelations mm rel) in
    let from_attr, to_attr =
      match dir with Ast.Forward -> ("source", "target") | Ast.Backward -> ("target", "source")
    in
    let target_filter =
      match to_type with
      | None -> ""
      | Some ty -> Printf.sprintf "[@type = %s]" (name_list (concrete_subtypes mm ty))
    in
    Printf.sprintf
      "let %s := for $n in %s\n\
      \           for $r in $model/relation[@type = %s][@%s = $n/@id]\n\
      \           return $model/node[@id = $r/@%s]%s"
      var prev rels from_attr to_attr target_filter
  | Ast.Filter_type ty ->
    Printf.sprintf "let %s := for $n in %s where $n/@type = %s return $n" var prev
      (name_list (concrete_subtypes mm ty))
  | Ast.Filter_prop { pname; op; literal } ->
    let cond =
      match op with
      | Ast.P_eq -> Printf.sprintf "$n/%s = %s" (prop_path pname) (literal_for literal)
      | Ast.P_ne -> Printf.sprintf "$n/%s != %s" (prop_path pname) (literal_for literal)
      | Ast.P_lt -> Printf.sprintf "$n/%s < %s" (prop_path pname) (literal_for literal)
      | Ast.P_gt -> Printf.sprintf "$n/%s > %s" (prop_path pname) (literal_for literal)
      | Ast.P_contains ->
        Printf.sprintf "some $p in $n/%s satisfies contains(string($p), %s)"
          (prop_path pname) (quote literal)
    in
    Printf.sprintf "let %s := for $n in %s where %s return $n" var prev cond
  | Ast.Filter_has_prop p ->
    Printf.sprintf "let %s := for $n in %s where exists($n/%s) return $n" var prev
      (prop_path p)
  | Ast.Filter_not_has_prop p ->
    Printf.sprintf "let %s := for $n in %s where empty($n/%s) return $n" var prev
      (prop_path p)
  | Ast.Distinct ->
    Printf.sprintf
      "let %s := for $id in distinct-values(for $n in %s return string($n/@id))\n\
      \           return $model/node[@id = $id]"
      var prev
  | Ast.Sort_by_label ->
    Printf.sprintf
      "let %s := for $n in %s order by string(($n/%s, $n/@id)[1]) return $n" var prev
      (prop_path "name")
  | Ast.Sort_by_prop { pname; descending } ->
    (* Two keys: numeric when the values are numbers (NaN ties for pure
       strings), string as tie-break — matching the native evaluator's
       numeric-aware comparison on homogeneous data. *)
    let dir = if descending then "descending" else "ascending" in
    Printf.sprintf
      "let %s := for $n in %s order by number($n/%s[1]) %s, string($n/%s[1]) %s return $n"
      var prev (prop_path pname) dir (prop_path pname) dir
  | Ast.Limit n -> Printf.sprintf "let %s := subsequence(%s, 1, %d)" var prev n

let compile mm (q : Ast.t) =
  let start =
    match q.Ast.start with
    | Ast.All -> "let $s0 := $model/node"
    | Ast.Of_type ty ->
      Printf.sprintf "let $s0 := $model/node[@type = %s]"
        (name_list (concrete_subtypes mm ty))
    | Ast.Node_id id -> Printf.sprintf "let $s0 := $model/node[@id = %s]" (quote id)
    | Ast.Focus -> "let $s0 := $focus"
  in
  let bindings, last =
    List.fold_left
      (fun (acc, i) step ->
        let var = Printf.sprintf "$s%d" (i + 1) in
        (step_binding mm (Printf.sprintf "$s%d" i) var step :: acc, i + 1))
      ([ start ], 0) q.Ast.steps
  in
  String.concat "\n" (List.rev bindings) ^ Printf.sprintf "\nreturn $s%d" last

let eval_on_export ?focus ?limits ?fast_eval model ~export_root q =
  let src = compile (M.metamodel model) q in
  let focus_seq =
    match focus with
    | None -> []
    | Some (n : M.node) ->
      (* Locate the focus node's element in the export by id. *)
      Xml_base.Node.find_all
        (fun e ->
          Xml_base.Node.is_element e
          && Xml_base.Node.name e = "node"
          && Xml_base.Node.attr e "id" = Some n.M.id)
        export_root
      |> Xquery.Value.of_nodes
  in
  let mode =
    Option.map
      (fun fast -> if fast then Xquery.Engine.Exec_opts.Fast else Xquery.Engine.Exec_opts.Seed)
      fast_eval
  in
  let result =
    Xquery.Engine.eval_query ?limits ?mode
      ~vars:[ ("model", Xquery.Value.of_node export_root); ("focus", focus_seq) ]
      src
  in
  List.filter_map
    (function
      | Xquery.Value.Node n when Xml_base.Node.is_element n ->
        (match Xml_base.Node.attr n "id" with
        | Some id -> M.find_node model id
        | None -> None)
      | _ -> None)
    result

let export_root model =
  let doc = Awb.Xml_io.export model in
  List.hd (Xml_base.Node.children doc)

let eval ?focus ?limits ?fast_eval model q =
  eval_on_export ?focus ?limits ?fast_eval model ~export_root:(export_root model) q

let eval_string ?focus model text = eval ?focus model (Parser.parse text)
