(* The reference evaluator: a direct tree-walk over the AST with the seed
   algorithms (path-walking document order, pairwise set algebra and
   distinct-values, every operand materialized). It is the engine's Seed
   mode and the oracle the plan executor (Fast mode) is tested against;
   the XSLT engine embeds it. *)

module N = Xml_base.Node
open Ast
open Value

let err = Errors.raise_error

(* ------------------------------------------------------------------ *)
(* Axes                                                                *)
(* ------------------------------------------------------------------ *)

(* Nodes delivered in axis order: forward axes in document order, reverse
   axes nearest-first, so positional predicates count the XPath way. *)
let axis_nodes axis (n : N.t) : N.t list =
  match axis with
  | Child -> N.children n
  | Descendant -> N.descendants n
  | Descendant_or_self -> N.descendant_or_self n
  | Self -> [ n ]
  | Parent -> ( match N.parent n with Some p -> [ p ] | None -> [])
  | Ancestor -> N.ancestors n
  | Ancestor_or_self -> n :: N.ancestors n
  | Following_sibling -> N.following_siblings n
  | Preceding_sibling -> N.preceding_siblings n
  | Following ->
    (* Nodes after n in document order, excluding descendants. The
       accumulator is kept reversed and flipped once at the end, so the
       climb is linear in the output instead of quadratic in the number
       of levels. *)
    let rec up n racc =
      let racc =
        List.fold_left
          (fun racc s -> List.rev_append (N.descendant_or_self s) racc)
          racc (N.following_siblings n)
      in
      match N.parent n with None -> List.rev racc | Some p -> up p racc
    in
    up n []
  | Preceding ->
    (* Nodes before n in document order, excluding ancestors; delivered
       in reverse document order. Same reversed-accumulator scheme. *)
    let rec up n racc =
      let racc =
        List.fold_left
          (fun racc s -> List.rev_append (List.rev (N.descendant_or_self s)) racc)
          racc (N.preceding_siblings n)
      in
      match N.parent n with None -> List.rev racc | Some p -> up p racc
    in
    up n []
  | Attribute_axis -> N.attributes n

let node_test_matches test (n : N.t) =
  match test with
  | Name_test name -> (
    match N.kind n with N.Element | N.Attribute -> N.name n = name | _ -> false)
  | Wildcard -> ( match N.kind n with N.Element | N.Attribute -> true | _ -> false)
  | Kind_node -> true
  | Kind_text -> N.kind n = N.Text
  | Kind_comment -> N.kind n = N.Comment
  | Kind_pi None -> N.kind n = N.Processing_instruction
  | Kind_pi (Some target) ->
    N.kind n = N.Processing_instruction && N.pi_target n = target
  | Kind_element None -> N.is_element n
  | Kind_element (Some name) -> N.is_element n && N.name n = name
  | Kind_attribute None -> N.is_attribute n
  | Kind_attribute (Some name) -> N.is_attribute n && N.name n = name
  | Kind_document -> N.kind n = N.Document

(* On non-attribute axes a plain name or wildcard selects elements only;
   on the attribute axis it selects attributes. The [node_test_matches]
   above already does the right thing because axis_nodes only delivers the
   right node kinds per axis. *)

(* ------------------------------------------------------------------ *)
(* Comparison helpers                                                  *)
(* ------------------------------------------------------------------ *)

let cmp_holds op (c : int) =
  match op with Eq -> c = 0 | Ne -> c <> 0 | Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | Ge -> c >= 0

let is_nan_atom = function A_double f -> Float.is_nan f | _ -> false

let atomic_pair_test kind op a b =
  let compare_fn =
    match kind with `General -> general_compare_atoms | `Value -> value_compare
  in
  if is_nan_atom a || is_nan_atom b then
    (* NaN: all comparisons false except ne, which is true. *)
    match op with Ne -> true | Eq | Lt | Le | Gt | Ge -> false
  else
    match compare_fn a b with
    | Some c -> cmp_holds op c
    | None ->
      err Errors.xpty0004 "cannot compare %s with %s" (atomic_type_name a)
        (atomic_type_name b)

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

let numeric_atom op_name a =
  match a with
  | A_int _ | A_double _ -> a
  | A_untyped s -> A_double (double_of_atomic (A_untyped s))
  | other ->
    err Errors.xpty0004 "%s: operand is not numeric (%s)" op_name (atomic_type_name other)

let arith op a b =
  let name =
    match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "div" | Idiv -> "idiv" | Mod -> "mod"
  in
  let a = numeric_atom name a and b = numeric_atom name b in
  match (op, a, b) with
  | Add, A_int x, A_int y -> of_int (x + y)
  | Sub, A_int x, A_int y -> of_int (x - y)
  | Mul, A_int x, A_int y -> of_int (x * y)
  | Mod, A_int x, A_int y ->
    if y = 0 then err Errors.foar0001 "mod by zero" else of_int (x mod y)
  | Idiv, A_int x, A_int y ->
    (* OCaml division truncates toward zero, matching xs:integer idiv. *)
    if y = 0 then err Errors.foar0001 "idiv by zero" else of_int (x / y)
  | Idiv, _, _ ->
    let x = double_of_atomic a and y = double_of_atomic b in
    if y = 0.0 then err Errors.foar0001 "idiv by zero"
    else of_int (int_of_float (Float.trunc (x /. y)))
  | Div, A_int _, A_int 0 -> err Errors.foar0001 "division by zero"
  | _ ->
    let x = double_of_atomic a and y = double_of_atomic b in
    (match op with
    | Add -> of_double (x +. y)
    | Sub -> of_double (x -. y)
    | Mul -> of_double (x *. y)
    | Div -> of_double (x /. y)
    | Mod -> of_double (Float.rem x y)
    | Idiv -> assert false)

(* ------------------------------------------------------------------ *)
(* Casts                                                               *)
(* ------------------------------------------------------------------ *)

let apply_cast target a =
  match target with
  | To_int -> of_int (cast_to_int a)
  | To_double -> of_double (double_of_atomic a)
  | To_string -> of_string (string_of_atomic a)
  | To_bool -> of_bool (cast_to_bool a)

(* ------------------------------------------------------------------ *)
(* Element construction                                                *)
(* ------------------------------------------------------------------ *)

(* Convert one enclosed expression's value into content nodes: runs of
   adjacent atomic values become a single space-separated text node. *)
let content_nodes_of_sequence (s : sequence) : N.t list =
  let flush_atoms acc atoms =
    match atoms with
    | [] -> acc
    | atoms ->
      let text = String.concat " " (List.rev_map string_of_atomic atoms) in
      N.text text :: acc
  in
  let rec go acc atoms = function
    | [] -> List.rev (flush_atoms acc atoms)
    | Atomic a :: rest -> go acc (a :: atoms) rest
    | Node n :: rest -> go (n :: flush_atoms acc atoms) [] rest
  in
  go [] [] s

(* Assemble an element from its content node list, applying the attribute
   folding rules the paper documents: leading attribute nodes become
   attributes of the element; an attribute node after other content is an
   error (XQTY0024); duplicate names follow the compat policy. All nodes
   are copied — construction never captures existing nodes. *)
(* Charge constructed content against the node-allocation budget. The
   constructors below deep-copy every content node, so the real allocation
   is the total subtree size; counting it is O(size), the same order as
   the copy itself. Free when the budget is unlimited. *)
let charge_content (limits : Context.limits) (content : N.t list) =
  if limits.Context.max_nodes <> max_int then begin
    let count = ref 0 in
    List.iter (fun n -> N.iter (fun _ -> incr count) n) content;
    Context.charge_nodes limits !count
  end

let assemble_element (env : Context.env) name (content : N.t list) : N.t =
  charge_content env.Context.limits content;
  (* Attributes accumulate reversed (cons, not append) and are flipped
     once at the end — O(n) for n attributes instead of O(n²). *)
  let rattrs = ref [] in
  let kids = ref [] in
  let seen_content = ref false in
  let add_attr a =
    let aname = N.name a in
    let dup = List.exists (fun x -> N.name x = aname) !rattrs in
    if dup then
      match env.compat.duplicate_attributes with
      | Context.Keep_both -> rattrs := N.copy a :: !rattrs
      | Context.Keep_last ->
        rattrs := N.copy a :: List.filter (fun x -> N.name x <> aname) !rattrs
      | Context.Raise_error ->
        err Errors.xqdy0025 "duplicate attribute name %S in element constructor" aname
    else rattrs := N.copy a :: !rattrs
  in
  List.iter
    (fun n ->
      match N.kind n with
      | N.Attribute ->
        if !seen_content then
          err Errors.xqty0024
            "attribute node %S encountered after non-attribute content" (N.name n)
        else add_attr n
      | N.Document ->
        seen_content := true;
        List.iter (fun k -> kids := N.copy k :: !kids) (N.children n)
      | N.Text ->
        if N.string_value n <> "" then begin
          seen_content := true;
          kids := N.copy n :: !kids
        end
      | N.Element | N.Comment | N.Processing_instruction ->
        seen_content := true;
        kids := N.copy n :: !kids)
    content;
  (* Merge adjacent text nodes. *)
  let merged =
    List.fold_left
      (fun acc n ->
        match (acc, N.kind n) with
        | prev :: rest, N.Text when N.kind prev = N.Text ->
          N.text (N.string_value prev ^ N.string_value n) :: rest
        | _ -> n :: acc)
      [] (List.rev !kids)
  in
  N.element name ~attrs:(List.rev !rattrs) ~children:(List.rev merged)

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)
(* ------------------------------------------------------------------ *)

let rec eval (dyn : Context.dyn) (e : expr) : sequence =
  (* One budget tick per evaluation step: a decrement and a compare on
     the hot path; fuel/deadline accounting runs every ~1k steps. *)
  Context.tick dyn.Context.env.Context.limits;
  match e with
  | E_int n -> of_int n
  | E_double f -> of_double f
  | E_string s -> of_string s
  | E_var v -> (
    match Context.lookup_var dyn v with
    | Some value -> value
    | None -> err Errors.xpst0008 "undefined variable $%s" v)
  | E_context_item -> [ Context.context_item dyn ]
  | E_seq es -> seq (List.map (eval dyn) es)
  | E_range (e1, e2) -> (
    match (atomize (eval dyn e1), atomize (eval dyn e2)) with
    | [], _ | _, [] -> []
    | [ a ], [ b ] ->
      let lo = cast_to_int a and hi = cast_to_int b in
      if lo > hi then []
      else begin
        (* Tick per item rather than charging hi-lo+1 up front: the
           fuel accounting is the same, but a deadline can preempt the
           materialization itself instead of waiting out a multi-second
           allocation of a huge range. *)
        let limits = dyn.Context.env.Context.limits in
        List.init
          (hi - lo + 1)
          (fun i ->
            Context.tick limits;
            Atomic (A_int (lo + i)))
      end
    | _ -> err Errors.xpty0004 "'to' requires singleton operands")
  | E_arith (op, e1, e2) -> (
    match (atomize (eval dyn e1), atomize (eval dyn e2)) with
    | [], _ | _, [] -> []
    | [ a ], [ b ] -> arith op a b
    | _ -> err Errors.xpty0004 "arithmetic requires singleton operands")
  | E_neg e -> (
    match atomize (eval dyn e) with
    | [] -> []
    | [ a ] -> (
      match numeric_atom "unary -" a with
      | A_int n -> of_int (-n)
      | A_double f -> of_double (-.f)
      | _ -> assert false)
    | _ -> err Errors.xpty0004 "unary - requires a singleton operand")
  | E_general_cmp (op, e1, e2) ->
    (* The paper's quirk #4: = is an existential comparison.
       1 = (1,2,3) holds; (1,2,3) = 3 holds; 1 = 3 does not. *)
    let l1 = atomize (eval dyn e1) and l2 = atomize (eval dyn e2) in
    of_bool
      (List.exists (fun a -> List.exists (fun b -> atomic_pair_test `General op a b) l2) l1)
  | E_value_cmp (op, e1, e2) -> (
    match (atomize (eval dyn e1), atomize (eval dyn e2)) with
    | [], _ | _, [] -> []
    | [ a ], [ b ] -> of_bool (atomic_pair_test `Value op a b)
    | _ ->
      err Errors.xpty0004 "value comparison (%s) requires singleton operands"
        (match op with Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"))
  | E_node_cmp (op, e1, e2) -> (
    let node_of name e =
      match eval dyn e with
      | [] -> None
      | [ Node n ] -> Some n
      | _ -> err Errors.xpty0004 "%s requires single nodes" name
    in
    let name = match op with Is -> "is" | Precedes -> "<<" | Follows -> ">>" in
    match (node_of name e1, node_of name e2) with
    | None, _ | _, None -> []
    | Some a, Some b -> (
      match op with
      | Is -> of_bool (N.same a b)
      | Precedes -> of_bool (N.compare_document_order a b < 0)
      | Follows -> of_bool (N.compare_document_order a b > 0)))
  | E_and (e1, e2) -> of_bool (ebv_expr dyn e1 && ebv_expr dyn e2)
  | E_or (e1, e2) -> of_bool (ebv_expr dyn e1 || ebv_expr dyn e2)
  | E_set_op (op, e1, e2) ->
    let nodes name e =
      match all_nodes (eval dyn e) with
      | Some ns -> ns
      | None -> err Errors.xpty0004 "%s requires node sequences" name
    in
    let l1 = nodes "set operation" e1 and l2 = nodes "set operation" e2 in
    let mem n l = List.exists (N.same n) l in
    (match op with
    | Union -> of_nodes (document_order_seed (l1 @ l2))
    | Intersect -> of_nodes (document_order_seed (List.filter (fun n -> mem n l2) l1))
    | Except -> of_nodes (document_order_seed (List.filter (fun n -> not (mem n l2)) l1)))
  | E_if (c, t, f) -> if ebv_expr dyn c then eval dyn t else eval dyn f
  | E_flwor f -> eval_flwor dyn f
  | E_quantified (q, bindings, body) -> of_bool (eval_quantified dyn q bindings body)
  | E_path (e1, e2) ->
    let base = eval dyn e1 in
    let size = List.length base in
    let results =
      List.concat
        (List.mapi
           (fun i item ->
             match item with
             | Node _ -> eval (Context.with_context dyn item (i + 1) size) e2
             | Atomic _ -> err Errors.xpty0019 "a path step was applied to a non-node")
           base)
    in
    (match all_nodes results with
    | Some ns -> of_nodes (document_order_seed ns)
    | None ->
      if List.for_all (function Atomic _ -> true | Node _ -> false) results then results
      else err Errors.xpty0018 "path result mixes nodes and atomic values")
  | E_root -> of_node (N.root (Context.context_node dyn))
  | E_step (axis, test) ->
    let n = Context.context_node dyn in
    of_nodes (List.filter (node_test_matches test) (axis_nodes axis n))
  | E_filter (base, pred) ->
    let items = eval dyn base in
    let size = List.length items in
    List.concat
      (List.mapi
         (fun i item ->
           let d = Context.with_context dyn item (i + 1) size in
           let p = eval d pred in
           match p with
           | [ Atomic ((A_int _ | A_double _) as a) ] ->
             if double_of_atomic a = float_of_int (i + 1) then [ item ] else []
           | p -> if effective_boolean_value p then [ item ] else [])
         items)
  | E_call (name, arg_exprs) -> eval_call dyn name arg_exprs
  | E_cast (target, e) -> (
    match atomize (eval dyn e) with
    | [] -> []
    | [ a ] -> apply_cast target a
    | _ -> err Errors.xpty0004 "cast requires a singleton")
  | E_castable (target, e) -> (
    match atomize (eval dyn e) with
    | [ a ] -> of_bool (match apply_cast target a with _ -> true | exception Errors.Error _ -> false)
    | _ -> of_bool false)
  | E_instance_of (e, ty) -> of_bool (Stype.matches (eval dyn e) ty)
  | E_treat (e, ty) ->
    let v = eval dyn e in
    if Stype.matches v ty then v
    else
      err "XPDY0050" "treat as %s: value does not match" (Stype.to_string ty)
  | E_typeswitch { operand; cases; default_var; default } -> (
    let v = eval dyn operand in
    let rec pick = function
      | [] ->
        let dyn =
          match default_var with
          | Some dv -> Context.bind_var dyn dv v
          | None -> dyn
        in
        eval dyn default
      | { case_var; case_type; case_return } :: rest ->
        if Stype.matches v case_type then
          let dyn =
            match case_var with Some cv -> Context.bind_var dyn cv v | None -> dyn
          in
          eval dyn case_return
        else pick rest
    in
    pick cases)
  | E_elem (name_spec, content) ->
    let name = eval_name dyn name_spec in
    let content_nodes =
      List.concat_map (fun ce -> content_nodes_of_sequence (eval dyn ce)) content
    in
    of_node (assemble_element dyn.env name content_nodes)
  | E_attr (name_spec, parts) ->
    let name = eval_name dyn name_spec in
    let value =
      String.concat ""
        (List.map
           (function
             | E_string s -> s (* literal AVT fragment *)
             | part ->
               String.concat " " (List.map string_of_atomic (atomize (eval dyn part))))
           parts)
    in
    of_node (N.attribute name value)
  | E_text e -> (
    match eval dyn e with
    | [] -> []
    | s -> of_node (N.text (String.concat " " (List.map string_of_atomic (atomize s)))))
  | E_doc content ->
    let content_nodes =
      List.concat_map (fun ce -> content_nodes_of_sequence (eval dyn ce)) content
    in
    (* Wrap via a scratch element to reuse folding (attributes are illegal
       at document top level). *)
    charge_content dyn.Context.env.Context.limits content_nodes;
    let kids =
      List.map
        (fun n ->
          if N.kind n = N.Attribute then
            err Errors.xpty0004 "attribute node at document top level"
          else N.copy n)
        content_nodes
    in
    of_node (N.document kids)
  | E_comment_c e -> of_node (N.comment (string_value (eval dyn e)))

and eval_name dyn = function
  | Static_name n -> n
  | Computed_name e -> string_value (eval dyn e)

and eval_flwor dyn { clauses; order_by; return } =
  let envs =
    List.fold_left
      (fun envs clause ->
        match clause with
        | For { var; var_type; pos_var; source } ->
          List.concat_map
            (fun (d : Context.dyn) ->
              let items = eval d source in
              List.mapi
                (fun i item ->
                  (if d.Context.env.Context.typed_mode then
                     match var_type with
                     | Some ty when not (Stype.matches [ item ] ty) ->
                       err Errors.xpty0004 "for $%s as %s: item does not match" var
                         (Stype.to_string ty)
                     | _ -> ());
                  let d = Context.bind_var d var [ item ] in
                  match pos_var with
                  | Some pv -> Context.bind_var d pv (of_int (i + 1))
                  | None -> d)
                items)
            envs
        | Let { var; var_type; value } ->
          List.map
            (fun (d : Context.dyn) ->
              let v = eval d value in
              (if d.Context.env.Context.typed_mode then
                 match var_type with
                 | Some ty when not (Stype.matches v ty) ->
                   err Errors.xpty0004 "let $%s as %s: value does not match" var
                     (Stype.to_string ty)
                 | _ -> ());
              Context.bind_var d var v)
            envs
        | Where cond -> List.filter (fun d -> ebv_expr d cond) envs)
      [ dyn ] clauses
  in
  let envs =
    if order_by = [] then envs
    else begin
      let keyed =
        List.map
          (fun d ->
            let keys =
              List.map
                (fun spec ->
                  match atomize (eval d spec.key) with
                  | [] -> None
                  | [ a ] -> Some a
                  | _ -> err Errors.xpty0004 "order by key must be a singleton")
                order_by
            in
            (keys, d))
          envs
      in
      let compare_keys k1 k2 =
        let rec go specs k1 k2 =
          match (specs, k1, k2) with
          | [], [], [] -> 0
          | spec :: specs, a :: k1, b :: k2 ->
            let c =
              match (a, b) with
              | None, None -> 0
              | None, Some _ -> if spec.empty_greatest then 1 else -1
              | Some _, None -> if spec.empty_greatest then -1 else 1
              | Some a, Some b -> (
                if is_nan_atom a && is_nan_atom b then 0
                else if is_nan_atom a then if spec.empty_greatest then 1 else -1
                else if is_nan_atom b then if spec.empty_greatest then -1 else 1
                else
                  match value_compare a b with
                  | Some c -> c
                  | None ->
                    err Errors.xpty0004 "order by keys of incomparable types (%s, %s)"
                      (atomic_type_name a) (atomic_type_name b))
            in
            if c <> 0 then if spec.descending then -c else c else go specs k1 k2
          | _ -> assert false
        in
        go order_by k1 k2
      in
      List.stable_sort (fun (k1, _) (k2, _) -> compare_keys k1 k2) keyed
      |> List.map snd
    end
  in
  List.concat_map (fun d -> eval d return) envs

and eval_quantified dyn q bindings body =
  match bindings with
  | [] -> ebv_expr dyn body
  | (var, source) :: rest ->
    let test item = eval_quantified (Context.bind_var dyn var [ item ]) q rest body in
    let items = eval dyn source in
    (match q with
    | Some_q -> List.exists test items
    | Every_q -> List.for_all test items)

and eval_call dyn name arg_exprs =
  let arity = List.length arg_exprs in
  match Context.find_function dyn.env name arity with
  | Some (Context.Builtin f) -> f dyn (List.map (eval dyn) arg_exprs)
  | Some (Context.User { uparams; ureturn; ubody }) ->
    let args = List.map (eval dyn) arg_exprs in
    let limits = dyn.Context.env.Context.limits in
    Context.enter_call limits;
    let typed = dyn.env.typed_mode in
    let body_dyn =
      List.fold_left2
        (fun d (pname, ptype) arg ->
          (if typed then
             match ptype with
             | Some ty when not (Stype.matches arg ty) ->
               err Errors.xpty0004 "%s: argument $%s does not match %s" name pname
                 (Stype.to_string ty)
             | _ -> ());
          Context.bind_var d pname arg)
        {
          dyn with
          Context.vars = Context.StringMap.empty;
          ctx_item = None;
          ctx_pos = 0;
          ctx_size = 0;
        }
        uparams args
    in
    let result = eval body_dyn ubody in
    (* No unwind on exception: a budget trip aborts the whole evaluation
       and the limits record dies with the env. *)
    Context.exit_call limits;
    (if typed then
       match ureturn with
       | Some ty when not (Stype.matches result ty) ->
         err Errors.xpty0004 "%s: result does not match %s" name (Stype.to_string ty)
       | _ -> ());
    result
  | None ->
    err Errors.xpst0017 "unknown function %s/%d" name arity

and ebv_expr dyn e = effective_boolean_value (eval dyn e)

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

let register_prolog (env : Context.env) (prolog : prolog_decl list) =
  List.iter
    (function
      | Declare_function { fname; params; return_type; body } ->
        Context.register_function env
          (Context.normalize_fname fname)
          (List.length params)
          (Context.User { uparams = params; ureturn = return_type; ubody = body })
      | Declare_variable _ | Declare_namespace _ -> ())
    prolog

let run_program (env : Context.env) ?context_item ?(vars = []) (prog : program) : sequence =
  (* Force one slow check up front so an already-expired deadline trips
     before any work, however small the program. *)
  Context.check env.Context.limits;
  register_prolog env prog.prolog;
  let base_dyn =
    let d = Context.make_dyn env in
    match context_item with
    | Some item -> { d with Context.ctx_item = Some item; ctx_pos = 1; ctx_size = 1 }
    | None -> d
  in
  env.global_vars <-
    List.fold_left
      (fun acc (name, value) -> Context.StringMap.add name value acc)
      env.global_vars vars;
  List.iter
    (function
      | Declare_variable { vname; vtype; init } ->
        let value = eval base_dyn init in
        (if env.typed_mode then
           match vtype with
           | Some ty when not (Stype.matches value ty) ->
             err Errors.xpty0004 "global $%s does not match %s" vname (Stype.to_string ty)
           | _ -> ());
        env.global_vars <- Context.StringMap.add vname value env.global_vars
      | Declare_function _ | Declare_namespace _ -> ())
    prog.prolog;
  eval base_dyn prog.body
