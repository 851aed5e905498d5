(* AST -> physical plan lowering.

   The compiler runs after the (optional) PR-2 optimizer, so it lowers the
   already-rewritten tree: hoisted invariants arrive as plain lets and the
   count()-comparison rewrites as exists/empty calls. What it adds on top:

   - variables become integer frame slots; only names free at the top
     level stay dynamic ([P_global]), preserving declaration-order
     semantics for externally-bound and declared globals;
   - call sites resolve once, at compile time: prolog functions to an
     index (later declaration of the same name/arity wins, matching the
     Hashtbl.replace registration order), builtins to their closure;
   - chains of path steps fuse into one [P_steps] pipeline with a single
     final document-order pass instead of one per step;
   - predicates that are pure node tests (step/path/filter chains — no
     positions, no atomics, no possible dynamic error) push down into the
     step walk;
   - single-binding FLWORs with no positional variable and no order-by
     lower to [P_for_loop], a tight loop over one mutated slot; its body
     is marked parallel-safe when it provably never calls fn:trace or
     fn:doc (the only effectful builtins), transitively through user
     functions;
   - exists/empty over a streamable operand become early-exit probes,
     and existential comparisons and quantifiers over one are counted
     as early exits too (the executor streams them; see [streams]);
   - fn:distinct-values binds the hashed implementation, where the
     reference evaluator keeps the pairwise scan. *)

module A = Ast
module P = Plan

type cenv = {
  funcs : (string * int, int) Hashtbl.t; (* resolved final index *)
  fn_unsafe : bool array; (* per-function: may reach fn:trace / fn:doc *)
  stats : P.stats;
  mutable nslots : int; (* frame allocator for the current unit *)
}

let fresh cenv =
  let s = cenv.nslots in
  cenv.nslots <- s + 1;
  s

(* ------------------------------------------------------------------ *)
(* Effect analysis for parallel safety                                 *)
(* ------------------------------------------------------------------ *)

let rec iter_calls f (e : A.expr) =
  let go = iter_calls f in
  match e with
  | A.E_int _ | A.E_double _ | A.E_string _ | A.E_var _ | A.E_context_item
  | A.E_root | A.E_step _ ->
    ()
  | A.E_call (name, args) ->
    f name (List.length args);
    List.iter go args
  | A.E_seq es | A.E_doc es -> List.iter go es
  | A.E_range (a, b)
  | A.E_arith (_, a, b)
  | A.E_general_cmp (_, a, b)
  | A.E_value_cmp (_, a, b)
  | A.E_node_cmp (_, a, b)
  | A.E_and (a, b)
  | A.E_or (a, b)
  | A.E_set_op (_, a, b)
  | A.E_path (a, b)
  | A.E_filter (a, b) ->
    go a;
    go b
  | A.E_neg a
  | A.E_cast (_, a)
  | A.E_castable (_, a)
  | A.E_instance_of (a, _)
  | A.E_treat (a, _)
  | A.E_text a
  | A.E_comment_c a ->
    go a
  | A.E_if (c, t, f') ->
    go c;
    go t;
    go f'
  | A.E_quantified (_, bindings, body) ->
    List.iter (fun (_, e) -> go e) bindings;
    go body
  | A.E_typeswitch { operand; cases; default_var = _; default } ->
    go operand;
    List.iter (fun (c : A.ts_case) -> go c.case_return) cases;
    go default
  | A.E_elem (name, content) | A.E_attr (name, content) ->
    (match name with A.Computed_name e -> go e | A.Static_name _ -> ());
    List.iter go content
  | A.E_flwor { clauses; order_by; return } ->
    List.iter
      (function
        | A.For { source; _ } -> go source
        | A.Let { value; _ } -> go value
        | A.Where cond -> go cond)
      clauses;
    List.iter (fun (s : A.order_spec) -> go s.key) order_by;
    go return

let unsafe_builtin base = base = "trace" || base = "doc"

(* Does the expression construct any node (element, attribute, text,
   comment, document)? Constructed nodes carry fresh identity, so a
   function that can construct is not a pure value function — two calls
   with the same arguments must return distinct nodes — and the executor
   must not memoize it. *)
let rec has_constructor (e : A.expr) =
  let go = has_constructor in
  match e with
  | A.E_elem _ | A.E_attr _ | A.E_text _ | A.E_comment_c _ | A.E_doc _ -> true
  | A.E_int _ | A.E_double _ | A.E_string _ | A.E_var _ | A.E_context_item
  | A.E_root | A.E_step _ ->
    false
  | A.E_call (_, args) -> List.exists go args
  | A.E_seq es -> List.exists go es
  | A.E_range (a, b)
  | A.E_arith (_, a, b)
  | A.E_general_cmp (_, a, b)
  | A.E_value_cmp (_, a, b)
  | A.E_node_cmp (_, a, b)
  | A.E_and (a, b)
  | A.E_or (a, b)
  | A.E_set_op (_, a, b)
  | A.E_path (a, b)
  | A.E_filter (a, b) ->
    go a || go b
  | A.E_neg a | A.E_cast (_, a) | A.E_castable (_, a) | A.E_instance_of (a, _)
  | A.E_treat (a, _) ->
    go a
  | A.E_if (c, t, f') -> go c || go t || go f'
  | A.E_quantified (_, bindings, body) ->
    List.exists (fun (_, e) -> go e) bindings || go body
  | A.E_typeswitch { operand; cases; default_var = _; default } ->
    go operand
    || List.exists (fun (c : A.ts_case) -> go c.case_return) cases
    || go default
  | A.E_flwor { clauses; order_by; return } ->
    List.exists
      (function
        | A.For { source; _ } -> go source
        | A.Let { value; _ } -> go value
        | A.Where cond -> go cond)
      clauses
    || List.exists (fun (s : A.order_spec) -> go s.key) order_by
    || go return

(* A call is unsafe if it reaches fn:trace (mutates trace state) or
   fn:doc (consults a possibly stateful resolver); anything else either
   is pure or merely raises, and a raise from a parallel fragment is
   re-surfaced deterministically. *)
let expr_unsafe cenv (e : A.expr) : bool =
  let found = ref false in
  iter_calls
    (fun name arity ->
      let base = Context.normalize_fname name in
      match Hashtbl.find_opt cenv.funcs (base, arity) with
      | Some idx -> if cenv.fn_unsafe.(idx) then found := true
      | None -> if unsafe_builtin base then found := true)
    e;
  !found

(* ------------------------------------------------------------------ *)
(* Step-chain recognition                                              *)
(* ------------------------------------------------------------------ *)

(* A predicate is fusable into a step walk when it is a pure node
   pipeline: it can never yield an atomic (so it is an EBV/emptiness
   test, never positional), never observes the focus position, and never
   raises a dynamic error — so evaluating it per candidate node during
   the walk, in walk order, is indistinguishable from the interpreter's
   post-sort pass. *)
let rec is_node_pred (e : A.expr) =
  match e with
  | A.E_step _ | A.E_root | A.E_context_item -> true
  | A.E_path (a, b) | A.E_filter (a, b) -> is_node_pred a && is_node_pred b
  | _ -> false

(* The right-hand side of a path that is a single step, possibly wrapped
   in fusable predicates: b, b[c], b[c][d/e]. Positional or atomizing
   predicates keep their per-parent focus semantics and stay unfused. *)
let rec as_pred_step (e : A.expr) : (A.axis * A.node_test * A.expr list) option =
  match e with
  | A.E_step (axis, test) -> Some (axis, test, [])
  | A.E_filter (inner, pred) when is_node_pred pred -> (
    match as_pred_step inner with
    | Some (axis, test, preds) -> Some (axis, test, preds @ [ pred ])
    | None -> None)
  | _ -> None

(* Is a singleton base guaranteed to leave the pipeline output in
   document order, duplicate-free? Tracked as (sorted, independent):
   [independent] means no output node is an ancestor of another, which is
   what child/attribute expansion needs to preserve order. *)
let step_flags (sorted, indep) (axis : A.axis) =
  match axis with
  | A.Self -> (sorted, indep)
  | A.Child -> if sorted && indep then (true, true) else (false, false)
  | A.Attribute_axis ->
    (* a node's attributes sort between it and its first child, so they
       stay in order even over nested inputs, and they are leaves *)
    if sorted then (true, true) else (false, false)
  | A.Descendant | A.Descendant_or_self ->
    if sorted && indep then (true, false) else (false, false)
  | _ -> (false, false)

let sorted_if_single_of (steps : P.step array) =
  fst
    (Array.fold_left (fun flags (s : P.step) -> step_flags flags s.axis) (true, true) steps)

(* //x is descendant-or-self::node()/child::x. As one descendant::x step
   the walk visits each node once instead of twice, and from a singleton
   base the output is already in document order. Sound because fused
   predicates are never positional. *)
let rec fold_descendant (steps : P.step list) =
  match steps with
  | { P.axis = A.Descendant_or_self; test = A.Kind_node; preds = [||] }
    :: ({ P.axis = A.Child; _ } as c) :: rest ->
    { c with P.axis = A.Descendant } :: fold_descendant rest
  | s :: rest -> s :: fold_descendant rest
  | [] -> []

(* A path pipeline (never raw: the path's final sort makes intermediate
   order unobservable). *)
let pipeline base (steps : P.step array) =
  let steps = Array.of_list (fold_descendant (Array.to_list steps)) in
  P.P_steps { base; steps; sorted_if_single = sorted_if_single_of steps; raw = false }

(* Axes that can deliver the same node twice over a duplicate-free input
   (shared parents, overlapping subtrees, overlapping sibling tails).
   The executor re-sorts after these so chained walks stay near-linear. *)
let dup_creating (axis : A.axis) =
  match axis with
  | A.Child | A.Attribute_axis | A.Self -> false
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Streamability                                                       *)
(* ------------------------------------------------------------------ *)

(* Does feeding [p]'s items one at a time to a consumer that may stop
   early save real work? Subtree walks, ranges and tight loops can be cut
   short; child/attribute steps over already-built lists cannot, and for
   those the materialized list wins. This is the reference tree-walker's
   former [lazy_pays] test, restated over plans. The executor streams
   only into consumers that stop at a witness: the left operand of an
   existential comparison, a quantifier's source, and emptiness and EBV
   probes (for EBV only where [ebv_streams] also holds). *)
let rec streams (p : P.t) =
  match p with
  | P.P_steps { base; steps; _ } ->
    Array.exists
      (fun (s : P.step) -> s.axis = A.Descendant || s.axis = A.Descendant_or_self)
      steps
    || streams base
  | P.P_seq parts -> Array.exists streams parts
  | P.P_if (_, t, f) -> streams t || streams f
  | P.P_range _ | P.P_for_loop _ -> true
  | _ -> false

(* Every item [p] can produce is a node. Conservative. *)
let rec nodes_only (p : P.t) =
  match p with
  | P.P_steps _ | P.P_root | P.P_set_op _ | P.P_elem _ | P.P_attr _ | P.P_text _
  | P.P_doc _ | P.P_comment _ ->
    true
  | P.P_path (_, b) | P.P_filter (b, _) | P.P_filter_pos (b, _) -> nodes_only b
  | P.P_seq parts -> Array.for_all nodes_only parts
  | P.P_if (_, t, f) -> nodes_only t && nodes_only f
  | P.P_for_loop { body; _ } -> nodes_only body
  | P.P_flwor (_, _, ret) -> nodes_only ret
  | _ -> false

(* May the effective boolean value of [p] be taken from its stream? EBV
   reads at most two items, and multiplicity is observable for atomics —
   a stream that repeats an atomic raises FORG0006 where the deduplicated
   sequence has a value — so only node-only streams (where EBV is
   non-emptiness) and ranges (which stream exactly their items) qualify. *)
let ebv_streams (p : P.t) =
  let rec safe = function
    | P.P_range _ -> true
    | P.P_if (_, t, f) -> safe t && safe f
    | p -> nodes_only p
  in
  streams p && safe p

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)
(* ------------------------------------------------------------------ *)

type scope = (string * int) list

let rec comp cenv (scope : scope) (e : A.expr) : P.t =
  match e with
  | A.E_int n -> P.P_const (Value.of_int n)
  | A.E_double f -> P.P_const (Value.of_double f)
  | A.E_string s -> P.P_const (Value.of_string s)
  | A.E_var v -> (
    match List.assoc_opt v scope with
    | Some slot -> P.P_slot (slot, v)
    | None -> P.P_global v)
  | A.E_context_item -> P.P_context_item
  | A.E_root -> P.P_root
  | A.E_seq es -> P.P_seq (Array.of_list (List.map (comp cenv scope) es))
  | A.E_range (a, b) -> P.P_range (comp cenv scope a, comp cenv scope b)
  | A.E_arith (op, a, b) -> P.P_arith (op, comp cenv scope a, comp cenv scope b)
  | A.E_neg a -> P.P_neg (comp cenv scope a)
  | A.E_general_cmp (op, a, b) ->
    let ca = comp cenv scope a in
    if streams ca then cenv.stats.P.early_exits <- cenv.stats.P.early_exits + 1;
    P.P_general_cmp (op, ca, comp cenv scope b)
  | A.E_value_cmp (op, a, b) -> P.P_value_cmp (op, comp cenv scope a, comp cenv scope b)
  | A.E_node_cmp (op, a, b) -> P.P_node_cmp (op, comp cenv scope a, comp cenv scope b)
  | A.E_and (a, b) -> P.P_and (comp cenv scope a, comp cenv scope b)
  | A.E_or (a, b) -> P.P_or (comp cenv scope a, comp cenv scope b)
  | A.E_set_op (op, a, b) -> P.P_set_op (op, comp cenv scope a, comp cenv scope b)
  | A.E_if (c, t, f) -> P.P_if (comp cenv scope c, comp cenv scope t, comp cenv scope f)
  | A.E_step (axis, test) ->
    (* A bare step outside a path keeps the interpreter's axis-walk
       order (reverse axes nearest-first) — only paths sort. *)
    let steps = [| { P.axis; test; preds = [||] } |] in
    P.P_steps
      { base = P.P_context_item; steps;
        sorted_if_single = sorted_if_single_of steps; raw = true }
  | A.E_path (a, rhs) -> (
    match as_pred_step rhs with
    | Some (axis, test, preds) ->
      let base = comp cenv scope a in
      let cpreds = Array.of_list (List.map (comp cenv scope) preds) in
      cenv.stats.P.preds_fused <- cenv.stats.P.preds_fused + Array.length cpreds;
      mk_steps cenv base { P.axis; test; preds = cpreds }
    | None -> (
      let ca = comp cenv scope a in
      match comp cenv scope rhs with
      | P.P_steps { base = P.P_context_item; steps; _ } ->
        (* a/(pipeline over the context item): splice the left side in as
           the pipeline base — one walk, one final sort, same node set as
           the per-item path evaluation. If the left side is itself a
           pipeline the step arrays concatenate. *)
        let base, steps =
          match ca with
          | P.P_steps { base = b0; steps = s0; _ } -> (b0, Array.append s0 steps)
          | _ -> (ca, steps)
        in
        cenv.stats.P.steps_fused <- cenv.stats.P.steps_fused + 1;
        pipeline base steps
      | crhs -> P.P_path (ca, crhs)))
  | A.E_filter (base, A.E_int k) -> P.P_filter_pos (comp cenv scope base, k)
  | A.E_filter (base, pred) -> (
    let cbase = comp cenv scope base in
    match cbase with
    | P.P_steps { base = b; steps; sorted_if_single; raw } when is_node_pred pred ->
      (* (…steps…)[node-pred]: fuse into the last step's walk. *)
      let cpred = comp cenv scope pred in
      cenv.stats.P.preds_fused <- cenv.stats.P.preds_fused + 1;
      let last = Array.length steps - 1 in
      let steps = Array.copy steps in
      steps.(last) <-
        { (steps.(last)) with P.preds = Array.append steps.(last).P.preds [| cpred |] };
      P.P_steps { base = b; steps; sorted_if_single; raw }
    | _ -> P.P_filter (cbase, comp cenv scope pred))
  | A.E_call (name, args) -> comp_call cenv scope name args
  | A.E_flwor f -> comp_flwor cenv scope f
  | A.E_quantified (q, bindings, body) ->
    let scope', rbinds =
      List.fold_left
        (fun (scope, acc) (var, src) ->
          let csrc = comp cenv scope src in
          if streams csrc then cenv.stats.P.early_exits <- cenv.stats.P.early_exits + 1;
          let slot = fresh cenv in
          ((var, slot) :: scope, (slot, var, csrc) :: acc))
        (scope, []) bindings
    in
    P.P_quantified (q, Array.of_list (List.rev rbinds), comp cenv scope' body)
  | A.E_cast (t, a) -> P.P_cast (t, comp cenv scope a)
  | A.E_castable (t, a) -> P.P_castable (t, comp cenv scope a)
  | A.E_instance_of (a, ty) -> P.P_instance_of (comp cenv scope a, ty)
  | A.E_treat (a, ty) -> P.P_treat (comp cenv scope a, ty)
  | A.E_typeswitch { operand; cases; default_var; default } ->
    let coperand = comp cenv scope operand in
    let ccases =
      Array.of_list
        (List.map
           (fun (c : A.ts_case) ->
             match c.case_var with
             | Some cv ->
               let slot = fresh cenv in
               {
                 P.c_slot = Some slot;
                 c_var = Some cv;
                 c_type = c.case_type;
                 c_body = comp cenv ((cv, slot) :: scope) c.case_return;
               }
             | None ->
               {
                 P.c_slot = None;
                 c_var = None;
                 c_type = c.case_type;
                 c_body = comp cenv scope c.case_return;
               })
           cases)
    in
    let default_slot, default_var, cdefault =
      match default_var with
      | Some dv ->
        let slot = fresh cenv in
        (Some slot, Some dv, comp cenv ((dv, slot) :: scope) default)
      | None -> (None, None, comp cenv scope default)
    in
    P.P_typeswitch { operand = coperand; cases = ccases; default_slot; default_var; default = cdefault }
  | A.E_elem (name, content) ->
    P.P_elem (comp_name cenv scope name, Array.of_list (List.map (comp cenv scope) content))
  | A.E_attr (name, parts) ->
    P.P_attr
      ( comp_name cenv scope name,
        Array.of_list
          (List.map
             (function
               | A.E_string s -> P.PA_lit s (* literal AVT fragment *)
               | part -> P.PA_dyn (comp cenv scope part))
             parts) )
  | A.E_text a -> P.P_text (comp cenv scope a)
  | A.E_doc content -> P.P_doc (Array.of_list (List.map (comp cenv scope) content))
  | A.E_comment_c a -> P.P_comment (comp cenv scope a)

and comp_name cenv scope = function
  | A.Static_name n -> P.PN_static n
  | A.Computed_name e -> P.PN_computed (comp cenv scope e)

and mk_steps cenv base (step : P.step) : P.t =
  (* A raw (bare-step) base loses its flag here: the path's final sort
     makes the intermediate order unobservable. *)
  match base with
  | P.P_steps { base = b; steps; _ } ->
    cenv.stats.P.steps_fused <- cenv.stats.P.steps_fused + 1;
    pipeline b (Array.append steps [| step |])
  | _ -> pipeline base [| step |]

and comp_call cenv scope name args : P.t =
  let arity = List.length args in
  let base = Context.normalize_fname name in
  let cargs () = Array.of_list (List.map (comp cenv scope) args) in
  match Hashtbl.find_opt cenv.funcs (base, arity) with
  | Some idx ->
    cenv.stats.P.calls_resolved <- cenv.stats.P.calls_resolved + 1;
    P.P_call_user (idx, name, cargs ())
  | None -> (
    match Functions.find name arity with
    | None -> P.P_call_unknown (name, arity)
    | Some f -> (
      (* exists/empty/boolean/not become plan operators; over a
         streamable operand the emptiness probes get an early-exit walk.
         Only genuine builtins land here — a prolog redefinition was
         caught above, mirroring the interpreter's lookup precedence. *)
      let probe arg =
        let p = comp cenv scope arg in
        let early = match p with P.P_steps _ -> true | _ -> streams p in
        if early then cenv.stats.P.early_exits <- cenv.stats.P.early_exits + 1;
        (p, early)
      in
      match (base, args) with
      | "exists", [ arg ] ->
        let p, early = probe arg in
        P.P_exists (p, early)
      | "empty", [ arg ] ->
        let p, early = probe arg in
        P.P_empty (p, early)
      | "boolean", [ arg ] -> P.P_ebv (comp cenv scope arg)
      | "not", [ arg ] -> P.P_not (comp cenv scope arg)
      | _ ->
        cenv.stats.P.calls_resolved <- cenv.stats.P.calls_resolved + 1;
        let f = if base = "distinct-values" then Functions.distinct_values_hashed else f in
        P.P_call_builtin (base, f, cargs ())))

and comp_flwor cenv scope ({ clauses; order_by; return } : A.flwor) : P.t =
  match (clauses, order_by) with
  | [ A.For { var; var_type; pos_var = None; source } ], [] ->
    (* The tight-loop form: one binding, no position, no sort — exactly
       the shape the docgen core's dispatch loop takes. *)
    let src = comp cenv scope source in
    let slot = fresh cenv in
    let body = comp cenv ((var, slot) :: scope) return in
    cenv.stats.P.loops_tightened <- cenv.stats.P.loops_tightened + 1;
    P.P_for_loop
      { slot; var; typ = var_type; src; body; par_safe = not (expr_unsafe cenv return) }
  | _ ->
    let scope_ref = ref scope in
    let cclauses =
      Array.of_list
        (List.map
           (fun clause ->
             match clause with
             | A.For { var; var_type; pos_var; source } ->
               let src = comp cenv !scope_ref source in
               let slot = fresh cenv in
               scope_ref := (var, slot) :: !scope_ref;
               let pos_slot =
                 match pos_var with
                 | Some pv ->
                   let ps = fresh cenv in
                   scope_ref := (pv, ps) :: !scope_ref;
                   Some ps
                 | None -> None
               in
               P.PC_for { slot; var; typ = var_type; pos_slot; pos_var; src }
             | A.Let { var; var_type; value } ->
               let v = comp cenv !scope_ref value in
               let slot = fresh cenv in
               scope_ref := (var, slot) :: !scope_ref;
               P.PC_let { slot; var; typ = var_type; value = v }
             | A.Where cond -> P.PC_where (comp cenv !scope_ref cond))
           clauses)
    in
    let fscope = !scope_ref in
    let corder =
      Array.of_list
        (List.map
           (fun (o : A.order_spec) ->
             {
               P.key = comp cenv fscope o.key;
               descending = o.descending;
               empty_greatest = o.empty_greatest;
             })
           order_by)
    in
    P.P_flwor (cclauses, corder, comp cenv fscope return)

(* ------------------------------------------------------------------ *)
(* Program lowering                                                    *)
(* ------------------------------------------------------------------ *)

let compile_program (prog : A.program) : P.program =
  let stats = P.new_stats () in
  let decls =
    List.filter_map
      (function
        | A.Declare_function { fname; params; return_type; body } ->
          Some (fname, params, return_type, body)
        | A.Declare_variable _ | A.Declare_namespace _ -> None)
      prog.A.prolog
  in
  let n = List.length decls in
  let funcs_tbl = Hashtbl.create (2 * n + 1) in
  List.iteri
    (fun i (fname, params, _, _) ->
      (* replace: the later declaration of a name/arity wins, as it does
         in the interpreter's Hashtbl registration *)
      Hashtbl.replace funcs_tbl (Context.normalize_fname fname, List.length params) i)
    decls;
  (* Fixpoint the trace/doc-reachability flags across the (resolved) call
     graph; n is tiny, so the quadratic loop is fine. *)
  let fn_unsafe = Array.make n false in
  let bodies = Array.of_list (List.map (fun (_, _, _, b) -> b) decls) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i body ->
        if not fn_unsafe.(i) then begin
          let u = ref false in
          iter_calls
            (fun name arity ->
              let base = Context.normalize_fname name in
              match Hashtbl.find_opt funcs_tbl (base, arity) with
              | Some j -> if fn_unsafe.(j) then u := true
              | None -> if unsafe_builtin base then u := true)
            body;
          if !u then begin
            fn_unsafe.(i) <- true;
            changed := true
          end
        end)
      bodies
  done;
  (* Same fixpoint for node construction: a function that (transitively)
     can construct nodes returns fresh identities, so only functions
     clean on BOTH axes — no trace/doc, no construction — are marked
     memoizable for the executor's per-run call cache. *)
  let fn_constructs = Array.map has_constructor bodies in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i body ->
        if not fn_constructs.(i) then begin
          let u = ref false in
          iter_calls
            (fun name arity ->
              let base = Context.normalize_fname name in
              match Hashtbl.find_opt funcs_tbl (base, arity) with
              | Some j -> if fn_constructs.(j) then u := true
              | None -> ())
            body;
          if !u then begin
            fn_constructs.(i) <- true;
            changed := true
          end
        end)
      bodies
  done;
  let cenv = { funcs = funcs_tbl; fn_unsafe; stats; nslots = 0 } in
  let funcs =
    Array.of_list
      (List.mapi
         (fun i (fname, params, return_type, body) ->
           let nparams = List.length params in
           cenv.nslots <- nparams;
           (* reversed so a later duplicate parameter name shadows an
              earlier one, like sequential bind_var did *)
           let scope = List.rev (List.mapi (fun i (p, _) -> (p, i)) params) in
           let body = comp cenv scope body in
           {
             P.fname;
             params = Array.of_list params;
             ret_type = return_type;
             frame_size = cenv.nslots;
             body;
             memoizable = (not fn_unsafe.(i)) && not fn_constructs.(i);
           })
         decls)
  in
  stats.P.funcs_memoized <-
    Array.fold_left (fun acc f -> if f.P.memoizable then acc + 1 else acc) 0 funcs;
  let globals =
    Array.of_list
      (List.filter_map
         (function
           | A.Declare_variable { vname; vtype; init } ->
             cenv.nslots <- 0;
             let p = comp cenv [] init in
             Some { P.gname = vname; gtype = vtype; gframe = cenv.nslots; init = p }
           | A.Declare_function _ | A.Declare_namespace _ -> None)
         prog.A.prolog)
  in
  cenv.nslots <- 0;
  let main = comp cenv [] prog.A.body in
  { P.funcs; globals; main_frame = cenv.nslots; main; pstats = stats }
