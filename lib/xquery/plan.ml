(* The physical plan: a small first-order instruction set the compiler
   (Compile) lowers the XQuery AST onto and the executor (Plan_exec)
   runs without consulting the AST again.

   The interesting operators are the ones the tree-walking interpreter
   cannot express: [P_steps] fuses a whole chain of path steps (with any
   pushed-down node-test predicates) into one pipelined walk over node
   arrays; [P_for_loop] is a FLWOR lowered to a tight loop that mutates
   a slot in a flat frame instead of threading a string-keyed
   environment; [P_call_user]/[P_call_builtin] are call sites resolved
   at compile time to an index or a closure, so no name is looked up at
   run time. Variables in general live in integer slots ([P_slot]);
   only genuinely global names ([P_global]) still resolve dynamically,
   preserving the interpreter's declaration-order semantics.

   Plans render to text for [--explain]; the rendering is the
   user-facing contract documented in EXPERIMENTS.md. *)

type step = {
  axis : Ast.axis;
  test : Ast.node_test;
  preds : t array;
      (* pushed-down predicates: node-only pipelines evaluated as an
         emptiness test per candidate node (never positional) *)
}

and t =
  | P_const of Value.sequence (* literal, built at compile time *)
  | P_slot of int * string (* frame slot; the name is for explain only *)
  | P_global of string (* external / declared global variable *)
  | P_context_item
  | P_root
  | P_seq of t array
  | P_range of t * t
  | P_arith of Ast.arith * t * t
  | P_neg of t
  | P_general_cmp of Ast.cmp * t * t
  | P_value_cmp of Ast.cmp * t * t
  | P_node_cmp of Ast.node_cmp * t * t
  | P_and of t * t
  | P_or of t * t
  | P_set_op of Ast.set_op * t * t (* hash set algebra over node ids *)
  | P_if of t * t * t
  | P_steps of steps_op
  | P_path of t * t (* general e1/e2 when e2 is not a step chain *)
  | P_filter_pos of t * int (* e[3]: select by index *)
  | P_filter of t * t (* general predicate: positional or boolean *)
  | P_exists of t * bool (* flag: early-exit walk is available *)
  | P_empty of t * bool
  | P_ebv of t (* fn:boolean *)
  | P_not of t
  | P_call_builtin of
      string * (Context.dyn -> Value.sequence list -> Value.sequence) * t array
  | P_call_user of int * string * t array (* direct index into funcs *)
  | P_call_unknown of string * int (* raises XPST0017 when executed *)
  | P_flwor of pclause array * porder array * t
  | P_for_loop of {
      slot : int;
      var : string;
      typ : Stype.t option;
      src : t;
      body : t;
      par_safe : bool;
          (* body provably free of trace/doc effects: eligible for
             data-parallel fragment execution *)
    }
  | P_quantified of Ast.quantifier * (int * string * t) array * t
  | P_cast of Ast.cast_target * t
  | P_castable of Ast.cast_target * t
  | P_instance_of of t * Stype.t
  | P_treat of t * Stype.t
  | P_typeswitch of {
      operand : t;
      cases : pcase array;
      default_slot : int option;
      default_var : string option;
      default : t;
    }
  | P_elem of pname * t array
  | P_attr of pname * attr_part array
  | P_text of t
  | P_doc of t array
  | P_comment of t

and steps_op = {
  base : t;
  steps : step array;
  sorted_if_single : bool;
      (* statically proven: a singleton base leaves the pipeline output
         already in document order, so the final sort can be skipped *)
  raw : bool;
      (* a bare step outside any path: deliver axis-walk order with no
         final document-order pass, as the interpreter does *)
}

and pclause =
  | PC_for of {
      slot : int;
      var : string;
      typ : Stype.t option;
      pos_slot : int option;
      pos_var : string option;
      src : t;
    }
  | PC_let of { slot : int; var : string; typ : Stype.t option; value : t }
  | PC_where of t

and porder = { key : t; descending : bool; empty_greatest : bool }
and pcase = { c_slot : int option; c_var : string option; c_type : Stype.t; c_body : t }
and pname = PN_static of string | PN_computed of t
and attr_part = PA_lit of string | PA_dyn of t

type pfunc = {
  fname : string;
  params : (string * Stype.t option) array;
  ret_type : Stype.t option;
  frame_size : int;
  body : t;
  memoizable : bool;
      (* provably pure: no trace/doc and no node construction anywhere in
         the body's call graph, so a call is a function of its argument
         values (atomics by value, nodes by identity) and the executor
         may cache results per run *)
}

type pglobal = { gname : string; gtype : Stype.t option; gframe : int; init : t }

(* What the plan rewriter did while lowering; rendered by --explain next
   to the PR-2 optimizer's own stats. *)
type stats = {
  mutable steps_fused : int; (* path steps merged into pipelines *)
  mutable preds_fused : int; (* predicates pushed into step walks *)
  mutable loops_tightened : int; (* FLWORs lowered to tight slot loops *)
  mutable early_exits : int;
      (* consumers that stream their operand and can stop early: exists/
         empty probes, existential comparisons, quantifiers *)
  mutable calls_resolved : int; (* call sites bound at compile time *)
  mutable funcs_memoized : int; (* functions proved pure and memoizable *)
}

let new_stats () =
  {
    steps_fused = 0;
    preds_fused = 0;
    loops_tightened = 0;
    early_exits = 0;
    calls_resolved = 0;
    funcs_memoized = 0;
  }

type program = {
  funcs : pfunc array;
  globals : pglobal array;
  main_frame : int;
  main : t;
  pstats : stats;
}

(* ------------------------------------------------------------------ *)
(* Rendering (the --explain output)                                    *)
(* ------------------------------------------------------------------ *)

let test_name = function
  | Ast.Name_test n -> n
  | Ast.Wildcard -> "*"
  | Ast.Kind_node -> "node()"
  | Ast.Kind_text -> "text()"
  | Ast.Kind_comment -> "comment()"
  | Ast.Kind_pi None -> "processing-instruction()"
  | Ast.Kind_pi (Some t) -> Printf.sprintf "processing-instruction(%s)" t
  | Ast.Kind_element None -> "element()"
  | Ast.Kind_element (Some n) -> Printf.sprintf "element(%s)" n
  | Ast.Kind_attribute None -> "attribute()"
  | Ast.Kind_attribute (Some n) -> Printf.sprintf "attribute(%s)" n
  | Ast.Kind_document -> "document-node()"

let cmp_name = function
  | Ast.Eq -> "eq"
  | Ast.Ne -> "ne"
  | Ast.Lt -> "lt"
  | Ast.Le -> "le"
  | Ast.Gt -> "gt"
  | Ast.Ge -> "ge"

let arith_name = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "div"
  | Ast.Idiv -> "idiv"
  | Ast.Mod -> "mod"

let set_op_name = function
  | Ast.Union -> "union"
  | Ast.Intersect -> "intersect"
  | Ast.Except -> "except"

let render_program (p : program) : string =
  let b = Buffer.create 2048 in
  let line indent fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b (String.make (2 * indent) ' ');
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  let rec go indent (plan : t) =
    match plan with
    | P_const v -> line indent "const %s" (Value.to_display_string v)
    | P_slot (i, name) -> line indent "slot %d ($%s)" i name
    | P_global name -> line indent "global $%s" name
    | P_context_item -> line indent "context-item"
    | P_root -> line indent "root"
    | P_seq parts ->
      line indent "seq";
      Array.iter (go (indent + 1)) parts
    | P_range (a, z) ->
      line indent "range";
      go (indent + 1) a;
      go (indent + 1) z
    | P_arith (op, a, z) ->
      line indent "arith %s" (arith_name op);
      go (indent + 1) a;
      go (indent + 1) z
    | P_neg a ->
      line indent "neg";
      go (indent + 1) a
    | P_general_cmp (op, a, z) ->
      line indent "general-cmp %s" (cmp_name op);
      go (indent + 1) a;
      go (indent + 1) z
    | P_value_cmp (op, a, z) ->
      line indent "value-cmp %s" (cmp_name op);
      go (indent + 1) a;
      go (indent + 1) z
    | P_node_cmp (op, a, z) ->
      line indent "node-cmp %s"
        (match op with Ast.Is -> "is" | Ast.Precedes -> "<<" | Ast.Follows -> ">>");
      go (indent + 1) a;
      go (indent + 1) z
    | P_and (a, z) ->
      line indent "and";
      go (indent + 1) a;
      go (indent + 1) z
    | P_or (a, z) ->
      line indent "or";
      go (indent + 1) a;
      go (indent + 1) z
    | P_set_op (op, a, z) ->
      line indent "hash-%s" (set_op_name op);
      go (indent + 1) a;
      go (indent + 1) z
    | P_if (c, t, f) ->
      line indent "if";
      go (indent + 1) c;
      go (indent + 1) t;
      go (indent + 1) f
    | P_steps { base; steps; sorted_if_single; raw } ->
      line indent "steps%s%s [%s]"
        (if raw then " (axis-order)" else "")
        (if sorted_if_single then " (order-free)" else "")
        (String.concat "/"
           (Array.to_list
              (Array.map
                 (fun s ->
                   Printf.sprintf "%s::%s%s" (Ast.axis_name s.axis) (test_name s.test)
                     (if Array.length s.preds = 0 then ""
                      else Printf.sprintf "[%d preds]" (Array.length s.preds)))
                 steps)));
      go (indent + 1) base;
      Array.iter
        (fun s -> Array.iter (fun p -> go (indent + 1) p) s.preds)
        steps
    | P_path (a, z) ->
      line indent "path";
      go (indent + 1) a;
      go (indent + 1) z
    | P_filter_pos (base, k) ->
      line indent "select-index %d" k;
      go (indent + 1) base
    | P_filter (base, pred) ->
      line indent "filter";
      go (indent + 1) base;
      go (indent + 1) pred
    | P_exists (a, early) ->
      line indent "exists%s" (if early then " (early-exit)" else "");
      go (indent + 1) a
    | P_empty (a, early) ->
      line indent "empty%s" (if early then " (early-exit)" else "");
      go (indent + 1) a
    | P_ebv a ->
      line indent "ebv";
      go (indent + 1) a
    | P_not a ->
      line indent "not";
      go (indent + 1) a
    | P_call_builtin (name, _, args) ->
      line indent "call-builtin %s/%d" name (Array.length args);
      Array.iter (go (indent + 1)) args
    | P_call_user (idx, name, args) ->
      line indent "call-user #%d %s/%d" idx name (Array.length args);
      Array.iter (go (indent + 1)) args
    | P_call_unknown (name, arity) -> line indent "call-unknown %s/%d" name arity
    | P_flwor (clauses, order_by, ret) ->
      line indent "flwor";
      Array.iter
        (function
          | PC_for { slot; var; pos_slot; src; _ } ->
            line (indent + 1) "for $%s -> slot %d%s" var slot
              (match pos_slot with
              | Some s -> Printf.sprintf " (pos -> slot %d)" s
              | None -> "");
            go (indent + 2) src
          | PC_let { slot; var; value; _ } ->
            line (indent + 1) "let $%s -> slot %d" var slot;
            go (indent + 2) value
          | PC_where cond ->
            line (indent + 1) "where";
            go (indent + 2) cond)
        clauses;
      Array.iter
        (fun o ->
          line (indent + 1) "order-by%s%s"
            (if o.descending then " descending" else "")
            (if o.empty_greatest then " empty-greatest" else "");
          go (indent + 2) o.key)
        order_by;
      line (indent + 1) "return";
      go (indent + 2) ret
    | P_for_loop { slot; var; src; body; par_safe; _ } ->
      line indent "for-loop $%s -> slot %d%s" var slot
        (if par_safe then " (parallel-ok)" else "");
      go (indent + 1) src;
      go (indent + 1) body
    | P_quantified (q, bindings, body) ->
      line indent "%s"
        (match q with Ast.Some_q -> "some" | Ast.Every_q -> "every");
      Array.iter
        (fun (slot, var, src) ->
          line (indent + 1) "bind $%s -> slot %d" var slot;
          go (indent + 2) src)
        bindings;
      line (indent + 1) "satisfies";
      go (indent + 2) body
    | P_cast (t, a) ->
      line indent "cast %s"
        (match t with
        | Ast.To_int -> "xs:integer"
        | Ast.To_double -> "xs:double"
        | Ast.To_string -> "xs:string"
        | Ast.To_bool -> "xs:boolean");
      go (indent + 1) a
    | P_castable (_, a) ->
      line indent "castable";
      go (indent + 1) a
    | P_instance_of (a, ty) ->
      line indent "instance-of %s" (Stype.to_string ty);
      go (indent + 1) a
    | P_treat (a, ty) ->
      line indent "treat-as %s" (Stype.to_string ty);
      go (indent + 1) a
    | P_typeswitch { operand; cases; default; _ } ->
      line indent "typeswitch";
      go (indent + 1) operand;
      Array.iter
        (fun c ->
          line (indent + 1) "case %s" (Stype.to_string c.c_type);
          go (indent + 2) c.c_body)
        cases;
      line (indent + 1) "default";
      go (indent + 2) default
    | P_elem (name, content) ->
      (match name with
      | PN_static n -> line indent "element %s" n
      | PN_computed e ->
        line indent "element (computed)";
        go (indent + 1) e);
      Array.iter (go (indent + 1)) content
    | P_attr (name, parts) ->
      (match name with
      | PN_static n -> line indent "attribute %s" n
      | PN_computed e ->
        line indent "attribute (computed)";
        go (indent + 1) e);
      Array.iter
        (function
          | PA_lit s -> line (indent + 1) "lit %S" s
          | PA_dyn p -> go (indent + 1) p)
        parts
    | P_text a ->
      line indent "text";
      go (indent + 1) a
    | P_doc content ->
      line indent "document";
      Array.iter (go (indent + 1)) content
    | P_comment a ->
      line indent "comment";
      go (indent + 1) a
  in
  Buffer.add_string b "plan:\n";
  Array.iteri
    (fun i f ->
      line 1 "function #%d %s/%d (frame %d)%s" i f.fname (Array.length f.params)
        f.frame_size
        (if f.memoizable then " (memo)" else "");
      go 2 f.body)
    p.funcs;
  Array.iter
    (fun g ->
      line 1 "global $%s (frame %d)" g.gname g.gframe;
      go 2 g.init)
    p.globals;
  line 1 "main (frame %d)" p.main_frame;
  go 2 p.main;
  line 1
    "(: plan rewriter: %d steps fused, %d predicates pushed, %d loops tightened, %d \
     early exits, %d calls resolved, %d functions memoized :)"
    p.pstats.steps_fused p.pstats.preds_fused p.pstats.loops_tightened
    p.pstats.early_exits p.pstats.calls_resolved p.pstats.funcs_memoized;
  Buffer.contents b
