(* The plan executor: a first-order interpreter over Plan.t whose inner
   loops run on flat frames (arrays of sequences indexed by slot) and
   node lists, with no AST, no string-keyed environments and no closure
   allocation per step. This is the engine's Fast mode. Semantics mirror
   the reference evaluator (Eval) to the letter — the fast = seed =
   unoptimized oracle in the test suite holds it to that — and every
   operator still ticks the resource budget, so fuel, deadline, depth and
   node limits trip inside plan execution exactly as they do in the
   tree-walker.

   Early exit: consumers that only ask whether some item qualifies
   (exists/empty, EBV, existential comparisons, quantifiers) stream a
   streamable operand ([Compile.streams]) through [scan] and stop at the
   first item that settles the answer, instead of materializing it. A
   consumer whose per-item test can raise (a quantifier body, a
   comparison that casts) asks for an exact stream — the materialized
   sequence's items in its order — so that it meets the same items
   before its witness as the reference evaluator does.

   Parallel fragments: a [P_for_loop] whose body is compile-time
   parallel-safe and whose source is large may fan its iterations out
   over a caller-supplied pool. Each worker gets a copy of the frame and
   a fresh limits record sharing only the parent's deadline (fuel and
   node budgets must be unlimited for a loop to parallelize — per-worker
   fuel splitting would change which prefix executes). Chunks are fixed
   contiguous ranges joined in order and the lowest-indexed failure is
   re-raised, so results and errors are deterministic and identical to
   the sequential loop. *)

module N = Xml_base.Node
open Value
open Plan

let err = Errors.raise_error

(* Memo key for a pure-function call: atomics by value (doubles by bit
   pattern, so 0.0 and -0.0 — distinguishable through string() — never
   collide, and NaN hits itself), nodes by identity. *)
type mkey_item =
  | MK_int of int
  | MK_bits of int64
  | MK_string of string
  | MK_bool of bool
  | MK_untyped of string
  | MK_node of int

type mkey = mkey_item list list (* one inner list per argument *)

(* Don't build keys from huge argument sequences, don't cache huge
   results, and stop inserting once a function's table is full — the
   cache is an accelerator for small pure helpers (subtype tests, label
   lookups), not a general materialization store. *)
let memo_max_arg_items = 64
let memo_max_result_items = 4096
let memo_max_entries = 2048

type st = {
  env : Context.env;
  prog : Plan.program;
  pool : ((unit -> unit) array -> unit) option;
  in_par : bool; (* already inside a parallel fragment: don't nest *)
  memos : (mkey, sequence) Hashtbl.t option array;
      (* per-function call caches, created lazily per run; shared with
         parallel workers but only touched when [in_par] is false *)
}

let mkey_of_argv (argv : sequence list) : mkey option =
  let exception Too_big in
  let key_item = function
    | Atomic (A_int i) -> MK_int i
    | Atomic (A_double f) -> MK_bits (Int64.bits_of_float f)
    | Atomic (A_string s) -> MK_string s
    | Atomic (A_bool b) -> MK_bool b
    | Atomic (A_untyped s) -> MK_untyped s
    | Node n -> MK_node (N.id n)
  in
  try
    Some
      (List.map
         (fun arg ->
           if List.compare_length_with arg memo_max_arg_items > 0 then raise Too_big;
           List.map key_item arg)
         argv)
  with Too_big -> None

(* Minimum source size before a parallel-safe loop fans out; below this
   the spawn/join cost dominates. *)
let par_threshold = 512
let par_chunks = 8

let context_node st (cit : item option) : N.t =
  match cit with
  | Some (Node n) -> n
  | Some (Atomic _) -> err Errors.xpty0019 "the context item is not a node"
  | None ->
    if st.env.Context.compat.Context.galax_messages then
      err "XPDY0002" "Internal_Error: Variable '$glx:dot' not found."
    else err Errors.xpdy0002 "the context item is undefined"

let context_item st (cit : item option) : item =
  match cit with
  | Some i -> i
  | None ->
    if st.env.Context.compat.Context.galax_messages then
      err "XPDY0002" "Internal_Error: Variable '$glx:dot' not found."
    else err Errors.xpdy0002 "the context item is undefined"

let dyn_of st cit cpos csiz : Context.dyn =
  {
    (Context.make_dyn st.env) with
    Context.ctx_item = cit;
    ctx_pos = cpos;
    ctx_size = csiz;
  }

let is_nan_atom = function A_double f -> Float.is_nan f | _ -> false

let value_cmp_name = function
  | Ast.Eq -> "eq"
  | Ast.Ne -> "ne"
  | Ast.Lt -> "lt"
  | Ast.Le -> "le"
  | Ast.Gt -> "gt"
  | Ast.Ge -> "ge"

(* Base items of a step pipeline must all be nodes; raise at the first
   atomic, in order, as the interpreter's per-item path walk does. *)
let nodes_of_base (s : sequence) : N.t list =
  List.map
    (function
      | Node n -> n
      | Atomic _ -> err Errors.xpty0019 "a path step was applied to a non-node")
    s

(* The typed-mode check on an item bound by [for $var as typ]. *)
let check_for_item st var typ item =
  if st.env.Context.typed_mode then
    match typ with
    | Some ty when not (Stype.matches [ item ] ty) ->
      err Errors.xpty0004 "for $%s as %s: item does not match" var (Stype.to_string ty)
    | _ -> ()

let rec exec (st : st) (frame : sequence array) (cit : item option) (cpos : int)
    (csiz : int) (p : Plan.t) : sequence =
  Context.tick st.env.Context.limits;
  match p with
  | P_const v -> v
  | P_slot (i, _) -> frame.(i)
  | P_global name -> (
    match Context.StringMap.find_opt name st.env.Context.global_vars with
    | Some v -> v
    | None -> err Errors.xpst0008 "undefined variable $%s" name)
  | P_context_item -> [ context_item st cit ]
  | P_root -> of_node (N.root (context_node st cit))
  | P_seq parts ->
    let rec go i =
      if i >= Array.length parts then []
      else
        let v = exec st frame cit cpos csiz parts.(i) in
        v @ go (i + 1)
    in
    go 0
  | P_range (e1, e2) -> (
    match range_bounds st frame cit cpos csiz e1 e2 with
    | Some (lo, hi) when lo <= hi ->
      let limits = st.env.Context.limits in
      List.init
        (hi - lo + 1)
        (fun i ->
          Context.tick limits;
          Atomic (A_int (lo + i)))
    | _ -> [])
  | P_arith (op, e1, e2) -> (
    match
      (atomize (exec st frame cit cpos csiz e1), atomize (exec st frame cit cpos csiz e2))
    with
    | [], _ | _, [] -> []
    | [ a ], [ b ] -> Eval.arith op a b
    | _ -> err Errors.xpty0004 "arithmetic requires singleton operands")
  | P_neg e -> (
    match atomize (exec st frame cit cpos csiz e) with
    | [] -> []
    | [ a ] -> (
      let a =
        match a with
        | A_int _ | A_double _ -> a
        | A_untyped s -> A_double (double_of_atomic (A_untyped s))
        | other ->
          err Errors.xpty0004 "%s: operand is not numeric (%s)" "unary -"
            (atomic_type_name other)
      in
      match a with
      | A_int n -> of_int (-n)
      | A_double f -> of_double (-.f)
      | _ -> assert false)
    | _ -> err Errors.xpty0004 "unary - requires a singleton operand")
  | P_general_cmp (op, e1, e2) ->
    let witness l2 a = List.exists (fun b -> Eval.atomic_pair_test `General op a b) l2 in
    if Compile.streams e1 then
      (* Existential semantics invite early exit: materialize the right
         operand once, then stream the left and stop at the first
         witnessing pair. Nodes atomize to untyped values, which compare
         with strings and untyped values without casting, so only then
         can no pair raise and the stream's order not matter. *)
      let l2 = atomize (exec st frame cit cpos csiz e2) in
      let exact =
        not
          (Compile.nodes_only e1
          && List.for_all (function A_string _ | A_untyped _ -> true | _ -> false) l2)
      in
      of_bool (scan st frame cit cpos csiz ~exact e1 (fun it -> witness l2 (atomize_item it)))
    else
      let l1 = atomize (exec st frame cit cpos csiz e1) in
      let l2 = atomize (exec st frame cit cpos csiz e2) in
      of_bool (List.exists (witness l2) l1)
  | P_value_cmp (op, e1, e2) -> (
    match
      (atomize (exec st frame cit cpos csiz e1), atomize (exec st frame cit cpos csiz e2))
    with
    | [], _ | _, [] -> []
    | [ a ], [ b ] -> of_bool (Eval.atomic_pair_test `Value op a b)
    | _ ->
      err Errors.xpty0004 "value comparison (%s) requires singleton operands"
        (value_cmp_name op))
  | P_node_cmp (op, e1, e2) -> (
    let name = match op with Ast.Is -> "is" | Ast.Precedes -> "<<" | Ast.Follows -> ">>" in
    let node_of e =
      match exec st frame cit cpos csiz e with
      | [] -> None
      | [ Node n ] -> Some n
      | _ -> err Errors.xpty0004 "%s requires single nodes" name
    in
    match (node_of e1, node_of e2) with
    | None, _ | _, None -> []
    | Some a, Some b -> (
      match op with
      | Ast.Is -> of_bool (N.same a b)
      | Ast.Precedes -> of_bool (N.compare_document_order a b < 0)
      | Ast.Follows -> of_bool (N.compare_document_order a b > 0)))
  | P_and (e1, e2) ->
    of_bool (ebv st frame cit cpos csiz e1 && ebv st frame cit cpos csiz e2)
  | P_or (e1, e2) ->
    of_bool (ebv st frame cit cpos csiz e1 || ebv st frame cit cpos csiz e2)
  | P_set_op (op, e1, e2) -> (
    let nodes e =
      match all_nodes (exec st frame cit cpos csiz e) with
      | Some ns -> ns
      | None -> err Errors.xpty0004 "set operation requires node sequences"
    in
    let l1 = nodes e1 in
    let l2 = nodes e2 in
    match op with
    | Ast.Union -> of_nodes (document_order (l1 @ l2))
    | Ast.Intersect | Ast.Except ->
      let tbl = Hashtbl.create ((2 * List.length l2) + 1) in
      List.iter (fun n -> Hashtbl.replace tbl (N.id n) ()) l2;
      let keep =
        match op with
        | Ast.Except -> fun n -> not (Hashtbl.mem tbl (N.id n))
        | _ -> fun n -> Hashtbl.mem tbl (N.id n)
      in
      of_nodes (document_order (List.filter keep l1)))
  | P_if (c, t, f) ->
    if ebv st frame cit cpos csiz c then exec st frame cit cpos csiz t
    else exec st frame cit cpos csiz f
  | P_steps sp -> run_steps st frame cit cpos csiz sp
  | P_path (e1, e2) -> (
    let base = exec st frame cit cpos csiz e1 in
    let size = List.length base in
    let results =
      List.concat
        (List.mapi
           (fun i item ->
             match item with
             | Node _ -> exec st frame (Some item) (i + 1) size e2
             | Atomic _ -> err Errors.xpty0019 "a path step was applied to a non-node")
           base)
    in
    match all_nodes results with
    | Some ns -> of_nodes (document_order ns)
    | None ->
      if List.for_all (function Atomic _ -> true | Node _ -> false) results then results
      else err Errors.xpty0018 "path result mixes nodes and atomic values")
  | P_filter_pos (base, k) -> (
    let items = exec st frame cit cpos csiz base in
    if k < 1 then []
    else match List.nth_opt items (k - 1) with Some it -> [ it ] | None -> [])
  | P_filter (base, pred) ->
    let items = exec st frame cit cpos csiz base in
    let size = List.length items in
    List.concat
      (List.mapi
         (fun i item ->
           let p = exec st frame (Some item) (i + 1) size pred in
           match p with
           | [ Atomic ((A_int _ | A_double _) as a) ] ->
             if double_of_atomic a = float_of_int (i + 1) then [ item ] else []
           | p -> if effective_boolean_value p then [ item ] else [])
         items)
  | P_exists (p, early) -> of_bool (nonempty st frame cit cpos csiz p early)
  | P_empty (p, early) -> of_bool (not (nonempty st frame cit cpos csiz p early))
  | P_ebv p -> of_bool (ebv st frame cit cpos csiz p)
  | P_not p -> of_bool (not (ebv st frame cit cpos csiz p))
  | P_call_builtin (_, f, args) ->
    f (dyn_of st cit cpos csiz) (eval_args st frame cit cpos csiz args)
  | P_call_user (idx, name, args) ->
    let f = st.prog.funcs.(idx) in
    let argv = eval_args st frame cit cpos csiz args in
    let memo =
      if f.memoizable && not st.in_par then
        match mkey_of_argv argv with
        | None -> None
        | Some key ->
          let tbl =
            match st.memos.(idx) with
            | Some tbl -> tbl
            | None ->
              let tbl = Hashtbl.create 64 in
              st.memos.(idx) <- Some tbl;
              tbl
          in
          Some (tbl, key)
      else None
    in
    (match memo with
    | Some (tbl, key) when Hashtbl.mem tbl key ->
      (* A hit still costs one fuel tick, so memo-heavy runs keep their
         deadline checks live and their fuel accounting monotone. *)
      Context.tick st.env.Context.limits;
      Hashtbl.find tbl key
    | _ ->
      let result = exec_user_call st idx name argv in
      (match memo with
      | Some (tbl, key)
        when Hashtbl.length tbl < memo_max_entries
             && List.compare_length_with result memo_max_result_items <= 0 ->
        Hashtbl.add tbl key result
      | _ -> ());
      result)
  | P_call_unknown (name, arity) -> err Errors.xpst0017 "unknown function %s/%d" name arity
  | P_flwor (clauses, order_by, ret) -> exec_flwor st frame cit cpos csiz clauses order_by ret
  | P_for_loop { slot; var; typ; src; body; par_safe } ->
    let items = exec st frame cit cpos csiz src in
    let n = List.length items in
    if
      par_safe && n >= par_threshold && st.pool <> None && (not st.in_par)
      && st.env.Context.limits.Context.fuel = max_int
      && st.env.Context.limits.Context.max_nodes = max_int
    then run_parallel st frame cit cpos csiz slot var typ items n body
    else begin
      let limits = st.env.Context.limits in
      let racc = ref [] in
      List.iter
        (fun item ->
          Context.tick limits;
          check_for_item st var typ item;
          frame.(slot) <- [ item ];
          racc := exec st frame cit cpos csiz body :: !racc)
        items;
      List.concat (List.rev !racc)
    end
  | P_quantified (q, bindings, body) ->
    of_bool (exec_quant st frame cit cpos csiz q bindings body 0)
  | P_cast (t, e) -> (
    match atomize (exec st frame cit cpos csiz e) with
    | [] -> []
    | [ a ] -> Eval.apply_cast t a
    | _ -> err Errors.xpty0004 "cast requires a singleton")
  | P_castable (t, e) -> (
    match atomize (exec st frame cit cpos csiz e) with
    | [ a ] ->
      of_bool
        (match Eval.apply_cast t a with _ -> true | exception Errors.Error _ -> false)
    | _ -> of_bool false)
  | P_instance_of (e, ty) -> of_bool (Stype.matches (exec st frame cit cpos csiz e) ty)
  | P_treat (e, ty) ->
    let v = exec st frame cit cpos csiz e in
    if Stype.matches v ty then v
    else err "XPDY0050" "treat as %s: value does not match" (Stype.to_string ty)
  | P_typeswitch { operand; cases; default_slot; default_var = _; default } ->
    let v = exec st frame cit cpos csiz operand in
    let rec pick i =
      if i >= Array.length cases then begin
        (match default_slot with Some s -> frame.(s) <- v | None -> ());
        exec st frame cit cpos csiz default
      end
      else if Stype.matches v cases.(i).c_type then begin
        (match cases.(i).c_slot with Some s -> frame.(s) <- v | None -> ());
        exec st frame cit cpos csiz cases.(i).c_body
      end
      else pick (i + 1)
    in
    pick 0
  | P_elem (name, content) ->
    let nm = exec_name st frame cit cpos csiz name in
    let content_nodes =
      List.concat_map
        (fun ce -> Eval.content_nodes_of_sequence (exec st frame cit cpos csiz ce))
        (Array.to_list content)
    in
    of_node (Eval.assemble_element st.env nm content_nodes)
  | P_attr (name, parts) ->
    let nm = exec_name st frame cit cpos csiz name in
    let value =
      String.concat ""
        (List.map
           (function
             | PA_lit s -> s
             | PA_dyn p ->
               String.concat " "
                 (List.map string_of_atomic (atomize (exec st frame cit cpos csiz p))))
           (Array.to_list parts))
    in
    of_node (N.attribute nm value)
  | P_text e -> (
    match exec st frame cit cpos csiz e with
    | [] -> []
    | s -> of_node (N.text (String.concat " " (List.map string_of_atomic (atomize s)))))
  | P_doc content ->
    let content_nodes =
      List.concat_map
        (fun ce -> Eval.content_nodes_of_sequence (exec st frame cit cpos csiz ce))
        (Array.to_list content)
    in
    Eval.charge_content st.env.Context.limits content_nodes;
    let kids =
      List.map
        (fun n ->
          if N.kind n = N.Attribute then
            err Errors.xpty0004 "attribute node at document top level"
          else N.copy n)
        content_nodes
    in
    of_node (N.document kids)
  | P_comment e -> of_node (N.comment (string_value (exec st frame cit cpos csiz e)))

and range_bounds st frame cit cpos csiz e1 e2 : (int * int) option =
  match
    (atomize (exec st frame cit cpos csiz e1), atomize (exec st frame cit cpos csiz e2))
  with
  | [], _ | _, [] -> None
  | [ a ], [ b ] ->
    let lo = cast_to_int a and hi = cast_to_int b in
    Some (lo, hi)
  | _ -> err Errors.xpty0004 "'to' requires singleton operands"

and exec_name st frame cit cpos csiz = function
  | PN_static n -> n
  | PN_computed p -> string_value (exec st frame cit cpos csiz p)

and eval_args st frame cit cpos csiz (args : Plan.t array) : sequence list =
  (* explicit left-to-right, matching the interpreter's List.map *)
  let rec go i =
    if i >= Array.length args then []
    else
      let v = exec st frame cit cpos csiz args.(i) in
      v :: go (i + 1)
  in
  go 0

and nonempty st frame cit cpos csiz p early =
  if early then scan st frame cit cpos csiz ~exact:false p (fun _ -> true)
  else exec st frame cit cpos csiz p <> []

(* Effective boolean value of a plan. A step pipeline yields only nodes,
   where EBV is an emptiness test: the early-exit walk. Other streamable
   plans stream when [Compile.ebv_streams] says the stream's EBV is the
   sequence's, drawing at most two items. *)
and ebv st frame cit cpos csiz (p : Plan.t) : bool =
  match p with
  | P_steps sp -> scan_pipeline st frame cit cpos csiz ~exact:false sp (fun _ -> true)
  | _ when Compile.ebv_streams p ->
    (* a leading node decides it; otherwise two items do *)
    let seen = ref [] in
    ignore
      (scan st frame cit cpos csiz ~exact:false p (fun it ->
           seen := it :: !seen;
           match it with Node _ -> true | Atomic _ -> List.length !seen >= 2));
    effective_boolean_value (List.rev !seen)
  | _ -> effective_boolean_value (exec st frame cit cpos csiz p)

(* ------------------------------------------------------------------ *)
(* Streaming                                                           *)
(* ------------------------------------------------------------------ *)

(* Feed the items of [p] to [f] until [f] accepts one; true iff one was
   accepted. Step pipelines, sequences, conditionals, ranges and tight
   loops stream; anything else is materialized and then scanned, so
   every plan can be scanned, and a consumer that needs only a witness
   never builds more of its operand than the witness costs. With [exact]
   the items are the materialized sequence's, in its order; without it a
   pipeline may repeat nodes or deliver them out of order. *)
and scan st frame cit cpos csiz ~exact (p : Plan.t) (f : item -> bool) : bool =
  match p with
  | P_steps sp -> scan_pipeline st frame cit cpos csiz ~exact sp f
  | P_seq parts -> Array.exists (fun q -> scan st frame cit cpos csiz ~exact q f) parts
  | P_if (c, t, e) ->
    scan st frame cit cpos csiz ~exact (if ebv st frame cit cpos csiz c then t else e) f
  | P_range (e1, e2) -> (
    match range_bounds st frame cit cpos csiz e1 e2 with
    | Some (lo, hi) when lo <= hi ->
      let limits = st.env.Context.limits in
      let rec from i =
        Context.tick limits;
        f (Atomic (A_int i)) || (i < hi && from (i + 1))
      in
      from lo
    | _ -> false)
  | P_for_loop { slot; var; typ; src; body; _ } ->
    let limits = st.env.Context.limits in
    scan st frame cit cpos csiz ~exact src (fun item ->
        Context.tick limits;
        check_for_item st var typ item;
        frame.(slot) <- [ item ];
        scan st frame cit cpos csiz ~exact body f)
  | _ -> List.exists f (exec st frame cit cpos csiz p)

(* ------------------------------------------------------------------ *)
(* Step pipelines                                                      *)
(* ------------------------------------------------------------------ *)

and preds_ok st frame (s : Plan.step) (m : N.t) : bool =
  let np = Array.length s.preds in
  np = 0
  ||
  let rec go i = i >= np || (ebv st frame (Some (Node m)) 1 1 s.preds.(i) && go (i + 1)) in
  go 0

and run_steps st frame cit cpos csiz sp : sequence =
  steps_from st frame sp (nodes_of_base (exec st frame cit cpos csiz sp.base))

and steps_from st frame { steps; sorted_if_single; raw; _ } nodes : sequence =
  let limits = st.env.Context.limits in
  match nodes with
  | [] -> []
  | [ n ] when Array.length steps = 1 && (raw || sorted_if_single) ->
    (* The commonest shape — one step from one node (@a, child::x,
       $n/@id): the axis walk's order is the answer. *)
    let s = steps.(0) in
    List.filter_map
      (fun m ->
        Context.tick limits;
        if Eval.node_test_matches s.test m && preds_ok st frame s m then Some (Node m)
        else None)
      (Eval.axis_nodes s.axis n)
  | _ ->
    let n0 = List.length nodes in
    let cur = ref nodes in
    let count = ref n0 in
    Array.iter
      (fun (s : Plan.step) ->
        let racc = ref [] in
        let c = ref 0 in
        List.iter
          (fun n ->
            List.iter
              (fun m ->
                Context.tick limits;
                if Eval.node_test_matches s.test m && preds_ok st frame s m then begin
                  racc := m :: !racc;
                  incr c
                end)
              (Eval.axis_nodes s.axis n))
          !cur;
        let out = List.rev !racc in
        (* Re-sort+dedup mid-pipeline after axes that can duplicate, so a
           chain like //x//y stays near-linear instead of exploding. *)
        if Compile.dup_creating s.axis && !count > 1 then begin
          let sorted = document_order out in
          cur := sorted;
          count := List.length sorted
        end
        else begin
          cur := out;
          count := !c
        end)
      steps;
    let final =
      if raw || (sorted_if_single && n0 <= 1) then !cur else document_order !cur
    in
    of_nodes final

(* The streaming walk: depth-first through the pipeline, handing each
   node that survives the whole chain to [f] and stopping once [f]
   accepts one; with [f] constant true it is the emptiness probe. The
   walk skips the per-step sort and dedup, so it yields the materialized
   sequence item for item exactly when that sequence needs no sort: a
   bare step, or an order-free pipeline from a singleton base. An
   [exact] scan of any other pipeline materializes it first. *)
and scan_pipeline st frame cit cpos csiz ~exact sp (f : item -> bool) : bool =
  let nodes = nodes_of_base (exec st frame cit cpos csiz sp.base) in
  if exact && not (sp.raw || (sp.sorted_if_single && List.compare_length_with nodes 1 <= 0))
  then List.exists f (steps_from st frame sp nodes)
  else begin
    let limits = st.env.Context.limits in
    let steps = sp.steps in
    let nsteps = Array.length steps in
    let rec from i n =
      if i >= nsteps then f (Node n)
      else begin
        let s = steps.(i) in
        let try_node m =
          Context.tick limits;
          Eval.node_test_matches s.test m && preds_ok st frame s m && from (i + 1) m
        in
        let rec desc_exists n =
          List.exists (fun k -> try_desc k) (N.children n)
        and try_desc k = try_node k || desc_exists k in
        match s.axis with
        | Ast.Descendant -> desc_exists n
        | Ast.Descendant_or_self -> try_node n || desc_exists n
        | axis -> List.exists try_node (Eval.axis_nodes axis n)
      end
    in
    List.exists (fun n -> from 0 n) nodes
  end

(* ------------------------------------------------------------------ *)
(* FLWOR                                                               *)
(* ------------------------------------------------------------------ *)

(* The general FLWOR mirrors the interpreter's breadth-first clause
   expansion — each clause maps over the full list of binding tuples
   before the next clause runs, so evaluation (and error) order is
   identical. Tuples are frame snapshots; For copies, Let mutates its
   own snapshot in place. *)
and exec_user_call st idx name argv : sequence =
  let f = st.prog.funcs.(idx) in
  let limits = st.env.Context.limits in
  Context.enter_call limits;
  let typed = st.env.Context.typed_mode in
  let nframe = Array.make f.frame_size [] in
  List.iteri
    (fun i arg ->
      let pname, ptype = f.params.(i) in
      (if typed then
         match ptype with
         | Some ty when not (Stype.matches arg ty) ->
           err Errors.xpty0004 "%s: argument $%s does not match %s" name pname
             (Stype.to_string ty)
         | _ -> ());
      nframe.(i) <- arg)
    argv;
  let result = exec st nframe None 0 0 f.body in
  (* No unwind on exception: a budget trip aborts the whole run. *)
  Context.exit_call limits;
  (if typed then
     match f.ret_type with
     | Some ty when not (Stype.matches result ty) ->
       err Errors.xpty0004 "%s: result does not match %s" name (Stype.to_string ty)
     | _ -> ());
  result

and exec_flwor st frame cit cpos csiz clauses order_by ret : sequence =
  let typed = st.env.Context.typed_mode in
  let frames =
    Array.fold_left
      (fun frames clause ->
        match clause with
        | PC_for { slot; var; typ; pos_slot; src; _ } ->
          List.concat_map
            (fun fr ->
              let items = exec st fr cit cpos csiz src in
              List.mapi
                (fun i item ->
                  check_for_item st var typ item;
                  let fr' = Array.copy fr in
                  fr'.(slot) <- [ item ];
                  (match pos_slot with
                  | Some ps -> fr'.(ps) <- of_int (i + 1)
                  | None -> ());
                  fr')
                items)
            frames
        | PC_let { slot; var; typ; value } ->
          List.map
            (fun fr ->
              let v = exec st fr cit cpos csiz value in
              (if typed then
                 match typ with
                 | Some ty when not (Stype.matches v ty) ->
                   err Errors.xpty0004 "let $%s as %s: value does not match" var
                     (Stype.to_string ty)
                 | _ -> ());
              fr.(slot) <- v;
              fr)
            frames
        | PC_where cond -> List.filter (fun fr -> ebv st fr cit cpos csiz cond) frames)
      [ Array.copy frame ] clauses
  in
  let frames =
    if Array.length order_by = 0 then frames
    else begin
      let specs = Array.to_list order_by in
      let keyed =
        List.map
          (fun fr ->
            let keys =
              List.map
                (fun (o : porder) ->
                  match atomize (exec st fr cit cpos csiz o.key) with
                  | [] -> None
                  | [ a ] -> Some a
                  | _ -> err Errors.xpty0004 "order by key must be a singleton")
                specs
            in
            (keys, fr))
          frames
      in
      let compare_keys k1 k2 =
        let rec go specs k1 k2 =
          match (specs, k1, k2) with
          | [], [], [] -> 0
          | (spec : porder) :: specs, a :: k1, b :: k2 ->
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
        go specs k1 k2
      in
      List.stable_sort (fun (k1, _) (k2, _) -> compare_keys k1 k2) keyed |> List.map snd
    end
  in
  List.concat_map (fun fr -> exec st fr cit cpos csiz ret) frames

and exec_quant st frame cit cpos csiz q (bindings : (int * string * Plan.t) array) body i
    : bool =
  if i >= Array.length bindings then ebv st frame cit cpos csiz body
  else begin
    let slot, _, src = bindings.(i) in
    let test item =
      frame.(slot) <- [ item ];
      exec_quant st frame cit cpos csiz q bindings body (i + 1)
    in
    if Compile.streams src then
      (* The first witness (some) or counterexample (every) stops both
         the scan and the source's own walk. The body may raise, so it
         must meet the items in the materialized order. *)
      match q with
      | Ast.Some_q -> scan st frame cit cpos csiz ~exact:true src test
      | Ast.Every_q ->
        not (scan st frame cit cpos csiz ~exact:true src (fun it -> not (test it)))
    else
      let items = exec st frame cit cpos csiz src in
      match q with
      | Ast.Some_q -> List.exists test items
      | Ast.Every_q -> List.for_all test items
  end

(* ------------------------------------------------------------------ *)
(* Parallel fragments                                                  *)
(* ------------------------------------------------------------------ *)

and run_parallel st frame cit cpos csiz slot var typ items n body : sequence =
  let pool = Option.get st.pool in
  let arr = Array.of_list items in
  let nchunks = min par_chunks n in
  let chunk = (n + nchunks - 1) / nchunks in
  let results : (sequence, exn) result array = Array.make nchunks (Ok []) in
  let parent = st.env.Context.limits in
  let tasks =
    Array.init nchunks (fun ci () ->
        let lo = ci * chunk in
        let hi = min n ((ci + 1) * chunk) in
        let wlimits =
          Context.make_limits
            ~max_depth:parent.Context.max_depth
            ~deadline_ns:parent.Context.deadline_ns ()
        in
        wlimits.Context.depth <- parent.Context.depth;
        let wenv = { st.env with Context.limits = wlimits } in
        let wst = { st with env = wenv; in_par = true } in
        let wframe = Array.copy frame in
        try
          let racc = ref [] in
          for i = lo to hi - 1 do
            let item = arr.(i) in
            Context.tick wlimits;
            check_for_item wst var typ item;
            wframe.(slot) <- [ item ];
            racc := exec wst wframe cit cpos csiz body :: !racc
          done;
          results.(ci) <- Ok (List.concat (List.rev !racc))
        with e -> results.(ci) <- Error e)
  in
  pool tasks;
  (* Lowest-index failure wins: that chunk contains the earliest item the
     sequential loop would have failed on. *)
  Array.iter (function Error e -> raise e | Ok _ -> ()) results;
  Context.check parent;
  List.concat
    (Array.to_list (Array.map (function Ok l -> l | Error _ -> assert false) results))

(* ------------------------------------------------------------------ *)
(* Program entry                                                       *)
(* ------------------------------------------------------------------ *)

let run (env : Context.env) ?context_item ?(vars = []) ?pool (prog : Plan.program) :
    sequence =
  (* One slow check up front: an already-expired deadline trips before
     any work, as in Eval.run_program. *)
  Context.check env.Context.limits;
  env.Context.global_vars <-
    List.fold_left
      (fun acc (name, value) -> Context.StringMap.add name value acc)
      env.Context.global_vars vars;
  let st =
    {
      env;
      prog;
      pool;
      in_par = false;
      memos = Array.make (Array.length prog.funcs) None;
    }
  in
  let cit = context_item in
  let cpos, csiz = match cit with Some _ -> (1, 1) | None -> (0, 0) in
  Array.iter
    (fun (g : pglobal) ->
      let gframe = Array.make g.gframe [] in
      let value = exec st gframe cit cpos csiz g.init in
      (if env.Context.typed_mode then
         match g.gtype with
         | Some ty when not (Stype.matches value ty) ->
           err Errors.xpty0004 "global $%s does not match %s" g.gname (Stype.to_string ty)
         | _ -> ());
      env.Context.global_vars <- Context.StringMap.add g.gname value env.Context.global_vars)
    prog.globals;
  let frame = Array.make prog.main_frame [] in
  exec st frame cit cpos csiz prog.main
