(* Static and dynamic evaluation context, plus the compatibility knobs that
   reproduce the Galax-era behaviours the paper reports. *)

module StringMap = Map.Make (String)

type duplicate_attribute_policy =
  | Keep_last (* the working-draft "only one should make it" reading *)
  | Keep_both (* "though Galax did not honor this as of the time of writing" *)
  | Raise_error (* the eventual REC behaviour: XQDY0025 *)

type compat = {
  galax_messages : bool;
      (* true: a name used where a variable was plainly intended still
         evaluates as a child step, and the "missing context item" error
         reads "Internal_Error: Variable '$glx:dot' not found." with no
         line number — the message the paper quotes. *)
  duplicate_attributes : duplicate_attribute_policy;
  treat_trace_as_pure : bool;
      (* true: the optimizer's dead-code elimination deletes a dead
         [let $dummy := trace(...)], silently removing the tracing — the
         paper's debugging horror story. *)
}

let default_compat =
  { galax_messages = false; duplicate_attributes = Keep_last; treat_trace_as_pure = false }

let galax_compat =
  { galax_messages = true; duplicate_attributes = Keep_both; treat_trace_as_pure = true }

(* ------------------------------------------------------------------ *)
(* Resource limits                                                     *)
(* ------------------------------------------------------------------ *)

(* One mutable record per evaluation, threaded via [env]. The hot-path
   cost is [tick]: one decrement and one comparison per evaluation step.
   Everything slow (deadline clock read, fuel accounting) runs only when
   the credit counter underflows, every [check_interval] steps. [max_int]
   in any budget field means "unlimited". *)

type limits = {
  mutable credit : int; (* steps left until the next slow check *)
  mutable batch : int; (* steps granted at the last refill *)
  mutable spent : int; (* steps accounted for at the last slow check *)
  fuel : int; (* total step budget *)
  mutable depth : int; (* current user-function call depth *)
  max_depth : int;
  mutable nodes : int; (* nodes charged so far *)
  max_nodes : int;
  mutable deadline_ns : int;
      (* absolute monotonic deadline, Clock.now_ns scale. Mutable so an
         embedder (the HTTP server's graceful drain) can tighten it on a
         running evaluation from another domain; the slow check reads it
         every ~1k steps, so a cross-domain write lands within one check
         interval. Plain-int writes don't tear under the OCaml memory
         model, and monotonic tightening means a stale read only delays
         the trip by one interval. *)
}

let check_interval = 1024

let refill l =
  let remaining = l.fuel - l.spent in
  let batch = if remaining < check_interval then max 1 remaining else check_interval in
  l.batch <- batch;
  l.credit <- batch

let slow_check l =
  l.spent <- l.spent + (l.batch - l.credit);
  if l.spent > l.fuel then Errors.exhaust Errors.Fuel ~limit:l.fuel ~used:l.spent;
  if l.deadline_ns <> max_int then begin
    let now = Clock.now_ns () in
    if now > l.deadline_ns then Errors.exhaust Errors.Deadline ~limit:l.deadline_ns ~used:now
  end;
  refill l

let tick l =
  l.credit <- l.credit - 1;
  if l.credit <= 0 then slow_check l

let charge l n =
  if n > 0 then begin
    l.credit <- l.credit - n;
    if l.credit <= 0 then slow_check l
  end

let check l = slow_check l

let enter_call l =
  l.depth <- l.depth + 1;
  if l.depth > l.max_depth then Errors.exhaust Errors.Depth ~limit:l.max_depth ~used:l.depth

let exit_call l = l.depth <- l.depth - 1

let charge_nodes l n =
  if l.max_nodes <> max_int && n > 0 then begin
    l.nodes <- l.nodes + n;
    if l.nodes > l.max_nodes then
      Errors.exhaust Errors.Nodes ~limit:l.max_nodes ~used:l.nodes
  end

let make_limits ?(fuel = max_int) ?(max_depth = max_int) ?(max_nodes = max_int)
    ?(deadline_ns = max_int) () =
  let l =
    {
      credit = 0;
      batch = 0;
      spent = 0;
      fuel;
      depth = 0;
      max_depth;
      nodes = 0;
      max_nodes;
      deadline_ns;
    }
  in
  refill l;
  l

let unlimited () = make_limits ()
let is_unlimited l =
  l.fuel = max_int && l.max_depth = max_int && l.max_nodes = max_int
  && l.deadline_ns = max_int

type func =
  | Builtin of (dyn -> Value.sequence list -> Value.sequence)
  | User of {
      uparams : (string * Stype.t option) list;
      ureturn : Stype.t option;
      ubody : Ast.expr;
    }

and env = {
  functions : (string * int, func) Hashtbl.t;
  compat : compat;
  typed_mode : bool;
      (* enforce [as] annotations on user function calls and returns *)
  mutable trace_out : string -> unit;
  mutable trace_count : int;
  mutable doc_resolver : string -> Xml_base.Node.t option;
  mutable global_vars : Value.sequence StringMap.t;
  mutable limits : limits;
      (* resource budgets for this evaluation; fresh unlimited record per
         env so concurrent evaluations never share counters *)
}

and dyn = {
  env : env;
  vars : Value.sequence StringMap.t;
  ctx_item : Value.item option;
  ctx_pos : int; (* 1-based *)
  ctx_size : int;
}

let make_env ?(compat = default_compat) ?(typed_mode = false) ?limits () =
  {
    functions = Hashtbl.create 97;
    compat;
    typed_mode;
    trace_out = prerr_endline;
    trace_count = 0;
    doc_resolver = (fun _ -> None);
    global_vars = StringMap.empty;
    limits = (match limits with Some l -> l | None -> unlimited ());
  }

let make_dyn env = { env; vars = StringMap.empty; ctx_item = None; ctx_pos = 0; ctx_size = 0 }

let bind_var dyn name value = { dyn with vars = StringMap.add name value dyn.vars }

let lookup_var dyn name =
  match StringMap.find_opt name dyn.vars with
  | Some v -> Some v
  | None -> StringMap.find_opt name dyn.env.global_vars

let with_context dyn item pos size = { dyn with ctx_item = Some item; ctx_pos = pos; ctx_size = size }

(* Function names: fn: prefix is optional, local: is conventional for user
   functions. Normalize lookups by stripping a leading "fn:". *)
let normalize_fname name =
  if String.length name > 3 && String.sub name 0 3 = "fn:" then
    String.sub name 3 (String.length name - 3)
  else name

let find_function env name arity =
  Hashtbl.find_opt env.functions (normalize_fname name, arity)

let register_function env name arity f = Hashtbl.replace env.functions (name, arity) f

let context_node dyn =
  match dyn.ctx_item with
  | Some (Value.Node n) -> n
  | Some (Value.Atomic _) ->
    Errors.raise_error Errors.xpty0019 "the context item is not a node"
  | None ->
    if dyn.env.compat.galax_messages then
      Errors.raise_error "XPDY0002" "Internal_Error: Variable '$glx:dot' not found."
    else Errors.raise_error Errors.xpdy0002 "the context item is undefined"

let context_item dyn =
  match dyn.ctx_item with
  | Some i -> i
  | None ->
    if dyn.env.compat.galax_messages then
      Errors.raise_error "XPDY0002" "Internal_Error: Variable '$glx:dot' not found."
    else Errors.raise_error Errors.xpdy0002 "the context item is undefined"
