(** Static and dynamic evaluation context, plus the compatibility knobs
    that reproduce the Galax-era behaviours the paper reports. *)

module StringMap : Map.S with type key = string

type duplicate_attribute_policy =
  | Keep_last  (** the working-draft "only one should make it" reading *)
  | Keep_both  (** "though Galax did not honor this as of the time of writing" *)
  | Raise_error  (** the eventual REC behaviour: XQDY0025 *)

type compat = {
  galax_messages : bool;
      (** true: the "missing context item" error reads
          "Internal_Error: Variable '$glx:dot' not found." with no line
          number — the message the paper quotes *)
  duplicate_attributes : duplicate_attribute_policy;
  treat_trace_as_pure : bool;
      (** true: dead-code elimination silently deletes a dead
          [let $dummy := trace(...)] — the paper's debugging horror story *)
}

val default_compat : compat
val galax_compat : compat

(** {1 Resource limits}

    One mutable budget record per evaluation, threaded via [env.limits].
    The hot-path cost is {!tick}: a decrement and a comparison. Slow
    checks (fuel accounting, monotonic deadline read) run every ~1k
    steps. [max_int] in a budget field means unlimited. *)

type limits = {
  mutable credit : int;  (** steps left until the next slow check *)
  mutable batch : int;  (** steps granted at the last refill *)
  mutable spent : int;  (** steps accounted for at the last slow check *)
  fuel : int;  (** total step budget *)
  mutable depth : int;  (** current user-function call depth *)
  max_depth : int;
  mutable nodes : int;  (** nodes charged so far *)
  max_nodes : int;
  mutable deadline_ns : int;
      (** absolute monotonic deadline, {!Clock.now_ns} scale; mutable so
          an embedder can tighten a running evaluation's deadline (the
          server's graceful drain) — writes are picked up at the next
          slow check, within ~1k steps *)
}

val make_limits :
  ?fuel:int -> ?max_depth:int -> ?max_nodes:int -> ?deadline_ns:int -> unit -> limits
(** Fresh budget record. [deadline_ns] is an {e absolute} monotonic
    timestamp (compare [Clock.now_ns () + budget]). Omitted budgets are
    unlimited. *)

val unlimited : unit -> limits
(** Fresh record with every budget unlimited. *)

val is_unlimited : limits -> bool

val tick : limits -> unit
(** Charge one evaluation step.
    @raise Errors.Resource_exhausted when a budget trips. *)

val charge : limits -> int -> unit
(** Charge [n] evaluation steps at once (bulk operations: range
    materialization, long axis walks).
    @raise Errors.Resource_exhausted when a budget trips. *)

val check : limits -> unit
(** Force a slow check now (fuel + deadline), regardless of credit. Used
    at evaluation entry so an already-expired deadline trips before any
    work happens. @raise Errors.Resource_exhausted *)

val enter_call : limits -> unit
(** Enter a user-function call. @raise Errors.Resource_exhausted when
    [max_depth] is exceeded. *)

val exit_call : limits -> unit

val charge_nodes : limits -> int -> unit
(** Charge [n] constructed nodes against the allocation budget. Free when
    [max_nodes] is unlimited. @raise Errors.Resource_exhausted *)

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
  typed_mode : bool;  (** enforce [as] annotations on user function calls *)
  mutable trace_out : string -> unit;
  mutable trace_count : int;
  mutable doc_resolver : string -> Xml_base.Node.t option;
  mutable global_vars : Value.sequence StringMap.t;
  mutable limits : limits;
      (** resource budgets for this evaluation; a fresh unlimited record
          per env, so concurrent evaluations never share counters *)
}

and dyn = {
  env : env;
  vars : Value.sequence StringMap.t;
  ctx_item : Value.item option;
  ctx_pos : int;  (** 1-based *)
  ctx_size : int;
}

val make_env : ?compat:compat -> ?typed_mode:bool -> ?limits:limits -> unit -> env
val make_dyn : env -> dyn
val bind_var : dyn -> string -> Value.sequence -> dyn
val lookup_var : dyn -> string -> Value.sequence option
val with_context : dyn -> Value.item -> int -> int -> dyn

val normalize_fname : string -> string
(** Strip an optional leading ["fn:"]. *)

val find_function : env -> string -> int -> func option
val register_function : env -> string -> int -> func -> unit

val context_node : dyn -> Xml_base.Node.t
(** @raise Errors.Error (XPTY0019/XPDY0002) when the context item is
    absent or not a node; the message depends on [compat]. *)

val context_item : dyn -> Value.item
(** @raise Errors.Error (XPDY0002) when the context item is undefined. *)
