(** The public face of the XQuery engine: compile and run queries.

    Execution goes through one request shape, {!Exec_opts.t}, and one
    entry point, {!run}. The old labelled-argument entry point
    {!eval_query} remains as a deprecated shim that forwards to {!run}. *)

module Exec_opts : sig
  (** How to execute: [Seed] runs the reference tree-walker with the
      seed algorithms (benchmark baseline, property-test oracle); [Fast]
      lowers the program to the physical plan and runs the plan
      executor (cached document-order keys, hash set algebra, fused step
      pipelines, early exit). *)
  type mode = Seed | Fast

  (** Degradation level, threaded to the docgen layer: [Skeleton] asks
      generators for the cheap outline-only document. *)
  type level = Full | Skeleton

  type t = {
    mode : mode;
    limits : Context.limits option;
        (** resource budgets — pass a {e fresh} record per run *)
    level : level;
    explain : bool;  (** callers may render the chosen plan/AST *)
    context_item : Value.item option;
    vars : (string * Value.sequence) list;
    trace_out : (string -> unit) option;
    doc_resolver : (string -> Xml_base.Node.t option) option;
    pool : ((unit -> unit) array -> unit) option;
        (** runs task arrays for data-parallel plan fragments; [None]
            keeps execution sequential *)
  }

  val default : t
  (** [Fast], no limits, [Full], no context item or bindings. *)

  val make :
    ?mode:mode ->
    ?limits:Context.limits ->
    ?level:level ->
    ?explain:bool ->
    ?context_item:Value.item ->
    ?vars:(string * Value.sequence) list ->
    ?trace_out:(string -> unit) ->
    ?doc_resolver:(string -> Xml_base.Node.t option) ->
    ?pool:((unit -> unit) array -> unit) ->
    unit ->
    t

  val mode_name : mode -> string
  val mode_of_string : string -> (mode, string) result
end

type compiled = {
  program : Ast.program;
  compat : Context.compat;
  typed_mode : bool;
  opt_stats : Optimizer.stats option;  (** present when optimization ran *)
  mutable plan : Plan.program option;
      (** lazily-memoized physical plan; use {!plan_of} *)
}

val make_compiled :
  ?opt_stats:Optimizer.stats ->
  compat:Context.compat ->
  typed_mode:bool ->
  Ast.program ->
  compiled
(** Wrap an already-parsed program (no plan yet). *)

val compile :
  ?compat:Context.compat ->
  ?typed_mode:bool ->
  ?optimize:bool ->
  ?static_check:string list ->
  string ->
  compiled
(** Parse (and by default optimize) a query. [compat] defaults to
    {!Context.default_compat}; pass {!Context.galax_compat} for the
    paper-era behaviours. [static_check], when given, runs the static
    analyzer before anything else: unbound variables and unknown
    functions are reported at compile time, with the listed names treated
    as externally-bound variables. @raise Errors.Error on syntax or
    static errors. *)

val run : ?opts:Exec_opts.t -> compiled -> Value.sequence
(** Execute with the given options (default {!Exec_opts.default}).
    [Fast] mode lowers the program on first use and memoizes the plan on
    the [compiled] record, so repeated runs (service cache hits) skip
    compilation. Budget trips raise {!Errors.Resource_exhausted};
    [Stack_overflow]/[Out_of_memory] escaping execution are mapped into
    the same exception here. *)

val plan_of : compiled -> Plan.program
(** The memoized physical plan, lowering on first call. *)

val plan_cached : compiled -> bool
(** Whether {!plan_of} has already run — the service layer uses this to
    count plan-cache hits without forcing a compile. *)

val explain : compiled -> mode:Exec_opts.mode -> string
(** Human-readable account of what would run: the optimizer's rewrite
    stats and the optimized source, then in [Fast] mode the physical plan
    it lowers to. *)

val eval_query :
  ?compat:Context.compat ->
  ?typed_mode:bool ->
  ?optimize:bool ->
  ?static_check:string list ->
  ?context_item:Value.item ->
  ?vars:(string * Value.sequence) list ->
  ?trace_out:(string -> unit) ->
  ?doc_resolver:(string -> Xml_base.Node.t option) ->
  ?mode:Exec_opts.mode ->
  ?limits:Context.limits ->
  string ->
  Value.sequence
(** Deprecated shim: one-shot {!compile} + {!run}; [mode] defaults to
    [Fast]. *)
