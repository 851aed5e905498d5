(** The reference evaluator (the engine's [Seed] mode): a tree-walk
    with the seed algorithms, against which the plan executor is tested.
    Most callers want {!Engine}; this module is the lower level used by
    the XSLT engine and tooling that manages its own contexts. *)

val eval : Context.dyn -> Ast.expr -> Value.sequence
(** Evaluate an expression in a dynamic context (variables, context
    item/position/size, function registry).
    @raise Errors.Error on dynamic errors. *)

val register_prolog : Context.env -> Ast.prolog_decl list -> unit
(** Install a prolog's function declarations into an environment. *)

val run_program :
  Context.env ->
  ?context_item:Value.item ->
  ?vars:(string * Value.sequence) list ->
  Ast.program ->
  Value.sequence
(** Register the prolog, evaluate global variable declarations in order,
    then evaluate the body. [vars] are external bindings visible to the
    globals and the body. *)

(** {1 Pieces exposed for reuse and testing} *)

val axis_nodes : Ast.axis -> Xml_base.Node.t -> Xml_base.Node.t list
(** Nodes on an axis in axis order (reverse axes nearest-first). *)

val node_test_matches : Ast.node_test -> Xml_base.Node.t -> bool

val content_nodes_of_sequence : Value.sequence -> Xml_base.Node.t list
(** Element-constructor content normalization: runs of adjacent atomics
    become single space-joined text nodes. *)

val assemble_element : Context.env -> string -> Xml_base.Node.t list -> Xml_base.Node.t
(** Build an element from normalized content nodes, applying the
    attribute folding rules (leading attributes, XQTY0024, the compat
    duplicate policy) and charging the node budget. Shared by the plan
    executor so construction semantics exist in exactly one place. *)

val charge_content : Context.limits -> Xml_base.Node.t list -> unit
(** Charge constructed content subtrees against the node budget (no-op
    when unlimited). *)

val arith : Ast.arith -> Value.atomic -> Value.atomic -> Value.sequence
(** Binary arithmetic on atomics with the numeric promotion and
    division-by-zero rules. *)

val apply_cast : Ast.cast_target -> Value.atomic -> Value.sequence

val atomic_pair_test :
  [ `General | `Value ] -> Ast.cmp -> Value.atomic -> Value.atomic -> bool
(** One comparison test with the NaN and incomparable-type rules; the
    existential wrapping is the caller's. *)
