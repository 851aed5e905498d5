(** The XQuery data model: items and flat sequences.

    Everything in XQuery is a sequence; a single value and the singleton
    sequence containing it are indistinguishable. Sequences are flat: the
    only way to build one is {!seq}, which flattens, so nesting cannot be
    observed — [(1,(2,3,4),(),(5,((6,7))))] is [(1,2,3,4,5,6,7)]. This is
    the property the paper's "Data Structures and Abstractions" section
    turns on. *)

type atomic =
  | A_int of int
  | A_double of float
  | A_string of string
  | A_bool of bool
  | A_untyped of string
      (** xs:untypedAtomic — what atomizing a node in a schema-less
          document yields. Promotes to double in arithmetic and to the
          other operand's type in general comparisons. *)

type item = Atomic of atomic | Node of Xml_base.Node.t

type sequence = item list
(** Invariant: flat by construction; no sequence ever contains another. *)

val empty : sequence
val singleton : item -> sequence
val of_int : int -> sequence
val of_double : float -> sequence
val of_string : string -> sequence
val of_bool : bool -> sequence
val of_node : Xml_base.Node.t -> sequence
val of_nodes : Xml_base.Node.t list -> sequence

val seq : sequence list -> sequence
(** Sequence construction — flattening is inherent. *)

(** {1 Atomization and casts} *)

val atomize : sequence -> atomic list
(** Nodes are replaced by their typed value: untypedAtomic of the string
    value (we run schema-less, as the paper's project did). *)

val atomize_item : item -> atomic

val atomize_one : string -> sequence -> atomic
(** Atomize and require exactly one atomic item; the string names the
    operation for the XPTY0004 message. *)

val string_of_atomic : atomic -> string
val double_of_atomic : atomic -> float
(** @raise Errors.Error FORG0001 when the lexical form is not numeric. *)

val atomic_type_name : atomic -> string
(** "xs:integer", "xs:double", "xs:string", "xs:boolean",
    "xs:untypedAtomic". *)

val cast_to_int : atomic -> int
val cast_to_bool : atomic -> bool
(** xs:boolean constructor semantics: "true"/"1" are true, "false"/"0"
    false; numerics by non-zero; @raise Errors.Error FORG0001 otherwise. *)

(** {1 Judgements} *)

val effective_boolean_value : sequence -> bool
(** () is false; a sequence whose first item is a node is true; singleton
    boolean/string/untyped/numeric by the usual rules;
    @raise Errors.Error FORG0006 on other sequences. *)

val string_value : sequence -> string
(** fn:string applied to at most one item; [""] for empty.
    @raise Errors.Error XPTY0004 on longer sequences. *)

val value_compare : atomic -> atomic -> int option
(** Comparison for the singleton operators [eq, ne, lt, le, gt, ge] and
    for order by. Untyped is compared as string (XPath 2.0 rule). [None]
    when the values are incomparable (e.g. string vs integer), which the
    caller turns into XPTY0004; NaN also yields [None] except for equality
    checks handled by the caller. *)

val general_compare_atoms : atomic -> atomic -> int option
(** Comparison rule for the general operators [=, !=, <, ...]: an untyped
    operand is promoted to the other operand's type (double against
    numerics, boolean against booleans, string otherwise). *)

val deep_equal : sequence -> sequence -> bool
(** fn:deep-equal with the default collation: pairwise; atomics by
    value-equal (untyped as string, NaN equal to NaN), nodes by recursive
    structural comparison (name, attributes as a set, children). *)

(** {1 Node sequences} *)

val all_nodes : sequence -> Xml_base.Node.t list option
(** [Some nodes] when every item is a node. *)

val document_order : Xml_base.Node.t list -> Xml_base.Node.t list
(** Sort into document order and remove duplicate identities. O(n log n):
    sorts by the cached {!Xml_base.Node.doc_order_key} and dedups with a
    single adjacent-unique pass. *)

val document_order_seed : Xml_base.Node.t list -> Xml_base.Node.t list
(** The seed implementation (path-walking comparator on every
    comparison). Same result as {!document_order}; kept as the slow path
    for benchmarks and the property-test oracle. *)

(** {1 Display} *)

val item_to_string : item -> string
(** Serialization for output: nodes via the XML serializer, atomics via
    their canonical lexical form. *)

val to_display_string : sequence -> string
(** Items joined by single spaces — how query results print. *)

val pp : Format.formatter -> sequence -> unit
