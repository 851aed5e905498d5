(** The built-in function library (F&O subset, ~75 entries): accessors,
    numerics (with the untyped-to-double promotions the spec requires of
    aggregates), strings (including regex via Re), sequences, node
    functions, [fn:doc] behind a resolver, and the two functions the
    paper's debugging section revolves around — [fn:error] and
    [fn:trace]. *)

val registry :
  (string * int * (Context.dyn -> Value.sequence list -> Value.sequence)) list
(** (name, arity, implementation) for every fixed-arity builtin. *)

val register_all : Context.env -> unit
(** Install the registry (plus variadic [fn:concat]) into an
    environment. *)

val find :
  string -> int -> (Context.dyn -> Value.sequence list -> Value.sequence) option
(** Resolve a builtin by (possibly [fn:]-prefixed) name and arity,
    including the variadic [fn:concat] range. Used by the plan compiler
    to bind call sites at compile time. *)

val distinct_values_hashed :
  Context.dyn -> Value.sequence list -> Value.sequence
(** fn:distinct-values through a hash set — O(n) where the registered
    builtin scans pairwise — falling back to the scan when the values
    span comparison classes. Same result, same order; the plan compiler
    binds this one. *)
