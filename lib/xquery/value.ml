module N = Xml_base.Node

type atomic =
  | A_int of int
  | A_double of float
  | A_string of string
  | A_bool of bool
  | A_untyped of string

type item = Atomic of atomic | Node of N.t
type sequence = item list

let empty = []
let singleton i = [ i ]
let of_int n = [ Atomic (A_int n) ]
let of_double f = [ Atomic (A_double f) ]
let of_string s = [ Atomic (A_string s) ]
let of_bool b = [ Atomic (A_bool b) ]
let of_node n = [ Node n ]
let of_nodes ns = List.map (fun n -> Node n) ns
let seq = List.concat

let atomize s =
  List.map (function Atomic a -> a | Node n -> A_untyped (N.string_value n)) s

(* Canonical lexical forms. Doubles print like XPath: integral values
   without a fractional part, NaN/INF spelled the XSD way. *)
let string_of_double f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "INF"
  else if f = Float.neg_infinity then "-INF"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    s

let string_of_atomic = function
  | A_int n -> string_of_int n
  | A_double f -> string_of_double f
  | A_string s | A_untyped s -> s
  | A_bool b -> if b then "true" else "false"

let atomic_type_name = function
  | A_int _ -> "xs:integer"
  | A_double _ -> "xs:double"
  | A_string _ -> "xs:string"
  | A_bool _ -> "xs:boolean"
  | A_untyped _ -> "xs:untypedAtomic"

let parse_double s =
  let s' = String.trim s in
  match s' with
  | "INF" -> Some Float.infinity
  | "-INF" -> Some Float.neg_infinity
  | "NaN" -> Some Float.nan
  | _ -> float_of_string_opt s'

let double_of_atomic = function
  | A_int n -> float_of_int n
  | A_double f -> f
  | A_bool b -> if b then 1.0 else 0.0
  | A_string s | A_untyped s -> (
    match parse_double s with
    | Some f -> f
    | None -> Errors.raise_error Errors.forg0001 "cannot cast %S to xs:double" s)

let cast_to_int a =
  match a with
  | A_int n -> n
  | A_bool b -> if b then 1 else 0
  | A_double f ->
    if Float.is_nan f || Float.is_integer f = false then
      (* xs:integer() truncates toward zero per XQuery cast rules. *)
      if Float.is_nan f || Float.abs f = Float.infinity then
        Errors.raise_error Errors.foca0002 "cannot cast %s to xs:integer"
          (string_of_double f)
      else int_of_float (Float.trunc f)
    else int_of_float f
  | A_string s | A_untyped s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> Errors.raise_error Errors.forg0001 "cannot cast %S to xs:integer" s)

let cast_to_bool = function
  | A_bool b -> b
  | A_int n -> n <> 0
  | A_double f -> (not (Float.is_nan f)) && f <> 0.0
  | A_string s | A_untyped s -> (
    match String.trim s with
    | "true" | "1" -> true
    | "false" | "0" -> false
    | s -> Errors.raise_error Errors.forg0001 "cannot cast %S to xs:boolean" s)

let atomize_one op s =
  match atomize s with
  | [ a ] -> a
  | items ->
    Errors.raise_error Errors.xpty0004
      "%s requires a singleton sequence, got %d items" op (List.length items)

let effective_boolean_value = function
  | [] -> false
  | Node _ :: _ -> true
  | [ Atomic (A_bool b) ] -> b
  | [ Atomic (A_string s) ] | [ Atomic (A_untyped s) ] -> s <> ""
  | [ Atomic (A_int n) ] -> n <> 0
  | [ Atomic (A_double f) ] -> (not (Float.is_nan f)) && f <> 0.0
  | _ :: _ :: _ ->
    Errors.raise_error Errors.forg0006
      "effective boolean value of a multi-item atomic sequence"

let string_value = function
  | [] -> ""
  | [ Atomic a ] -> string_of_atomic a
  | [ Node n ] -> N.string_value n
  | s ->
    Errors.raise_error Errors.xpty0004 "fn:string expects at most one item, got %d"
      (List.length s)

let is_numeric = function A_int _ | A_double _ -> true | _ -> false

let compare_float a b =
  if Float.is_nan a || Float.is_nan b then None else Some (Float.compare a b)

(* Value comparison (eq/ne/lt/...): untyped behaves as string. *)
let value_compare a b =
  match (a, b) with
  | A_int x, A_int y -> Some (compare x y)
  | (A_int _ | A_double _), (A_int _ | A_double _) ->
    compare_float (double_of_atomic a) (double_of_atomic b)
  | (A_string x | A_untyped x), (A_string y | A_untyped y) -> Some (compare x y)
  | A_bool x, A_bool y -> Some (compare x y)
  | _ -> None

(* General comparison promotes untyped toward the other operand. *)
let general_compare_atoms a b =
  match (a, b) with
  | A_untyped x, other when is_numeric other ->
    (match parse_double x with
    | Some f -> compare_float f (double_of_atomic other)
    | None -> Errors.raise_error Errors.forg0001 "cannot cast %S to xs:double" x)
  | other, A_untyped y when is_numeric other ->
    (match parse_double y with
    | Some f -> compare_float (double_of_atomic other) f
    | None -> Errors.raise_error Errors.forg0001 "cannot cast %S to xs:double" y)
  | A_untyped x, A_bool y -> Some (compare (cast_to_bool (A_untyped x)) y)
  | A_bool x, A_untyped y -> Some (compare x (cast_to_bool (A_untyped y)))
  | _ -> value_compare a b

let atomic_equal a b =
  match (a, b) with
  | (A_int _ | A_double _), (A_int _ | A_double _) ->
    let x = double_of_atomic a and y = double_of_atomic b in
    (Float.is_nan x && Float.is_nan y) || x = y
  | _ -> ( match value_compare a b with Some 0 -> true | _ -> false)

let rec node_deep_equal a b =
  match (N.kind a, N.kind b) with
  | N.Element, N.Element ->
    N.name a = N.name b
    && attrs_equal (N.attributes a) (N.attributes b)
    && kids_equal (significant a) (significant b)
  | N.Attribute, N.Attribute -> N.name a = N.name b && N.string_value a = N.string_value b
  | N.Text, N.Text | N.Comment, N.Comment -> N.string_value a = N.string_value b
  | N.Processing_instruction, N.Processing_instruction ->
    N.pi_target a = N.pi_target b && N.string_value a = N.string_value b
  | N.Document, N.Document -> kids_equal (significant a) (significant b)
  | _ -> false

and significant n =
  List.filter (fun k -> not (N.kind k = N.Comment || N.kind k = N.Processing_instruction))
    (N.children n)

and attrs_equal xs ys =
  let key a = (N.name a, N.string_value a) in
  let sort l = List.sort compare (List.map key l) in
  sort xs = sort ys

and kids_equal xs ys =
  List.length xs = List.length ys && List.for_all2 node_deep_equal xs ys

let deep_equal s1 s2 =
  List.length s1 = List.length s2
  && List.for_all2
       (fun i1 i2 ->
         match (i1, i2) with
         | Atomic a, Atomic b -> atomic_equal a b
         | Node a, Node b -> node_deep_equal a b
         | _ -> false)
       s1 s2

let all_nodes s =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Node n :: rest -> go (n :: acc) rest
    | Atomic _ :: _ -> None
  in
  go [] s

(* Sort by the cached (root id, pre-order) key: the key is fetched once
   per node (amortized O(1) after a lazy renumbering), the sort compares
   integer pairs, and key equality is node identity, so dedup is a single
   adjacent-unique pass. O(n log n) total. *)
let document_order ns =
  match ns with
  | [] | [ _ ] -> ns
  | _ ->
    let keyed = List.map (fun n -> (N.doc_order_key n, n)) ns in
    let sorted =
      List.sort (fun ((ka : int * int), _) (kb, _) -> compare ka kb) keyed
    in
    let rec dedup = function
      | ((ka : int * int), _) :: (((kb, _) :: _) as rest) when ka = kb -> dedup rest
      | (_, n) :: rest -> n :: dedup rest
      | [] -> []
    in
    dedup sorted

(* The seed algorithm: path-walking comparator on every comparison and a
   [N.same]-based dedup. Kept as the slow path the benchmarks and the
   property-test oracle run against. *)
let document_order_seed ns =
  let sorted = List.sort N.compare_document_order_via_paths ns in
  let rec dedup = function
    | a :: b :: rest when N.same a b -> dedup (b :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

let atomize_item = function
  | Atomic a -> a
  | Node n -> A_untyped (N.string_value n)

let item_to_string = function
  | Atomic a -> string_of_atomic a
  | Node n -> Xml_base.Serialize.to_string n

let to_display_string s = String.concat " " (List.map item_to_string s)

let pp fmt s =
  Format.fprintf fmt "(%s)" (String.concat ", " (List.map item_to_string s))
