(* The built-in function library. Each builtin receives the dynamic context
   (for position()/last()/zero-argument forms) and its already-evaluated
   arguments. *)

module N = Xml_base.Node
open Value

let err = Errors.raise_error

(* Builtins that build output proportional to their input in one call —
   string concatenation, tokenizing, codepoint expansion — charge fuel
   for that work here; the per-[eval] tick alone would let a doubling
   recursion grow strings exponentially on a linear step count. The /64
   scales bytes to roughly "evaluation steps". *)
let charge_bytes (dyn : Context.dyn) n =
  Context.charge dyn.Context.env.Context.limits ((n / 64) + 1)

let one_string name = function
  | [] -> ""
  | [ it ] -> (
    match it with
    | Atomic a -> string_of_atomic a
    | Node n -> N.string_value n)
  | s -> err Errors.xpty0004 "%s expects at most one item, got %d" name (List.length s)

let one_double name s =
  match atomize s with
  | [ a ] -> double_of_atomic a
  | other -> err Errors.xpty0004 "%s expects one numeric item, got %d" name (List.length other)

let opt_node name = function
  | [] -> None
  | [ Node n ] -> Some n
  | [ Atomic _ ] -> err Errors.xpty0004 "%s expects a node" name
  | _ -> err Errors.xpty0004 "%s expects at most one node" name

let ctx_or_arg (dyn : Context.dyn) args =
  match args with [] -> [ Context.context_item dyn ] | [ a ] -> a | _ -> assert false

(* ---------------------------------------------------------------- *)
(* Numeric                                                           *)
(* ---------------------------------------------------------------- *)

let numeric_unary name f g _dyn args =
  match atomize (List.hd args) with
  | [] -> []
  | [ A_int n ] -> of_int (f n)
  | [ a ] -> of_double (g (double_of_atomic a))
  | _ -> err Errors.xpty0004 "%s expects a single number" name

let fn_abs = numeric_unary "fn:abs" abs Float.abs
let fn_ceiling = numeric_unary "fn:ceiling" (fun n -> n) Float.ceil
let fn_floor = numeric_unary "fn:floor" (fun n -> n) Float.floor

let fn_round =
  numeric_unary "fn:round" (fun n -> n) (fun f -> Float.floor (f +. 0.5))

let fn_compare _dyn args =
  match args with
  | [ a; b ] -> (
    match (atomize a, atomize b) with
    | [], _ | _, [] -> []
    | [ x ], [ y ] -> (
      match value_compare x y with
      | Some c -> of_int (compare c 0)
      | None ->
        err Errors.xpty0004 "fn:compare: incomparable types %s and %s"
          (atomic_type_name x) (atomic_type_name y))
    | _ -> err Errors.xpty0004 "fn:compare expects singletons")
  | _ -> assert false

(* Banker's rounding, per F&O. *)
let round_half_even f =
  let fl = Float.floor f in
  let frac = f -. fl in
  if frac > 0.5 then fl +. 1.0
  else if frac < 0.5 then fl
  else if Float.rem fl 2.0 = 0.0 then fl
  else fl +. 1.0

let fn_round_half_to_even =
  numeric_unary "fn:round-half-to-even" (fun n -> n) round_half_even

let fn_number dyn args =
  let s = ctx_or_arg dyn args in
  match atomize s with
  | [ a ] -> (
    match a with
    | A_int n -> of_double (float_of_int n)
    | _ -> (
      try of_double (double_of_atomic a) with Errors.Error _ -> of_double Float.nan))
  | _ -> of_double Float.nan

let fold_numeric name s =
  List.map
    (fun a ->
      match a with
      | A_int _ | A_double _ -> a
      | A_untyped u -> A_double (double_of_atomic (A_untyped u))
      | other ->
        err Errors.forg0006 "%s: non-numeric value %s" name (string_of_atomic other))
    (atomize s)

let all_ints = List.for_all (function A_int _ -> true | _ -> false)

let fn_sum _dyn args =
  let zero = match args with [ _; z ] -> atomize z | _ -> [ A_int 0 ] in
  match fold_numeric "fn:sum" (List.hd args) with
  | [] -> List.map (fun a -> Atomic a) zero
  | nums when all_ints nums ->
    of_int (List.fold_left (fun acc a -> acc + cast_to_int a) 0 nums)
  | nums -> of_double (List.fold_left (fun acc a -> acc +. double_of_atomic a) 0.0 nums)

let fn_avg _dyn args =
  match fold_numeric "fn:avg" (List.hd args) with
  | [] -> []
  | nums ->
    let total = List.fold_left (fun acc a -> acc +. double_of_atomic a) 0.0 nums in
    of_double (total /. float_of_int (List.length nums))

let extremum name keep _dyn args =
  (* F&O: untypedAtomic operands of fn:min/fn:max are cast to xs:double. *)
  let promote = function
    | A_untyped u -> A_double (double_of_atomic (A_untyped u))
    | a -> a
  in
  match List.map promote (atomize (List.hd args)) with
  | [] -> []
  | first :: rest ->
    let best =
      List.fold_left
        (fun best a ->
          match general_compare_atoms a best with
          | Some c -> if keep c then a else best
          | None -> err Errors.forg0006 "%s: values are not comparable" name)
        first rest
    in
    [ Atomic best ]

let fn_max = extremum "fn:max" (fun c -> c > 0)
let fn_min = extremum "fn:min" (fun c -> c < 0)
let fn_count _dyn args = of_int (List.length (List.hd args))

(* ---------------------------------------------------------------- *)
(* Strings                                                           *)
(* ---------------------------------------------------------------- *)

let fn_string dyn args = of_string (one_string "fn:string" (ctx_or_arg dyn args))

let fn_concat dyn args =
  let s = String.concat "" (List.map (one_string "fn:concat") args) in
  charge_bytes dyn (String.length s);
  of_string s

let fn_string_join dyn args =
  match args with
  | [ items; sep ] ->
    let sep = one_string "fn:string-join" sep in
    let s = String.concat sep (List.map string_of_atomic (atomize items)) in
    charge_bytes dyn (String.length s);
    of_string s
  | _ -> assert false

let fn_substring _dyn args =
  match args with
  | src :: start :: rest ->
    let s = one_string "fn:substring" src in
    let start = one_double "fn:substring" start in
    let len =
      match rest with
      | [] -> Float.infinity
      | [ l ] -> one_double "fn:substring" l
      | _ -> assert false
    in
    (* XPath semantics: 1-based, rounding, positions p with
       round(start) <= p < round(start) + round(len). *)
    let n = String.length s in
    let r x = Float.floor (x +. 0.5) in
    let lo = r start in
    let hi = if len = Float.infinity then Float.infinity else lo +. r len in
    let buf = Buffer.create n in
    String.iteri
      (fun i c ->
        let p = float_of_int (i + 1) in
        if p >= lo && p < hi then Buffer.add_char buf c)
      s;
    of_string (Buffer.contents buf)
  | _ -> assert false

let fn_string_length dyn args =
  of_int (String.length (one_string "fn:string-length" (ctx_or_arg dyn args)))

let normalize_space_str s =
  let words =
    String.split_on_char ' '
      (String.map (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c) s)
    |> List.filter (fun w -> w <> "")
  in
  String.concat " " words

let fn_normalize_space dyn args =
  of_string (normalize_space_str (one_string "fn:normalize-space" (ctx_or_arg dyn args)))

let fn_upper_case _dyn args =
  of_string (String.uppercase_ascii (one_string "fn:upper-case" (List.hd args)))

let fn_lower_case _dyn args =
  of_string (String.lowercase_ascii (one_string "fn:lower-case" (List.hd args)))

let fn_translate _dyn args =
  match args with
  | [ src; from_s; to_s ] ->
    let s = one_string "fn:translate" src in
    let from_s = one_string "fn:translate" from_s in
    let to_s = one_string "fn:translate" to_s in
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match String.index_opt from_s c with
        | None -> Buffer.add_char buf c
        | Some i -> if i < String.length to_s then Buffer.add_char buf to_s.[i])
      s;
    of_string (Buffer.contents buf)
  | _ -> assert false

let contains_sub ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 then true
  else
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0

let fn_contains _dyn args =
  match args with
  | [ hay; needle ] ->
    of_bool
      (contains_sub
         ~needle:(one_string "fn:contains" needle)
         (one_string "fn:contains" hay))
  | _ -> assert false

let fn_starts_with _dyn args =
  match args with
  | [ hay; pre ] ->
    let hay = one_string "fn:starts-with" hay and pre = one_string "fn:starts-with" pre in
    of_bool
      (String.length pre <= String.length hay
      && String.sub hay 0 (String.length pre) = pre)
  | _ -> assert false

let fn_ends_with _dyn args =
  match args with
  | [ hay; suf ] ->
    let hay = one_string "fn:ends-with" hay and suf = one_string "fn:ends-with" suf in
    let hl = String.length hay and sl = String.length suf in
    of_bool (sl <= hl && String.sub hay (hl - sl) sl = suf)
  | _ -> assert false

let find_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    if i + nl > hl then None else if String.sub hay i nl = needle then Some i else go (i + 1)
  in
  go 0

let fn_substring_before _dyn args =
  match args with
  | [ hay; needle ] ->
    let hay = one_string "fn:substring-before" hay in
    let needle = one_string "fn:substring-before" needle in
    (match find_sub hay needle with
    | Some i when needle <> "" -> of_string (String.sub hay 0 i)
    | _ -> of_string "")
  | _ -> assert false

let fn_substring_after _dyn args =
  match args with
  | [ hay; needle ] ->
    let hay = one_string "fn:substring-after" hay in
    let needle = one_string "fn:substring-after" needle in
    if needle = "" then of_string hay
    else (
      match find_sub hay needle with
      | Some i ->
        let start = i + String.length needle in
        of_string (String.sub hay start (String.length hay - start))
      | None -> of_string "")
  | _ -> assert false

let fn_string_to_codepoints dyn args =
  let s = one_string "fn:string-to-codepoints" (List.hd args) in
  (* One item per byte: charge like a range materialization. *)
  Context.charge dyn.Context.env.Context.limits (String.length s);
  List.init (String.length s) (fun i -> Atomic (A_int (Char.code s.[i])))

let fn_codepoints_to_string _dyn args =
  let codes = atomize (List.hd args) in
  let buf = Buffer.create (List.length codes) in
  List.iter
    (fun a ->
      let c = cast_to_int a in
      if c < 0 || c > 255 then
        err Errors.foca0002 "fn:codepoints-to-string: codepoint %d out of byte range" c
      else Buffer.add_char buf (Char.chr c))
    codes;
  of_string (Buffer.contents buf)

(* Regular expressions, via the Re library with PCRE syntax — a practical
   stand-in for XML Schema regexes. *)
let compile_regex name pattern flags =
  let opts = if String.contains flags 'i' then [ `CASELESS ] else [] in
  try Re.Pcre.re ~flags:opts pattern |> Re.compile
  with _ -> err Errors.forx0002 "%s: invalid regular expression %S" name pattern

let regex_args name args =
  match args with
  | [ input; pattern ] ->
    (one_string name input, one_string name pattern, "")
  | [ input; pattern; flags ] ->
    (one_string name input, one_string name pattern, one_string name flags)
  | _ -> assert false

let fn_matches _dyn args =
  let input, pattern, flags = regex_args "fn:matches" args in
  of_bool (Re.execp (compile_regex "fn:matches" pattern flags) input)

let fn_replace dyn args =
  match args with
  | input :: pattern :: repl :: rest ->
    let name = "fn:replace" in
    let input = one_string name input in
    charge_bytes dyn (String.length input);
    let pattern = one_string name pattern in
    let repl = one_string name repl in
    let flags = match rest with [ f ] -> one_string name f | _ -> "" in
    let re = compile_regex name pattern flags in
    (* XPath replacement templates use $N for groups and \$ to escape. *)
    let expand groups =
      let buf = Buffer.create (String.length repl) in
      let i = ref 0 in
      let len = String.length repl in
      while !i < len do
        let c = repl.[!i] in
        if c = '\\' && !i + 1 < len then begin
          Buffer.add_char buf repl.[!i + 1];
          i := !i + 2
        end
        else if c = '$' && !i + 1 < len && repl.[!i + 1] >= '0' && repl.[!i + 1] <= '9'
        then begin
          let g = Char.code repl.[!i + 1] - Char.code '0' in
          (try Buffer.add_string buf (Re.Group.get groups g) with Not_found -> ());
          i := !i + 2
        end
        else begin
          Buffer.add_char buf c;
          incr i
        end
      done;
      Buffer.contents buf
    in
    of_string (Re.replace re ~f:expand input)
  | _ -> assert false

(* XPath tokenize keeps empty fields (",a,," has four tokens); scan for
   non-empty matches manually so adjacent separators yield empties. *)
let fn_tokenize dyn args =
  let input, pattern, flags = regex_args "fn:tokenize" args in
  charge_bytes dyn (String.length input);
  let re = compile_regex "fn:tokenize" pattern flags in
  if input = "" then []
  else begin
    let toks = ref [] in
    let pos = ref 0 in
    let len = String.length input in
    let continue = ref true in
    while !continue do
      match Re.exec_opt ~pos:!pos re input with
      | Some g when Re.Group.stop g 0 > Re.Group.start g 0 ->
        toks := String.sub input !pos (Re.Group.start g 0 - !pos) :: !toks;
        pos := Re.Group.stop g 0
      | _ ->
        toks := String.sub input !pos (len - !pos) :: !toks;
        continue := false
    done;
    List.rev_map (fun s -> Atomic (A_string s)) !toks
  end

(* ---------------------------------------------------------------- *)
(* Booleans                                                          *)
(* ---------------------------------------------------------------- *)

let fn_not _dyn args = of_bool (not (effective_boolean_value (List.hd args)))
let fn_true _dyn _args = of_bool true
let fn_false _dyn _args = of_bool false
let fn_boolean _dyn args = of_bool (effective_boolean_value (List.hd args))

(* ---------------------------------------------------------------- *)
(* Sequences                                                         *)
(* ---------------------------------------------------------------- *)

let fn_empty _dyn args = of_bool (List.hd args = [])
let fn_exists _dyn args = of_bool (List.hd args <> [])

let is_nan_atomic = function A_double f -> Float.is_nan f | _ -> false

(* Hash keys for distinct-values, valid only within one homogeneous
   comparison class: across classes general_compare_atoms is not
   transitive (untyped "1" equals both the integer 1 and the string "1",
   which are not equal to each other), so hashing would conflate or split
   values the pairwise scan distinguishes. *)
type dv_key = K_num of int64 | K_int of int | K_str of string | K_bool of bool

let dv_class = function
  | A_int _ | A_double _ -> `Num
  | A_string _ | A_untyped _ -> `Str
  | A_bool _ -> `Bool

(* Ints with |n| ≤ 2^53 convert to double exactly; beyond that the
   conversion conflates neighbours, while the pairwise scan compares
   int/int exactly. *)
let dv_int_exact n = n >= -(1 lsl 53) && n <= 1 lsl 53

let dv_key = function
  (* A big integer keeps its exact value as the key: the pairwise scan
     compares int/int exactly, so two ints that only collide after
     rounding to double must stay distinct. The hashed variant below
     only hashes such ints when the sequence holds no doubles, so the split
     key space (K_int vs K_num) can never separate values the scan's
     int/double double-conversion comparison would merge. *)
  | A_int n when not (dv_int_exact n) -> K_int n
  | (A_int _ | A_double _) as a ->
    let f = double_of_atomic a in
    (* -0.0 = 0.0 and all NaNs are one value for fn:distinct-values. *)
    let f = if f = 0.0 then 0.0 else if Float.is_nan f then Float.nan else f in
    K_num (Int64.bits_of_float f)
  | A_string s | A_untyped s -> K_str s
  | A_bool b -> K_bool b

(* The seed algorithm: a pairwise scan, O(n²), first occurrence wins. *)
let distinct_scan atoms =
  let seen = ref [] in
  let same a b =
    (is_nan_atomic a && is_nan_atomic b)
    || (match general_compare_atoms a b with Some 0 -> true | _ -> false)
  in
  let keep a =
    if List.exists (same a) !seen then false
    else begin
      seen := a :: !seen;
      true
    end
  in
  List.filter_map (fun a -> if keep a then Some (Atomic a) else None) atoms

let fn_distinct_values _dyn args = distinct_scan (atomize (List.hd args))

let distinct_values_hashed _dyn args =
  let atoms = atomize (List.hd args) in
  let homogeneous =
    match atoms with
    | [] -> true
    | a :: rest ->
      let c = dv_class a in
      List.for_all (fun b -> dv_class b = c) rest
  in
  (* Within the numeric class the scan's int/double comparison goes
     through double conversion, which the bit-pattern key mirrors only
     for exactly representable ints; doubles mixed with bigger ints keep
     the scan. *)
  let hashable =
    homogeneous
    && (match atoms with
       | a :: _ when dv_class a = `Num ->
         List.for_all (function A_int n -> dv_int_exact n | _ -> true) atoms
         || not (List.exists (function A_double _ -> true | _ -> false) atoms)
       | _ -> true)
  in
  if hashable then begin
    (* One comparison class: equality coincides with key equality, so a
       hash set gives O(n) in place of the scan's O(n²). First occurrence
       wins, as in the scan. *)
    let tbl = Hashtbl.create (2 * List.length atoms + 1) in
    List.filter_map
      (fun a ->
        let k = dv_key a in
        if Hashtbl.mem tbl k then None
        else begin
          Hashtbl.replace tbl k ();
          Some (Atomic a)
        end)
      atoms
  end
  else distinct_scan atoms

let fn_reverse _dyn args = List.rev (List.hd args)

let fn_insert_before _dyn args =
  match args with
  | [ target; pos; inserts ] ->
    let p = max 1 (cast_to_int (atomize_one "fn:insert-before" pos)) in
    let rec go i = function
      | [] -> inserts
      | x :: rest when i = p -> inserts @ (x :: rest)
      | x :: rest -> x :: go (i + 1) rest
    in
    go 1 target
  | _ -> assert false

let fn_remove _dyn args =
  match args with
  | [ target; pos ] ->
    let p = cast_to_int (atomize_one "fn:remove" pos) in
    List.filteri (fun i _ -> i + 1 <> p) target
  | _ -> assert false

let fn_subsequence _dyn args =
  match args with
  | source :: start :: rest ->
    let start = one_double "fn:subsequence" start in
    let len =
      match rest with [] -> Float.infinity | [ l ] -> one_double "fn:subsequence" l | _ -> assert false
    in
    let r x = Float.floor (x +. 0.5) in
    let lo = r start in
    let hi = if len = Float.infinity then Float.infinity else lo +. r len in
    List.filteri
      (fun i _ ->
        let p = float_of_int (i + 1) in
        p >= lo && p < hi)
      source
  | _ -> assert false

let fn_index_of _dyn args =
  match args with
  | [ source; search ] ->
    let target = atomize_one "fn:index-of" search in
    List.concat
      (List.mapi
         (fun i a ->
           match general_compare_atoms a target with
           | Some 0 -> [ Atomic (A_int (i + 1)) ]
           | _ -> [])
         (atomize source))
  | _ -> assert false

let fn_zero_or_one _dyn args =
  match List.hd args with
  | ([] | [ _ ]) as s -> s
  | s -> err Errors.forg0006 "fn:zero-or-one: got %d items" (List.length s)

let fn_one_or_more _dyn args =
  match List.hd args with
  | [] -> err Errors.forg0006 "fn:one-or-more: got an empty sequence"
  | s -> s

let fn_exactly_one _dyn args =
  match List.hd args with
  | [ _ ] as s -> s
  | s -> err Errors.forg0006 "fn:exactly-one: got %d items" (List.length s)

let fn_deep_equal _dyn args =
  match args with
  | [ a; b ] -> of_bool (deep_equal a b)
  | _ -> assert false

let fn_unordered _dyn args = List.hd args

(* ---------------------------------------------------------------- *)
(* Context                                                           *)
(* ---------------------------------------------------------------- *)

let fn_position (dyn : Context.dyn) _args =
  if dyn.ctx_pos = 0 then err Errors.xpdy0002 "fn:position: no context item" else of_int dyn.ctx_pos

let fn_last (dyn : Context.dyn) _args =
  if dyn.ctx_pos = 0 then err Errors.xpdy0002 "fn:last: no context item" else of_int dyn.ctx_size

(* ---------------------------------------------------------------- *)
(* Nodes                                                             *)
(* ---------------------------------------------------------------- *)

let fn_name dyn args =
  match opt_node "fn:name" (ctx_or_arg dyn args) with
  | None -> of_string ""
  | Some n -> (
    match N.kind n with
    | N.Element | N.Attribute -> of_string (N.name n)
    | N.Processing_instruction -> of_string (N.pi_target n)
    | _ -> of_string "")

let fn_local_name dyn args =
  match fn_name dyn args with
  | [ Atomic (A_string s) ] ->
    let local =
      match String.rindex_opt s ':' with
      | Some i -> String.sub s (i + 1) (String.length s - i - 1)
      | None -> s
    in
    of_string local
  | other -> other

let fn_node_name dyn args =
  match opt_node "fn:node-name" (ctx_or_arg dyn args) with
  | None -> []
  | Some n -> (
    match N.kind n with
    | N.Element | N.Attribute -> of_string (N.name n)
    | _ -> [])

let fn_root dyn args =
  match opt_node "fn:root" (ctx_or_arg dyn args) with
  | None -> []
  | Some n -> of_node (N.root n)

let fn_data _dyn args = List.map (fun a -> Atomic a) (atomize (List.hd args))

let fn_doc (dyn : Context.dyn) args =
  match List.hd args with
  | [] -> []
  | s -> (
    let uri = one_string "fn:doc" s in
    match dyn.env.doc_resolver uri with
    | Some doc -> of_node doc
    | None -> err Errors.fodc0002 "fn:doc: cannot retrieve %S" uri)

(* ---------------------------------------------------------------- *)
(* Diagnostics: the two functions the paper's debugging section is    *)
(* about.                                                            *)
(* ---------------------------------------------------------------- *)

let fn_error _dyn args =
  match args with
  | [] -> err Errors.foer0000 "fn:error"
  | [ code ] -> err Errors.foer0000 "%s" (one_string "fn:error" code)
  | [ code; message ] ->
    let code = match code with [] -> Errors.foer0000 | s -> one_string "fn:error" s in
    raise
      (Errors.Error { code = "err:" ^ code; message = one_string "fn:error" message })
  | _ -> assert false

let fn_trace (dyn : Context.dyn) args =
  match args with
  | [ value; label ] ->
    let label = one_string "fn:trace" label in
    dyn.env.trace_count <- dyn.env.trace_count + 1;
    dyn.env.trace_out (Printf.sprintf "%s %s" label (to_display_string value));
    value
  | _ -> assert false

(* ---------------------------------------------------------------- *)
(* Constructor functions (casts)                                     *)
(* ---------------------------------------------------------------- *)

let cast_fn name conv _dyn args =
  match atomize (List.hd args) with
  | [] -> []
  | [ a ] -> conv a
  | _ -> err Errors.xpty0004 "%s expects a single value" name

let registry : (string * int * (Context.dyn -> Value.sequence list -> Value.sequence)) list =
  [
    ("abs", 1, fn_abs);
    ("ceiling", 1, fn_ceiling);
    ("floor", 1, fn_floor);
    ("round", 1, fn_round);
    ("round-half-to-even", 1, fn_round_half_to_even);
    ("compare", 2, fn_compare);
    ("number", 0, fn_number);
    ("number", 1, fn_number);
    ("sum", 1, fn_sum);
    ("sum", 2, fn_sum);
    ("avg", 1, fn_avg);
    ("max", 1, fn_max);
    ("min", 1, fn_min);
    ("count", 1, fn_count);
    ("string", 0, fn_string);
    ("string", 1, fn_string);
    ("string-join", 2, fn_string_join);
    ("substring", 2, fn_substring);
    ("substring", 3, fn_substring);
    ("string-length", 0, fn_string_length);
    ("string-length", 1, fn_string_length);
    ("normalize-space", 0, fn_normalize_space);
    ("normalize-space", 1, fn_normalize_space);
    ("upper-case", 1, fn_upper_case);
    ("lower-case", 1, fn_lower_case);
    ("translate", 3, fn_translate);
    ("contains", 2, fn_contains);
    ("starts-with", 2, fn_starts_with);
    ("ends-with", 2, fn_ends_with);
    ("substring-before", 2, fn_substring_before);
    ("substring-after", 2, fn_substring_after);
    ("string-to-codepoints", 1, fn_string_to_codepoints);
    ("codepoints-to-string", 1, fn_codepoints_to_string);
    ("matches", 2, fn_matches);
    ("matches", 3, fn_matches);
    ("replace", 3, fn_replace);
    ("replace", 4, fn_replace);
    ("tokenize", 2, fn_tokenize);
    ("tokenize", 3, fn_tokenize);
    ("not", 1, fn_not);
    ("true", 0, fn_true);
    ("false", 0, fn_false);
    ("boolean", 1, fn_boolean);
    ("empty", 1, fn_empty);
    ("exists", 1, fn_exists);
    ("distinct-values", 1, fn_distinct_values);
    ("reverse", 1, fn_reverse);
    ("insert-before", 3, fn_insert_before);
    ("remove", 2, fn_remove);
    ("subsequence", 2, fn_subsequence);
    ("subsequence", 3, fn_subsequence);
    ("index-of", 2, fn_index_of);
    ("zero-or-one", 1, fn_zero_or_one);
    ("one-or-more", 1, fn_one_or_more);
    ("exactly-one", 1, fn_exactly_one);
    ("deep-equal", 2, fn_deep_equal);
    ("unordered", 1, fn_unordered);
    ("position", 0, fn_position);
    ("last", 0, fn_last);
    ("name", 0, fn_name);
    ("name", 1, fn_name);
    ("local-name", 0, fn_local_name);
    ("local-name", 1, fn_local_name);
    ("node-name", 1, fn_node_name);
    ("root", 0, fn_root);
    ("root", 1, fn_root);
    ("data", 1, fn_data);
    ("doc", 1, fn_doc);
    ("error", 0, fn_error);
    ("error", 1, fn_error);
    ("error", 2, fn_error);
    ("trace", 2, fn_trace);
    ("xs:integer", 1, cast_fn "xs:integer" (fun a -> of_int (cast_to_int a)));
    ("xs:string", 1, cast_fn "xs:string" (fun a -> of_string (string_of_atomic a)));
    ("xs:double", 1, cast_fn "xs:double" (fun a -> of_double (double_of_atomic a)));
    ("xs:boolean", 1, cast_fn "xs:boolean" (fun a -> of_bool (cast_to_bool a)));
  ]

let register_all (env : Context.env) =
  List.iter
    (fun (name, arity, f) -> Context.register_function env name arity (Context.Builtin f))
    registry;
  (* fn:concat is variadic: register a practical range of arities. *)
  for arity = 2 to 16 do
    Context.register_function env "concat" arity (Context.Builtin fn_concat)
  done

(* Compile-time resolution for the plan compiler: map a call site to the
   builtin's closure once, instead of a hash lookup per execution. *)
let table =
  lazy
    (let tbl = Hashtbl.create 128 in
     List.iter (fun (name, arity, f) -> Hashtbl.replace tbl (name, arity) f) registry;
     for arity = 2 to 16 do
       Hashtbl.replace tbl ("concat", arity) fn_concat
     done;
     tbl)

let find name arity =
  Hashtbl.find_opt (Lazy.force table) (Context.normalize_fname name, arity)
