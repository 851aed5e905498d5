exception Parse_error of { line : int; col : int; message : string }

type handler = {
  start_element : string -> (string * string) list -> unit;
  end_element : unit -> unit;
  text : string -> unit;
  comment : string -> unit;
  pi : target:string -> string -> unit;
}

(* One scan's state. Nothing outlives the call, so concurrent scans on
   different domains share nothing. Line and column are not tracked:
   [fail] derives them from the byte offset. *)
type state = {
  src : string;
  len : int;
  mutable pos : int;
  h : handler;
  mutable open_tags : string list;
  (* Pending character data: either the plain slice [run_start, run_end)
     of [src], or (once an entity or a CDATA section joined the run)
     the contents of [buf]. *)
  mutable run_start : int;
  mutable run_end : int;
  mutable buffered : bool;
  buf : Buffer.t;
  (* The first '&' at or after an earlier [pos], or [len]. While it is
     not behind [pos] it is still the next one, so text runs find their
     end without rescanning the input. *)
  mutable next_amp : int;
}

let make_state h src =
  let len = String.length src in
  {
    src;
    len;
    pos = 0;
    h;
    open_tags = [];
    run_start = 0;
    run_end = 0;
    buffered = false;
    buf = Buffer.create 64;
    next_amp = -1;
  }

let position src pos =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to pos - 1 do
    if String.unsafe_get src i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, pos - !bol + 1)

let fail st message =
  let line, col = position st.src st.pos in
  raise (Parse_error { line; col; message })

let peek_at st i = if i >= st.len then '\000' else String.unsafe_get st.src i
let peek st = peek_at st st.pos

let expect st c =
  if peek st = c then st.pos <- st.pos + 1
  else fail st (Printf.sprintf "expected %C, found %C" c (peek st))

let looking_at st s =
  let n = String.length s in
  st.pos + n <= st.len
  &&
  let rec go i = i = n || (String.unsafe_get st.src (st.pos + i) = s.[i] && go (i + 1)) in
  go 0

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_ws st =
  while st.pos < st.len && is_space (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let name_chars =
  String.init 256 (fun i ->
      let c = Char.chr i in
      if is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.' then '\001' else '\000')

let is_name_char c = String.unsafe_get name_chars (Char.code c) <> '\000'

let name st =
  if not (is_name_start (peek st)) then
    fail st (Printf.sprintf "expected a name, found %C" (peek st));
  let start = st.pos in
  while st.pos < st.len && is_name_char (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

let index st c from =
  match String.index_from st.src from c with i -> i | exception Not_found -> st.len

(* Offset of the first [pat] at or after [from], or [len]. *)
let find st pat from =
  let n = String.length pat in
  let rec matches j k = k = n || (String.unsafe_get st.src (j + k) = pat.[k] && matches j (k + 1)) in
  let rec go i =
    let j = if i >= st.len then st.len else index st pat.[0] i in
    if j + n > st.len then st.len else if matches j 1 then j else go (j + 1)
  in
  go from

(* Everything from [pos] up to the next [close], consumed with it. *)
let until st close message =
  let j = find st close st.pos in
  if j = st.len then begin
    st.pos <- st.len;
    fail st message
  end;
  let s = String.sub st.src st.pos (j - st.pos) in
  st.pos <- j + String.length close;
  s

(* An entity or character reference at [pos], decoded into [b]. *)
let reference st b =
  st.pos <- st.pos + 1;
  if peek st = '#' then begin
    st.pos <- st.pos + 1;
    let hex = peek st = 'x' in
    if hex then st.pos <- st.pos + 1;
    let ok c =
      if hex then
        (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
      else c >= '0' && c <= '9'
    in
    let start = st.pos in
    while st.pos < st.len && ok (String.unsafe_get st.src st.pos) do
      st.pos <- st.pos + 1
    done;
    if st.pos = start then fail st "empty character reference";
    let digits = String.sub st.src start (st.pos - start) in
    expect st ';';
    match int_of_string_opt ((if hex then "0x" else "") ^ digits) with
    | Some code when code >= 0 && code <= 0x10FFFF ->
      (* Surrogate code points are encoded as they are, like any other. *)
      Buffer.add_utf_8_uchar b (Uchar.unsafe_of_int code)
    | _ -> fail st "character reference out of range"
  end
  else begin
    let entity = name st in
    expect st ';';
    Buffer.add_string b
      (match entity with
      | "lt" -> "<"
      | "gt" -> ">"
      | "amp" -> "&"
      | "quot" -> "\""
      | "apos" -> "'"
      | other -> fail st (Printf.sprintf "unknown entity &%s;" other))
  end

let attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected a quoted attribute value";
  st.pos <- st.pos + 1;
  let start = st.pos in
  let rec plain i =
    if i >= st.len then i
    else
      let c = String.unsafe_get st.src i in
      if c = quote || c = '<' || c = '&' then i else plain (i + 1)
  in
  let stop = plain start in
  if stop < st.len && String.unsafe_get st.src stop = quote then begin
    st.pos <- stop + 1;
    String.sub st.src start (stop - start)
  end
  else begin
    (* Slow path: a reference, a stray '<', or no closing quote. *)
    let b = Buffer.create (stop - start + 16) in
    Buffer.add_substring b st.src start (stop - start);
    st.pos <- stop;
    let rec go () =
      if st.pos >= st.len then fail st "unterminated attribute value"
      else
        match String.unsafe_get st.src st.pos with
        | c when c = quote -> st.pos <- st.pos + 1
        | '&' ->
          reference st b;
          go ()
        | '<' -> fail st "'<' not allowed in attribute value"
        | _ ->
          let stop = plain st.pos in
          Buffer.add_substring b st.src st.pos (stop - st.pos);
          st.pos <- stop;
          go ()
    in
    go ();
    Buffer.contents b
  end

(* ---- Character data ---------------------------------------------- *)

let text_to_buffer st =
  if not st.buffered then begin
    Buffer.clear st.buf;
    Buffer.add_substring st.buf st.src st.run_start (st.run_end - st.run_start);
    st.buffered <- true
  end

let flush_text st =
  if st.buffered then begin
    if Buffer.length st.buf > 0 then st.h.text (Buffer.contents st.buf);
    st.buffered <- false
  end
  else if st.run_end > st.run_start then
    st.h.text (String.sub st.src st.run_start (st.run_end - st.run_start));
  st.run_start <- 0;
  st.run_end <- 0

(* A run of plain characters from [pos] to the next '<' or '&'. A run
   only follows markup, a reference or CDATA, so no plain slice is
   pending unless the text is already buffered. *)
let text_run st =
  if st.next_amp < st.pos then st.next_amp <- index st '&' st.pos;
  let stop = min (index st '<' st.pos) st.next_amp in
  if st.buffered then Buffer.add_substring st.buf st.src st.pos (stop - st.pos)
  else begin
    st.run_start <- st.pos;
    st.run_end <- stop
  end;
  st.pos <- stop

(* ---- Markup ------------------------------------------------------ *)

(* After "<!--". *)
let comment st = until st "-->" "unterminated comment"

(* After "<?": the target and the data. *)
let pi st =
  let target = name st in
  skip_ws st;
  (target, until st "?>" "unterminated processing instruction")

let emit_comment st =
  st.pos <- st.pos + 4;
  st.h.comment (comment st)

let emit_pi st =
  st.pos <- st.pos + 2;
  let target, data = pi st in
  st.h.pi ~target data

(* After '<' of a start tag. An empty-element tag emits its end event
   at once; otherwise the tag is left open. *)
let start_tag st =
  let tag = name st in
  let rec attrs acc =
    skip_ws st;
    if is_name_start (peek st) then begin
      let aname = name st in
      skip_ws st;
      expect st '=';
      skip_ws st;
      let v = attr_value st in
      if List.mem_assoc aname acc then fail st (Printf.sprintf "duplicate attribute %s" aname);
      attrs ((aname, v) :: acc)
    end
    else List.rev acc
  in
  let attrs = attrs [] in
  skip_ws st;
  if looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    st.h.start_element tag attrs;
    st.h.end_element ()
  end
  else begin
    expect st '>';
    st.h.start_element tag attrs;
    st.open_tags <- tag :: st.open_tags
  end

(* After "</", with an open element. *)
let end_tag st =
  let close = name st in
  (match st.open_tags with
  | tag :: rest ->
    if close <> tag then
      fail st
        (Printf.sprintf "mismatched closing tag: expected </%s>, found </%s>" tag close);
    st.open_tags <- rest
  | [] -> assert false);
  skip_ws st;
  expect st '>';
  st.h.end_element ()

(* Content up to the end of input, or up to a "</" with no element
   open (not consumed); with [~element:true], only until the element
   open on entry is closed. *)
let content st ~element =
  let continue = ref true in
  while !continue do
    if st.pos >= st.len then begin
      flush_text st;
      if st.open_tags <> [] then expect st '<';
      continue := false
    end
    else
      match String.unsafe_get st.src st.pos with
      | '<' -> (
        match peek_at st (st.pos + 1) with
        | '/' ->
          flush_text st;
          if st.open_tags = [] then continue := false
          else begin
            st.pos <- st.pos + 2;
            end_tag st;
            if element && st.open_tags = [] then continue := false
          end
        | '!' when looking_at st "<!--" ->
          flush_text st;
          emit_comment st
        | '!' when looking_at st "<![CDATA[" ->
          text_to_buffer st;
          st.pos <- st.pos + 9;
          Buffer.add_string st.buf (until st "]]>" "unterminated CDATA section")
        | '?' ->
          flush_text st;
          emit_pi st
        | _ ->
          flush_text st;
          st.pos <- st.pos + 1;
          start_tag st)
      | '&' ->
        text_to_buffer st;
        reference st st.buf
      | _ -> text_run st
  done

(* ---- Documents --------------------------------------------------- *)

(* Prolog items produce no events: the XML declaration, comments and
   a DOCTYPE (its internal subset skipped uninterpreted). *)
let prolog st =
  skip_ws st;
  if looking_at st "<?xml" then begin
    st.pos <- st.pos + 2;
    ignore (pi st)
  end;
  skip_ws st;
  while looking_at st "<!--" || looking_at st "<!DOCTYPE" do
    if looking_at st "<!--" then begin
      st.pos <- st.pos + 4;
      ignore (comment st)
    end
    else begin
      st.pos <- st.pos + 9;
      let depth = ref 0 in
      let continue = ref true in
      while !continue do
        if st.pos >= st.len then fail st "unterminated DOCTYPE";
        (match String.unsafe_get st.src st.pos with
        | '[' -> incr depth
        | ']' -> decr depth
        | '>' when !depth = 0 -> continue := false
        | _ -> ());
        st.pos <- st.pos + 1
      done
    end;
    skip_ws st
  done

let scan h src =
  let st = make_state h src in
  prolog st;
  if not (peek st = '<' && is_name_start (peek_at st (st.pos + 1))) then
    fail st "expected a root element";
  st.pos <- st.pos + 1;
  start_tag st;
  if st.open_tags <> [] then content st ~element:true;
  skip_ws st;
  while looking_at st "<!--" || looking_at st "<?" do
    if looking_at st "<!--" then emit_comment st else emit_pi st;
    skip_ws st
  done;
  if st.pos < st.len then fail st "trailing content after the root element"

let scan_fragment h src =
  let st = make_state h src in
  content st ~element:false;
  if st.pos < st.len then fail st "unexpected closing tag at top level"

(* ---- Tree builder ------------------------------------------------ *)

type frame = { tag : string; attrs : Node.t list; mutable kids : Node.t list }

(* Collects the events of one scan into nodes; [items] are the
   top-level nodes, in order. *)
let tree_builder () =
  let stack = ref [] and top = ref [] in
  let add n =
    match !stack with [] -> top := n :: !top | f :: _ -> f.kids <- n :: f.kids
  in
  let h =
    {
      start_element =
        (fun tag attrs ->
          let attrs = List.map (fun (n, v) -> Node.attribute n v) attrs in
          stack := { tag; attrs; kids = [] } :: !stack);
      end_element =
        (fun () ->
          match !stack with
          | f :: rest ->
            stack := rest;
            add (Node.element ~attrs:f.attrs ~children:(List.rev f.kids) f.tag)
          | [] -> assert false);
      text = (fun s -> add (Node.text s));
      comment = (fun s -> add (Node.comment s));
      pi = (fun ~target data -> add (Node.pi ~target data));
    }
  in
  (h, fun () -> List.rev !top)

let parse_string src =
  let h, items = tree_builder () in
  scan h src;
  Node.document (items ())

let parse_fragment src =
  let h, items = tree_builder () in
  scan_fragment h src;
  items ()

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  parse_string content

let rec replay h n =
  match Node.kind n with
  | Node.Document -> List.iter (replay h) (Node.children n)
  | Node.Element ->
    h.start_element (Node.name n)
      (List.map (fun a -> (Node.name a, Node.string_value a)) (Node.attributes n));
    List.iter (replay h) (Node.children n);
    h.end_element ()
  | Node.Text -> h.text (Node.string_value n)
  | Node.Comment -> h.comment (Node.string_value n)
  | Node.Processing_instruction -> h.pi ~target:(Node.pi_target n) (Node.string_value n)
  | Node.Attribute -> ()

let is_blank s = String.for_all is_space s

let rec strip_whitespace n =
  match Node.kind n with
  | Node.Document -> Node.document (strip_kids n)
  | Node.Element ->
    Node.element
      ~attrs:(List.map Node.copy (Node.attributes n))
      ~children:(strip_kids n) (Node.name n)
  | Node.Attribute | Node.Text | Node.Comment | Node.Processing_instruction ->
    Node.copy n

and strip_kids n =
  Node.children n
  |> List.filter (fun k ->
         not (Node.is_text k && is_blank (Node.string_value k)))
  |> List.map strip_whitespace
