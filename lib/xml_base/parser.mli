(** Hand-written XML parser.

    Supports elements, attributes (single or double quoted), character data,
    the five predefined entities plus numeric character references, CDATA
    sections, comments, processing instructions, an optional XML declaration,
    and a skipped DOCTYPE. No namespaces processing (qualified names are kept
    as plain strings) and no external entities — matching what the AWB export
    format needs.

    One scanner implements the grammar. It walks the input by index, finds
    text runs with [String.index_from], copies each name and attribute value
    with one [String.sub], and only buffers character data that holds an
    entity or a CDATA section. It reports what it reads as events to a
    {!handler}. Two consumers sit on the events: the tree builder behind
    {!parse_string} and {!parse_fragment}, and [Awb.Xml_io.import_string],
    which builds a model with no tree in between. Every {!Parse_error} comes
    from the scanner; its line and column are computed from the byte offset
    of the error. *)

exception Parse_error of { line : int; col : int; message : string }

(** {1 Events} *)

type handler = {
  start_element : string -> (string * string) list -> unit;
      (** Tag name and attributes in source order, entities decoded. *)
  end_element : unit -> unit;
      (** Closes the innermost open element; an empty-element tag gets
          its [end_element] right after its [start_element]. *)
  text : string -> unit;
      (** A maximal run of character data, references decoded and CDATA
          sections merged in; never empty. Whitespace is reported. *)
  comment : string -> unit;
  pi : target:string -> string -> unit;
}

val scan : handler -> string -> unit
(** Scan a complete document: the events of its root element, then of any
    trailing comments and processing instructions. The prolog (XML
    declaration, comments, DOCTYPE) produces no events. Events are
    delivered as they are read, so a handler may have seen part of the
    document when {!Parse_error} is raised. Exceptions raised by the
    handler propagate and end the scan. The scanner keeps no state
    between calls.
    @raise Parse_error on malformed input. *)

val replay : handler -> Node.t -> unit
(** Deliver a tree's events in document order, so a consumer of scans can
    also read a tree that is already built. A document node replays its
    children; adjacent text nodes give one [text] event each. *)

(** {1 Trees} *)

val parse_string : string -> Node.t
(** Parse a complete document; the result is a {!Node.kind.Document} node.
    @raise Parse_error on malformed input. *)

val parse_fragment : string -> Node.t list
(** Parse a sequence of top-level nodes (elements, text, comments) without
    requiring a single root. Useful for templates and tests. *)

val parse_file : string -> Node.t

val strip_whitespace : Node.t -> Node.t
(** Deep copy with whitespace-only text nodes removed and remaining text
    trimmed is NOT applied; only pure-whitespace texts between elements are
    dropped. Convenient for template processing. *)
