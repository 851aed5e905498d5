(** The AWB model exchange format — "AWB saves its models in a nice, clean
    XML format", which the document generator consumes.

    Layout:
    {v
    <awb-model metamodel="it-architecture">
      <node id="N1" type="Person">
        <property name="firstName" kind="string">Alice</property>
      </node>
      <relation id="R1" type="likes" source="N1" target="N2"/>
    </awb-model>
    v} *)

val export : Model.t -> Xml_base.Node.t
(** A document node whose root element is [awb-model]. HTML-valued
    properties are embedded as escaped text (the paper's "convenient for
    the implementation" choice: XML-valued attributes are strings
    internally and converted on output — we keep them as text, which is
    exactly why the project's schema stopped matching its data). *)

val export_string : Model.t -> string

val import_string : Metamodel.t -> string -> Model.t
(** Rebuild a model from its export text. The model is built from the
    events of {!Xml_base.Parser.scan}; no tree is materialized. Unknown
    node/relation types and undeclared properties are accepted (advisory
    metamodel). Errors, in this order of precedence:
    - malformed XML raises {!Xml_base.Parser.Parse_error}, even where a
      model error comes earlier in the text;
    - a structural problem (wrong root element, an unexpected element, a
      missing id, type, source, target or property name, a dangling
      endpoint) raises [Failure];
    - a duplicate node or relation id raises [Invalid_argument].
    Model errors are checked in the order of a walk over the export, and
    the first one found is raised. *)

val import : Metamodel.t -> Xml_base.Node.t -> Model.t
(** The same import from a parsed export (a document, or its
    [awb-model] element): the tree's events go through the rules of
    {!import_string}, with the same results and errors. *)

val export_metamodel : Metamodel.t -> Xml_base.Node.t
(** The metamodel as XML, for consumers that must reason about the type
    hierarchy outside the host process (the XQuery document generator):
    {v
    <metamodel name="it-architecture">
      <node-type name="User" parent="Person"/>
      <relation-type name="favors" parent="likes"/>
    </metamodel>
    v} *)
