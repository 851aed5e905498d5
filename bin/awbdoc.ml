(* awbdoc — generate a document from a template and a model.

   Examples:
     dune exec bin/awbdoc.exe -- --template tpl.xml --sample banking
     dune exec bin/awbdoc.exe -- --template tpl.xml --model m.xml --engine functional
     dune exec bin/awbdoc.exe -- --template tpl.xml --sample glass --stats *)

open Cmdliner

let load_model sample model_file =
  match (sample, model_file) with
  | Some "banking", None -> Ok (Awb.Samples.banking_model ())
  | Some "glass", None -> Ok (Awb.Samples.glass_model ())
  | Some other, None -> Error (Printf.sprintf "unknown sample %S (banking|glass)" other)
  | None, Some path -> (
    try
      Ok
        (Awb.Xml_io.import_string Awb.Samples.it_architecture
           (In_channel.with_open_bin path In_channel.input_all))
    with Failure m | Sys_error m -> Error m)
  | None, None -> Ok (Awb.Samples.banking_model ())
  | Some _, Some _ -> Error "choose one of --sample or --model"

let run template_file sample model_file engine pretty html stats =
  match load_model sample model_file with
  | Error m ->
    prerr_endline ("awbdoc: " ^ m);
    1
  | Ok model -> (
    match Xml_base.Parser.parse_file template_file with
    | exception Xml_base.Parser.Parse_error { line; col; message } ->
      Printf.eprintf "awbdoc: template, line %d col %d: %s\n" line col message;
      1
    | exception Sys_error m ->
      prerr_endline ("awbdoc: " ^ m);
      1
    | template ->
      let template = Xml_base.Parser.strip_whitespace template in
      let engine =
        match Docgen.engine_of_string engine with
        | Ok e -> e
        | Error m ->
          prerr_endline ("awbdoc: " ^ m);
          exit 1
      in
      let result = Docgen.generate ~engine model ~template in
      let s =
        if html then Xml_base.Serialize.to_html_string result.Docgen.Spec.document
        else if pretty then Xml_base.Serialize.to_pretty_string result.Docgen.Spec.document
        else Xml_base.Serialize.to_string result.Docgen.Spec.document
      in
      print_endline s;
      if result.Docgen.Spec.problems <> [] then begin
        prerr_endline "problems:";
        List.iter (fun p -> prerr_endline ("  - " ^ p)) result.Docgen.Spec.problems
      end;
      if stats then begin
        let st = result.Docgen.Spec.stats in
        Printf.eprintf
          "stats: phases=%d nodes_copied=%d error_checks=%d exceptions=%d visited=%d queries=%d\n"
          st.Docgen.Spec.phases st.Docgen.Spec.nodes_copied st.Docgen.Spec.error_checks
          st.Docgen.Spec.exceptions_raised st.Docgen.Spec.visited_count
          st.Docgen.Spec.queries_run
      end;
      0)

let template_file =
  Arg.(
    required & opt (some file) None & info [ "t"; "template" ] ~docv:"XML" ~doc:"Template file.")

let sample =
  Arg.(value & opt (some string) None & info [ "sample" ] ~docv:"NAME" ~doc:"banking or glass.")

let model_file =
  Arg.(value & opt (some file) None & info [ "model" ] ~docv:"XML" ~doc:"awb-model export.")

let engine =
  Arg.(
    value & opt string "host"
    & info [ "engine" ] ~docv:"E"
        ~doc:
          "host (the rewrite), functional (the XQuery style), or xq (the actual \
           XQuery core).")

let pretty = Arg.(value & flag & info [ "pretty" ] ~doc:"Indent the output.")
let html = Arg.(value & flag & info [ "html" ] ~doc:"Serialize as HTML (void elements, raw script/style).")
let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print engine statistics to stderr.")

let cmd =
  let doc = "generate documents from AWB models" in
  Cmd.v
    (Cmd.info "awbdoc" ~doc)
    Term.(const run $ template_file $ sample $ model_file $ engine $ pretty $ html $ stats)

let () = exit (Cmd.eval' cmd)
