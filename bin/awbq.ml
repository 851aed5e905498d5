(* awbq — run AWB query-calculus queries against a model.

   Examples:
     dune exec bin/awbq.exe -- -q 'start type(User); sort-by label' --sample banking
     dune exec bin/awbq.exe -- -q '...' --model model.xml --backend xquery
     dune exec bin/awbq.exe -- -q '...' --sample banking --compile   # show the XQuery *)

open Cmdliner

let load_model sample model_file synth_size =
  match (sample, model_file, synth_size) with
  | Some "banking", None, None -> Ok (Awb.Samples.banking_model ())
  | Some "glass", None, None -> Ok (Awb.Samples.glass_model ())
  | Some other, None, None -> Error (Printf.sprintf "unknown sample %S (banking|glass)" other)
  | None, Some path, None -> (
    try
      Ok
        (Awb.Xml_io.import_string Awb.Samples.it_architecture
           (In_channel.with_open_bin path In_channel.input_all))
    with Failure m | Sys_error m -> Error m)
  | None, None, Some n -> Ok (Awb.Synth.generate_of_size n)
  | None, None, None -> Ok (Awb.Samples.banking_model ())
  | _ -> Error "choose one of --sample, --model, --synth"

let run query sample model_file synth_size backend compile_only =
  match load_model sample model_file synth_size with
  | Error m ->
    prerr_endline ("awbq: " ^ m);
    1
  | Ok model -> (
    match Awb_query.Parser.parse query with
    | exception Awb_query.Parser.Parse_error m ->
      prerr_endline ("awbq: " ^ m);
      1
    | parsed ->
      if compile_only then begin
        print_endline (Awb_query.To_xquery.compile (Awb.Model.metamodel model) parsed);
        0
      end
      else begin
        let results =
          match backend with
          | "native" -> Awb_query.Native.eval model parsed
          | "xquery" -> Awb_query.To_xquery.eval model parsed
          | other ->
            prerr_endline (Printf.sprintf "awbq: unknown backend %S" other);
            exit 1
        in
        Printf.printf "%d result(s)\n" (List.length results);
        List.iter
          (fun (n : Awb.Model.node) ->
            Printf.printf "  %-8s %-24s %s\n" n.Awb.Model.id n.Awb.Model.ntype
              (Awb.Model.label model n))
          results;
        0
      end)

let query =
  Arg.(
    required & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"Calculus text.")

let sample =
  Arg.(value & opt (some string) None & info [ "sample" ] ~docv:"NAME" ~doc:"banking or glass.")

let model_file =
  Arg.(value & opt (some file) None & info [ "model" ] ~docv:"XML" ~doc:"awb-model export.")

let synth_size =
  Arg.(value & opt (some int) None & info [ "synth" ] ~docv:"N" ~doc:"Synthetic model of ~N nodes.")

let backend =
  Arg.(value & opt string "native" & info [ "backend" ] ~docv:"B" ~doc:"native or xquery.")

let compile_only =
  Arg.(value & flag & info [ "compile" ] ~doc:"Print the compiled XQuery and exit.")

let cmd =
  let doc = "run AWB query-calculus queries" in
  Cmd.v
    (Cmd.info "awbq" ~doc)
    Term.(const run $ query $ sample $ model_file $ synth_size $ backend $ compile_only)

let () = exit (Cmd.eval' cmd)
