(* xq — run an XQuery query from the command line.

   Examples:
     dune exec bin/xq.exe -- -e 'for $i in 1 to 5 return $i * $i'
     dune exec bin/xq.exe -- -e 'count(//book)' --input library.xml
     dune exec bin/xq.exe -- --file query.xq --input doc.xml --galax
     dune exec bin/xq.exe -- -e '//section/title' -i doc.xml --explain *)

open Cmdliner

let run_query expr file input galax typed no_optimize mode explain time fuel
    max_depth max_nodes deadline =
  let source =
    match (expr, file) with
    | Some e, None -> Ok e
    | None, Some path -> (
      try
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Ok s
      with Sys_error m -> Error m)
    | _ -> Error "provide exactly one of -e EXPR or --file QUERY.xq"
  in
  let mode = Xquery.Engine.Exec_opts.mode_of_string mode in
  match (source, mode) with
  | Error m, _ | _, Error m ->
    prerr_endline ("xq: " ^ m);
    1
  | Ok source, Ok mode -> (
    let compat =
      if galax then Xquery.Context.galax_compat else Xquery.Context.default_compat
    in
    let context_item =
      match input with
      | None -> None
      | Some path -> Some (Xquery.Value.Node (Xml_base.Parser.parse_file path))
    in
    if explain then begin
      match Xquery.Engine.compile ~compat ~optimize:(not no_optimize) source with
      | compiled ->
        print_string (Xquery.Engine.explain compiled ~mode);
        0
      | exception Xquery.Errors.Error { code; message } ->
        Printf.eprintf "xq: %s: %s\n" code message;
        2
    end
    else
    (* Phase timings for --time: parse and optimize measured separately
       (Engine.compile fuses them), then plan compilation — forced
       explicitly so a plan-cache hit shows up as ~0 compile time — and
       finally execution on its own. *)
    (* Monotonic clock: phase timings must not jump with wall-clock
       adjustments. *)
    let timed cell f =
      let t0 = Clock.now () in
      let v = f () in
      cell := Clock.now () -. t0;
      v
    in
    let parse_s = ref 0. and opt_s = ref 0. and compile_s = ref 0. and eval_s = ref 0. in
    let limits =
      match (fuel, max_depth, max_nodes, deadline) with
      | None, None, None, None -> None
      | _ ->
        Some
          (Xquery.Context.make_limits ?fuel ?max_depth ?max_nodes
             ?deadline_ns:
               (Option.map (fun s -> Clock.now_ns () + Clock.ns_of_s s) deadline)
             ())
    in
    match
      let program = timed parse_s (fun () -> Xquery.Parser.parse_program source) in
      let program, opt_stats =
        if no_optimize then (program, None)
        else
          timed opt_s (fun () ->
              let p, st =
                Xquery.Optimizer.optimize_program
                  ~treat_trace_as_pure:compat.Xquery.Context.treat_trace_as_pure program
              in
              (p, Some st))
      in
      let compiled =
        Xquery.Engine.make_compiled ?opt_stats ~compat ~typed_mode:typed program
      in
      (if mode = Xquery.Engine.Exec_opts.Fast then
         timed compile_s (fun () -> ignore (Xquery.Engine.plan_of compiled)));
      let opts = Xquery.Engine.Exec_opts.make ~mode ?limits ?context_item () in
      timed eval_s (fun () -> Xquery.Engine.run ~opts compiled)
    with
    | result ->
      List.iter
        (fun item -> print_endline (Xquery.Value.item_to_string item))
        result;
      if time then
        Printf.eprintf
          "xq: parse %.3f ms, optimize %.3f ms, compile %.3f ms, execute %.3f ms (%s)\n"
          (!parse_s *. 1000.) (!opt_s *. 1000.) (!compile_s *. 1000.) (!eval_s *. 1000.)
          (Xquery.Engine.Exec_opts.mode_name mode);
      0
    | exception Xquery.Errors.Error { code; message } ->
      Printf.eprintf "xq: %s: %s\n" code message;
      2
    | exception Xquery.Errors.Resource_exhausted { resource; limit; used } ->
      Printf.eprintf "xq: %s: %s\n"
        (Xquery.Errors.resource_code resource)
        (Xquery.Errors.resource_message resource ~limit ~used);
      3
    | exception Xml_base.Parser.Parse_error { line; col; message } ->
      Printf.eprintf "xq: input XML, line %d col %d: %s\n" line col message;
      2)

let expr =
  Arg.(value & opt (some string) None & info [ "e"; "expr" ] ~docv:"EXPR" ~doc:"Query text.")

let file =
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Query file.")

let input =
  Arg.(
    value
    & opt (some file) None
    & info [ "i"; "input" ] ~docv:"XML" ~doc:"XML document bound as the context item.")

let galax =
  Arg.(
    value & flag
    & info [ "galax" ]
        ~doc:
          "2004-era compatibility: Galax error messages, duplicate attributes kept, \
           trace() treated as dead code by the optimizer.")

let typed = Arg.(value & flag & info [ "typed" ] ~doc:"Enforce sequence-type annotations.")

let no_optimize =
  Arg.(value & flag & info [ "no-optimize" ] ~doc:"Skip the optimizer entirely.")

let mode =
  Arg.(
    value & opt string "fast"
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Execution mode: $(b,seed) (the reference tree-walker) or $(b,fast) (compile \
           to the physical plan and run the plan executor).")

let explain =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print what would run instead of running it: the optimized program, then \
           (unless $(b,--mode seed)) the physical plan it lowers to.")

let time =
  Arg.(
    value & flag
    & info [ "time" ]
        ~doc:
          "Print parse/optimize/compile/execute phase timings to stderr after the \
           result (compile is plan lowering; ~0 on a plan-cache hit).")

let fuel =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"STEPS"
        ~doc:"Abort evaluation after $(docv) evaluation steps (resource:fuel).")

let max_depth =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-depth" ] ~docv:"N"
        ~doc:"Abort when user-function recursion exceeds $(docv) frames (resource:depth).")

let max_nodes =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-nodes" ] ~docv:"N"
        ~doc:"Abort after constructing $(docv) XML nodes (resource:nodes).")

let deadline =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Abort evaluation $(docv) seconds after start, measured on the monotonic \
           clock (resource:deadline).")

let cmd =
  let doc = "run XQuery queries with the Lopsided engine" in
  Cmd.v
    (Cmd.info "xq" ~doc)
    Term.(
      const run_query $ expr $ file $ input $ galax $ typed $ no_optimize $ mode
      $ explain $ time $ fuel $ max_depth $ max_nodes $ deadline)

let () = exit (Cmd.eval' cmd)
