(* xqsh — an interactive XQuery shell.

   The paper's author "rarely wrote more than half a dozen lines of XQuery
   between test runs"; this is the loop that workflow wanted (and Galax of
   2004 didn't have). One query per line; : commands control the session.

     $ dune exec bin/xqsh.exe
     xq> :load library.xml
     xq> count(//book)
     4
     xq> :let cheap //book[number(price) < 20]
     xq> :set mode seed
     xq> :explain let $d := trace(1, 'x') return 2

   Queries run through the Service layer, not the bare engine: repeated
   queries hit the compiled-query (and plan) cache, budgets from the
   service config apply, and :counters shows what the session cost.

   Also runs non-interactively: pipe a script into stdin. *)

type session = {
  service : Service.t;
  mutable context : Xquery.Value.item option;
  mutable vars : (string * Xquery.Value.sequence) list;
  mutable galax : bool;
  mutable typed : bool;
  mutable optimize : bool;
  mutable mode : Xquery.Engine.Exec_opts.mode;
}

let compat s = if s.galax then Xquery.Context.galax_compat else Xquery.Context.default_compat

let run_query s q =
  Service.run_query s.service ~compat:(compat s) ~typed_mode:s.typed
    ~optimize:s.optimize ?context_item:s.context ~vars:s.vars ~mode:s.mode q

let print_result result =
  match result with
  | [] -> print_endline "()"
  | items -> List.iter (fun i -> print_endline (Xquery.Value.item_to_string i)) items

let on_off = function true -> "on" | false -> "off"

let help () =
  print_string
    {|commands:
  :load FILE        parse FILE and bind it as the context item (and $doc)
  :let NAME QUERY   bind $NAME to the query's result
  :vars             list bound variables
  :set galax|typed|optimize on|off
  :set mode seed|fast
  :explain QUERY    show what would run: the optimized program, then
                    the physical plan unless the mode is seed
  :counters         service counters for this session (caches, plans)
  :help             this text
  :quit             leave
anything else is evaluated as a query (through the service layer).
|}

let handle_command s line =
  let words = String.split_on_char ' ' line |> List.filter (fun w -> w <> "") in
  match words with
  | [ ":quit" ] | [ ":q" ] -> false
  | [ ":help" ] ->
    help ();
    true
  | [ ":load"; path ] ->
    (try
       let doc = Xml_base.Parser.parse_file path in
       s.context <- Some (Xquery.Value.Node doc);
       s.vars <- ("doc", Xquery.Value.of_node doc) :: List.remove_assoc "doc" s.vars;
       Printf.printf "loaded %s as the context item (and $doc)\n" path
     with
    | Sys_error m -> prerr_endline m
    | Xml_base.Parser.Parse_error { line; col; message } ->
      Printf.eprintf "parse error at %d:%d: %s\n" line col message);
    true
  | ":let" :: name :: rest when rest <> [] ->
    let q = String.concat " " rest in
    (match run_query s q with
    | Ok v ->
      s.vars <- (name, v) :: List.remove_assoc name s.vars;
      Printf.printf "$%s bound to %d item(s)\n" name (List.length v)
    | Error e -> prerr_endline (Service.error_to_string e));
    true
  | [ ":vars" ] ->
    if s.vars = [] then print_endline "(no variables)"
    else
      List.iter
        (fun (n, v) -> Printf.printf "$%-12s %d item(s)\n" n (List.length v))
        s.vars;
    true
  | [ ":set"; "galax"; v ] ->
    s.galax <- v = "on";
    Printf.printf "galax compat %s\n" (on_off s.galax);
    true
  | [ ":set"; "typed"; v ] ->
    s.typed <- v = "on";
    Printf.printf "typed mode %s\n" (on_off s.typed);
    true
  | [ ":set"; "optimize"; v ] ->
    s.optimize <- v = "on";
    Printf.printf "optimizer %s\n" (on_off s.optimize);
    true
  | [ ":set"; "mode"; v ] ->
    (match Xquery.Engine.Exec_opts.mode_of_string v with
    | Ok m ->
      s.mode <- m;
      Printf.printf "mode %s\n" (Xquery.Engine.Exec_opts.mode_name m)
    | Error m -> prerr_endline m);
    true
  | [ ":counters" ] ->
    Format.printf "%a@." Service.pp_counters (Service.counters s.service);
    true
  | ":explain" :: rest when rest <> [] ->
    let q = String.concat " " rest in
    (try
       let compiled = Xquery.Engine.compile ~compat:(compat s) ~optimize:s.optimize q in
       print_string (Xquery.Engine.explain compiled ~mode:s.mode)
     with Xquery.Errors.Error { code; message } -> Printf.eprintf "%s: %s\n" code message);
    true
  | w :: _ when String.length w > 0 && w.[0] = ':' ->
    Printf.eprintf "unknown command %s (:help for help)\n" w;
    true
  | _ ->
    (match run_query s line with
    | Ok v -> print_result v
    | Error e -> prerr_endline (Service.error_to_string e));
    true

let () =
  let interactive = Unix.isatty Unix.stdin in
  if interactive then begin
    print_endline "Lopsided XQuery shell (:help for commands, :quit to leave)";
    print_string "xq> "
  end;
  let s =
    {
      service = Service.create ();
      context = None;
      vars = [];
      galax = false;
      typed = false;
      optimize = true;
      mode = Xquery.Engine.Exec_opts.Fast;
    }
  in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
      let line = String.trim line in
      let continue = if line = "" then true else handle_command s line in
      if continue then begin
        if interactive then print_string "xq> ";
        loop ()
      end
  in
  loop ()
