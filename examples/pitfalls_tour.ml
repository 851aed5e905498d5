(* A guided tour of the paper's XQuery pitfalls, each demonstrated live on
   the engine.

   Run with: dune exec examples/pitfalls_tour.exe *)

module V = Lopsided.Xq.Value
module E = Lopsided.Xq.Engine
module Err = Lopsided.Xq.Errors

let run ?compat ?vars q =
  match E.eval_query ?compat ?vars q with
  | r -> V.to_display_string r
  | exception Err.Error { code; message } -> Printf.sprintf "%s: %s" code message

let demo title query ?compat ?vars note =
  Printf.printf "  %s\n    %-58s => %s\n" title query (run ?compat ?vars query);
  (match note with "" -> () | n -> Printf.printf "    (%s)\n" n);
  print_newline ()

let () =
  print_endline "================================================================";
  print_endline " Lopsided Little Languages: the pitfalls, live";
  print_endline "================================================================\n";

  print_endline "-- 1. Syntactic quirks --------------------------------------";
  demo "$n-1 is a variable named n-1, not subtraction"
    "let $n-1 := 99 return $n-1" "";
  demo "subtraction needs breathing room" "let $n := 5 return $n - 1" "";
  demo "/ is a path step, not division" "7 div 2" "division is spelled div";
  demo "x is a child step, never a variable" "x"
    "the error is about the context item";
  Printf.printf "  the same mistake under Galax compat:\n    %-58s => %s\n\n" "x"
    (run ~compat:Lopsided.Xq.Context.galax_compat "x");

  print_endline "-- 2. = means nonempty intersection --------------------------";
  demo "1 = (1,2,3)" "1 = (1,2,3)" "";
  demo "(1,2,3) = 3" "(1,2,3) = 3" "";
  demo "but of course" "1 = 3" "";
  demo "!= is existential too, so these are both true"
    "((1,2) = (1,2), (1,2) != (1,2))" "use eq/ne for singletons";

  print_endline "-- 3. Sequences flatten --------------------------------------";
  demo "all structure washes out" "(1,(2,3,4),(),(5,((6,7))))" "";
  demo "a 'list' of two 'points' has four elements"
    "count(((1,2),(3,4)))" "generic containers are impossible";
  demo "indexing a container does not return what you stored"
    "let $X := (\"1a\",\"1b\") let $Y := 2 return string(($X, $Y)[2])"
    "that is part of X, not Y";

  print_endline "-- 4. Attribute nodes fold into parents ----------------------";
  demo "the paper's example" "let $x := attribute troubles {1} return <el> {$x} </el>" "";
  demo "after content, an error"
    "let $x := attribute troubles {1} return <el> doom {$x} </el>" "";

  print_endline "-- 5. Error handling: the only channel is the return value ---";
  demo "error() kills the program" "(1, error(\"local:oops\", \"it broke\"), 3)" "";
  print_endline "  so every call needs:  if is-error($r) then propagate else continue";
  print_endline "  (run `dune exec examples/system_context.exe` to watch both styles)\n";

  print_endline "-- 6. Debugging: trace() vs the optimizer --------------------";
  let show_trace compat label =
    let traced = ref 0 in
    let result =
      E.run
        ~opts:(E.Exec_opts.make ~trace_out:(fun _ -> incr traced) ())
        (E.compile ~compat "let $x := 1 let $dummy := trace($x, 'x=') return $x + 1")
    in
    Printf.printf "  %-28s result=%s, trace lines printed=%d\n" label
      (V.to_display_string result) !traced
  in
  show_trace Lopsided.Xq.Context.default_compat "fixed optimizer:";
  show_trace Lopsided.Xq.Context.galax_compat "2004-era optimizer:";
  print_endline "  the dead let carrying the trace was 'helpfully' optimized away;";
  print_endline "  the workaround is to insinuate the trace into non-dead code:";
  show_trace Lopsided.Xq.Context.galax_compat "  insinuated (see below):";
  let traced = ref 0 in
  ignore
    (E.run
       ~opts:(E.Exec_opts.make ~trace_out:(fun _ -> incr traced) ())
       (E.compile ~compat:Lopsided.Xq.Context.galax_compat
          "let $x := trace(1, 'x=') return $x + 1"));
  Printf.printf "  %-28s trace lines printed=%d\n\n" "let $x := trace(1, 'x=')" !traced;

  print_endline "-- 7. What XQuery is actually great at -----------------------";
  demo "dissect, sift, reassemble — in one line"
    "<r>{for $i in 1 to 3 return <i v=\"{$i * $i}\"/>}</r>"
    "simple dissections and constructions are several times harder in Java";
  demo "quantifiers over trees"
    "some $y in <k><foo/><foo/><bar/></k> satisfies count($y//foo) gt count($y//bar)"
    "the paper's kids/foo/bar example, inlined"
