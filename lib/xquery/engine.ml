module Exec_opts = struct
  type mode = Seed | Fast
  type level = Full | Skeleton

  type t = {
    mode : mode;
    limits : Context.limits option;
    level : level;
    explain : bool;
    context_item : Value.item option;
    vars : (string * Value.sequence) list;
    trace_out : (string -> unit) option;
    doc_resolver : (string -> Xml_base.Node.t option) option;
    pool : ((unit -> unit) array -> unit) option;
  }

  let default =
    {
      mode = Fast;
      limits = None;
      level = Full;
      explain = false;
      context_item = None;
      vars = [];
      trace_out = None;
      doc_resolver = None;
      pool = None;
    }

  let make ?(mode = Fast) ?limits ?(level = Full) ?(explain = false) ?context_item
      ?(vars = []) ?trace_out ?doc_resolver ?pool () =
    { mode; limits; level; explain; context_item; vars; trace_out; doc_resolver; pool }

  let mode_name = function Seed -> "seed" | Fast -> "fast"

  let mode_of_string = function
    | "seed" -> Ok Seed
    | "fast" -> Ok Fast
    | s -> Error (Printf.sprintf "unknown mode %S (expected seed|fast)" s)
end

type compiled = {
  program : Ast.program;
  compat : Context.compat;
  typed_mode : bool;
  opt_stats : Optimizer.stats option;
  mutable plan : Plan.program option;
      (* memoized lowering; depends only on [program], so racing
         domain-local compilations at worst duplicate work *)
}

let make_compiled ?opt_stats ~compat ~typed_mode program =
  { program; compat; typed_mode; opt_stats; plan = None }

let compile ?(compat = Context.default_compat) ?(typed_mode = false) ?(optimize = true)
    ?static_check src =
  let program = Parser.parse_program src in
  (match static_check with
  | Some external_vars -> Static_check.check_program ~external_vars program
  | None -> ());
  if optimize then
    let program, stats =
      Optimizer.optimize_program ~treat_trace_as_pure:compat.Context.treat_trace_as_pure
        program
    in
    make_compiled ~opt_stats:stats ~compat ~typed_mode program
  else make_compiled ~compat ~typed_mode program

let plan_cached compiled = compiled.plan <> None

let plan_of compiled =
  match compiled.plan with
  | Some p -> p
  | None ->
    let p = Compile.compile_program compiled.program in
    compiled.plan <- Some p;
    p

let explain compiled ~(mode : Exec_opts.mode) =
  let b = Buffer.create 1024 in
  (match compiled.opt_stats with
  | Some s ->
    Buffer.add_string b
      (Printf.sprintf
         "(: optimizer: %d lets eliminated, %d traces eliminated, %d constants folded, \
          %d count rewrites, %d paths hoisted :)\n"
         s.Optimizer.lets_eliminated s.Optimizer.traces_eliminated
         s.Optimizer.constants_folded s.Optimizer.count_cmp_rewrites
         s.Optimizer.paths_hoisted)
  | None -> Buffer.add_string b "(: optimizer: off :)\n");
  Buffer.add_string b (Unparse.program compiled.program);
  Buffer.add_char b '\n';
  if mode = Exec_opts.Fast then Buffer.add_string b (Plan.render_program (plan_of compiled));
  Buffer.contents b

(* The unified entry point: one options record, two execution modes. *)
let run ?(opts = Exec_opts.default) compiled =
  let env =
    Context.make_env ~compat:compiled.compat ~typed_mode:compiled.typed_mode
      ?limits:opts.Exec_opts.limits ()
  in
  (match opts.Exec_opts.trace_out with Some f -> env.Context.trace_out <- f | None -> ());
  (match opts.Exec_opts.doc_resolver with
  | Some f -> env.Context.doc_resolver <- f
  | None -> ());
  (* The runtime's own exhaustion signals join the resource taxonomy here:
     an unbounded recursion that beats the fuel counter to the stack limit
     still surfaces as a structured budget trip, not a stringly
     Printexc.to_string. *)
  try
    match opts.Exec_opts.mode with
    | Exec_opts.Fast ->
      Plan_exec.run env ?context_item:opts.Exec_opts.context_item
        ~vars:opts.Exec_opts.vars ?pool:opts.Exec_opts.pool (plan_of compiled)
    | Exec_opts.Seed ->
      Functions.register_all env;
      Eval.run_program env ?context_item:opts.Exec_opts.context_item
        ~vars:opts.Exec_opts.vars compiled.program
  with
  | Stack_overflow -> Errors.exhaust Errors.Stack ~limit:0 ~used:0
  | Out_of_memory -> Errors.exhaust Errors.Memory ~limit:0 ~used:0

(* Deprecated shim: one-shot compile + run with labelled arguments. New
   code should build an [Exec_opts.t] and call [run]. *)
let eval_query ?compat ?typed_mode ?optimize ?static_check ?context_item ?vars ?trace_out
    ?doc_resolver ?mode ?limits src =
  run
    ~opts:(Exec_opts.make ?mode ?limits ?context_item ?vars ?trace_out ?doc_resolver ())
    (compile ?compat ?typed_mode ?optimize ?static_check src)
