(** The one interface all three document-generation engines implement.

    The paper gives us three architectures for the same job: the
    functional XQuery-style engine, the host-language rewrite, and the
    genuine XQuery core run by the engine in lib/xquery. Callers should
    not care which one they are driving — they ask for a {!Spec.result}
    and pick the architecture by name. [Docgen.generate] dispatches on
    {!kind}; the service layer and the CLIs go through it exclusively. *)

type kind = [ `Host | `Functional | `Xq ]

let all_kinds : kind list = [ `Host; `Functional; `Xq ]

let kind_name : kind -> string = function
  | `Host -> "host"
  | `Functional -> "functional"
  | `Xq -> "xq"

let kind_of_string : string -> (kind, string) result = function
  | "host" -> Ok `Host
  | "functional" -> Ok `Functional
  | "xq" -> Ok `Xq
  | other ->
    Error (Printf.sprintf "unknown engine %S (host|functional|xq)" other)

(** What every engine must provide: a name for diagnostics and the
    uniform generation entry point. [backend] selects the calculus query
    backend where the engine has one; the [`Xq] engine embeds its own
    queries and ignores it. Everything else about the run — execution
    mode, resource budgets, degradation level, a worker pool for
    data-parallel plan fragments — arrives in the one
    {!Xquery.Engine.Exec_opts.t} record shared with the XQuery engine
    itself. A budget trip ends generation with a [<generation-failed>]
    document carrying the trip's [resource:*] code, plus a [problems]
    entry — it never escapes as an exception. [Exec_opts.Skeleton] skips
    the optional enrichment phases (TOC/omissions regeneration, marker
    patching) so a brownout can trade completeness for latency; engines
    without those phases accept and ignore it. [Seed] pins the
    reference algorithms and [Fast] the fast ones; calculus queries that
    go through the XQuery engine run in the same mode ([Fast]: the plan
    executor). *)
module type S = sig
  val name : string

  val generate :
    ?backend:Spec.query_backend ->
    opts:Xquery.Engine.Exec_opts.t ->
    Awb.Model.t ->
    template:Xml_base.Node.t ->
    Spec.result
end

(* Translation helpers for engines that still speak the older
   limits/fast_eval/level vocabulary internally. *)

let fast_eval_of_opts (opts : Xquery.Engine.Exec_opts.t) =
  match opts.Xquery.Engine.Exec_opts.mode with
  | Xquery.Engine.Exec_opts.Seed -> false
  | Xquery.Engine.Exec_opts.Fast -> true

let spec_level_of_opts (opts : Xquery.Engine.Exec_opts.t) =
  match opts.Xquery.Engine.Exec_opts.level with
  | Xquery.Engine.Exec_opts.Full -> Spec.Full
  | Xquery.Engine.Exec_opts.Skeleton -> Spec.Skeleton

let opts_of_legacy ?limits ?fast_eval ?level () =
  let mode =
    match fast_eval with
    | Some false -> Xquery.Engine.Exec_opts.Seed
    | Some true | None -> Xquery.Engine.Exec_opts.Fast
  in
  let level =
    match level with
    | Some Spec.Skeleton -> Xquery.Engine.Exec_opts.Skeleton
    | Some Spec.Full | None -> Xquery.Engine.Exec_opts.Full
  in
  Xquery.Engine.Exec_opts.make ~mode ?limits ~level ()
