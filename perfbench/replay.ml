(* The traced run's layer replay: a workload's seeded requests driven
   in-process through each layer's public functions, one span per call.
   Each request is replayed twice over: once through the real service
   entry point ([service.run]), and once through the layer calls that
   entry point makes, one by one, under [service.layers]. Comparing the
   two says how much of the service's time the layer spans account for
   ([trace.coverage]). *)

open Spans

let fast = Xquery.Engine.Exec_opts.Fast

(* What a replay pass hands back besides its spans. *)
type pass = {
  requests : int;
  parse_bytes : int;  (** bytes fed to the XML parser under spans *)
  mismatches : int;  (** replayed results that differ from the references *)
}

(* Push [bytes] from a writer thread into one end of a socketpair while
   [read] consumes the other end: the wire layers see a real socket. *)
let over_socketpair bytes ~write read =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let w = Thread.create (fun () -> try write a bytes with _ -> ()) () in
      let v = read b in
      Thread.join w;
      v)

let http_read ~meth ~path ~body =
  let bytes = Client.request_bytes ~meth ~path ~body in
  span "http.read" (fun () ->
      over_socketpair bytes ~write:Client.send_all (fun fd ->
          match Server.Http.read_request fd with
          | Some (req, _) -> req
          | None -> failwith "http.read: no request"))

let frame_hop payload =
  span "wire.frame" (fun () ->
      ignore (over_socketpair payload ~write:Frame.send_frame Frame.recv_frame))

let parsed = ref 0

let parse xml =
  parsed := !parsed + String.length xml;
  span "xml_base.parse" (fun () -> Xml_base.Parser.parse_string xml)

let serialize doc = span "xml_base.serialize" (fun () -> Xml_base.Serialize.to_string doc)

let docgen_span = function
  | `Host -> "docgen.host"
  | `Functional -> "docgen.functional"
  | `Xq -> "docgen.xq"

let document_of = function
  | { Service.result = Ok out; _ } -> out.Service.document
  | { Service.result = Error e; _ } -> "error: " ^ Service.error_to_string e

(* Run [n] requests: [one i] replays request [i] and answers whether its
   result matched the reference. *)
let passes n one =
  parsed := 0;
  let bad = ref 0 in
  for i = 0 to n - 1 do
    Spans.req := i + 1;
    if not (span "request" (fun () -> one i)) then incr bad
  done;
  { requests = n; parse_bytes = !parsed; mismatches = !bad }

(* gen_cold: the composite body is read off a socket, framed to the
   shard, and served cold; the layer calls are the model's parse and
   import, the host generation and the serialization. The template is
   a cache hit in the service, so it is parsed once, outside the loop. *)
let cold (c : Inputs.cold) =
  let svc =
    Service.create
      ~config:{ Service.default_config with Service.cache_capacity = Inputs.cold_cache }
      ()
  in
  let tpl = Inputs.parse_template Inputs.cold_template in
  let nbodies = Array.length c.Inputs.bodies in
  fun n ->
    passes n (fun i ->
        let k = i mod nbodies in
        let req = http_read ~meth:"POST" ~path:"/generate" ~body:c.Inputs.bodies.(k) in
        let body = req.Server.Http.body in
        frame_hop body;
        let template_xml, model_xml = Server.Composite.split body in
        let model_xml = Option.value model_xml ~default:"" in
        let model = Service.Model_xml { metamodel = Awb.Samples.it_architecture; xml = model_xml } in
        let served =
          span "service.run" (fun () ->
              Service.run svc
                (Service.request ~id:(string_of_int i)
                   ~template:(Service.Template_xml template_xml) ~model ()))
        in
        let layered =
          span "service.layers" (fun () ->
              let doc = parse model_xml in
              let model =
                span "awb.import" (fun () -> Awb.Xml_io.import Awb.Samples.it_architecture doc)
              in
              let gen =
                span "docgen.host" (fun () ->
                    Docgen.run ~engine:`Host ~opts:(Inputs.opts fast) model ~template:tpl)
              in
              serialize gen.Docgen.Spec.document)
        in
        let expected = c.Inputs.expected.(k) in
        document_of served = expected && layered = expected)

(* gen_warm: template-only bodies against the configured 300-node model;
   every artifact is cached, so the layer calls are generation and
   serialization on the already-imported model and parsed templates. *)
let warm (w : Inputs.warm) =
  let svc = Service.create () in
  let model_src =
    Service.Model_xml { metamodel = Awb.Samples.it_architecture; xml = w.Inputs.model_xml }
  in
  let model = Inputs.import w.Inputs.model_xml in
  let report = Inputs.parse_template Inputs.report_template in
  let xq_report = Inputs.parse_template Inputs.xq_report_template in
  let xq_core = Docgen.Xq_engine.compile () in
  let request i engine =
    let path, tpl = Inputs.warm_request engine in
    let req =
      Service.request ~engine ~id:(string_of_int i) ~template:(Service.Template_xml tpl)
        ~model:model_src ()
    in
    (path, tpl, req)
  in
  (* Fill the service's caches the way the live warm-up does. *)
  Array.iteri
    (fun i e ->
      let _, _, r = request i e in
      ignore (Service.run svc r))
    Inputs.warm_mix;
  fun n ->
    passes n (fun i ->
        let engine = Inputs.warm_mix.(i mod Array.length Inputs.warm_mix) in
        let path, body, sreq = request i engine in
        ignore (http_read ~meth:"POST" ~path ~body);
        let served = span "service.run" (fun () -> Service.run svc sreq) in
        let layered =
          span "service.layers" (fun () ->
              let gen =
                span (docgen_span engine) (fun () ->
                    match engine with
                    | `Xq ->
                      Docgen.Xq_engine.generate_spec ~compiled:xq_core ~opts:(Inputs.opts fast)
                        model ~template:xq_report
                    | e -> Docgen.run ~engine:e ~opts:(Inputs.opts fast) model ~template:report)
              in
              serialize gen.Docgen.Spec.document)
        in
        let expected =
          match engine with
          | `Host -> w.Inputs.host_out
          | `Functional -> w.Inputs.functional_out
          | `Xq -> w.Inputs.xq_out
        in
        document_of served = expected && layered = expected)

(* store_rw: every PUT and GET goes to a local log ([Store]) and to a
   3-node replicated store ([Store.Replica]); queries run through the
   service with doc() resolved against the replicas, and through the
   XQuery engine's compile and run directly. *)
type store_env = { local : Store.t; repl : Store.Replica.t }

(* The replay's operations, drawn once from the seeded stream so every
   pass repeats the same work. *)
let store_plan ~seed (s : Inputs.store) n =
  let last = Array.copy s.Inputs.initial in
  let next = Inputs.store_ops ~seed ~conn:0 ~conns:1 in
  List.init n (fun _ ->
      let op = next last in
      (match op with Inputs.Put (id, k) -> last.(id) <- k | _ -> ());
      op)

(* Both stores start with the preloaded version of every id the plan
   reads before it writes it. *)
let store_open ~dir (s : Inputs.store) plan =
  let local = Store.open_store (Filename.concat dir "local") in
  let repl =
    Store.Replica.create
      ~config:
        {
          Store.Replica.default_config with
          Store.Replica.replicas = 3;
          write_quorum = 2;
          socket_dir = Some (Filename.concat dir "sock");
        }
      ~dir:(Filename.concat dir "repl") ()
  in
  let collection = Inputs.store_collection in
  let written = Hashtbl.create 64 in
  List.iter
    (function
      | Inputs.Put (id, _) -> Hashtbl.replace written id ()
      | Inputs.Get id | Inputs.Query (id, _) ->
        if not (Hashtbl.mem written id) then begin
          Hashtbl.replace written id ();
          let doc = Inputs.doc_id id and body = s.Inputs.pool.(s.Inputs.initial.(id)) in
          ignore (Store.put local ~collection ~doc body);
          ignore (Store.Replica.put repl ~collection ~doc body)
        end)
    plan;
  { local; repl }

let store_close e =
  Store.Replica.shutdown e.repl;
  Store.close e.local

let store (s : Inputs.store) plan e =
  let svc = Service.create () in
  let collection = Inputs.store_collection in
  let last = Array.copy s.Inputs.initial in
  let plan = Array.of_list plan in
  let pool = s.Inputs.pool in
  fun n ->
    passes n (fun i ->
        match plan.(i) with
        | Inputs.Put (id, k) ->
          let req = http_read ~meth:"PUT" ~path:(Inputs.doc_path id) ~body:pool.(k) in
          let body = req.Server.Http.body in
          ignore (parse body);
          let doc = Inputs.doc_id id in
          let a = span "store.put" (fun () -> Store.put e.local ~collection ~doc body) in
          let b = span "replica.put" (fun () -> Store.Replica.put e.repl ~collection ~doc body) in
          last.(id) <- k;
          Result.is_ok a && Result.is_ok b
        | Inputs.Get id ->
          ignore (http_read ~meth:"GET" ~path:(Inputs.doc_path id) ~body:"");
          let doc = Inputs.doc_id id in
          let a = span "store.get" (fun () -> Store.get e.local ~collection ~doc) in
          let b = span "replica.get" (fun () -> Store.Replica.get e.repl ~collection ~doc) in
          let ok = function Ok (snap, _) -> snap = pool.(last.(id)) | Error _ -> false in
          ok a && ok b
        | Inputs.Query (id, shape) ->
          let q = Inputs.query_text shape id in
          ignore (http_read ~meth:"POST" ~path:Inputs.query_path ~body:q);
          let resolve uri =
            match Store.Replica.get e.repl ~collection ~doc:uri with
            | Ok (snap, _) -> ( try Some (Xml_base.Parser.parse_string snap) with _ -> None)
            | Error _ -> None
          in
          let served =
            span "service.run" (fun () -> Service.run_query svc ~doc_resolver:resolve q)
          in
          let layered =
            span "service.layers" (fun () ->
                let snap =
                  match
                    span "replica.get" (fun () ->
                        Store.Replica.get e.repl ~collection ~doc:(Inputs.doc_id id))
                  with
                  | Ok (snap, _) -> snap
                  | Error _ -> ""
                in
                let doc = parse snap in
                let compiled = span "xquery.compile" (fun () -> Xquery.Engine.compile q) in
                let items =
                  span "xquery.run" (fun () ->
                      Xquery.Engine.run
                        ~opts:
                          (Xquery.Engine.Exec_opts.make ~mode:fast
                             ~doc_resolver:(fun uri ->
                               if uri = Inputs.doc_id id then Some doc else None)
                             ())
                        compiled)
                in
                span "xml_base.serialize" (fun () -> Inputs.render items))
          in
          let expected = s.Inputs.query_ref.(shape).(last.(id)) in
          (match served with Ok items -> Inputs.render items = expected | Error _ -> false)
          && layered = expected)
