(* In-memory spans around calls into each layer's public functions: name,
   start/end on the monotonic clock, parent span, request id, and the
   minor-heap words allocated while the span was open. Spans are kept in
   memory and written out once, when the run ends. With tracing off,
   [span] is a plain call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  req : int;
  t0 : int;
  mutable t1 : int;
  w0 : float;
  mutable words : float;
}

let on = ref false
let all : t list ref = ref []
let next_id = ref 1
let stack : t list ref = ref []
let req = ref 0

let reset () =
  all := [];
  next_id := 1;
  stack := []

let span name f =
  if not !on then f ()
  else begin
    let s =
      {
        id = !next_id;
        name;
        parent = (match !stack with p :: _ -> p.id | [] -> 0);
        req = !req;
        t0 = Clock.now_ns ();
        t1 = 0;
        w0 = Gc.minor_words ();
        words = 0.;
      }
    in
    incr next_id;
    stack := s :: !stack;
    let finish () =
      s.t1 <- Clock.now_ns ();
      s.words <- Gc.minor_words () -. s.w0;
      stack := List.tl !stack;
      all := s :: !all
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Self time: the span's duration minus the part its children cover.
   Children run sequentially inside their parent, so that part is the
   sum of their durations. *)
let self_ns spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.t1 - s.t0) + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, s.t1 - s.t0 - Option.value ~default:0 (Hashtbl.find_opt child s.id)))
    spans

let write path spans =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d,\
             \"minor_words\":%.0f}\n"
            s.id s.name s.parent s.req s.t0 s.t1 s.words)
        (List.rev spans))
