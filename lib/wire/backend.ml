(* The supervised-backend substrate: spawn, pool, chaos-wrapped framed
   call, serve loop, reap and drain — written once for the shard and
   replica tiers (see backend.mli). *)

(* ------------------------------------------------------------------ *)
(* The exec-boundary spec                                              *)
(* ------------------------------------------------------------------ *)

module Spec = struct
  type fields = (string * string) list

  type error =
    | Malformed_line of string
    | Missing_key of string
    | Bad_value of string * string

  let error_message = function
    | Malformed_line l -> Printf.sprintf "spec line without '=': %S" l
    | Missing_key k -> Printf.sprintf "spec missing %s" k
    | Bad_value (k, v) -> Printf.sprintf "spec %s has a bad value %S" k v

  exception Spec_error of error

  let encode fields =
    List.iter
      (fun (k, v) ->
        if k = "" || String.contains k '=' || String.contains k '\n' || String.contains v '\n'
        then invalid_arg (Printf.sprintf "Backend.Spec.encode: %S=%S" k v))
      fields;
    String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) fields)

  (* %h is exact: a rate like 4e-7 must not print as 0.000000 and
     silently switch its fault off. *)
  let float f = Printf.sprintf "%h" f

  let parse s =
    if s = "" then []
    else
      String.split_on_char '\n' s
      |> List.map (fun line ->
             match String.index_opt line '=' with
             | None -> raise (Spec_error (Malformed_line line))
             | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)))

  let decode s build = try Ok (build (parse s)) with Spec_error e -> Error e

  let str fields k =
    match List.assoc_opt k fields with Some v -> v | None -> raise (Spec_error (Missing_key k))

  let typed of_string fields k =
    let v = str fields k in
    match of_string v with Some x -> x | None -> raise (Spec_error (Bad_value (k, v)))

  let int = typed int_of_string_opt
  let float_of = typed float_of_string_opt
end

let env_with var value =
  let prefix = var ^ "=" in
  Array.append
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix kv))
          (Array.to_list (Unix.environment ()))))
    [| prefix ^ value |]

let maybe_run ~flag ~env_var decode main =
  if Array.exists (fun a -> a = flag) Sys.argv then
    match Option.map decode (Sys.getenv_opt env_var) with
    | None ->
      prerr_endline (flag ^ ": missing spec environment");
      exit 2
    | Some (Error e) ->
      prerr_endline (flag ^ ": " ^ Spec.error_message e);
      exit 2
    | Some (Ok spec) -> main spec

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Backend process side                                                *)
(* ------------------------------------------------------------------ *)

let drain_on_sigterm () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let drain = Atomic.make false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set drain true));
  drain

(* One thread per front connection. Connections are persistent and few
   (the front pools them), so the thread count stays bounded by the
   front's concurrency; intra-backend parallelism is not the goal — the
   backends themselves are the parallel axis. *)
let serve_conn ~drain handle fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.05 with Unix.Unix_error _ -> ());
  let closing = ref false in
  (try
     while not !closing do
       (* Between frames, EAGAIN is the drain poll; an idle draining
          connection closes here. *)
       match Frame.recv_frame ~retry_again:(fun () -> not (Atomic.get drain)) fd with
       | exception (End_of_file | Unix.Unix_error _ | Frame.Protocol_error _) -> closing := true
       | exception Frame.Crc_mismatch ->
         (* The frame arrived damaged but the length header framed the
            read: the stream is still aligned. Answer a structured nack
            so the front counts a lost payload, instead of closing and
            making corruption indistinguishable from a crash. *)
         (try Frame.send_frame fd (Frame.nack "bad frame crc")
          with Frame.Protocol_error _ | Unix.Unix_error _ -> closing := true)
       | payload ->
         let reply =
           if payload = "D" then begin
             Atomic.set drain true;
             closing := true;
             "D"
           end
           else handle payload
         in
         (try Frame.send_frame fd reply
          with Frame.Protocol_error _ | Unix.Unix_error _ -> closing := true)
     done
   with _ -> ());
  close_quiet fd

let serve ~drain ~path handle =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 64;
  (try Unix.setsockopt_float listen_fd Unix.SO_RCVTIMEO 0.05 with Unix.Unix_error _ -> ());
  let threads_mutex = Mutex.create () in
  let threads = ref [] in
  while not (Atomic.get drain) do
    match Unix.accept ~cloexec:true listen_fd with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error _ -> if not (Atomic.get drain) then Thread.delay 0.01
    | fd, _ ->
      let th = Thread.create (serve_conn ~drain handle) fd in
      Mutex.lock threads_mutex;
      threads := th :: !threads;
      Mutex.unlock threads_mutex
  done;
  (* Draining: no new connections; every conn thread exits at its next
     between-frames poll, after finishing the frame it holds. *)
  List.iter Thread.join !threads;
  close_quiet listen_fd;
  try Unix.unlink path with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Front process side                                                  *)
(* ------------------------------------------------------------------ *)

type t = {
  id : int;
  path : string;
  mutable pid : int;
  healthy : bool Atomic.t;
  chaos_seq : int Atomic.t;
  mutex : Mutex.t;
  mutable idle : Unix.file_descr list;
}

let create ~id ~path ~healthy =
  {
    id;
    path;
    pid = -1;
    healthy = Atomic.make healthy;
    chaos_seq = Atomic.make 0;
    mutex = Mutex.create ();
    idle = [];
  }

let socket_dir ~prefix dir =
  let d =
    match dir with
    | Some d -> d
    | None ->
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  if not (Sys.file_exists d) then Unix.mkdir d 0o700;
  d

let spawn b ~flag ~env_var fields =
  let exe = Sys.executable_name in
  b.pid <-
    Unix.create_process_env exe [| exe; flag |]
      (env_with env_var (Spec.encode fields))
      Unix.stdin Unix.stdout Unix.stderr

let pool_take b =
  Mutex.lock b.mutex;
  let fd = match b.idle with [] -> None | fd :: rest -> b.idle <- rest; Some fd in
  Mutex.unlock b.mutex;
  fd

let pool_put b fd =
  if Atomic.get b.healthy then begin
    Mutex.lock b.mutex;
    b.idle <- fd :: b.idle;
    Mutex.unlock b.mutex
  end
  else close_quiet fd

let pool_clear b =
  Mutex.lock b.mutex;
  let fds = b.idle in
  b.idle <- [];
  Mutex.unlock b.mutex;
  List.iter close_quiet fds

let connect b ~timeout_s =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.
   with Unix.Unix_error _ -> ());
  match Unix.connect fd (Unix.ADDR_UNIX b.path) with
  | () -> fd
  | exception e ->
    close_quiet fd;
    raise e

(* Send one data-plane frame under the chaos verdict for its sequence
   number, and read the reply. Each fault is enacted on the real
   socket, and verdicts are drawn from the member's own sequence
   counter, so one seed replays one schedule. *)
let chaos_send_recv c b fd payload =
  let seq = Atomic.fetch_and_add b.chaos_seq 1 in
  match Chaos.decide c ~shard:b.id ~seq with
  | Chaos.Pass ->
    Frame.send_frame fd payload;
    Frame.recv_frame fd
  | Chaos.Delay d | Chaos.Stall d ->
    (* A stalled frame hangs in flight: the backend sees it late, and a
       hedge (or the caller's timeout) covers the gap meanwhile. *)
    Thread.delay d;
    Frame.send_frame fd payload;
    Frame.recv_frame fd
  | Chaos.Drop ->
    (* Nothing is sent; the reply never comes. recv burns the socket
       receive timeout and surfaces EAGAIN, like any silent loss. *)
    Frame.recv_frame fd
  | Chaos.Truncate ->
    let wire = Frame.encode payload in
    Frame.send_all fd (String.sub wire 0 (String.length wire / 2));
    (* The rest never arrives. Raising here makes the caller close the
       socket, so the backend's half-read ends in EOF, not a hang. *)
    Frame.perr "chaos: frame truncated in flight"
  | Chaos.Corrupt ->
    (* The flipped byte keeps its now-stale CRC trailer, so the
       backend's integrity check — not luck — catches it. *)
    let wire = Bytes.of_string (Frame.encode payload) in
    let off =
      Frame.payload_offset + Chaos.corrupt_offset c ~shard:b.id ~seq ~len:(String.length payload)
    in
    Bytes.set wire off (Char.chr (Char.code (Bytes.get wire off) lxor 0xff));
    Frame.send_all fd (Bytes.unsafe_to_string wire);
    Frame.recv_frame fd
  | Chaos.Duplicate ->
    (* At-least-once delivery: the backend serves the frame twice and
       its replies queue in order on the connection. Both are read, so
       no stale reply is left for the next exchange on this connection
       to mistake for its own: an unreadable second reply raises, and
       the caller closes the connection instead of pooling it. The
       second copy's fate also decides whether a refusal can be
       trusted: a duplicated write that nacked once and applied once IS
       durable, so a nack surfaces only when BOTH copies nacked. *)
    Frame.send_frame fd payload;
    Frame.send_frame fd payload;
    let reply1 = Frame.recv_frame fd in
    let reply2 = Frame.recv_frame fd in
    if Frame.nack_reason reply1 = None then reply1 else reply2

(* Only connection-staleness symptoms earn the in-call retry: a pooled
   socket whose backend has since restarted fails with EOF or a reset
   on first use, and a fresh connect genuinely fixes that. Everything
   else — a nack, a damaged reply, a receive timeout — happened on a
   live connection and must surface to the failover and breaker layers,
   not be silently absorbed here (retrying a timeout would also double
   the caller's wait). *)
let stale_conn = function
  | End_of_file -> true
  | Unix.Unix_error
      ((Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNREFUSED | Unix.ENOTCONN | Unix.EBADF), _, _) ->
    true
  | _ -> false

let exchange chaos b payload ~timeout_s fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s with Unix.Unix_error _ -> ());
  let reply =
    match chaos with
    | Some c when Chaos.enabled c -> chaos_send_recv c b fd payload
    | _ ->
      Frame.send_frame fd payload;
      Frame.recv_frame fd
  in
  (* A nack: the exchange protocol-succeeded but the payload was lost in
     flight or refused, and the connection is retired rather than
     recycled. *)
  match Frame.nack_reason reply with
  | Some reason -> raise (Frame.Nacked reason)
  | None -> reply

let fresh_exchange chaos b payload ~timeout_s =
  let fd = connect b ~timeout_s in
  match exchange chaos b payload ~timeout_s fd with
  | reply ->
    pool_put b fd;
    reply
  | exception e ->
    close_quiet fd;
    raise e

let call ?chaos b payload ~timeout_s =
  match pool_take b with
  | None -> fresh_exchange chaos b payload ~timeout_s
  | Some fd -> (
    match exchange chaos b payload ~timeout_s fd with
    | reply ->
      pool_put b fd;
      reply
    | exception e ->
      close_quiet fd;
      if stale_conn e then fresh_exchange chaos b payload ~timeout_s else raise e)

let is_timeout_exn = function
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Reap and drain                                                      *)
(* ------------------------------------------------------------------ *)

(* ECHILD means someone already reaped it: gone all the same. A pid of
   -1 must never reach waitpid or kill, where it means "any child" and
   "every process". *)
let exited b =
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] b.pid with
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> true
  in
  b.pid > 0 && go ()

let wait_exit ?(timeout_s = 10.) b =
  let deadline = Clock.now () +. timeout_s in
  let rec go () =
    if b.pid <= 0 || exited b then true
    else if Clock.now () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let kill_quiet b signal = if b.pid > 0 then try Unix.kill b.pid signal with Unix.Unix_error _ -> ()

let stop b ~drain_timeout_s =
  (* Best effort over a fresh connection: pooled conns may be held by
     in-flight exchanges on other threads. *)
  (match connect b ~timeout_s:2. with
  | fd ->
    (try
       Frame.send_frame fd "D";
       ignore (Frame.recv_frame fd)
     with _ -> ());
    close_quiet fd
  | exception _ -> ());
  pool_clear b;
  if not (wait_exit ~timeout_s:drain_timeout_s b) then begin
    kill_quiet b Sys.sigterm;
    if not (wait_exit ~timeout_s:2. b) then begin
      kill_quiet b Sys.sigkill;
      ignore (wait_exit ~timeout_s:2. b)
    end
  end;
  try Unix.unlink b.path with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Merged /metrics                                                     *)
(* ------------------------------------------------------------------ *)

let relabel ~label id text =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         if line = "" || line.[0] = '#' then line
         else
           match String.index_opt line ' ' with
           | Some i ->
             Printf.sprintf "%s{%s=\"%d\"}%s" (String.sub line 0 i) label id
               (String.sub line i (String.length line - i))
           | None -> line)
  |> String.concat "\n"

let dedup_metadata text =
  let seen = Hashtbl.create 64 in
  String.split_on_char '\n' text
  |> List.filter (fun line ->
         if String.length line > 0 && line.[0] = '#' then
           if Hashtbl.mem seen line then false
           else begin
             Hashtbl.add seen line ();
             true
           end
         else true)
  |> String.concat "\n"
