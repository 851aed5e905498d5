(* A minimal HTTP/1.1 keep-alive client on a loopback TCP socket: one
   request in flight per connection, as a closed-loop caller that waits
   for its document. Every exchange is timed on the monotonic clock:
   send start, first response byte, last body byte. *)

exception Conn_error of string

type t = { port : int; mutable fd : Unix.file_descr option; rbuf : Bytes.t }

type response = {
  status : int;
  body : string;
  t_send : int;  (** ns, before the first request byte is written *)
  t_first : int;  (** ns, first response byte read *)
  t_done : int;  (** ns, last body byte read *)
}

let open_fd port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 60.;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

let create port = { port; fd = None; rbuf = Bytes.create 65536 }

let close c =
  match c.fd with
  | None -> ()
  | Some fd ->
    c.fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let fd c =
  match c.fd with
  | Some fd -> fd
  | None ->
    let fd = open_fd c.port in
    c.fd <- Some fd;
    fd

let send_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then begin
      let n = Unix.write_substring fd s off (len - off) in
      if n <= 0 then raise (Conn_error "short write");
      go (off + n)
    end
  in
  go 0

let find_head_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then
      Some i
    else go (i + 1)
  in
  go 0

let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> raise (Conn_error "empty response head")
  | status_line :: lines ->
    let status =
      match String.split_on_char ' ' (String.trim status_line) with
      | _ :: code :: _ -> (
        match int_of_string_opt code with
        | Some c -> c
        | None -> raise (Conn_error "bad status line"))
      | _ -> raise (Conn_error "bad status line")
    in
    let headers =
      List.filter_map
        (fun l ->
          match String.index_opt l ':' with
          | None -> None
          | Some i ->
            Some
              ( String.lowercase_ascii (String.trim (String.sub l 0 i)),
                String.trim (String.sub l (i + 1) (String.length l - i - 1)) ))
        lines
    in
    (status, headers)

let request_bytes ~meth ~path ~body =
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s" meth
    path (String.length body) body

(* One request/response exchange. Raises [Conn_error], [End_of_file] or
   [Unix.Unix_error] on a broken connection; the caller counts the
   failure and calls [close] so the next exchange reconnects. *)
let exchange c ~meth ~path ~body =
  let fd = fd c in
  let t_send = Clock.now_ns () in
  send_all fd (request_bytes ~meth ~path ~body);
  let acc = Buffer.create 1024 in
  let t_first = ref 0 in
  let read_some () =
    let n = Unix.read fd c.rbuf 0 (Bytes.length c.rbuf) in
    if n = 0 then raise End_of_file;
    if !t_first = 0 then t_first := Clock.now_ns ();
    Buffer.add_subbytes acc c.rbuf 0 n
  in
  let rec head () =
    match find_head_end (Buffer.contents acc) with
    | Some i -> i
    | None ->
      read_some ();
      head ()
  in
  let hend = head () in
  let got = Buffer.contents acc in
  let status, headers = parse_head (String.sub got 0 hend) in
  let clen =
    match List.assoc_opt "content-length" headers with
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> 0)
    | None -> 0
  in
  let have = String.length got - (hend + 4) in
  let body =
    if have >= clen then String.sub got (hend + 4) clen
    else begin
      let b = Bytes.create clen in
      Bytes.blit_string got (hend + 4) b 0 have;
      let rec fill off =
        if off < clen then begin
          let n = Unix.read fd b off (clen - off) in
          if n = 0 then raise End_of_file;
          fill (off + n)
        end
      in
      fill have;
      Bytes.unsafe_to_string b
    end
  in
  let t_done = Clock.now_ns () in
  (* The server closes after its per-connection request cap; the next
     exchange reconnects. *)
  (match List.assoc_opt "connection" headers with
  | Some v when String.lowercase_ascii v = "close" -> close c
  | _ -> ());
  { status; body; t_send; t_first = !t_first; t_done }

(* A plain one-shot GET for the control endpoints (/readyz, /metrics). *)
let get port path =
  let c = create port in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      let r = exchange c ~meth:"GET" ~path ~body:"" in
      (r.status, r.body))
