(* The server under test as a separate process: spawn [awbserve serve],
   wait until it and every backend it supervises are ready, read the
   peak resident set of the whole process tree, and stop it — waiting
   until each process has ended. *)

let awbserve = "_build/default/bin/awbserve.exe"

type t = { pid : int; mutable port : int; log : string; mutable reaped : bool }

let live : t list ref = ref []

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> try Some (In_channel.input_all ic) with Sys_error _ -> None)

(* [/proc/<pid>/stat]: the command name may hold spaces or parentheses,
   so fields are counted from the last ')'. *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
    match String.rindex_opt s ')' with
    | None -> None
    | Some i ->
      Some
        (String.split_on_char ' ' (String.trim (String.sub s (i + 1) (String.length s - i - 1)))))

let ended pid =
  match stat_fields pid with
  | None -> true
  | Some (state :: _) -> state = "Z" || state = "X"
  | Some [] -> true

let children pid =
  match Sys.readdir "/proc" with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun e ->
           match int_of_string_opt e with
           | None -> None
           | Some p -> (
             match stat_fields p with
             | Some (_ :: ppid :: _) when int_of_string_opt ppid = Some pid -> Some p
             | _ -> None))

let rec descendants pid =
  List.concat_map (fun c -> c :: descendants c) (children pid)

(* VmHWM, the peak resident set since the process started, in MB. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0.
  | Some s ->
    String.split_on_char '\n' s
    |> List.find_map (fun l ->
           if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
             Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                 float_of_int kb /. 1024.)
           else None)
    |> Option.value ~default:0.

let find_port log =
  match read_file log with
  | None -> None
  | Some s -> (
    let key = "listening on 127.0.0.1:" in
    let kl = String.length key in
    let rec scan i =
      if i + kl > String.length s then None
      else if String.sub s i kl = key then Some (i + kl)
      else scan (i + 1)
    in
    match scan 0 with
    | None -> None
    | Some j ->
      let k = ref j in
      while !k < String.length s && s.[!k] >= '0' && s.[!k] <= '9' do incr k done;
      int_of_string_opt (String.sub s j (!k - j)))

let exited t =
  t.reaped
  ||
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ ->
    t.reaped <- true;
    true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    t.reaped <- true;
    true

let wait_until ~timeout_s pred =
  let deadline = Clock.now () +. timeout_s in
  let rec go () =
    if pred () then true
    else if Clock.now () > deadline then false
    else begin
      Thread.delay 0.0005;
      go ()
    end
  in
  go ()

let stop t =
  if not t.reaped then begin
    let tree = descendants t.pid in
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    if not (wait_until ~timeout_s:20. (fun () -> exited t)) then begin
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_until ~timeout_s:10. (fun () -> exited t))
    end;
    (* Backends are the server's children: its drain stops them; any it
       left behind are killed here, and each is waited out. *)
    if not (wait_until ~timeout_s:10. (fun () -> List.for_all ended tree)) then begin
      List.iter
        (fun p -> if not (ended p) then try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
        tree;
      ignore (wait_until ~timeout_s:10. (fun () -> List.for_all ended tree))
    end
  end;
  live := List.filter (fun s -> s != t) !live

let stop_all () = List.iter stop !live

(* Spawn [awbserve serve --port 0 ARGS] in environment [env] with its
   output in [log], then wait for the listening line and for
   [ready port]. Returns the server and the seconds from spawn to
   ready. *)
let start ~env ~log ~ready args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Clock.now () in
  let argv = Array.of_list (awbserve :: "serve" :: "--port" :: "0" :: args) in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process_env awbserve argv env null out out)
  in
  let t = { pid; port = 0; log; reaped = false } in
  live := t :: !live;
  let port = ref None in
  let up =
    wait_until ~timeout_s:60. (fun () ->
        if exited t then failwith ("server exited during start-up; see " ^ log);
        port := find_port log;
        !port <> None)
  in
  match !port with
  | Some p when up ->
    t.port <- p;
    if not (wait_until ~timeout_s:60. (fun () -> ready p)) then begin
      stop t;
      failwith ("server never became ready; see " ^ log)
    end;
    (t, Clock.now () -. t0)
  | _ ->
    stop t;
    failwith ("server never printed its port; see " ^ log)

let tree_rss_mb t =
  let backends = descendants t.pid in
  (peak_rss_mb t.pid, List.fold_left (fun acc p -> acc +. peak_rss_mb p) 0. backends)
