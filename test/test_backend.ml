(* The supervised-backend substrate without a child process: the spec
   codec that crosses exec, and the framed transport (pool, retry,
   timeout, nack, chaos, drain) driven against the shared serve loop
   running in a thread of this process. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let str_t = Alcotest.string

module Spec = Backend.Spec

(* ------------------------------------------------------------------ *)
(* Spec codec                                                          *)
(* ------------------------------------------------------------------ *)

let spec_t () =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf
        (match r with Ok _ -> "Ok _" | Error e -> Spec.error_message e))
    ( = )

let gen_fields =
  let open QCheck.Gen in
  let key_char = map (fun c -> if c = '=' || c = '\n' then 'k' else c) char in
  let value_char = map (fun c -> if c = '\n' then 'v' else c) char in
  list_size (int_range 0 8)
    (pair (string_size ~gen:key_char (int_range 1 8)) (string_size ~gen:value_char (int_range 0 24)))

let prop_fields_roundtrip =
  QCheck.Test.make ~name:"spec fields round-trip" ~count:500
    (QCheck.make gen_fields ~print:QCheck.Print.(list (pair string string)))
    (fun fields -> Spec.decode (Spec.encode fields) Fun.id = Ok fields)

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) || (Float.is_nan a && Float.is_nan b)

let prop_numbers_roundtrip =
  QCheck.Test.make ~name:"spec ints and floats round-trip exactly" ~count:500
    QCheck.(pair int float)
    (fun (i, x) ->
      match
        Spec.decode
          (Spec.encode [ ("i", string_of_int i); ("x", Spec.float x) ])
          (fun f -> (Spec.int f "i", Spec.float_of f "x"))
      with
      | Ok (i', x') -> i = i' && same_float x x'
      | Error _ -> false)

(* A replica-shaped spec, read back with every typed getter. *)
type shaped = { sock : string; id : int; seg : int; scrub : float; crash : float }

let build f =
  Spec.
    {
      sock = str f "sock";
      id = int f "id";
      seg = int f "segbytes";
      scrub = float_of f "scrub";
      crash = float_of f "crash";
    }

let encode_shaped s =
  Spec.encode
    [
      ("sock", s.sock);
      ("id", string_of_int s.id);
      ("segbytes", string_of_int s.seg);
      ("scrub", Spec.float s.scrub);
      ("crash", Spec.float s.crash);
    ]

type mutation = Truncate of int | Drop_line of int | Flip of int * int

let gen_mutated =
  let open QCheck.Gen in
  let* sock = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
  let* id = small_nat in
  let* seg = nat in
  let* scrub = float in
  let* crash = float_range 0. 1e-6 in
  let spec = encode_shaped { sock = "/tmp/" ^ sock; id; seg; scrub; crash } in
  let n = String.length spec in
  let+ m =
    oneof
      [
        map (fun k -> Truncate k) (int_range 0 n);
        map (fun k -> Drop_line k) (int_range 0 4);
        map2 (fun k x -> Flip (k, x)) (int_range 0 (n - 1)) (int_range 1 255);
      ]
  in
  match m with
  | Truncate k -> String.sub spec 0 k
  | Drop_line k ->
    String.split_on_char '\n' spec |> List.filteri (fun i _ -> i <> k) |> String.concat "\n"
  | Flip (k, x) ->
    String.mapi (fun i c -> if i = k then Char.chr (Char.code c lxor x) else c) spec

let prop_mutations_structured =
  QCheck.Test.make ~name:"mutated specs decode to a value or a structured error" ~count:1000
    (QCheck.make gen_mutated ~print:String.escaped)
    (fun s ->
      match Spec.decode s build with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let test_spec_rejects_separator () =
  let rejects name fields =
    check bool_t name true
      (match Spec.encode fields with _ -> false | exception Invalid_argument _ -> true)
  in
  (* Split on the newline, this path used to decode as "file:/tmp/a". *)
  rejects "newline in a value" [ ("model", "file:/tmp/a\nb") ];
  rejects "'=' in a key" [ ("a=b", "c") ];
  rejects "empty key" [ ("", "c") ];
  check (spec_t ()) "'=' in a value is fine" (Ok [ ("model", "a=b") ])
    (Spec.decode (Spec.encode [ ("model", "a=b") ]) Fun.id)

let test_spec_errors () =
  let get f = Spec.int f "id" in
  check (spec_t ()) "missing key" (Error (Spec.Missing_key "id")) (Spec.decode "sock=/x" get);
  check (spec_t ()) "bad number" (Error (Spec.Bad_value ("id", "three"))) (Spec.decode "id=three" get);
  check (spec_t ()) "line without =" (Error (Spec.Malformed_line "junk"))
    (Spec.decode "id=3\njunk" get);
  (* A sub-microsecond fault rate used to print as 0.000000 and turn
     the fault off. *)
  check bool_t "4e-7 survives" true
    (Spec.decode (Spec.encode [ ("r", Spec.float 4e-7) ]) (fun f -> Spec.float_of f "r")
    = Ok 4e-7)

(* ------------------------------------------------------------------ *)
(* Transport against an in-process serve loop                          *)
(* ------------------------------------------------------------------ *)

let path_seq = Atomic.make 0

let fresh_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "awb-backend-test-%d-%d.sock" (Unix.getpid ())
       (Atomic.fetch_and_add path_seq 1))

type fake = { fpath : string; drain : bool Atomic.t; thread : Thread.t; returned : bool Atomic.t }

let wait_listening path =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Thread.delay 0.005;
      go ()
  in
  go ()

let start_fake ?(path = fresh_path ()) handle =
  (* A write to a connection the fake closed must surface as EPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let drain = Atomic.make false in
  let returned = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        Backend.serve ~drain ~path handle;
        Atomic.set returned true)
      ()
  in
  wait_listening path;
  { fpath = path; drain; thread; returned }

let stop_fake f =
  Atomic.set f.drain true;
  Thread.join f.thread

let with_fake ?path handle k =
  let f = start_fake ?path handle in
  let b = Backend.create ~id:0 ~path:f.fpath ~healthy:true in
  Fun.protect
    ~finally:(fun () ->
      Backend.pool_clear b;
      stop_fake f)
    (fun () -> k f b)

let pooled b = List.length b.Backend.idle

let test_pool_reuse () =
  (* One serve thread per connection: the same thread id means the
     same connection. *)
  with_fake
    (fun _ -> string_of_int (Thread.id (Thread.self ())))
    (fun _ b ->
      let first = Backend.call b "a" ~timeout_s:2. in
      check int_t "connection pooled" 1 (pooled b);
      check str_t "second call reuses it" first (Backend.call b "b" ~timeout_s:2.);
      check int_t "still one pooled" 1 (pooled b))

let test_stale_pooled_retried_once () =
  let path = fresh_path () in
  let b = Backend.create ~id:0 ~path ~healthy:true in
  let old = start_fake ~path (fun _ -> "old") in
  check str_t "first incarnation" "old" (Backend.call b "x" ~timeout_s:2.);
  check int_t "pooled" 1 (pooled b);
  stop_fake old;
  (* Restarted: the pooled connection's peer is gone. *)
  with_fake ~path
    (fun _ -> "new")
    (fun _ _ ->
      check str_t "retried over a fresh connection" "new" (Backend.call b "x" ~timeout_s:2.);
      check int_t "the fresh connection is pooled" 1 (pooled b);
      Backend.pool_clear b)

let test_timeout_not_retried () =
  let served = Atomic.make 0 in
  with_fake
    (fun p ->
      if p = "slow" then begin
        Atomic.incr served;
        Thread.delay 0.4
      end;
      p)
    (fun _ b ->
      (* Over a pooled connection, the one path that has a retry. *)
      check str_t "warm" "warm" (Backend.call b "warm" ~timeout_s:2.);
      (match Backend.call b "slow" ~timeout_s:0.1 with
      | _ -> Alcotest.fail "a late reply beat the receive timeout"
      | exception e -> check bool_t "classified as a timeout" true (Backend.is_timeout_exn e));
      Thread.delay 0.5;
      check int_t "served once: no retry" 1 (Atomic.get served);
      check int_t "timed-out connection not pooled" 0 (pooled b))

let test_nack_raises_not_pooled () =
  with_fake
    (fun _ -> Frame.nack "refused")
    (fun _ b ->
      (match Backend.call b "x" ~timeout_s:2. with
      | _ -> Alcotest.fail "nack returned as a reply"
      | exception Frame.Nacked reason -> check str_t "reason" "refused" reason);
      check int_t "nacked connection not pooled" 0 (pooled b))

let test_truncate_and_corrupt_never_hang () =
  let served = Atomic.make 0 in
  let f =
    start_fake (fun p ->
        Atomic.incr served;
        "ok:" ^ p)
  in
  let b = Backend.create ~id:0 ~path:f.fpath ~healthy:true in
  let truncate = { Chaos.none with Chaos.seed = 7; truncate_rate = 1. } in
  (match Backend.call ~chaos:truncate b "x" ~timeout_s:2. with
  | _ -> Alcotest.fail "a truncated frame was answered"
  | exception Frame.Protocol_error _ -> ());
  let corrupt = { Chaos.none with Chaos.seed = 7; corrupt_rate = 1. } in
  (match Backend.call ~chaos:corrupt b "payload" ~timeout_s:2. with
  | _ -> Alcotest.fail "a corrupted frame was answered"
  | exception Frame.Nacked reason -> check str_t "server-side nack" "bad frame crc" reason);
  check int_t "no damaged frame reached the handler" 0 (Atomic.get served);
  check str_t "the loop still serves" "ok:y" (Backend.call b "y" ~timeout_s:2.);
  Backend.pool_clear b;
  let t0 = Unix.gettimeofday () in
  stop_fake f;
  check bool_t "drained promptly" true (Unix.gettimeofday () -. t0 < 2.)

let test_drain_finishes_inflight_frame () =
  let serving = Atomic.make false in
  let f =
    start_fake (fun p ->
        if p = "slow" then begin
          Atomic.set serving true;
          Thread.delay 0.3
        end;
        "done:" ^ p)
  in
  let b = Backend.create ~id:0 ~path:f.fpath ~healthy:true in
  let result = ref "" in
  let caller = Thread.create (fun () -> result := Backend.call b "slow" ~timeout_s:5.) () in
  while not (Atomic.get serving) do
    Thread.delay 0.005
  done;
  let ctl = Backend.create ~id:0 ~path:f.fpath ~healthy:true in
  check str_t "drain acknowledged" "D" (Backend.call ctl "D" ~timeout_s:2.);
  Thread.join f.thread;
  Thread.join caller;
  check bool_t "loop returned" true (Atomic.get f.returned);
  check str_t "in-flight frame answered before return" "done:slow" !result;
  check bool_t "socket file removed" false (Sys.file_exists f.fpath);
  Backend.pool_clear b;
  Backend.pool_clear ctl

(* A duplicated frame whose second reply arrives after the caller's
   receive timeout: the connection must not be pooled with that reply
   still in flight, or the next exchange on it reads the stale reply as
   its own. *)
let test_duplicate_leaves_no_stale_reply () =
  let seen = Hashtbl.create 4 in
  let m = Mutex.create () in
  with_fake
    (fun p ->
      Mutex.lock m;
      let n = Option.value ~default:0 (Hashtbl.find_opt seen p) in
      Hashtbl.replace seen p (n + 1);
      Mutex.unlock m;
      if n > 0 then Thread.delay 0.4;
      "re:" ^ p)
    (fun _ b ->
      let dup = { Chaos.none with Chaos.seed = 3; duplicate_rate = 1. } in
      (match Backend.call ~chaos:dup b "A" ~timeout_s:0.15 with
      | reply -> check str_t "first copy's reply" "re:A" reply
      | exception e -> check bool_t "second reply timed out" true (Backend.is_timeout_exn e));
      check str_t "next call gets its own reply" "re:B" (Backend.call b "B" ~timeout_s:2.))

let suite =
  [
    ( "backend",
      List.map QCheck_alcotest.to_alcotest
        [ prop_fields_roundtrip; prop_numbers_roundtrip; prop_mutations_structured ]
      @ [
          Alcotest.test_case "spec encode rejects the separator" `Quick
            test_spec_rejects_separator;
          Alcotest.test_case "spec decode errors are structured" `Quick test_spec_errors;
          Alcotest.test_case "pooled connection reused" `Quick test_pool_reuse;
          Alcotest.test_case "stale pooled connection retried once" `Quick
            test_stale_pooled_retried_once;
          Alcotest.test_case "receive timeout not retried" `Quick test_timeout_not_retried;
          Alcotest.test_case "nack raises, connection not pooled" `Quick
            test_nack_raises_not_pooled;
          Alcotest.test_case "truncate and corrupt never hang" `Quick
            test_truncate_and_corrupt_never_hang;
          Alcotest.test_case "drain returns after the in-flight frame" `Quick
            test_drain_finishes_inflight_frame;
          Alcotest.test_case "duplicate leaves no stale reply" `Quick
            test_duplicate_leaves_no_stale_reply;
        ] );
  ]
