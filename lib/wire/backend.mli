(** The supervised-backend substrate shared by the shard and replica
    tiers: a front process re-execs its own binary as N backend
    processes, talks to each over a Unix-domain socket with {!Frame}
    frames, and drains and reaps them. Each tier keeps only its
    protocol (the ops its backends answer) and its policy (routing,
    health, quorums); everything below lives here once.

    Backends are spawned by fork+exec of [Sys.executable_name] with an
    argv marker and a spec in an environment variable — never by fork
    alone, which is not survivable from a multi-domain, multi-thread
    OCaml front process. *)

(** {1 The exec-boundary spec}

    A backend's configuration crosses exec as one environment variable
    holding [key=value] lines. *)

module Spec : sig
  type fields = (string * string) list

  type error =
    | Malformed_line of string  (** a line with no [=] *)
    | Missing_key of string
    | Bad_value of string * string  (** key, value that failed to parse *)

  val error_message : error -> string

  val encode : fields -> string
  (** Raises [Invalid_argument] when a key is empty or holds ['='] or
      a newline, or a value holds a newline: such a spec could not be
      decoded back to the same fields. *)

  val float : float -> string
  (** A float printed so that it decodes to exactly the same value. *)

  val decode : string -> (fields -> 'a) -> ('a, error) result
  (** Split the spec into fields and build a value from them with the
      getters below; a missing key or an unparsable value becomes a
      structured [Error]. Never raises for any input string. *)

  val str : fields -> string -> string
  val int : fields -> string -> int
  val float_of : fields -> string -> float
end

val env_with : string -> string -> string array
(** [env_with var value]: this process's environment with every
    inherited binding of [var] replaced by [var=value]. Duplicate
    entries would leave [getenv] in the child answering with the stale
    first one. *)

val maybe_run :
  flag:string -> env_var:string -> (string -> ('a, Spec.error) result) -> ('a -> unit) -> unit
(** [maybe_run ~flag ~env_var decode main]: when [flag] is in argv,
    decode the spec from [env_var] and run [main] on it; a missing or
    undecodable spec exits 2. A no-op when [flag] is absent. *)

(** {1 Backend process side} *)

val drain_on_sigterm : unit -> bool Atomic.t
(** The backend process prologue: ignore SIGPIPE and return a drain
    flag that SIGTERM sets. *)

val serve : drain:bool Atomic.t -> path:string -> (string -> string) -> unit
(** Listen on the UDS [path] and answer every frame with [handle
    payload], one thread per connection. A frame that arrives with a
    bad CRC is answered with a {!Frame.nack}; a ['D'] frame sets
    [drain] and is acknowledged with ["D"]. An exception from [handle]
    closes that connection. Returns once [drain] is set and every
    connection has finished the frame it was serving (connections poll
    the flag every 50 ms between frames); the socket file is removed. *)

(** {1 Front process side} *)

type t = {
  id : int;  (** member index; keys the chaos schedule *)
  path : string;  (** the backend's socket *)
  mutable pid : int;  (** [-1] before the first spawn *)
  healthy : bool Atomic.t;
      (** while [false], connections are closed after use instead of
          pooled *)
  chaos_seq : int Atomic.t;  (** data-plane frame counter for the chaos schedule *)
  mutex : Mutex.t;
  mutable idle : Unix.file_descr list;  (** pooled connections *)
}

val create : id:int -> path:string -> healthy:bool -> t

val socket_dir : prefix:string -> string option -> string
(** The given directory, or [TMPDIR/prefix-PID]; created (0700) if
    missing. *)

val spawn : t -> flag:string -> env_var:string -> Spec.fields -> unit
(** Re-exec this binary as [exe flag] with the encoded spec in
    [env_var], inheriting stdio, and record the child's pid. *)

val call : ?chaos:Chaos.config -> t -> string -> timeout_s:float -> string
(** One request/response exchange over a pooled connection (or a fresh
    one). A pooled connection whose backend has restarted since fails
    with EOF or a reset; that alone earns one retry over a fresh
    connection. Everything else — a nack, a damaged reply, a receive
    timeout — surfaces to the caller, and the connection is closed
    rather than pooled. A {!Frame.nack} reply raises {!Frame.Nacked}.
    [chaos] interposes the fault plane on this frame. *)

val is_timeout_exn : exn -> bool
(** The receive timeout expired (as opposed to a dead connection). *)

val pool_clear : t -> unit
(** Close every pooled connection. *)

val close_quiet : Unix.file_descr -> unit
(** Close, ignoring errors. *)

val exited : t -> bool
(** Non-blocking reap: [true] once the backend process has exited. *)

val wait_exit : ?timeout_s:float -> t -> bool
(** Poll-reap the backend for up to [timeout_s] (default 10 s); [true]
    once it is gone. *)

val kill_quiet : t -> int -> unit
(** Signal the backend process, ignoring errors; a no-op with no pid. *)

val stop : t -> drain_timeout_s:float -> unit
(** Ask the backend to drain over a fresh connection, wait up to
    [drain_timeout_s] for it to exit, then SIGTERM, then SIGKILL; drop
    the pool and remove the socket file. *)

(** {1 Merged [/metrics]} *)

val relabel : label:string -> int -> string -> string
(** Add a [{label="i"}] label to every unlabeled sample line of a
    Prometheus exposition. *)

val dedup_metadata : string -> string
(** Drop repeated HELP/TYPE lines from concatenated expositions (first
    one wins). *)
