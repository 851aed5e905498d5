(** Deterministic fault injection for the shard transport.

    A seeded, schedule-driven chaos plane in the spirit of the service
    layer's [Fault] injector: every verdict is a pure function of
    (seed, fault kind, shard id, per-shard frame sequence number), so
    one seed replays one byte-identical fault schedule, run after run.
    {!Backend.call} consults {!decide} per data-plane frame and
    enacts the verdict on the real socket — control frames and health
    probes are exempt. *)

type action =
  | Pass
  | Delay of float  (** seconds added before the frame is sent *)
  | Drop  (** the frame never leaves; the sender waits out its timeout *)
  | Truncate  (** half the frame is sent, then the connection dies *)
  | Corrupt  (** one payload byte flipped; the CRC trailer left stale *)
  | Duplicate  (** the frame is delivered twice *)
  | Stall of float  (** seconds the frame hangs before arriving *)

type config = {
  seed : int;
  delay_rate : float;
  delay_s : float;
  drop_rate : float;
  truncate_rate : float;
  corrupt_rate : float;
  duplicate_rate : float;
  stall_rate : float;
  stall_s : float;
}

val none : config
(** All rates zero: {!decide} always answers [Pass]. *)

val of_seed : int -> config
(** The standard mixed schedule behind [--chaos SEED]: 10% small
    delays, 2% drops, 2% truncations, 5% corruption, 3% duplicates,
    4% stalls of up to 500 ms. *)

val enabled : config -> bool

val decide : config -> shard:int -> seq:int -> action
(** The verdict for frame [seq] to [shard] — pure and reproducible. *)

val corrupt_offset : config -> shard:int -> seq:int -> len:int -> int
(** Which payload byte a [Corrupt] verdict flips. *)

val schedule : config -> shard:int -> int -> action list
(** The fault plan for one shard's first [n] frames: the
    reproducibility contract made inspectable. *)

val uniform : seed:int -> tag:string -> shard:int -> seq:int -> float
(** The underlying deterministic draw in [0, 1). *)

val action_name : action -> string
