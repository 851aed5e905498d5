(* Deterministic chaos for the shard transport.

   Production failover is untestable if the network faults themselves
   are flaky, so — exactly like the service layer's [Fault] injector —
   every decision here is a pure function of (seed, fault kind, shard,
   frame sequence number): the same seeded config replays the same
   fault schedule in the same places, run after run. The decision hash
   is Digest (MD5), not for security, just for cheap well-mixed bits.

   No proxy process: the front's [Backend.call] consults [decide]
   once per data-plane frame and enacts the verdict itself on the real
   socket — a delayed frame really arrives late, a truncated frame
   really leaves the backend holding a half-read, a corrupted frame
   really fails the CRC on the far side. Control frames (ping, metrics,
   drain) and health probes are exempt so the supervisor's view of the
   world stays truthful; the data plane is where the defenses under
   test (CRC + nack, breakers, hedges, failover) live.

   Note on sequence numbers: the per-shard frame counter makes the
   *schedule* (seq -> action) byte-identical across runs for one seed.
   Which request draws which sequence number still depends on thread
   interleaving — determinism of the fault plan, not of the race. *)

type action =
  | Pass
  | Delay of float  (* seconds added before the frame is sent *)
  | Drop  (* the frame never leaves; the sender waits out its timeout *)
  | Truncate  (* half the frame is sent, then the connection dies *)
  | Corrupt  (* one payload byte flipped; the CRC trailer is left stale *)
  | Duplicate  (* the frame is delivered twice *)
  | Stall of float  (* seconds the frame hangs mid-flight before arriving *)

type config = {
  seed : int;
  delay_rate : float;
  delay_s : float;  (* max added latency; the actual delay is jittered *)
  drop_rate : float;
  truncate_rate : float;
  corrupt_rate : float;
  duplicate_rate : float;
  stall_rate : float;
  stall_s : float;
}

let none =
  {
    seed = 0;
    delay_rate = 0.;
    delay_s = 0.005;
    drop_rate = 0.;
    truncate_rate = 0.;
    corrupt_rate = 0.;
    duplicate_rate = 0.;
    stall_rate = 0.;
    stall_s = 0.5;
  }

(* The standard mixed schedule behind [--chaos SEED]: every fault kind
   live at a rate failover should absorb, stalls long enough to trip
   hedges but not the call timeout. *)
let of_seed seed =
  {
    seed;
    delay_rate = 0.10;
    delay_s = 0.005;
    drop_rate = 0.02;
    truncate_rate = 0.02;
    corrupt_rate = 0.05;
    duplicate_rate = 0.03;
    stall_rate = 0.04;
    stall_s = 0.5;
  }

let enabled c =
  c.delay_rate > 0. || c.drop_rate > 0. || c.truncate_rate > 0.
  || c.corrupt_rate > 0. || c.duplicate_rate > 0. || c.stall_rate > 0.

(* 28 bits of a digest as a uniform draw in [0, 1). *)
let uniform ~seed ~tag ~shard ~seq =
  let h =
    Digest.to_hex (Digest.string (Printf.sprintf "%d|%s|%d|%d" seed tag shard seq))
  in
  float_of_int (int_of_string ("0x" ^ String.sub h 0 7)) /. float_of_int 0x10000000

let fires c rate ~tag ~shard ~seq =
  if rate <= 0. then false
  else rate >= 1. || uniform ~seed:c.seed ~tag ~shard ~seq < rate

(* Fixed evaluation order so one frame draws at most one fault; the
   destructive kinds get first claim. *)
let decide c ~shard ~seq =
  if not (enabled c) then Pass
  else if fires c c.drop_rate ~tag:"drop" ~shard ~seq then Drop
  else if fires c c.truncate_rate ~tag:"truncate" ~shard ~seq then Truncate
  else if fires c c.corrupt_rate ~tag:"corrupt" ~shard ~seq then Corrupt
  else if fires c c.stall_rate ~tag:"stall" ~shard ~seq then
    Stall (c.stall_s *. (0.5 +. (0.5 *. uniform ~seed:c.seed ~tag:"stall-jitter" ~shard ~seq)))
  else if fires c c.duplicate_rate ~tag:"duplicate" ~shard ~seq then Duplicate
  else if fires c c.delay_rate ~tag:"delay" ~shard ~seq then
    Delay (c.delay_s *. uniform ~seed:c.seed ~tag:"delay-jitter" ~shard ~seq)
  else Pass

(* Which payload byte a Corrupt verdict flips, as an offset into the
   payload — deterministic per (shard, seq) like everything else. *)
let corrupt_offset c ~shard ~seq ~len =
  if len <= 0 then 0
  else
    int_of_float (uniform ~seed:c.seed ~tag:"corrupt-at" ~shard ~seq *. float_of_int len)
    mod len

(* The full fault plan for one shard's first [n] frames — the
   reproducibility contract made inspectable (and testable: same seed,
   same list, byte for byte). *)
let schedule c ~shard n = List.init n (fun seq -> decide c ~shard ~seq)

let action_name = function
  | Pass -> "pass"
  | Delay _ -> "delay"
  | Drop -> "drop"
  | Truncate -> "truncate"
  | Corrupt -> "corrupt"
  | Duplicate -> "duplicate"
  | Stall _ -> "stall"
