(** Kill-point crash oracle: re-exec the current binary as a child
    ingester running under a seeded I/O fault plane, kill it at seeded
    points, then check that recovery yields exactly the acknowledged
    prefix — no lost acked write, no resurrected unacked write, zero
    checksum escapes. *)

val env_var : string
(** [AWBSTORE_ORACLE] — presence in the environment turns the process
    into an oracle child. *)

val maybe_run_child : unit -> unit
(** Call first in [main]. If [env_var] is set, runs the child ingester
    and never returns; otherwise a no-op. *)

type rates = {
  r_crash : float;  (** crash-after-N-bytes kill points *)
  r_short : float;  (** short writes *)
  r_ffail : float;  (** fsync reports failure *)
  r_fignore : float;  (** fsync lies (reports success, does nothing) *)
}

val no_rates : rates

type trial = {
  tr_exit : int;
  tr_killed : bool;  (** child died at an injected kill point *)
  tr_completed : bool;  (** child ran to completion *)
  tr_acked : int;  (** live docs per the acknowledged prefix *)
  tr_recovered : int;
  tr_lost : int;  (** acked but missing/wrong after recovery *)
  tr_resurrected : int;  (** recovered but never acked *)
  tr_escapes : int;  (** read-time checksum failures *)
  tr_truncated_tails : int;
  tr_quarantined : int;
  tr_unquarantined_damage : int;
}

val run_trial :
  exe:string -> dir:string -> seed:int -> n:int -> ?segbytes:int -> rates -> trial
(** One seeded trial: spawn [exe] as child on a fresh [dir], collect
    ack lines, wait, recover fault-free, compare, scrub, clean up. *)

type summary = {
  s_trials : int;
  s_killed : int;
  s_completed : int;
  s_acked : int;
  s_recovered : int;
  s_lost : int;
  s_resurrected : int;
  s_escapes : int;
  s_truncated_tails : int;
  s_quarantined : int;
  s_unquarantined_damage : int;
}

val run_trials :
  exe:string -> tmp:string -> trials:int -> seed0:int -> n:int -> rates -> summary

(** {1 The partition-aware replication oracle}

    A replication trial drives a live [Replica] cluster (backends
    re-exec'd with per-node disk fault planes, the coordinator's frames
    under the seeded chaos plane) through a deterministic ingest while
    a seeded schedule SIGKILLs and partitions nodes — biased toward the
    current primary — then heals everything and demands convergence.
    The ledger gates: every quorum-acked write survives byte-exact on
    every replica, no confirmed-rolled-back write resurrects anywhere,
    ambiguous rollbacks (tainted nodes) at least converge, and the
    segment files of all replicas end byte-identical. *)

type repl_trial = {
  rt_ops : int;
  rt_acked : int;  (** live docs per the acked ledger *)
  rt_refused : int;  (** quorum-refused writes, rollback confirmed *)
  rt_ambiguous : int;  (** rollback unconfirmed (node tainted) *)
  rt_kills : int;
  rt_partitions : int;
  rt_primary_disrupted : bool;  (** a kill/partition hit the then-primary *)
  rt_promotions : int;
  rt_truncated_tails : int;
  rt_repairs : int;
  rt_converged : bool;  (** repair converged and segment files byte-match *)
  rt_lost : int;  (** acked but missing/wrong on some replica *)
  rt_resurrected : int;  (** present on some replica but never acked *)
}

val seg_digests : string -> (string * string) list
(** [(file name, MD5 hex of the whole file)] for every segment file in a
    directory, read from disk — the byte-for-byte convergence check. *)

val run_repl_trial :
  dir:string ->
  seed:int ->
  n:int ->
  ?replicas:int ->
  ?write_quorum:int ->
  ?segbytes:int ->
  ?chaos:bool ->
  rates ->
  repl_trial
(** One seeded replication trial on a fresh [dir]. [rates.r_fignore] is
    ignored: lying fsync voids the quorum contract itself and belongs
    to the single-store oracle's weaker invariants. *)

type repl_summary = {
  rs_trials : int;
  rs_ops : int;
  rs_acked : int;
  rs_refused : int;
  rs_ambiguous : int;
  rs_kills : int;
  rs_partitions : int;
  rs_primary_disrupted : int;
      (** trials whose then-primary was killed or partitioned *)
  rs_promotions : int;
  rs_truncated_tails : int;
  rs_repairs : int;
  rs_diverged : int;  (** trials that failed to converge byte-identically *)
  rs_lost : int;
  rs_resurrected : int;
}

val run_repl_trials :
  tmp:string -> trials:int -> seed0:int -> n:int -> ?chaos:bool -> rates -> repl_summary
