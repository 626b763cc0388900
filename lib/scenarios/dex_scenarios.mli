(** Experiment set-ups shared by [bench/main.exe] and [dex_run].

    Each function here is one scenario that both executables run: they
    call it and keep only their own printing. *)

(** {1 Transport presets} *)

val reliable_chaos : seed:int -> Dex_net.Net_config.chaos
(** Chaos on with no injected faults: the reliable transport that
    fail-stop crashes need for detection, with a short retry budget
    (20 µs RTO, 100 µs cap, 4 retransmits) so detection is quick. Add
    drop, duplication or reordering probabilities on top for a lossy
    run. *)

val with_chaos :
  nodes:int -> Dex_net.Net_config.chaos -> Dex_net.Net_config.t
(** The calibrated [nodes]-node fabric running [chaos]. *)

val reliable_net : seed:int -> nodes:int -> Dex_net.Net_config.t
(** [with_chaos ~nodes (reliable_chaos ~seed)]. *)

val crash_net :
  nodes:int -> Dex_net.Net_config.crash list -> Dex_net.Net_config.t
(** The worker-crash preset: the reliable transport with seed 23, a
    100 µs RTO, a 500 µs cap and 8 retransmits, plus the scheduled
    [crashes]. *)

(** {1 Origin failover} *)

type failover = {
  cluster : Dex_core.Cluster.t;
  proc : Dex_core.Process.t;  (** the finished process *)
  final : int64;  (** the shared counter, read back after every writer *)
  expect : int;  (** writers × rounds: the counter with no lost write *)
}

val failover :
  nodes:int ->
  replication:[ `Off | `Sync | `Async of int ] ->
  standbys:int ->
  rounds:int ->
  ?crash_at:Dex_sim.Time_ns.t ->
  ?double_crash:bool ->
  unit ->
  failover
(** One writer per non-origin node [fetch_add]s a shared counter
    [rounds] times over {!reliable_net} (seed 11), with [replication]
    onto the [standbys] lowest-numbered nodes and the [`Rehome] crash
    policy. Main moves off the origin, so it rides out an origin crash.
    With [crash_at], main computes that long and then fail-stops the
    origin; with [double_crash] (default [false]) standby 1 dies at the
    same instant, and the writers stay off it. *)

(** {1 Crash recovery} *)

val audit_reclaim : Dex_core.Process.t -> dead:int -> int
(** Checks the protocol's invariants after the reclaim pass
    ({!Dex_proto.Coherence.check_invariants}, which raises on a broken
    one) and returns how many directory entries still name the [dead]
    node: 0 after a correct reclaim. *)

val pp_recovery : Format.formatter -> Dex_core.Process.t -> unit
(** One [recovery:] line with the process's four [crash.*] counters:
    threads aborted and rehomed, futex waits cancelled, migrations
    refused. *)
