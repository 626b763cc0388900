(** Configuration of the multi-tenant serving layer.

    A serve run hosts many concurrent DeX processes as {e tenants} on one
    shared cluster: each tenant is an open-loop arrival process (requests
    keep coming whether or not earlier ones finished) whose requests are
    small application runs. The knobs below cover the four serving
    concerns: traffic shape (arrival processes), overload behaviour
    (admission control and shedding), fair sharing (weighted shares of the
    per-node ingress service capacity, with a noisy-neighbour cap) and
    blast-radius isolation (per-tenant node placements). *)

open Dex_apps

type arrival =
  | Poisson of float  (** arrival rate, requests per simulated millisecond *)
  | Mmpp of {
      calm : float;  (** arrival rate in the calm state, requests/ms *)
      burst : float;  (** arrival rate in the burst state, requests/ms *)
      dwell_calm_ms : float;  (** mean dwell time in the calm state *)
      dwell_burst_ms : float;  (** mean dwell time in the burst state *)
    }
      (** Two-state Markov-modulated Poisson process: bursty tenants
          alternate between a calm and a burst rate, with exponentially
          distributed dwell times. *)

type workload =
  | Ep of Ep.params  (** compute-bound kernel with a final DSM reduction *)
  | Blk of Blk.params  (** option pricing: streaming reads, page writes *)
  | Kmn of Kmn.params  (** iterative clustering: barriers every round *)
  | Mix of workload list
      (** per-request uniform draw from the list (from the tenant's own
          RNG stream, so the sequence is reproducible per tenant) *)

type tenant = {
  t_name : string;
  t_arrival : arrival;
  t_workload : workload;
  t_weight : float;  (** fair-share weight at the ingress gates *)
  t_max_inflight : int;  (** per-tenant concurrency cap (>= 1) *)
  t_max_pending : int;  (** pending-queue bound; [0] = unbounded *)
  t_req_bytes : int;
      (** ingress bytes each request charges through its origin node's
          service gate before the application body runs *)
  t_nodes : int;  (** nodes each request's process spans (>= 1) *)
  t_threads_per_node : int;
}

type t = {
  tenants : tenant list;
  seed : int;
      (** master seed; each tenant derives an independent stream via
          {!Dex_sim.Rng.split}, so adding a tenant never perturbs the
          others' arrivals *)
  duration : Dex_sim.Time_ns.t;
      (** length of the arrival window; admitted requests run to
          completion past it *)
  shed_after : Dex_sim.Time_ns.t option;
      (** load shedding: [Some d] drops, at dispatch, every queued
          request that waited longer than [d] instead of serving it;
          [None] serves everything admitted. (Arrivals beyond
          [t_max_pending] are rejected either way.) *)
  fair : bool;
      (** weighted fair sharing at the ingress gates; off = one FIFO
          gate per node, first come first served *)
  nn_cap : float;
      (** noisy-neighbour cap: no tenant's share of a gate ever exceeds
          this fraction of its capacity, idle or not; in (0, 1] *)
  gate_bytes_per_us : float;
      (** ingress service capacity of each node's gate *)
  ha : bool;
      (** place each request's service origin on a node carrying no
          threads, so an origin crash exercises failover (requires
          replication armed in the cluster's proto config) *)
}

val default_tenant : tenant
(** 2 req/ms Poisson, a tiny EP workload, weight 1, inflight cap 4,
    pending bound 64, 8 KB ingress, 2 nodes x 2 threads. *)

val tiny_ep : Ep.params
val tiny_blk : Blk.params
val tiny_kmn : Kmn.params
(** Request-scale parameter presets: each completes in a few hundred
    microseconds of simulated time on two nodes. *)

val default : t
(** 8 uniform tenants at moderate load on seed 42: 6 ms window, shedding
    on (2 ms bound), fair sharing on with a 50% noisy-neighbour cap. *)

val validate : t -> unit
(** Raises [Invalid_argument] on nonsense (no tenants, non-positive
    rates/weights/caps, out-of-range [nn_cap], ...). *)
