type t = {
  fault_entry : Dex_sim.Time_ns.t;
  follower_resume : Dex_sim.Time_ns.t;
  pte_update : Dex_sim.Time_ns.t;
  origin_handler : Dex_sim.Time_ns.t;
  invalidate_handler : Dex_sim.Time_ns.t;
  local_op : Dex_sim.Time_ns.t;
  backoff_base : Dex_sim.Time_ns.t;
  backoff_cap : Dex_sim.Time_ns.t;
  ctl_msg_size : int;
  page_msg_size : int;
  coalesce_faults : bool;
  grant_without_data : bool;
  prefetch_depth : int;
  on_crash : [ `Abort | `Rehome ];
  replication : [ `Off | `Sync | `Async of int ];
  standbys : [ `Lowest of int | `Nodes of int list ];
  sharding : [ `Hash of int | `Range of int ];
  serial_home_service : bool;
}

let default =
  {
    fault_entry = Dex_sim.Time_ns.ns 3_400;
    follower_resume = Dex_sim.Time_ns.ns 600;
    pte_update = Dex_sim.Time_ns.ns 1_300;
    origin_handler = Dex_sim.Time_ns.ns 2_100;
    invalidate_handler = Dex_sim.Time_ns.ns 1_000;
    local_op = Dex_sim.Time_ns.ns 900;
    backoff_base = Dex_sim.Time_ns.us 60;
    backoff_cap = Dex_sim.Time_ns.us 600;
    ctl_msg_size = 64;
    page_msg_size = 4096 + 64;
    coalesce_faults = true;
    grant_without_data = true;
    (* 0 = off: the base protocol matches the paper's §III-B/C
       description exactly; a positive depth is the ablation knob
       (bench/main.exe ablation) and the opt-in for bulk-scan workloads. *)
    prefetch_depth = 0;
    (* Abort is the honest default: a thread whose node fail-stopped lost
       its register state, so only work the application can re-issue from
       scratch should survive. Rehome is the opt-in for restartable
       workers. *)
    on_crash = `Abort;
    (* Off by default: with no standby the protocol is bit-identical to a
       build without the HA layer. `Sync fences every externalized reply
       on the replication ack; `Async n tolerates up to n unacked log
       entries and can lose that suffix on an origin crash. *)
    replication = `Off;
    (* One standby, the lowest-numbered non-origin node: the
       single-replica behaviour. Raise the count to tolerate simultaneous
       origin+standby crashes (any minority of the origin+k set). *)
    standbys = `Lowest 1;
    (* One shard: every page is homed at the origin, the paper's single
       directory. `Hash n spreads page ownership over n home nodes by vpn
       modulo; `Range n homes 64-page runs, preserving prefetch locality
       within a run. *)
    sharding = `Hash 1;
    (* Off by default: concurrent home-side handlers overlap freely (the
       historical behaviour). On, each node's protocol handler is one
       service loop — requests queue, and a single overloaded home
       saturates: the origin-CPU ceiling sharding exists to relieve. *)
    serial_home_service = false;
  }
