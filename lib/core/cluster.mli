(** A simulated rack of nodes running DeX.

    Owns the discrete-event engine, the InfiniBand fabric, and per-node
    hardware resources (core pools, memory-bandwidth channels). Processes
    register message routers; the cluster installs one fabric handler per
    node that fans incoming messages out to them.

    {b Lifetimes.} A rack outlives the processes it hosts (the serving
    layer runs thousands of them on one cluster). Every per-process
    registration on it — a router ({!add_router}) or a crash subscription
    ({!Dex_net.Fabric.on_crash}) — returns a release handle that the
    registering process owns and calls when it exits; a handle that is
    never called keeps the process reachable, and on the dispatch path,
    for the life of the rack. Handles are idempotent. *)

type t

val create :
  ?config:Core_config.t ->
  ?net:Dex_net.Net_config.t ->
  ?proto:Dex_proto.Proto_config.t ->
  ?seed:int ->
  nodes:int ->
  unit ->
  t
(** Raises [Invalid_argument] unless [1 <= nodes <= ]
    {!Dex_mem.Node_set.max_nodes}: every directory holds its reader set
    in a {!Dex_mem.Node_set}. *)

val engine : t -> Dex_sim.Engine.t

val fabric : t -> Dex_net.Fabric.t

val config : t -> Core_config.t

val proto_config : t -> Dex_proto.Proto_config.t

val nodes : t -> int

val cores : t -> node:int -> Dex_sim.Resource.Pool.t

val membw : t -> node:int -> Membw.t

val storage : t -> Dex_sim.Resource.Server.t
(** The shared NAS appliance backing the NFS share every node mounts. *)

val rng : t -> Dex_sim.Rng.t

val fresh_pid : t -> int

val add_router : t -> (Dex_net.Fabric.env -> bool) -> unit -> unit
(** Register a message consumer and return its release handle (see
    {b Lifetimes} above). Routers are tried in registration order and the
    first returning [true] wins. An unrouted message is an error. *)

val crash_node : t -> node:int -> unit
(** Fail-stop [node] at the current simulation time: it stops servicing
    fabric messages instantly and is declared dead once survivors notice
    (retry-budget exhaustion or the keepalive backstop) — see
    {!Dex_net.Fabric.crash}. Requires the chaos fabric
    ({!Dex_net.Net_config.chaos}); crashes can also be pre-scheduled with
    the chaos [crashes] knob. Crashing a process origin is only survivable
    when that process armed origin replication
    ({!Dex_proto.Proto_config.replication}): the standby is promoted and
    service resumes. With replication off it is unsupported — the
    directory dies with the origin. *)

val node_crashed : t -> node:int -> bool
(** Ground truth: has [node] fail-stopped (whether or not survivors have
    detected it yet)? *)

val run : t -> unit
(** Drive the simulation until quiescent. *)

val now : t -> Dex_sim.Time_ns.t
