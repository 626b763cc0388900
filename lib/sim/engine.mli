(** Deterministic discrete-event engine with direct-style fibers.

    The engine owns a virtual clock and an event queue. Simulated threads
    ("fibers") are ordinary OCaml functions running under an effect handler:
    a fiber blocks by performing a [Suspend] effect whose resumption is
    re-scheduled through the event queue, so execution is fully trampolined
    and strictly ordered by (time, sequence number). Identical inputs always
    produce identical executions. *)

type t

exception Deadlock
(** Raised by {!run_until_quiescent} when fibers are still blocked but no
    event can ever wake them. *)

val create : unit -> t
(** [create ()] is a fresh engine at time 0 with an empty event queue. *)

val now : t -> Time_ns.t
(** [now t] is the current simulated time. *)

val schedule : t -> delay:Time_ns.t -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t + delay]. [delay] must be
    non-negative. *)

val at : t -> time:Time_ns.t -> (unit -> unit) -> unit
(** [at t ~time f] runs [f] at absolute [time] (clamped to [now t]). *)

val spawn : t -> ?label:string -> (unit -> unit) -> unit
(** [spawn t f] starts a new fiber executing [f] at the current time. An
    exception escaping [f] aborts the whole simulation with the fiber's
    [label] attached. *)

val suspend : t -> (('a -> unit) -> unit) -> 'a
(** [suspend t register] blocks the calling fiber. [register resume] is
    called immediately with a one-shot [resume] function; invoking
    [resume v] (from any other fiber or event) schedules the blocked fiber
    to continue with value [v] at the then-current time. Must be called from
    within a fiber. *)

val delay : t -> Time_ns.t -> unit
(** [delay t d] blocks the calling fiber for [d] simulated nanoseconds. *)

val yield : t -> unit
(** [yield t] reschedules the calling fiber behind events already pending at
    the current instant. *)

val live_fibers : t -> int
(** [live_fibers t] is the number of fibers that have started and not yet
    finished (blocked fibers count as live). *)

val run : ?until:Time_ns.t -> t -> unit
(** [run t] processes events until the queue is empty (or until the given
    time bound, exclusive of later events). Fibers blocked forever are left
    blocked silently; see {!run_until_quiescent} to treat that as an error. *)

val run_until_quiescent : t -> unit
(** Like {!run}, but raises {!Deadlock} if the queue drains while some fiber
    is still blocked. *)

exception Fiber_failure of string * exn
(** [Fiber_failure (label, exn)]: exception [exn] escaped the fiber
    [label]. A registered {!Printexc} printer renders both, e.g.
    [Dex_sim.Engine.Fiber_failure("main:0", Failure("boom"))]. *)
