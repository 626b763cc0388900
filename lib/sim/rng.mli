(** Deterministic SplitMix64 pseudo-random number generator.

    Every source of randomness in the simulator flows from explicitly seeded
    instances of this generator, so runs are reproducible bit-for-bit. *)

type t

val create : seed:int -> t

val copy : t -> t

val split : t -> t
(** [split t] derives an independent generator and advances [t]; use it to
    hand child components their own streams. *)

val next_int64 : t -> int64

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val fill_float : t -> Float.Array.t -> unit
(** [fill_float t a] fills [a] in index order with the values that
    successive [float t 1.0] calls would return, without boxing each one:
    the bulk draw for host loops that consume many uniforms. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
