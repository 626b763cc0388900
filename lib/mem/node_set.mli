(** Compact sets of node identifiers (bitmask over node ids 0..62). *)

type t = private int

val max_nodes : int
(** 63: one bit of a native int per node id, ids [0 .. max_nodes - 1].
    The largest rack the protocol can address; [Dex_core.Cluster.create]
    rejects bigger ones. *)

val empty : t
val singleton : int -> t
val add : t -> int -> t
val remove : t -> int -> t
val mem : t -> int -> bool
val is_empty : t -> bool
val cardinal : t -> int
val to_list : t -> int list
val of_list : int list -> t
val fold : t -> init:'a -> f:(int -> 'a -> 'a) -> 'a
val pp : Format.formatter -> t -> unit
