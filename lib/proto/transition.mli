(** The §III-B ownership protocol as a table.

    Multiple-reader / single-writer: one pure function maps a page's
    directory state and one request to everything the home must do about
    it. The home's grant paths ({!Coherence}'s single and batched grants,
    and the duplicate-fault probe) take their decision from {!decide} and
    keep only the effects: locking, the revocation fan-out, mirroring and
    snapshots. *)

type verdict = {
  next : Dex_mem.Directory.state option;
      (** membership to install once the revocations are done, before the
          home filters out nodes declared dead meanwhile; [None] leaves the
          entry as it is. A read of a [Shared] page always re-installs the
          reader set, so every read grant reaches the directory observer. *)
  reclaim : (int * Messages.revoke_mode) option;
      (** exclusive owner to pull the page back from, and how *)
  invalidate : int list;
      (** remote readers (neither the requester nor the home) to invalidate *)
  invalidate_home : bool;  (** the home's own read copy is invalidated *)
  displaced : int list;
      (** holders a write grant displaces: the subscribers a
          replicate-marked page pushes copies back to *)
  had_copy : bool;
      (** the requester already held a valid copy, so its own bytes are
          kept *)
  wire_data : bool;
      (** the grant is charged as a full page on the wire: the requester is
          remote and lacked a copy, or [grant_without_data] is off *)
  noop : bool;
      (** the requester already holds the page at the requested access:
          nothing is revoked and the membership does not change *)
}

val decide :
  Dex_mem.Directory.state ->
  access:Dex_mem.Perm.access ->
  requester:int ->
  home:int ->
  grant_without_data:bool ->
  verdict
(** The transition for [requester] asking for [access] on a page in the
    given state at [home]:
    - a read of an exclusive page downgrades the owner, and the owner, the
      home (which mediated the transfer) and the requester share it;
    - a read of a shared page adds the requester to the readers;
    - a write reclaims an exclusive owner, or invalidates every other
      reader, and leaves the requester the single writer. *)

val holds : Dex_mem.Directory.state -> int -> bool
(** Whether the state lists the node as a holder of a valid copy. *)

val drop : Dex_mem.Directory.state -> home:int -> node:int ->
  Dex_mem.Directory.state option
(** The entry with [node] removed from its holders, or [None] when [node]
    holds no copy. An emptied entry falls back to exclusive at [home],
    whose staging copy is the last one anybody observed. *)
