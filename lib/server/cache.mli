(** On-disk warm-route cache: persisted {!Msched_route.Reroute} contexts
    keyed by a content hash of the design text and the compile-options
    fingerprint, so warm retries span processes.

    All functions are stateless in the directory argument — concurrent
    worker domains share nothing but the filesystem.  The file layout
    ([reroute-<key>.json], one canonical [msched-reroute-1] document each)
    is documented in [docs/SERVER.md]. *)

val hash_hex : string -> string
(** {!Msched_diag.Diag.Json.hash_hex}: FNV-1a 64-bit, as 16 lowercase hex
    digits. *)

val fingerprint : Msched.Compile.options -> string
(** {!Msched.Compile.options_fingerprint}: the option fields that change
    routing results; part of the cache key so stale contexts are never
    replayed against different options. *)

val key : text:string -> options:Msched.Compile.options -> string
(** Content hash of the {e canonical} serial form of [text] (when it
    parses — whitespace, comments and file-local net numbering do not
    split cache entries) plus the options fingerprint. *)

val file : dir:string -> key:string -> string

val ensure_dir : string -> unit
(** Create the cache directory (and one missing parent) if needed.
    @raise Msched_diag.Diag.Fail (E_CACHE) when the path exists but is not
    a directory. *)

type load =
  | Miss  (** No cache file for this key. *)
  | Hit of Msched_route.Reroute.t
  | Corrupt of Msched_diag.Diag.t
      (** Unreadable / truncated / checksum-mismatched file: the carried
          E_CACHE warning says why; the caller degrades to a cold start. *)

val load : dir:string -> key:string -> load
(** A [Hit] also touches the entry's mtime (best-effort), making mtime a
    least-recently-used clock for {!gc}. *)

val store :
  dir:string -> key:string -> Msched_route.Reroute.t -> (unit, Msched_diag.Diag.t) result
(** Atomic and durable: the entry is written to a writer-private temp file
    (name includes pid and domain id, so concurrent processes never
    collide), fsynced, then renamed into place — a crash can leave a stale
    temp file but never a partially-written entry.  [Error] carries an
    E_CACHE warning; persisting is best-effort and never fails a job. *)

(** {2 Block-granular delta-manifest entries}

    A {!Msched_delta.Manifest.t} is stored as [manifest-<key>.json] (the
    header: shape, fingerprints, boundary signatures) plus one
    [block-<key>-<n>.json] ledger slice per block, all atomic like
    {!store}.  Slices evict independently under {!gc}: a manifest whose
    slices were evicted still loads — the missing blocks' ledger entries
    just compile cold — while a missing or corrupt header is a full miss
    ([M_corrupt] carries the E_CACHE warning). *)

val manifest_file : dir:string -> key:string -> string
val block_file : dir:string -> key:string -> block:int -> string

val store_manifest :
  dir:string ->
  key:string ->
  Msched_delta.Manifest.t ->
  (unit, Msched_diag.Diag.t) result

type manifest_load =
  | M_miss
  | M_hit of Msched_delta.Manifest.t * int
      (** The reassembled manifest and the number of evicted or corrupt
          block slices it is missing (0 = fully warm). *)
  | M_corrupt of Msched_diag.Diag.t

val load_manifest : dir:string -> key:string -> manifest_load
(** Touches every file it reads (LRU). *)

(** {2 Hygiene: stats, locking, LRU eviction}

    A long-lived serve process grows the cache without bound unless capped.
    [gc ~max_bytes] evicts entries oldest-mtime-first (loads touch, so
    mtime order is LRU order) until the directory fits the cap, under an
    exclusive advisory lock so two gc passes (or gc racing an external
    [msched cache gc]) never double-delete. *)

type stats = {
  st_entries : int;
      (** All cache entries ([reroute-*] / [manifest-*] / [block-*]). *)
  st_manifests : int;  (** Manifest headers among them. *)
  st_blocks : int;  (** Block ledger slices among them. *)
  st_bytes : int;  (** Total bytes across entries. *)
  st_oldest_s : float;
      (** Age in seconds of the least-recently-used entry; [0.] when
          empty. *)
}

val stats : dir:string -> stats
(** Snapshot of the directory; never raises (an unreadable directory reads
    as empty). *)

val with_lock : dir:string -> (unit -> 'a) -> 'a
(** Run [f] holding an exclusive [Unix.lockf] lock on
    [dir/.msched-cache.lock] (created if missing).  Blocks until the lock
    is available; always released, even if [f] raises. *)

type gc_result = {
  gc_scanned : int;
  gc_evicted : int;
  gc_orphans : int;
      (** Block slices deleted because their manifest header was evicted
          (they are unreachable: loads go through the header). *)
  gc_bytes_before : int;
  gc_bytes_after : int;
}

val gc : dir:string -> max_bytes:int -> gc_result
(** Evict entries oldest-mtime-first (deterministic path tie-break) until
    total entry bytes fit [max_bytes], then sweep orphaned block slices,
    all under {!with_lock}.  Entries that vanish mid-scan are skipped; the
    lock file itself is never evicted.  Eviction never strands a manifest:
    a header that survives with missing slices still loads, degrading the
    missing blocks to cold with an E_CACHE accounting. *)
