(** The server's cache directory: delta manifests
    ({!Msched_delta.Manifest}), one [manifest-<key>.json] file each,
    keyed by a content hash of the design text and the compile-options
    fingerprint.  [{"op":"delta"}] requests store them and read them back
    as the base of the next edit; compile requests never touch the
    directory.

    All functions are stateless in the directory argument — concurrent
    worker domains share nothing but the filesystem.  The layout is
    documented in [docs/SERVER.md]. *)

val hash_hex : string -> string
(** {!Msched_diag.Diag.Json.hash_hex}: FNV-1a 64-bit, as 16 lowercase hex
    digits. *)

val fingerprint : Msched.Compile.options -> string
(** {!Msched.Compile.options_fingerprint}: the option fields that change
    routing results; part of the cache key, so a manifest built under
    other options is stored under another key. *)

val key : text:string -> options:Msched.Compile.options -> string
(** Content hash of the {e canonical} serial form of [text] (when it
    parses — whitespace, comments and file-local net numbering do not
    split cache entries) plus the options fingerprint. *)

val key_of_parse :
  text:string ->
  options:Msched.Compile.options ->
  (Msched_netlist.Netlist.t, 'e) result ->
  string
(** {!key} from a parse the caller already made of [text]
    ({!Msched_netlist.Serial.of_string_diag} or [of_string]): keys on
    {!Msched_netlist.Serial.to_string} of the netlist, or on the raw
    bytes when the parse failed.  Byte-identical to {!key}, one parse
    cheaper. *)

val ensure_dir : string -> unit
(** Create the cache directory (and one missing parent) if needed.
    @raise Msched_diag.Diag.Fail (E_CACHE) when the path exists but is not
    a directory. *)

(** {2 Delta manifests}

    A {!Msched_delta.Manifest.t} is stored as one checksummed
    [manifest-<key>.json] file.  A missing file is a miss; an unreadable
    or corrupt one is [M_corrupt] with an E_CACHE warning. *)

val manifest_file : dir:string -> key:string -> string

val store_manifest :
  dir:string ->
  key:string ->
  Msched_delta.Manifest.t ->
  (unit, Msched_diag.Diag.t) result
(** Atomic and durable: the entry is written to a writer-private temp file
    (name includes pid and domain id, so concurrent processes never
    collide), fsynced, then renamed into place — a crash can leave a stale
    temp file but never a partially-written entry.  [Error] carries an
    E_CACHE warning; storing is best-effort and never fails a request. *)

type manifest_load =
  | M_miss
  | M_hit of Msched_delta.Manifest.t * int
      (** The manifest, and a count that is always 0: it once counted
          evicted per-block ledger files, and stays for the frozen
          benchmark under [perfbench/]. *)
  | M_corrupt of Msched_diag.Diag.t

val load_manifest : dir:string -> key:string -> manifest_load
(** A hit touches the file (LRU).  A [key] that is not 16 lowercase hex
    digits (the only keys {!key} makes) is [M_miss] without touching the
    filesystem: clients send it, so it must never name another path. *)

(** {2 Hygiene: stats, locking, LRU eviction}

    A long-lived serve process grows the cache without bound unless capped.
    [gc ~max_bytes] evicts entries oldest-mtime-first (loads touch, so
    mtime order is LRU order) until the directory fits the cap, under an
    exclusive advisory lock so two gc passes (or gc racing an external
    [msched cache gc]) never double-delete. *)

type stats = {
  st_entries : int;
      (** All cache entries: [manifest-*] files, plus any [reroute-*] /
          [block-*] files an older version left. *)
  st_manifests : int;  (** Delta manifests among them. *)
  st_blocks : int;
      (** Leftover per-block ledger files from older versions; the next
          {!gc} deletes them. *)
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
      (** Leftover [reroute-*] and [block-*] files deleted: nothing reads
          either format. *)
  gc_bytes_before : int;
  gc_bytes_after : int;
}

val gc : dir:string -> max_bytes:int -> gc_result
(** Delete every leftover [reroute-*] and [block-*] file, then evict entries
    oldest-mtime-first (deterministic path tie-break) until total entry
    bytes fit [max_bytes], all under {!with_lock}.  Entries that vanish
    mid-scan are skipped; the lock file itself is never evicted.  Every
    entry is one self-contained file, so whatever survives still loads. *)

(** {2 Shims for the benchmark under [perfbench/]}

    The reroute cache is gone: compile requests neither read nor write
    the directory.  These keep the benchmark's replay of it compiling. *)

val file : dir:string -> key:string -> string
(** The [reroute-<key>.json] name reroute contexts were stored under;
    nothing writes it, and {!gc} deletes any such file it finds. *)

type load =
  | Miss
  | Hit of Msched_route.Reroute.t  (** Never returned. *)
  | Corrupt of Msched_diag.Diag.t  (** Never returned. *)

val load : dir:string -> key:string -> load
(** Always [Miss], without touching the filesystem. *)

val store :
  dir:string -> key:string -> Msched_route.Reroute.t -> (unit, Msched_diag.Diag.t) result
(** Always [Ok ()]; writes nothing. *)
