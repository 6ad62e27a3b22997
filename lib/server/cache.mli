(** The server's cache directory, two kinds of checksummed entry:

    - [result-<key>.json]: one compile record per exact request — the
      retry policy plus the raw design text.  A byte-identical repeat is
      answered from it instead of compiling again ({!Server.answer}).
    - [manifest-<key>.json]: one delta manifest
      ({!Msched_delta.Manifest}) per design content and compile-options
      fingerprint.  [{"op":"delta"}] requests store them and read them
      back as the base of the next edit.

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

val key_of_canonical : options:Msched.Compile.options -> string -> string
(** {!key} from the text it hashes: {!Msched_netlist.Serial.to_string}
    of a parse, or the raw bytes of a text that does not parse.  The
    options fingerprint, a newline and the text are hashed as slices,
    never joined.  A delta request renders the canonical text once and
    derives both this key and its manifest's design fingerprint from
    it. *)

val ensure_dir : string -> unit
(** Create the cache directory, and every missing ancestor, if needed.
    @raise Msched_diag.Diag.Fail (E_CACHE) when the path exists but is not
    a directory. *)

(** {2 Compile results}

    One [result-<key>.json] file per exact request, [msched-result-1]:
    a header line carrying an FNV-1a checksum of everything after it,
    then the status, the policy line, the raw request text and the
    record's members after ["cache"] ([exit_code], [diagnostics],
    [result]).  Stores go through the same atomic, durable write as
    manifests. *)

val result_key : policy:string -> text:string -> string
(** The entry's file key: {!hash_hex} of [policy] (the server's options
    fingerprint and retry policy), a newline and the raw [text].  It
    only picks the file; {!load_result} checks policy and text byte for
    byte. *)

val result_file : dir:string -> key:string -> string

val store_result :
  dir:string ->
  key:string ->
  policy:string ->
  text:string ->
  status:[ `Ok | `Degraded ] ->
  tail:string * int * int ->
  (unit, Msched_diag.Diag.t) result
(** Store [tail], the slice [(s, pos, len)] holding a record's members
    after ["cache"], for this policy and text.  Atomic and durable like
    {!store_manifest}; [Error] carries an E_CACHE warning. *)

type result_load =
  | R_miss
      (** No file, or one whose stored policy or text differs from the
          request's (a key collision): compile and store over it. *)
  | R_hit of {
      tail : string * int * int;
          (** The stored tail, as a slice of the entry read. *)
      status : [ `Ok | `Degraded ];
    }
  | R_corrupt of Msched_diag.Diag.t
      (** Unreadable, truncated, malformed or checksum-mismatched; an
          E_CACHE warning.  The request compiles cold and its store
          repairs the entry. *)

val load_result :
  dir:string -> key:string -> policy:string -> text:string -> result_load
(** Reads the entry once and checks it in place: checksum, format, then
    policy and text against the request's.  A hit touches the file
    (LRU). *)

(** {2 Delta manifests}

    A {!Msched_delta.Manifest.t} is stored as one checksummed
    [manifest-<key>.json] file.  A missing file is a miss; an unreadable
    or corrupt one is [M_corrupt] with an E_CACHE warning.  A manifest the
    [--cache-max-bytes] janitor evicts is a miss whenever the eviction
    lands: the file is opened once, and [ENOENT] there means missing. *)

val manifest_file : dir:string -> key:string -> string

val store_manifest :
  dir:string ->
  key:string ->
  Msched_delta.Manifest.t ->
  (unit, Msched_diag.Diag.t) result
(** Atomic and durable: the entry is written to a writer-private temp file
    (name includes pid and domain id, so concurrent processes never
    collide), fsynced, then renamed into place — a crash can leave a stale
    temp file but never a partially-written entry.  The file holds
    {!Msched_delta.Manifest.to_json_string} and a newline, written as
    three slices (header, payload, closing brace and newline).  [Error]
    carries an E_CACHE warning; storing is best-effort and never fails a
    request. *)

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
      (** All cache entries: [result-*] and [manifest-*] files, plus any
          [reroute-*] / [block-*] files an older version left. *)
  st_results : int;  (** Compile results among them. *)
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
(** Delete every leftover [reroute-*] and [block-*] file, then evict
    [result-*] and [manifest-*] entries oldest-mtime-first (deterministic
    path tie-break) until total entry bytes fit [max_bytes], all under
    {!with_lock}.  Entries that vanish mid-scan are skipped; the lock file
    itself is never evicted.  Every entry is one self-contained file, so
    whatever survives still loads. *)

(** {2 Shims for the benchmark under [perfbench/]}

    The reroute cache is gone; compile requests use result entries
    instead.  These keep the benchmark's replay of it compiling. *)

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
