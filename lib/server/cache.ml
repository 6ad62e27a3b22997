(* The server's cache directory: one checksummed delta manifest per
   (design content, compile-options fingerprint) key, written by
   [{"op":"delta"}] requests and read back as the base of the next edit
   (docs/DELTA.md).  Compile requests never read or write it, so a
   compile's answer depends only on its design text and settings.

   The module is stateless — all functions take the directory explicitly —
   so concurrent worker domains share nothing but the filesystem.  Stores
   are atomic and durable (write a writer-private temp file, fsync it, then
   rename: a crash mid-write can leave at most a stale temp file, never a
   short-but-parseable entry); loads of a missing key are misses; loads of
   an unreadable, truncated or checksum-mismatched file are reported
   corrupt with an E_CACHE warning, and the request compiles cold.

   Hygiene for long-lived servers: a successful load touches the entry's
   mtime, making mtime an LRU clock; [gc ~max_bytes] deletes the files
   older versions left behind (reroute contexts, per-block ledger slices),
   then evicts oldest-mtime-first under an exclusive lock file until the
   directory fits the cap, so entries in active use (recently loaded or
   stored) survive. *)

module Diag = Msched_diag.Diag

let hash_hex = Diag.Json.hash_hex

let fingerprint = Msched.Compile.options_fingerprint

(* Keys hash the {e canonical} serial text when the design parses:
   whitespace, comments and file-local net numbering no longer split one
   design across several cache entries.  Unparseable text (which the
   compile path will reject anyway) keys on its raw bytes. *)
let key_of_parse ~text ~options parsed =
  let text =
    match parsed with
    | Ok nl -> Msched_netlist.Serial.to_string nl
    | Error _ -> text
  in
  hash_hex (fingerprint options ^ "\n" ^ text)

let key ~text ~options =
  key_of_parse ~text ~options (Msched_netlist.Serial.of_string text)

(* Shim: the name reroute contexts were stored under.  Nothing writes it
   now; the benchmark under perfbench/ still names it. *)
let file ~dir ~key = Filename.concat dir ("reroute-" ^ key ^ ".json")

let ensure_dir dir =
  (* mkdir -p, shallow: the cache dir plus one missing parent is all the
     CLI ever needs; anything deeper fails loudly below. *)
  let rec make d =
    if not (Sys.file_exists d) then begin
      make (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make dir;
  if not (Sys.is_directory dir) then
    raise (Diag.Fail (Diag.error Diag.E_CACHE "%s is not a directory" dir))

type load = Miss | Hit of Msched_route.Reroute.t | Corrupt of Diag.t

(* Shims for the benchmark under perfbench/, which still calls the
   deleted reroute cache: every load misses and every store is a no-op,
   neither touching the filesystem. *)
let load ~dir:_ ~key:_ = Miss
let store ~dir:_ ~key:_ _ = Ok ()

(* A hit bumps the entry's mtime so LRU eviction ([gc]) sees it as in
   active use.  Best-effort: a read-only cache still serves hits. *)
let touch path = try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

let write_atomic ~path payload =
  (* pid + domain id: unique per writer even when several processes (each
     with a domain 0) share the directory — two writers can never clobber
     each other's temp file, and rename keeps the entry itself atomic. *)
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Domain.self () :> int)
  in
  match
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let n = String.length payload in
        let written = ref 0 in
        while !written < n do
          written :=
            !written + Unix.write_substring fd payload !written (n - !written)
        done;
        (* Durability before visibility: without the fsync, a crash after
           the rename could expose an entry whose tail never reached disk —
           short but possibly still parseable.  With it, the rename only
           ever publishes fully-written bytes. *)
        Unix.fsync fd);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception e ->
      let msg =
        match e with
        | Sys_error msg -> msg
        | Unix.Unix_error (err, _, _) -> Unix.error_message err
        | e -> Printexc.to_string e
      in
      (if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ());
      Error
        (Diag.warning Diag.E_CACHE "could not persist cache entry %s: %s"
           path msg)

(* ---- Delta manifests: one checksummed file per design. ---- *)

module Manifest = Msched_delta.Manifest

let manifest_file ~dir ~key = Filename.concat dir ("manifest-" ^ key ^ ".json")

let store_manifest ~dir ~key m =
  write_atomic
    ~path:(manifest_file ~dir ~key)
    (Manifest.to_json_string m ^ "\n")

type manifest_load = M_miss | M_hit of Manifest.t * int | M_corrupt of Diag.t

(* Keys reach [load_manifest] from clients, so anything but the 16
   lowercase hex digits [hash_hex] produces is a miss before it can name
   a path: no "../", no "/", no NUL. *)
let is_key key =
  String.length key = 16
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) key

let load_manifest ~dir ~key =
  let path = manifest_file ~dir ~key in
  if not (is_key key && Sys.file_exists path) then M_miss
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg ->
        M_corrupt
          (Diag.warning Diag.E_CACHE
             "delta manifest %s unreadable (%s); compiling cold" path msg)
    | text -> (
        match Manifest.of_json_string text with
        | Error msg ->
            M_corrupt
              (Diag.warning Diag.E_CACHE
                 "delta manifest %s corrupt (%s); compiling cold" path msg)
        | Ok m ->
            touch path;
            M_hit (m, 0))

(* ---- Hygiene: stats, locking, LRU-by-mtime eviction. ---- *)

let has_prefix p name =
  String.length name > String.length p + String.length ".json"
  && String.sub name 0 (String.length p) = p

let is_entry name =
  Filename.check_suffix name ".json"
  && (has_prefix "reroute-" name || has_prefix "manifest-" name
    || has_prefix "block-" name)

(* Entries with their size and mtime; files that vanish mid-scan (another
   worker's rename or eviction) are skipped, not errors. *)
let scan dir =
  let names = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.fold_left
    (fun acc name ->
      if not (is_entry name) then acc
      else
        let path = Filename.concat dir name in
        match Unix.stat path with
        | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
            (path, st_size, st_mtime) :: acc
        | _ | (exception Unix.Unix_error _) -> acc)
    [] names

type stats = {
  st_entries : int;
  st_manifests : int;
  st_blocks : int;
  st_bytes : int;
  st_oldest_s : float;  (** Age in seconds of the least-recently-used entry. *)
}

let stats ~dir =
  let entries = scan dir in
  let now = Unix.gettimeofday () in
  List.fold_left
    (fun acc (path, size, mtime) ->
      let name = Filename.basename path in
      {
        st_entries = acc.st_entries + 1;
        st_manifests =
          (acc.st_manifests + if has_prefix "manifest-" name then 1 else 0);
        st_blocks = (acc.st_blocks + if has_prefix "block-" name then 1 else 0);
        st_bytes = acc.st_bytes + size;
        st_oldest_s = Float.max acc.st_oldest_s (now -. mtime);
      })
    {
      st_entries = 0;
      st_manifests = 0;
      st_blocks = 0;
      st_bytes = 0;
      st_oldest_s = 0.0;
    }
    entries

let lock_path dir = Filename.concat dir ".msched-cache.lock"

let with_lock ~dir f =
  ensure_dir dir;
  let fd =
    Unix.openfile (lock_path dir) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.lockf fd Unix.F_LOCK 0;
      Fun.protect
        ~finally:(fun () ->
          try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
        f)

type gc_result = {
  gc_scanned : int;
  gc_evicted : int;
  gc_orphans : int;
  gc_bytes_before : int;
  gc_bytes_after : int;
}

(* Manifests are the only live format: every [reroute-*] context and
   [block-*] ledger slice an older version left behind is dead, so sweep
   them all before the LRU pass, which then only ever sees live entries. *)
let is_leftover name = has_prefix "reroute-" name || has_prefix "block-" name

let gc ~dir ~max_bytes =
  with_lock ~dir (fun () ->
      let entries = scan dir in
      let total =
        List.fold_left (fun acc (_, size, _) -> acc + size) 0 entries
      in
      let orphans, live, bytes =
        List.fold_left
          (fun (orphans, live, bytes) ((path, size, _) as e) ->
            if not (is_leftover (Filename.basename path)) then
              (orphans, e :: live, bytes)
            else
              match Sys.remove path with
              | () -> (orphans + 1, live, bytes - size)
              | exception Sys_error _ -> (orphans, live, bytes))
          (0, [], total) entries
      in
      (* Oldest mtime first = least recently used first (loads touch);
         path tie-break keeps eviction order deterministic. *)
      let by_age =
        List.sort
          (fun (pa, _, ma) (pb, _, mb) ->
            match compare (ma : float) mb with 0 -> compare pa pb | c -> c)
          live
      in
      let evicted, bytes_after =
        List.fold_left
          (fun (evicted, bytes) (path, size, _) ->
            if bytes <= max_bytes then (evicted, bytes)
            else
              match Sys.remove path with
              | () -> (evicted + 1, bytes - size)
              | exception Sys_error _ -> (evicted, bytes))
          (0, bytes) by_age
      in
      {
        gc_scanned = List.length entries;
        gc_evicted = evicted;
        gc_orphans = orphans;
        gc_bytes_before = total;
        gc_bytes_after = bytes_after;
      })
