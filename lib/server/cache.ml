(* Process-spanning warm-route cache: one msched-reroute-1 document per
   (design content, compile-options fingerprint) key on disk.  A later
   process compiling the same design under the same options deserializes
   the context and replays the previous run's routes instead of searching
   from scratch (ROADMAP: "warm retries span processes").

   The module is stateless — all functions take the directory explicitly —
   so concurrent worker domains share nothing but the filesystem.  Stores
   are atomic and durable (write a writer-private temp file, fsync it, then
   rename: a crash mid-write can leave at most a stale temp file, never a
   short-but-parseable entry); loads of a missing key are misses; loads of
   an unreadable, truncated or checksum-mismatched file degrade to a cold
   start with an E_CACHE warning instead of failing the job.

   Hygiene for long-lived servers: a successful load touches the entry's
   mtime, making mtime an LRU clock; [gc ~max_bytes] evicts
   oldest-mtime-first under an exclusive lock file until the directory fits
   the cap, so entries in active use (recently loaded or stored) survive. *)

module Reroute = Msched_route.Reroute
module Diag = Msched_diag.Diag

let hash_hex = Diag.Json.hash_hex

let fingerprint = Msched.Compile.options_fingerprint

(* Keys hash the {e canonical} serial text when the design parses:
   whitespace, comments and file-local net numbering no longer split one
   design across several cache entries.  Unparseable text (which the
   compile path will reject anyway) keys on its raw bytes. *)
let key ~text ~options =
  let text =
    match Msched_netlist.Serial.canonical text with
    | Ok canonical -> canonical
    | Error _ -> text
  in
  hash_hex (fingerprint options ^ "\n" ^ text)

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

type load = Miss | Hit of Reroute.t | Corrupt of Diag.t

(* A hit bumps the entry's mtime so LRU eviction ([gc]) sees it as in
   active use.  Best-effort: a read-only cache still serves hits. *)
let touch path = try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

let load ~dir ~key =
  let path = file ~dir ~key in
  if not (Sys.file_exists path) then Miss
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg ->
        Corrupt
          (Diag.warning Diag.E_CACHE
             "warm-route cache %s unreadable (%s); starting cold" path msg)
    | text -> (
        match Reroute.of_json_string text with
        | Ok ctx ->
            touch path;
            Hit ctx
        | Error msg ->
            Corrupt
              (Diag.warning Diag.E_CACHE
                 "warm-route cache %s corrupt (%s); starting cold" path msg))

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
        (Diag.warning Diag.E_CACHE "could not persist warm-route cache %s: %s"
           path msg)

let store ~dir ~key ctx =
  write_atomic ~path:(file ~dir ~key) (Reroute.to_json_string ctx ^ "\n")

(* ---- Block-granular delta-manifest entries. ----

   A manifest is stored as a header file plus one ledger slice per block,
   so LRU eviction can shed cold slices without killing the manifest.  A
   missing or corrupt slice degrades that block's entries to cold
   (counted, E_CACHE-warned); a missing or corrupt header is the whole
   manifest gone. *)

module Manifest = Msched_delta.Manifest

let manifest_file ~dir ~key = Filename.concat dir ("manifest-" ^ key ^ ".json")

let block_file ~dir ~key ~block =
  Filename.concat dir (Printf.sprintf "block-%s-%d.json" key block)

let store_manifest ~dir ~key m =
  let ( let* ) = Result.bind in
  let* () =
    write_atomic ~path:(manifest_file ~dir ~key) (Manifest.header_json m ^ "\n")
  in
  let rec blocks b =
    if b >= m.Manifest.num_blocks then Ok ()
    else
      let* () =
        write_atomic
          ~path:(block_file ~dir ~key ~block:b)
          (Manifest.slice_json m ~block:b ^ "\n")
      in
      blocks (b + 1)
  in
  blocks 0

type manifest_load =
  | M_miss
  | M_hit of Manifest.t * int
      (* manifest (ledger = surviving slices), evicted/corrupt slice count *)
  | M_corrupt of Diag.t

let load_manifest ~dir ~key =
  let path = manifest_file ~dir ~key in
  if not (Sys.file_exists path) then M_miss
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg ->
        M_corrupt
          (Diag.warning Diag.E_CACHE
             "delta manifest %s unreadable (%s); compiling cold" path msg)
    | text -> (
        match Manifest.header_of_json_string text with
        | Error msg ->
            M_corrupt
              (Diag.warning Diag.E_CACHE
                 "delta manifest %s corrupt (%s); compiling cold" path msg)
        | Ok header ->
            touch path;
            let missing = ref 0 in
            let slices = ref [] in
            for b = 0 to header.Manifest.num_blocks - 1 do
              let bpath = block_file ~dir ~key ~block:b in
              match In_channel.with_open_bin bpath In_channel.input_all with
              | exception Sys_error _ -> incr missing
              | btext -> (
                  match Manifest.slice_of_json_string btext with
                  | Ok slice ->
                      touch bpath;
                      slices := slice :: !slices
                  | Error _ -> incr missing)
            done;
            M_hit (Manifest.with_slices header !slices, !missing))

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

(* The manifest key a block slice belongs to: block-<key>-<n>.json. *)
let block_owner name =
  if not (has_prefix "block-" name) then None
  else
    let stem = Filename.chop_suffix name ".json" in
    match String.rindex_opt stem '-' with
    | Some i when i > String.length "block-" ->
        Some (String.sub stem 6 (i - 6))
    | _ -> None

let gc ~dir ~max_bytes =
  with_lock ~dir (fun () ->
      let entries = scan dir in
      let total =
        List.fold_left (fun acc (_, size, _) -> acc + size) 0 entries
      in
      (* Oldest mtime first = least recently used first (loads touch);
         path tie-break keeps eviction order deterministic. *)
      let by_age =
        List.sort
          (fun (pa, _, ma) (pb, _, mb) ->
            match compare (ma : float) mb with 0 -> compare pa pb | c -> c)
          entries
      in
      let evicted, bytes_after =
        List.fold_left
          (fun (evicted, bytes) (path, size, _) ->
            if bytes <= max_bytes then (evicted, bytes)
            else
              match Sys.remove path with
              | () -> (evicted + 1, bytes - size)
              | exception Sys_error _ -> (evicted, bytes))
          (0, total) by_age
      in
      (* Orphan sweep: evicting a manifest header makes its surviving
         slices unreachable (loads go through the header), so they are
         dead bytes — collect them now rather than waiting for LRU age.
         The reverse is fine as-is: a manifest with evicted slices still
         loads and degrades those blocks to cold. *)
      let survivors = scan dir in
      let live_manifest = Hashtbl.create 16 in
      List.iter
        (fun (path, _, _) ->
          let name = Filename.basename path in
          if has_prefix "manifest-" name then
            Hashtbl.replace live_manifest
              (String.sub name 9 (String.length name - 9 - 5))
              ())
        survivors;
      let orphans, bytes_after =
        List.fold_left
          (fun (orphans, bytes) (path, size, _) ->
            match block_owner (Filename.basename path) with
            | Some owner when not (Hashtbl.mem live_manifest owner) -> (
                match Sys.remove path with
                | () -> (orphans + 1, bytes - size)
                | exception Sys_error _ -> (orphans, bytes))
            | _ -> (orphans, bytes))
          (0, bytes_after) survivors
      in
      {
        gc_scanned = List.length entries;
        gc_evicted = evicted;
        gc_orphans = orphans;
        gc_bytes_before = total;
        gc_bytes_after = bytes_after;
      })
