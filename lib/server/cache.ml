(* The server's cache directory, two kinds of checksummed entry:

   - [result-<key>.json]: one compile record per exact request (retry
     policy plus raw design text).  A byte-identical repeat is answered
     from the stored record instead of compiling again.
   - [manifest-<key>.json]: one delta manifest per (design content,
     compile-options fingerprint), written by [{"op":"delta"}] requests
     and read back as the base of the next edit (docs/DELTA.md).

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

let whole s = (s, 0, String.length s)

(* Keys hash the {e canonical} serial text when the design parses:
   whitespace, comments and file-local net numbering no longer split one
   design across several cache entries.  Unparseable text (which the
   compile path will reject anyway) keys on its raw bytes. *)
let key_of_canonical ~options text =
  Diag.Json.hash_hex_slices
    [ whole (fingerprint options); whole "\n"; whole text ]

let key ~text ~options =
  key_of_canonical ~options
    (match Msched_netlist.Serial.of_string text with
    | Ok nl -> Msched_netlist.Serial.to_string nl
    | Error _ -> text)

(* Shim: the name reroute contexts were stored under.  Nothing writes it
   now; the benchmark under perfbench/ still names it. *)
let file ~dir ~key = Filename.concat dir ("reroute-" ^ key ^ ".json")

let ensure_dir dir =
  (* mkdir -p: creates every missing ancestor.  A file in the way makes
     mkdir raise; a [dir] that is itself a file fails below. *)
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

(* [payload] is a list of slices [(s, pos, len)], written in order, so
   callers need not concatenate a large entry into one more string. *)
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
        List.iter
          (fun (s, pos, len) ->
            let written = ref 0 in
            while !written < len do
              written :=
                !written
                + Unix.write_substring fd s (pos + !written) (len - !written)
            done)
          payload;
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

(* The whole file as one string, [None] when it does not exist.  Entries
   are renamed into place whole, so a visible file never changes. *)
let read_file path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let size = (Unix.fstat fd).Unix.st_size in
          let buf = Bytes.create size in
          let rec fill off =
            if off < size then
              match Unix.read fd buf off (size - off) with
              | 0 -> off
              | n -> fill (off + n)
            else off
          in
          let got = fill 0 in
          Some
            (if got = size then Bytes.unsafe_to_string buf
             else Bytes.sub_string buf 0 got))

(* ---- Delta manifests: one checksummed file per design. ---- *)

module Manifest = Msched_delta.Manifest

let manifest_file ~dir ~key = Filename.concat dir ("manifest-" ^ key ^ ".json")

(* [Manifest.to_json_string] and a newline, written as slices. *)
let store_manifest ~dir ~key m =
  let payload = Manifest.payload m in
  write_atomic
    ~path:(manifest_file ~dir ~key)
    [ whole (Manifest.header payload); whole payload; whole "}\n" ]

type manifest_load = M_miss | M_hit of Manifest.t * int | M_corrupt of Diag.t

(* Keys reach [load_manifest] from clients, so anything but the 16
   lowercase hex digits [hash_hex] produces is a miss before it can name
   a path: no "../", no "/", no NUL. *)
let is_key key =
  String.length key = 16
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) key

(* One open: a manifest the janitor evicts after the key is checked is a
   miss like one that was never stored, not an unreadable entry. *)
let load_manifest ~dir ~key =
  let path = manifest_file ~dir ~key in
  if not (is_key key) then M_miss
  else
    match read_file path with
    | exception Unix.Unix_error (err, _, _) ->
        M_corrupt
          (Diag.warning Diag.E_CACHE
             "delta manifest %s unreadable (%s); compiling cold" path
             (Unix.error_message err))
    | None -> M_miss
    | Some text -> (
        match Manifest.of_json_string text with
        | Error msg ->
            M_corrupt
              (Diag.warning Diag.E_CACHE
                 "delta manifest %s corrupt (%s); compiling cold" path msg)
        | Ok m ->
            touch path;
            M_hit (m, 0))

(* ---- Compile results: one checksummed record per exact request. ----

   [result-<key>.json], where the key hashes the request's policy line
   and its raw design text:

     msched-result-1 <checksum>\n                header
     <status> <policy len> <text len> <tail len>\n
     <policy>\n
     <text>\n
     <tail>\n

   [checksum] is the FNV-1a hex of everything after the header line;
   [status] is "ok" or "degraded"; [tail] is the record's members after
   "cache".  The key only picks the file: a hit also needs the stored
   policy and text to equal the request's byte for byte, because FNV
   names are cheap to collide on purpose and the text may come from an
   untrusted client.  A hit is checked in place on the one string the
   read allocates, so serving it costs that read plus the record sent;
   a store writes slices of the strings it is given. *)

let result_schema = "msched-result-1"

let result_key ~policy ~text =
  Diag.Json.hash_hex_slices [ whole policy; whole "\n"; whole text ]

let result_file ~dir ~key = Filename.concat dir ("result-" ^ key ^ ".json")

let status_name = function `Ok -> "ok" | `Degraded -> "degraded"

let store_result ~dir ~key ~policy ~text ~status ~tail =
  let _, _, tail_len = tail in
  let counts =
    Printf.sprintf "%s %d %d %d\n" (status_name status) (String.length policy)
      (String.length text) tail_len
  in
  let nl = whole "\n" in
  let body = [ whole counts; whole policy; nl; whole text; nl; tail; nl ] in
  let header =
    Printf.sprintf "%s %s\n" result_schema (Diag.Json.hash_hex_slices body)
  in
  write_atomic ~path:(result_file ~dir ~key) (whole header :: body)

type result_load =
  | R_miss
  | R_hit of { tail : string * int * int; status : [ `Ok | `Degraded ] }
  | R_corrupt of Diag.t

(* [t] equals the [String.length t] bytes of [s] at [pos]. *)
let equal_at s pos t =
  let n = String.length t in
  pos >= 0
  && pos + n <= String.length s
  &&
  let rec go i = i = n || (s.[pos + i] = t.[i] && go (i + 1)) in
  go 0

exception Bad_entry of string

(* Where an entry's policy, text and tail sit, as (position, length),
   once its header, checksum and lengths check out. *)
type layout = {
  l_status : [ `Ok | `Degraded ];
  l_policy : int * int;
  l_text : int * int;
  l_tail : int * int;
}

let layout s =
  let bad why = raise (Bad_entry why) in
  let n = String.length s in
  let line_end from =
    match String.index_from_opt s from '\n' with
    | Some i -> i
    | None -> bad "truncated"
  in
  let header = result_schema ^ " " in
  let hl = String.length header in
  if not (equal_at s 0 header) then bad "not a msched-result-1 entry";
  let body = line_end 0 + 1 in
  if body <> hl + 17 then bad "malformed header";
  if not (equal_at s hl (Diag.Json.hash_hex_slices [ (s, body, n - body) ]))
  then bad "checksum mismatch";
  let counts_end = line_end body in
  let status, p, t, r =
    match String.split_on_char ' ' (String.sub s body (counts_end - body)) with
    | [ st; p; t; r ] -> (
        let status =
          match st with
          | "ok" -> `Ok
          | "degraded" -> `Degraded
          | _ -> bad "unknown status"
        in
        match List.map int_of_string_opt [ p; t; r ] with
        | [ Some p; Some t; Some r ] when p >= 0 && t >= 0 && r >= 0 ->
            (status, p, t, r)
        | _ -> bad "malformed lengths")
    | _ -> bad "malformed lengths"
  in
  let policy_pos = counts_end + 1 in
  let text_pos = policy_pos + p + 1 in
  let tail_pos = text_pos + t + 1 in
  if tail_pos + r + 1 <> n then bad "length mismatch";
  List.iter
    (fun i -> if s.[i] <> '\n' then bad "missing separator")
    [ text_pos - 1; tail_pos - 1; n - 1 ];
  {
    l_status = status;
    l_policy = (policy_pos, p);
    l_text = (text_pos, t);
    l_tail = (tail_pos, r);
  }

let load_result ~dir ~key ~policy ~text =
  let path = result_file ~dir ~key in
  let corrupt why =
    R_corrupt
      (Diag.warning Diag.E_CACHE "result entry %s corrupt (%s); compiling cold"
         path why)
  in
  let holds s (pos, len) t = len = String.length t && equal_at s pos t in
  match read_file path with
  | exception Unix.Unix_error (err, _, _) ->
      corrupt ("unreadable: " ^ Unix.error_message err)
  | None -> R_miss
  | Some s -> (
      match layout s with
      | exception Bad_entry why -> corrupt why
      | l when holds s l.l_policy policy && holds s l.l_text text ->
          touch path;
          let pos, len = l.l_tail in
          R_hit { tail = (s, pos, len); status = l.l_status }
      | _ -> R_miss)

(* ---- Hygiene: stats, locking, LRU-by-mtime eviction. ---- *)

let has_prefix p name =
  String.length name > String.length p + String.length ".json"
  && String.sub name 0 (String.length p) = p

let is_entry name =
  Filename.check_suffix name ".json"
  && (has_prefix "result-" name || has_prefix "manifest-" name
    || has_prefix "reroute-" name || has_prefix "block-" name)

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
  st_results : int;
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
        st_results =
          (acc.st_results + if has_prefix "result-" name then 1 else 0);
        st_manifests =
          (acc.st_manifests + if has_prefix "manifest-" name then 1 else 0);
        st_blocks = (acc.st_blocks + if has_prefix "block-" name then 1 else 0);
        st_bytes = acc.st_bytes + size;
        st_oldest_s = Float.max acc.st_oldest_s (now -. mtime);
      })
    {
      st_entries = 0;
      st_results = 0;
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

(* Results and manifests are the live formats: every [reroute-*] context
   and [block-*] ledger slice an older version left behind is dead, so
   sweep them all before the LRU pass, which then only ever sees live
   entries. *)
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
