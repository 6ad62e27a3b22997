module Sink = Msched_obs.Sink
module Diag = Msched_diag.Diag

type key = {
  k_net : int;
  k_src_block : int;
  k_dst_block : int;
  k_domain : int;
}

type entry = {
  e_anchor : int;
  e_len : int;
  e_hops : (int * int) list;
}

type t = {
  ledger : (key, entry) Hashtbl.t;
  history : (int, int) Hashtbl.t;  (* channel -> congestion bumps *)
  mutable history_sum : int;
  mutable failed : (key * Diag.t) list;  (* reverse discovery order *)
  forced : (int * int * int, unit) Hashtbl.t;  (* net, src, dst *)
  mutable expansions : int;
  mutable reused : int;
  mutable ripped : int;
  mutable fresh : int;
}

let create () =
  {
    ledger = Hashtbl.create 1024;
    history = Hashtbl.create 64;
    history_sum = 0;
    failed = [];
    forced = Hashtbl.create 16;
    expansions = 0;
    reused = 0;
    ripped = 0;
    fresh = 0;
  }

let clear t =
  Hashtbl.reset t.ledger;
  Hashtbl.reset t.history;
  t.history_sum <- 0;
  t.failed <- [];
  Hashtbl.reset t.forced

let lookup t key = Hashtbl.find_opt t.ledger key
let record t key entry = Hashtbl.replace t.ledger key entry
let rip t key = Hashtbl.remove t.ledger key
let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.ledger []
let ledger_size t = Hashtbl.length t.ledger

let bump_history t ~channel =
  let cur = Option.value ~default:0 (Hashtbl.find_opt t.history channel) in
  Hashtbl.replace t.history channel (cur + 1);
  t.history_sum <- t.history_sum + 1

let history t ~channel =
  Option.value ~default:0 (Hashtbl.find_opt t.history channel)

let history_total t = t.history_sum

let note_failure t key d = t.failed <- (key, d) :: t.failed
let failures t = List.rev t.failed
let clear_failures t = t.failed <- []

let force_hard t key =
  Hashtbl.replace t.forced (key.k_net, key.k_src_block, key.k_dst_block) ()

let is_forced_hard t ~net ~src_block ~dst_block =
  Hashtbl.mem t.forced (net, src_block, dst_block)

let forced_hard_count t = Hashtbl.length t.forced

let note_expansions t n = t.expansions <- t.expansions + n
let expansions t = t.expansions
let reused t = t.reused
let ripped t = t.ripped
let fresh t = t.fresh
let note_reused t = t.reused <- t.reused + 1
let note_ripped t = t.ripped <- t.ripped + 1
let note_fresh t = t.fresh <- t.fresh + 1

let record_metrics obs t =
  if Sink.enabled obs then begin
    Sink.gauge obs "reroute.ledger_size" (float_of_int (ledger_size t));
    Sink.gauge obs "reroute.history_total" (float_of_int t.history_sum);
    Sink.gauge obs "reroute.forced_hard_links"
      (float_of_int (forced_hard_count t))
  end

(* ------------------------------------------------------------------ *)
(* Persistence (schema "msched-reroute-1"): the warm parts of a context
   — ledger, congestion history, forced-hard set — serialized to a
   versioned, checksummed JSON document so warm retries can span
   processes (batch servers, CI re-runs).  Statistics and the failure
   residue are per-run state and are not persisted.

   The document is canonical: entries are emitted in sorted key order, so
   serialize → deserialize → serialize is byte-identical, and integrity
   can be checked by re-serializing the reconstructed payload and
   comparing its checksum against the stored one (catching both bit-rot
   and truncation).  Every entry carries ["dir":"rev"]: ledger slots are
   reverse (TIERS) coordinates, and a document naming any other direction
   is refused rather than replayed on the wrong time axis. *)

let schema_name = "msched-reroute-1"

let payload_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"ledger\":[";
  let entries =
    Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.ledger []
    |> List.sort compare
  in
  let pair_array b pairs =
    Buffer.add_char b '[';
    List.iteri
      (fun j (c, s) ->
        if j > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "[%d,%d]" c s))
      pairs;
    Buffer.add_char b ']'
  in
  List.iteri
    (fun i (k, e) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"dir\":\"rev\",\"net\":%d,\"src\":%d,\"dst\":%d,\"dom\":%d,\"anchor\":%d,\"len\":%d,\"hops\":"
           k.k_net k.k_src_block k.k_dst_block k.k_domain e.e_anchor e.e_len);
      pair_array b e.e_hops;
      Buffer.add_char b '}')
    entries;
  Buffer.add_string b "],\"history\":[";
  let hist =
    Hashtbl.fold (fun c n acc -> (c, n) :: acc) t.history []
    |> List.sort compare
  in
  List.iteri
    (fun i (c, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "[%d,%d]" c n))
    hist;
  Buffer.add_string b "],\"forced\":[";
  let forced =
    Hashtbl.fold (fun k () acc -> k :: acc) t.forced [] |> List.sort compare
  in
  List.iteri
    (fun i (n, s, d) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "[%d,%d,%d]" n s d))
    forced;
  Buffer.add_string b "]}";
  Buffer.contents b

let to_json_string t =
  let payload = payload_json t in
  Printf.sprintf "{\"schema\":\"%s\",\"checksum\":\"%s\",\"payload\":%s}"
    schema_name (Diag.Json.hash_hex payload) payload

exception Bad of string

let of_json_string text =
  let module J = Diag.Json in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let get what o = match o with Some v -> v | None -> fail "missing %s" what in
  let geti what v = get what (J.int v) in
  match J.parse text with
  | Error msg -> Error (Printf.sprintf "unparseable cache document: %s" msg)
  | Ok doc -> (
      try
        (match Option.bind (J.mem "schema" doc) J.str with
        | Some s when s = schema_name -> ()
        | Some s -> fail "schema mismatch: %S (want %S)" s schema_name
        | None -> fail "missing schema");
        let stored_sum =
          get "checksum" (Option.bind (J.mem "checksum" doc) J.str)
        in
        let payload = get "payload" (J.mem "payload" doc) in
        let t = create () in
        let pairs what v =
          match J.arr v with
          | Some [ a; b ] -> (geti what a, geti what b)
          | _ -> fail "malformed %s pair" what
        in
        List.iter
          (fun entry ->
            let m what = get what (J.mem what entry) in
            (match Option.bind (J.mem "dir" entry) J.str with
            | Some "rev" -> ()
            | Some d -> fail "unsupported dir %S (want \"rev\")" d
            | None -> fail "missing dir");
            let key =
              {
                k_net = geti "net" (m "net");
                k_src_block = geti "src" (m "src");
                k_dst_block = geti "dst" (m "dst");
                k_domain = geti "dom" (m "dom");
              }
            in
            let hops =
              List.map (pairs "hop") (get "hops" (J.arr (m "hops")))
            in
            record t key
              {
                e_anchor = geti "anchor" (m "anchor");
                e_len = geti "len" (m "len");
                e_hops = hops;
              })
          (get "ledger" (Option.bind (J.mem "ledger" payload) J.arr));
        List.iter
          (fun v ->
            let c, n = pairs "history" v in
            if n < 0 then fail "negative history count";
            Hashtbl.replace t.history c n;
            t.history_sum <- t.history_sum + n)
          (get "history" (Option.bind (J.mem "history" payload) J.arr));
        List.iter
          (fun v ->
            match J.arr v with
            | Some [ a; b; c ] ->
                Hashtbl.replace t.forced
                  (geti "forced" a, geti "forced" b, geti "forced" c)
                  ()
            | _ -> fail "malformed forced triple")
          (get "forced" (Option.bind (J.mem "forced" payload) J.arr));
        (* Integrity: the canonical re-serialization of what we rebuilt
           must hash to the stored checksum. *)
        let actual = Diag.Json.hash_hex (payload_json t) in
        if not (String.equal actual stored_sum) then
          fail "checksum mismatch: stored %s, payload hashes to %s" stored_sum
            actual;
        Ok t
      with Bad msg -> Error msg)
