open Msched_netlist
module Partition = Msched_partition.Partition
module Placement = Msched_place.Placement
module Reroute = Msched_route.Reroute
module J = Msched_diag.Diag.Json

let schema = "msched-delta-manifest-1"
let block_schema = "msched-delta-block-1"

(* Ledger entries cross netlists, so they are keyed by {e names}: net and
   domain names survive an edit while ids shift with it.  Resolution back
   to ids happens at seed time; a name that no longer resolves (or never
   resolved uniquely) just costs that entry's reuse, never correctness —
   under an exact context a replay is validated by its probe transcript,
   not by the key that found it. *)
type entry = {
  m_net : string;
  m_src : int;
  m_dst : int;
  m_dom : string;  (* domain name, "" for single-domain transports *)
  m_anchor : int;
  m_len : int;
  m_hops : (int * int) list;
  m_pf : (int * int) list;  (* probes that found the slot free *)
  m_pb : (int * int) list;  (* probes that found the slot full *)
}

type t = {
  options_fp : string;
  design_fp : string;
  num_blocks : int;
  assignment : int array;  (* block -> fpga *)
  block_fps : string array;
  boundary : (string * string) list;  (* crossing-net name -> signature *)
  entries : entry list;
}

(* ------------------------------------------------------------------ *)
(* Construction from a finished exact-context compile. *)

let build ~options_fp ~design_fp placement ~analysis ~ctx =
  let part = Placement.partition placement in
  let nl = Partition.netlist part in
  let nb = Partition.num_blocks part in
  (* Names are resolved back to ids at seed time, so a name shared by two
     nets is useless as a key: drop those entries up front. *)
  let name_count = Hashtbl.create 256 in
  Netlist.iter_nets nl (fun _ ni ->
      let n = ni.Netlist.net_name in
      Hashtbl.replace name_count n
        (1 + Option.value ~default:0 (Hashtbl.find_opt name_count n)));
  let unique name = Hashtbl.find_opt name_count name = Some 1 in
  let entries =
    Reroute.keys ctx
    |> List.filter_map (fun (k : Reroute.key) ->
           match Reroute.lookup ctx k with
           | None -> None
           | Some e -> (
               match e.Reroute.e_probes with
               | None -> None
               | Some (pf, pb) ->
                   let net_name =
                     (Netlist.net nl (Ids.Net.of_int k.Reroute.k_net))
                       .Netlist.net_name
                   in
                   if not (unique net_name) then None
                   else
                     Some
                       {
                         m_net = net_name;
                         m_src = k.Reroute.k_src_block;
                         m_dst = k.Reroute.k_dst_block;
                         m_dom =
                           (if k.Reroute.k_domain < 0 then ""
                            else
                              Netlist.domain_name nl
                                (Ids.Dom.of_int k.Reroute.k_domain));
                         m_anchor = e.Reroute.e_anchor;
                         m_len = e.Reroute.e_len;
                         m_hops = e.Reroute.e_hops;
                         m_pf = pf;
                         m_pb = pb;
                       }))
    |> List.sort compare
  in
  let boundary =
    Partition.crossing_nets part
    |> List.filter_map (fun n ->
           let name = (Netlist.net nl n).Netlist.net_name in
           if not (unique name) then None
           else Some (name, Fingerprint.boundary_signature nl analysis n))
    |> List.sort compare
  in
  {
    options_fp;
    design_fp;
    num_blocks = nb;
    assignment =
      Array.init nb (fun b ->
          Ids.Fpga.to_int
            (Placement.fpga_of_block placement (Ids.Block.of_int b)));
    block_fps =
      Array.init nb (fun b ->
          Fingerprint.block part ~analysis (Ids.Block.of_int b));
    boundary;
    entries;
  }

(* ------------------------------------------------------------------ *)
(* Canonical, checksummed JSON.  Same conventions as the reroute cache:
   sorted structural order, re-serialize-and-compare integrity check. *)

let fnv = J.hash_hex

let pair_array b pairs =
  Buffer.add_char b '[';
  List.iteri
    (fun j (c, s) ->
      if j > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "[%d,%d]" c s))
    pairs;
  Buffer.add_char b ']'

let int_array b a =
  Buffer.add_char b '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v))
    a;
  Buffer.add_char b ']'

let entry_json b e =
  Buffer.add_string b
    (Printf.sprintf "{\"net\":%s,\"src\":%d,\"dst\":%d,\"dom\":%s,\"anchor\":%d,\"len\":%d,\"hops\":"
       (J.string e.m_net) e.m_src e.m_dst (J.string e.m_dom) e.m_anchor
       e.m_len);
  pair_array b e.m_hops;
  Buffer.add_string b ",\"pf\":";
  pair_array b e.m_pf;
  Buffer.add_string b ",\"pb\":";
  pair_array b e.m_pb;
  Buffer.add_char b '}'

let entries_json entries =
  let b = Buffer.create 1024 in
  Buffer.add_char b '[';
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      entry_json b e)
    entries;
  Buffer.add_char b ']';
  Buffer.contents b

let header_payload t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"options_fp\":%s,\"design_fp\":%s,\"num_blocks\":%d,\"assignment\":"
       (J.string t.options_fp) (J.string t.design_fp) t.num_blocks);
  int_array b t.assignment;
  Buffer.add_string b ",\"blocks\":[";
  Array.iteri
    (fun i fp ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (J.string fp))
    t.block_fps;
  Buffer.add_string b "],\"boundary\":[";
  List.iteri
    (fun i (name, sg) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "[%s,%s]" (J.string name) (J.string sg)))
    t.boundary;
  Buffer.add_string b "]}";
  Buffer.contents b

let document ~schema payload =
  Printf.sprintf "{\"schema\":\"%s\",\"checksum\":\"%s\",\"payload\":%s}"
    schema (fnv payload) payload

let to_json_string t =
  let header = header_payload t in
  (* Splice the ledger into the header payload: drop the closing brace. *)
  let payload =
    String.sub header 0 (String.length header - 1)
    ^ ",\"ledger\":" ^ entries_json t.entries ^ "}"
  in
  document ~schema payload

(* Block-granular persistence: the header names the design and its block
   fingerprints; one slice per source block carries that block's ledger
   entries.  A cache can then evict slices independently — a missing
   slice costs its entries' reuse, a missing header costs the manifest. *)

let header_json t = document ~schema (header_payload t)

let slice_json t ~block =
  let payload =
    Printf.sprintf "{\"block\":%d,\"ledger\":%s}" block
      (entries_json (List.filter (fun e -> e.m_src = block) t.entries))
  in
  document ~schema:block_schema payload

(* ---- Parsing. ---- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt
let get what o = match o with Some v -> v | None -> fail "missing %s" what
let geti what v = get what (J.int v)
let gets what v = get what (J.str v)

let pairs what v =
  match J.arr v with
  | Some [ a; b ] -> (geti what a, geti what b)
  | _ -> fail "malformed %s pair" what

let pair_list what v = List.map (pairs what) (get what (J.arr v))

let parse_entry v =
  let m what = get what (J.mem what v) in
  {
    m_net = gets "net" (m "net");
    m_src = geti "src" (m "src");
    m_dst = geti "dst" (m "dst");
    m_dom = gets "dom" (m "dom");
    m_anchor = geti "anchor" (m "anchor");
    m_len = geti "len" (m "len");
    m_hops = pair_list "hops" (m "hops");
    m_pf = pair_list "pf" (m "pf");
    m_pb = pair_list "pb" (m "pb");
  }

(* A parsed document: schema-checked, payload extracted, checksum
   verified against the canonical re-rendering done by the caller. *)
let open_document ~schema:want text =
  match J.parse text with
  | Error msg -> fail "unparseable manifest: %s" msg
  | Ok doc ->
      (match Option.bind (J.mem "schema" doc) J.str with
      | Some s when s = want -> ()
      | Some s -> fail "schema mismatch: %S (want %S)" s want
      | None -> fail "missing schema");
      let sum =
        get "checksum" (Option.bind (J.mem "checksum" doc) J.str)
      in
      (get "payload" (J.mem "payload" doc), sum)

let parse_header payload =
  let m what = get what (J.mem what payload) in
  let num_blocks = geti "num_blocks" (m "num_blocks") in
  let assignment =
    get "assignment" (J.arr (m "assignment"))
    |> List.map (geti "assignment")
    |> Array.of_list
  in
  let block_fps =
    get "blocks" (J.arr (m "blocks")) |> List.map (gets "blocks")
    |> Array.of_list
  in
  if Array.length assignment <> num_blocks then fail "assignment arity";
  if Array.length block_fps <> num_blocks then fail "blocks arity";
  let boundary =
    get "boundary" (J.arr (m "boundary"))
    |> List.map (fun v ->
           match J.arr v with
           | Some [ a; b ] -> (gets "boundary" a, gets "boundary" b)
           | _ -> fail "malformed boundary pair")
  in
  {
    options_fp = gets "options_fp" (m "options_fp");
    design_fp = gets "design_fp" (m "design_fp");
    num_blocks;
    assignment;
    block_fps;
    boundary;
    entries = [];
  }

let check ~sum t render =
  let actual = fnv render in
  if not (String.equal actual sum) then
    fail "checksum mismatch: stored %s, payload hashes to %s" sum actual;
  t

let of_json_string text =
  try
    let payload, sum = open_document ~schema text in
    let t = parse_header payload in
    let entries =
      get "ledger" (Option.bind (J.mem "ledger" payload) J.arr)
      |> List.map parse_entry
    in
    let t = { t with entries } in
    (* Integrity: re-render what we rebuilt and compare checksums.  The
       ledger must already be in canonical (sorted) order for this to
       pass, so a doctored or truncated manifest fails here. *)
    let header = header_payload t in
    let render =
      String.sub header 0 (String.length header - 1)
      ^ ",\"ledger\":" ^ entries_json entries ^ "}"
    in
    Ok (check ~sum t render)
  with Bad msg -> Error msg

let header_of_json_string text =
  try
    let payload, sum = open_document ~schema text in
    let t = parse_header payload in
    Ok (check ~sum t (header_payload t))
  with Bad msg -> Error msg

let slice_of_json_string text =
  try
    let payload, sum = open_document ~schema:block_schema text in
    let block = geti "block" (get "block" (J.mem "block" payload)) in
    let entries =
      get "ledger" (Option.bind (J.mem "ledger" payload) J.arr)
      |> List.map parse_entry
    in
    let render =
      Printf.sprintf "{\"block\":%d,\"ledger\":%s}" block
        (entries_json entries)
    in
    ignore (check ~sum () render);
    if List.exists (fun e -> e.m_src <> block) entries then
      fail "slice entry outside block %d" block;
    Ok (block, entries)
  with Bad msg -> Error msg

let with_slices header slices =
  {
    header with
    entries =
      List.concat_map snd
        (List.sort (fun (a, _) (b, _) -> compare a b) slices);
  }
