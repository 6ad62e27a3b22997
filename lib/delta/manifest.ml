open Msched_netlist
module Partition = Msched_partition.Partition
module Placement = Msched_place.Placement
module J = Msched_diag.Diag.Json

let schema = "msched-delta-manifest-1"

type t = {
  options_fp : string;
  design_fp : string;
  num_blocks : int;
  assignment : int array;  (* block -> fpga *)
  block_fps : string array;
  boundary : (string * string) list;  (* crossing-net name -> signature *)
  entries : unit list;  (* always empty; see manifest.mli *)
}

(* ------------------------------------------------------------------ *)
(* Construction from a prepared design. *)

let build ~options_fp ~design_fp placement ~analysis =
  let part = Placement.partition placement in
  let nl = Partition.netlist part in
  let nb = Partition.num_blocks part in
  let fps = Fingerprint.blocks part ~analysis in
  (* A boundary signature is looked up by net name, so a name shared by
     two nets is useless as a key: count, over every net, how many carry
     each crossing net's name, and leave out those carried twice. *)
  let carriers = Hashtbl.create 256 in
  List.iter
    (fun (n, _) ->
      Hashtbl.replace carriers (Netlist.net nl n).Netlist.net_name (ref 0))
    fps.Fingerprint.crossing;
  Netlist.iter_nets nl (fun _ ni ->
      match Hashtbl.find_opt carriers ni.Netlist.net_name with
      | Some count -> incr count
      | None -> ());
  let boundary =
    fps.Fingerprint.crossing
    |> List.filter_map (fun (n, sg) ->
           let name = (Netlist.net nl n).Netlist.net_name in
           if !(Hashtbl.find carriers name) = 1 then Some (name, sg) else None)
    |> List.sort (fun (a, x) (b, y) ->
           match String.compare a b with 0 -> String.compare x y | c -> c)
  in
  {
    options_fp;
    design_fp;
    num_blocks = nb;
    assignment =
      Array.init nb (fun b ->
          Ids.Fpga.to_int
            (Placement.fpga_of_block placement (Ids.Block.of_int b)));
    block_fps = fps.Fingerprint.block_fps;
    boundary;
    entries = [];
  }

(* ------------------------------------------------------------------ *)
(* Canonical, checksummed JSON: sorted structural order, and a
   re-serialize-and-compare integrity check.  Written straight into one
   buffer: ints and field names as they are, strings escaped. *)

let fnv = J.hash_hex

let payload t =
  let b =
    Buffer.create (256 + (24 * t.num_blocks) + (64 * List.length t.boundary))
  in
  let str = Buffer.add_string b and chr = Buffer.add_char b in
  str "{\"options_fp\":";
  J.escape b t.options_fp;
  str ",\"design_fp\":";
  J.escape b t.design_fp;
  str ",\"num_blocks\":";
  J.add_int b t.num_blocks;
  str ",\"assignment\":[";
  Array.iteri
    (fun i v ->
      if i > 0 then chr ',';
      J.add_int b v)
    t.assignment;
  str "],\"blocks\":[";
  Array.iteri
    (fun i fp ->
      if i > 0 then chr ',';
      J.escape b fp)
    t.block_fps;
  str "],\"boundary\":[";
  List.iteri
    (fun i (name, sg) ->
      if i > 0 then chr ',';
      chr '[';
      J.escape b name;
      chr ',';
      J.escape b sg;
      chr ']')
    t.boundary;
  str "]}";
  Buffer.contents b

let header payload =
  String.concat ""
    [
      "{\"schema\":\"";
      schema;
      "\",\"checksum\":\"";
      fnv payload;
      "\",\"payload\":";
    ]

let to_json_string t =
  let payload = payload t in
  String.concat "" [ header payload; payload; "}" ]

(* ---- Parsing. ---- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt
let get what o = match o with Some v -> v | None -> fail "missing %s" what
let geti what v = get what (J.int v)
let gets what v = get what (J.str v)

let parse_payload p =
  let m what = get what (J.mem what p) in
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

let of_json_string text =
  try
    match J.parse text with
    | Error msg -> fail "unparseable manifest: %s" msg
    | Ok doc ->
        (match Option.bind (J.mem "schema" doc) J.str with
        | Some s when s = schema -> ()
        | Some s -> fail "schema mismatch: %S (want %S)" s schema
        | None -> fail "missing schema");
        let sum = get "checksum" (Option.bind (J.mem "checksum" doc) J.str) in
        let t = parse_payload (get "payload" (J.mem "payload" doc)) in
        (* Integrity: re-render what we rebuilt and compare checksums, so
           a doctored, truncated or ledger-carrying manifest fails here. *)
        let actual = fnv (payload t) in
        if not (String.equal actual sum) then
          fail "checksum mismatch: stored %s, payload hashes to %s" sum actual;
        Ok t
  with Bad msg -> Error msg
