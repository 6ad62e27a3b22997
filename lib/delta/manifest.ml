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
  (* A boundary signature is looked up by net name, so a name shared by
     two nets is useless as a key: leave those nets out. *)
  let name_count = Hashtbl.create 256 in
  Netlist.iter_nets nl (fun _ ni ->
      let n = ni.Netlist.net_name in
      Hashtbl.replace name_count n
        (1 + Option.value ~default:0 (Hashtbl.find_opt name_count n)));
  let unique name = Hashtbl.find_opt name_count name = Some 1 in
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
    entries = [];
  }

(* ------------------------------------------------------------------ *)
(* Canonical, checksummed JSON: sorted structural order, and a
   re-serialize-and-compare integrity check. *)

let fnv = J.hash_hex

let payload t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"options_fp\":%s,\"design_fp\":%s,\"num_blocks\":%d,\"assignment\":["
       (J.string t.options_fp) (J.string t.design_fp) t.num_blocks);
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v))
    t.assignment;
  Buffer.add_string b "],\"blocks\":[";
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

let to_json_string t =
  let payload = payload t in
  Printf.sprintf "{\"schema\":\"%s\",\"checksum\":\"%s\",\"payload\":%s}"
    schema (fnv payload) payload

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
