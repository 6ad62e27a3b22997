open Msched_netlist
module Partition = Msched_partition.Partition
module Placement = Msched_place.Placement
module Domain_analysis = Msched_mts.Domain_analysis
module J = Msched_diag.Diag.Json

type t = {
  d_clean : int list;
  d_dirty : int list;
  d_moved : int list;
  d_changed_boundary : string list;
  d_cone : Ids.Block.Set.t;
}

let clean_count d = List.length d.d_clean
let dirty_count d = List.length d.d_dirty
let cone_size d = Ids.Block.Set.cardinal d.d_cone

(* Endpoint blocks of a crossing net: the driver's block plus every
   foreign consumer block. *)
let endpoints part n =
  let nl = Partition.netlist part in
  let drv = Partition.block_of_cell part (Netlist.driver nl n).Cell.id in
  drv :: List.map fst (Partition.foreign_consumers part n)

(* The edited manifest holds every block fingerprint and the signature
   of every uniquely named crossing net; only nets whose name is
   ambiguous are signed afresh. *)
let between ~(base : Manifest.t) ~(edited : Manifest.t) placement ~analysis =
  let part = Placement.partition placement in
  let nl = Partition.netlist part in
  let nb = Partition.num_blocks part in
  if nb <> base.Manifest.num_blocks then None
  else begin
    let clean = ref [] and dirty = ref [] and moved = ref [] in
    for b = nb - 1 downto 0 do
      if String.equal edited.Manifest.block_fps.(b) base.Manifest.block_fps.(b)
      then clean := b :: !clean
      else dirty := b :: !dirty;
      if edited.Manifest.assignment.(b) <> base.Manifest.assignment.(b) then
        moved := b :: !moved
    done;
    let table pairs =
      let t = Hashtbl.create 64 in
      List.iter (fun (name, sg) -> Hashtbl.replace t name sg) pairs;
      t
    in
    let old_boundary = table base.Manifest.boundary in
    let signed = table edited.Manifest.boundary in
    let crossing = Partition.crossing_nets part in
    let changed =
      List.filter
        (fun n ->
          let name = (Netlist.net nl n).Netlist.net_name in
          match Hashtbl.find_opt old_boundary name with
          | None -> true
          | Some sg ->
              let now =
                match Hashtbl.find_opt signed name with
                | Some s -> s
                | None -> Fingerprint.boundary_signature nl analysis n
              in
              not (String.equal sg now))
        crossing
    in
    (* The dirty cone: fingerprint-dirty blocks, blocks whose placement
       drifted, and both endpoints of every changed boundary net — then
       closed over multi-transition crossings, because MTS transports of
       one net are latency-equalized as a group: touching one endpoint
       re-decides the whole FORK/MERGE bundle. *)
    let cone =
      ref
        (Ids.Block.Set.of_list
           (List.map Ids.Block.of_int (!dirty @ !moved)))
    in
    List.iter
      (fun n ->
        List.iter
          (fun b -> cone := Ids.Block.Set.add b !cone)
          (endpoints part n))
      changed;
    let mts_crossings =
      List.filter (Domain_analysis.is_multi_transition analysis) crossing
    in
    let grew = ref true in
    while !grew do
      grew := false;
      List.iter
        (fun n ->
          let eps = endpoints part n in
          if
            List.exists (fun b -> Ids.Block.Set.mem b !cone) eps
            && not (List.for_all (fun b -> Ids.Block.Set.mem b !cone) eps)
          then begin
            List.iter (fun b -> cone := Ids.Block.Set.add b !cone) eps;
            grew := true
          end)
        mts_crossings
    done;
    Some
      {
        d_clean = !clean;
        d_dirty = !dirty;
        d_moved = !moved;
        d_changed_boundary =
          List.map (fun n -> (Netlist.net nl n).Netlist.net_name) changed;
        d_cone = !cone;
      }
  end

let compute ~manifest placement ~analysis =
  between ~base:manifest
    ~edited:(Manifest.build ~options_fp:"" ~design_fp:"" placement ~analysis)
    placement ~analysis

(* ---- Reporting. ---- *)

let pp ppf d =
  Format.fprintf ppf
    "blocks: %d clean / %d dirty / %d moved; cone: %d; changed boundary \
     nets: %d"
    (clean_count d) (dirty_count d) (List.length d.d_moved) (cone_size d)
    (List.length d.d_changed_boundary)

let to_json_string d =
  let b = Buffer.create 256 in
  let first = ref true in
  let ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]" in
  Buffer.add_char b '{';
  J.field b ~first "schema" (J.string "msched-delta-diff-1");
  J.field b ~first "clean" (ints d.d_clean);
  J.field b ~first "dirty" (ints d.d_dirty);
  J.field b ~first "moved" (ints d.d_moved);
  J.field b ~first "cone"
    (ints (List.map Ids.Block.to_int (Ids.Block.Set.elements d.d_cone)));
  J.field b ~first "changed_boundary"
    ("["
    ^ String.concat ","
        (List.map J.string (List.sort compare d.d_changed_boundary))
    ^ "]");
  Buffer.add_char b '}';
  Buffer.contents b
