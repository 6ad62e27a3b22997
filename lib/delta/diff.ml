open Msched_netlist
module Partition = Msched_partition.Partition
module Placement = Msched_place.Placement
module Domain_analysis = Msched_mts.Domain_analysis
module Reroute = Msched_route.Reroute
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

let compute ~(manifest : Manifest.t) placement ~analysis =
  let part = Placement.partition placement in
  let nl = Partition.netlist part in
  let nb = Partition.num_blocks part in
  if nb <> manifest.Manifest.num_blocks then None
  else begin
    let clean = ref [] and dirty = ref [] and moved = ref [] in
    for b = nb - 1 downto 0 do
      let bid = Ids.Block.of_int b in
      if
        String.equal
          (Fingerprint.block part ~analysis bid)
          manifest.Manifest.block_fps.(b)
      then clean := b :: !clean
      else dirty := b :: !dirty;
      if
        Ids.Fpga.to_int (Placement.fpga_of_block placement bid)
        <> manifest.Manifest.assignment.(b)
      then moved := b :: !moved
    done;
    let old_boundary = Hashtbl.create 64 in
    List.iter
      (fun (name, sg) -> Hashtbl.replace old_boundary name sg)
      manifest.Manifest.boundary;
    let crossing = Partition.crossing_nets part in
    let changed =
      List.filter
        (fun n ->
          let name = (Netlist.net nl n).Netlist.net_name in
          match Hashtbl.find_opt old_boundary name with
          | Some sg ->
              not
                (String.equal sg
                   (Fingerprint.boundary_signature nl analysis n))
          | None -> true)
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

(* ------------------------------------------------------------------ *)
(* Seeding: turn the manifest's surviving ledger into an exact reroute
   context against the edited design.  Entries are dropped when their key
   cannot be resolved in the new netlist or when they touch the dirty
   cone; what remains still individually proves its own replay via the
   probe transcript, so over-seeding can never change the schedule. *)

type seeded = { ctx : Reroute.t; seeded : int; dropped : int }

let seed ~(manifest : Manifest.t) ~diff placement =
  let part = Placement.partition placement in
  let nl = Partition.netlist part in
  let nb = Partition.num_blocks part in
  let net_ids = Hashtbl.create 256 in
  Netlist.iter_nets nl (fun n ni ->
      let name = ni.Netlist.net_name in
      match Hashtbl.find_opt net_ids name with
      | None -> Hashtbl.replace net_ids name (Some n)
      | Some _ -> Hashtbl.replace net_ids name None);
  let dom_ids = Hashtbl.create 16 in
  List.iter
    (fun d -> Hashtbl.replace dom_ids (Netlist.domain_name nl d) d)
    (Netlist.domains nl);
  let ctx = Reroute.create ~exact:true () in
  let seeded = ref 0 and dropped = ref 0 in
  List.iter
    (fun (e : Manifest.entry) ->
      let in_cone b = Ids.Block.Set.mem (Ids.Block.of_int b) diff.d_cone in
      let resolved_net =
        Option.join (Hashtbl.find_opt net_ids e.Manifest.m_net)
      in
      let resolved_dom =
        if e.Manifest.m_dom = "" then Some (-1)
        else
          Option.map Ids.Dom.to_int
            (Hashtbl.find_opt dom_ids e.Manifest.m_dom)
      in
      match (resolved_net, resolved_dom) with
      | Some net, Some dom
        when e.Manifest.m_src < nb && e.Manifest.m_dst < nb
             && (not (in_cone e.Manifest.m_src))
             && not (in_cone e.Manifest.m_dst) ->
          Reroute.record ctx
            {
              Reroute.k_net = Ids.Net.to_int net;
              k_src_block = e.Manifest.m_src;
              k_dst_block = e.Manifest.m_dst;
              k_domain = dom;
            }
            {
              Reroute.e_anchor = e.Manifest.m_anchor;
              e_len = e.Manifest.m_len;
              e_hops = e.Manifest.m_hops;
              e_probes = Some (e.Manifest.m_pf, e.Manifest.m_pb);
            };
          incr seeded
      | _ -> incr dropped)
    manifest.Manifest.entries;
  { ctx; seeded = !seeded; dropped = !dropped }

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
