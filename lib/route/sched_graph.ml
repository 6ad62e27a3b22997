open Msched_netlist
module Partition = Msched_partition.Partition
module Latch_analysis = Msched_mts.Latch_analysis

type node = Lnk of int | Grp of int * int

let order part la links =
  let nl = Partition.netlist part in
  let nblocks = Partition.num_blocks part in
  let out_links_by_net : int list Ids.Net.Tbl.t array =
    Array.init nblocks (fun _ -> Ids.Net.Tbl.create 16)
  in
  Array.iteri
    (fun i (l : Link.t) ->
      let b = Ids.Block.to_int l.Link.src_block in
      let tbl = out_links_by_net.(b) in
      let cur = Option.value ~default:[] (Ids.Net.Tbl.find_opt tbl l.Link.net) in
      Ids.Net.Tbl.replace tbl l.Link.net (i :: cur))
    links;
  let nlinks = Array.length links in
  let group_base = Array.make nblocks 0 in
  let ngroups = ref 0 in
  for b = 0 to nblocks - 1 do
    group_base.(b) <- nlinks + !ngroups;
    ngroups := !ngroups + Array.length la.(b).Latch_analysis.groups
  done;
  let nnodes = nlinks + !ngroups in
  let group_node_of_latch = Ids.Cell.Tbl.create 64 in
  for b = 0 to nblocks - 1 do
    Array.iteri
      (fun gi (g : Latch_analysis.group) ->
        List.iter
          (fun latch ->
            Ids.Cell.Tbl.replace group_node_of_latch latch (group_base.(b) + gi))
          g.Latch_analysis.latches)
      la.(b).Latch_analysis.groups
  done;
  let succ = Array.make nnodes [] in
  let add_edge a b = if a <> b then succ.(a) <- b :: succ.(a) in
  let links_out_of b net =
    Option.value ~default:[]
      (Ids.Net.Tbl.find_opt out_links_by_net.(Ids.Block.to_int b) net)
  in
  (* Link consumers first: a link X delivering net n to block b is processed
     after every link departing b on a net reachable from n and after every
     latch group whose member pins n reaches. *)
  Array.iteri
    (fun xi (l : Link.t) ->
      let b = Ids.Block.to_int l.Link.dst_block in
      match Ids.Net.Tbl.find_opt la.(b).Latch_analysis.origins l.Link.net with
      | None -> ()
      | Some info ->
          List.iter
            (fun (onet, _d) ->
              List.iter
                (fun yi -> add_edge yi xi)
                (links_out_of l.Link.dst_block onet))
            info.Latch_analysis.to_outputs;
          List.iter
            (fun (latch, _pd) ->
              match Ids.Cell.Tbl.find_opt group_node_of_latch latch with
              | Some gnode -> add_edge gnode xi
              | None -> ())
            info.Latch_analysis.to_latch_pins)
    links;
  (* Groups after every link consuming a member latch's output (the group
     reads those accumulated requirements as its ReadyTime), and chained in
     per-block processing order.  Input-dep origins must NOT order links
     before the group: the group only *writes* requirements on them, and
     such edges manufacture spurious cycles through latch pairs split
     across blocks. *)
  for b = 0 to nblocks - 1 do
    let lab = la.(b) in
    let block = lab.Latch_analysis.block in
    let groups = lab.Latch_analysis.groups in
    Array.iteri
      (fun gi (g : Latch_analysis.group) ->
        let gnode = group_base.(b) + gi in
        if gi + 1 < Array.length groups then add_edge gnode (gnode + 1);
        let origin_nets =
          List.sort_uniq Ids.Net.compare
            (List.filter_map
               (fun latch -> (Netlist.cell nl latch).Cell.output)
               g.Latch_analysis.latches)
        in
        List.iter
          (fun m ->
            match Ids.Net.Tbl.find_opt lab.Latch_analysis.origins m with
            | None -> ()
            | Some info ->
                List.iter
                  (fun (onet, _d) ->
                    List.iter
                      (fun yi -> add_edge yi gnode)
                      (links_out_of block onet))
                  info.Latch_analysis.to_outputs)
          origin_nets)
      groups
  done;
  let comps = Graph_util.sccs nnodes (fun v -> succ.(v)) in
  let warnings =
    List.filter_map
      (fun comp ->
        if List.length comp > 1 then
          Some
            (Printf.sprintf
               "scheduling dependency cycle over %d nodes (cross-block latch \
                loop); falling back to arbitrary order within the cycle"
               (List.length comp))
        else None)
      comps
  in
  let decode v =
    if v < nlinks then Lnk v
    else begin
      let b = ref (nblocks - 1) in
      while group_base.(!b) > v do
        decr b
      done;
      Grp (!b, v - group_base.(!b))
    end
  in
  (List.map decode (List.concat comps), warnings)
