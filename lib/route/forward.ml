open Msched_netlist
module Partition = Msched_partition.Partition
module Placement = Msched_place.Placement
module System = Msched_arch.System
module Domain_analysis = Msched_mts.Domain_analysis
module Latch_analysis = Msched_mts.Latch_analysis
module Sink = Msched_obs.Sink
module Diag = Msched_diag.Diag

exception Unsupported of Diag.t

(* Availability of a value at a block terminal, forward slots.  Built from
   the block's origin tables: local frame-start paths, link arrivals plus
   combinational delay, and latch evaluation times plus delay. *)
type avail_env = {
  arr : (int * int, int) Hashtbl.t;  (* (block, net) -> link arrival *)
  eval : int Ids.Cell.Tbl.t;  (* latch/net-FF -> evaluation slot *)
}

let schedule placement dom_analysis ?analysis ?(options = Tiers.default_options)
    ?(obs = Sink.null) () =
  if options.Tiers.mode = Tiers.Mts_hard then
    raise
      (Unsupported
         (Diag.error Diag.E_UNSUPPORTED
            "forward scheduler has no hard-routing mode"));
  Sink.span obs "forward" @@ fun () ->
  let part = Placement.partition placement in
  let nl = Partition.netlist part in
  let sys = Placement.system placement in
  let la =
    match analysis with Some a -> a | None -> Latch_analysis.analyze part
  in
  let links =
    Sink.span obs "forward.link-build" @@ fun () ->
    Array.of_list
      (Link.build placement dom_analysis ~decompose_mts:true ~hard_mts:false)
  in
  Sink.add obs "sched.links" (Array.length links);
  let res = Resource.create sys in
  let order, warnings =
    Sink.span obs "forward.order" @@ fun () -> Sched_graph.order part la links
  in
  let order = List.rev order (* producers first *) in
  let env = { arr = Hashtbl.create 1024; eval = Ids.Cell.Tbl.create 64 } in
  let arrival ~block ~net =
    Option.value ~default:0
      (Hashtbl.find_opt env.arr (block, Ids.Net.to_int net))
  in
  let local_settle b n =
    Option.value ~default:0
      (Ids.Net.Tbl.find_opt la.(b).Latch_analysis.local_max_settle n)
  in
  (* Every stateful cell gets a local-only evaluation estimate up front, so
     links departing on the cones of latches with no block-input
     dependencies still wait for their (hold-off-delayed) outputs; group
     processing raises the estimates with link-fed contributions. *)
  for b = 0 to Partition.num_blocks part - 1 do
    List.iter
      (fun cid ->
        let c = Netlist.cell nl cid in
        match c.Cell.kind, c.Cell.trigger with
        | Cell.Latch _, _
        | (Cell.Flip_flop | Cell.Ram _), Some (Cell.Net_trigger _) ->
            let gs =
              match c.Cell.trigger with
              | Some (Cell.Net_trigger tn) -> local_settle b tn
              | Some (Cell.Dom_clock _) | None -> 0
            in
            let ds = local_settle b c.Cell.data_inputs.(0) in
            let ho = if options.Tiers.latch_ordering then gs + 1 else 0 in
            Ids.Cell.Tbl.replace env.eval cid (max ds ho + 1)
        | _, _ -> ())
      (Partition.cells_of_block part (Ids.Block.of_int b))
  done;
  (* Availability of net [n] (an origin or a downstream net) at block [b]:
     local settle, plus every origin that reaches it. *)
  let avail b n =
    let lab = la.(b) in
    let base = local_settle b n in
    Ids.Net.Tbl.fold
      (fun m info acc ->
        let reaches =
          List.find_opt
            (fun (onet, _) -> Ids.Net.equal onet n)
            info.Latch_analysis.to_outputs
        in
        match reaches with
        | None -> acc
        | Some (_, d) ->
            let t0 =
              match Ids.Cell.Tbl.find_opt env.eval (Netlist.driver nl m).Cell.id with
              | Some e -> e  (* latch-output origin *)
              | None -> arrival ~block:b ~net:m  (* link-fed origin *)
            in
            max acc (t0 + d.Traverse.dmax))
      lab.Latch_analysis.origins base
  in
  let shares_domain origin data_net =
    (not options.Tiers.same_domain_only)
    || not
         (Ids.Dom.Set.is_empty
            (Ids.Dom.Set.inter
               (Domain_analysis.transitions dom_analysis origin)
               (Domain_analysis.transitions dom_analysis data_net)))
  in
  let process_group b gi =
    let g = la.(b).Latch_analysis.groups.(gi) in
    (* Online evaluation-time estimate; the official hold-offs are computed
       by [Holdoff.compute] from the same arrivals at the end. *)
    List.iter
      (fun latch ->
        let c = Netlist.cell nl latch in
        let data_net = c.Cell.data_inputs.(0) in
        let side ~gate =
          let base =
            match gate, c.Cell.trigger with
            | true, Some (Cell.Net_trigger tn) -> local_settle b tn
            | true, _ -> 0
            | false, _ -> local_settle b data_net
          in
          List.fold_left
            (fun acc (d : Latch_analysis.dep) ->
              if not (Ids.Cell.equal d.Latch_analysis.dep_latch latch) then acc
              else
                let delay =
                  if gate then d.Latch_analysis.dep_pd.Latch_analysis.to_gate
                  else d.Latch_analysis.dep_pd.Latch_analysis.to_data
                in
                match delay with
                | None -> acc
                | Some dd ->
                    if
                      gate
                      && not (shares_domain d.Latch_analysis.dep_origin data_net)
                    then acc
                    else
                      let t0 =
                        match
                          Ids.Cell.Tbl.find_opt env.eval
                            (Netlist.driver nl d.Latch_analysis.dep_origin)
                              .Cell.id
                        with
                        | Some e -> e
                        | None ->
                            arrival ~block:b ~net:d.Latch_analysis.dep_origin
                      in
                      max acc (t0 + dd.Traverse.dmax))
            base
            (g.Latch_analysis.input_deps @ g.Latch_analysis.local_deps)
        in
        let gate_settle = side ~gate:true in
        let data_settle = side ~gate:false in
        let ho = if options.Tiers.latch_ordering then gate_settle + 1 else 0 in
        let prev =
          Option.value ~default:0 (Ids.Cell.Tbl.find_opt env.eval latch)
        in
        Ids.Cell.Tbl.replace env.eval latch (max prev (max data_settle ho + 1)))
      g.Latch_analysis.latches
  in
  let routed = Array.make (Array.length links) [] in
  let route_transport (l : Link.t) dom dep =
    match
      Pathfind.search_forward ~obs sys res ~src:l.Link.src_fpga
        ~dst:l.Link.dst_fpga ~t_dep:dep ~max_extra:options.Tiers.max_extra_slots
    with
    | Some p ->
        Pathfind.reserve_path res p;
        (dom, dep, dep + p.Pathfind.p_len, p.Pathfind.p_hops)
    | None ->
        raise
          (Tiers.Unroutable
             (Diag.error Diag.E_UNROUTABLE
                ~net:(Ids.Net.to_int l.Link.net)
                ~fpga:(Ids.Fpga.to_int l.Link.dst_fpga)
                ~block:(Ids.Block.to_int l.Link.dst_block)
                ~slack:(dep + options.Tiers.max_extra_slots)
                ~culprit:(Netlist.net nl l.Link.net).Netlist.net_name
                "forward: no path for %a within slack budget %d" Link.pp l
                options.Tiers.max_extra_slots))
  in
  let process_link xi =
    let l = links.(xi) in
    let sb = Ids.Block.to_int l.Link.src_block in
    let dep = avail sb l.Link.net in
    let doms =
      match l.Link.domains with [] -> [ None ] | ds -> List.map Option.some ds
    in
    let transports = List.map (fun dom -> route_transport l dom dep) doms in
    let transports =
      if options.Tiers.equalize_forks && List.length transports > 1 then begin
        let arr_max =
          List.fold_left (fun acc (_, _, arr, _) -> max acc arr) 0 transports
        in
        List.map (fun (d, dep, _, hops) -> (d, dep, arr_max, hops)) transports
      end
      else transports
    in
    Sink.add obs "sched.transports" (List.length transports);
    Sink.observe obs "fork.fanout" (List.length transports);
    routed.(xi) <- transports;
    let arr_final =
      List.fold_left (fun acc (_, _, arr, _) -> max acc arr) 0 transports
    in
    let key = (Ids.Block.to_int l.Link.dst_block, Ids.Net.to_int l.Link.net) in
    let cur = Option.value ~default:0 (Hashtbl.find_opt env.arr key) in
    if arr_final > cur then Hashtbl.replace env.arr key arr_final
  in
  (Sink.span obs "forward.forward-pass" @@ fun () ->
   List.iter
     (fun node ->
       match node with
       | Sched_graph.Lnk i -> process_link i
       | Sched_graph.Grp (b, gi) -> process_group b gi)
     order);
  (* ---- Frame length: latest arrival/evaluation plus frame-end cones. *)
  let length = ref 1 in
  let length_driver = ref "minimum frame" in
  let bump_len need reason =
    if need > !length then begin
      length := need;
      length_driver := reason ()
    end
  in
  bump_len (Resource.max_rslot res) (fun () ->
      "wire congestion (latest reserved slot)");
  let nblocks = Partition.num_blocks part in
  (Sink.span obs "forward.length" @@ fun () ->
   for b = 0 to nblocks - 1 do
    let lab = la.(b) in
    Ids.Net.Tbl.iter
      (fun m info ->
        match info.Latch_analysis.deadline_delay with
        | None -> ()
        | Some d ->
            let t0 =
              match
                Ids.Cell.Tbl.find_opt env.eval (Netlist.driver nl m).Cell.id
              with
              | Some e -> e
              | None -> arrival ~block:b ~net:m
            in
            bump_len (t0 + d) (fun () ->
                Format.asprintf "frame-end cone of origin %a in %a" Ids.Net.pp
                  m Ids.Block.pp (Ids.Block.of_int b)))
      lab.Latch_analysis.origins;
    (* Pure local frame-end chains and latch evaluations. *)
    List.iter
      (fun cid ->
        let c = Netlist.cell nl cid in
        let local_reason () =
          Format.asprintf "local chain to sink %s in %a" c.Cell.name
            Ids.Block.pp (Ids.Block.of_int b)
        in
        (match c.Cell.kind, c.Cell.trigger with
        | Cell.Flip_flop, Some (Cell.Dom_clock _) ->
            bump_len (local_settle b c.Cell.data_inputs.(0)) local_reason
        | Cell.Ram { addr_bits }, _ ->
            for i = 0 to (2 + addr_bits) - 1 do
              bump_len (local_settle b c.Cell.data_inputs.(i)) local_reason
            done
        | Cell.Output, _ ->
            bump_len (local_settle b c.Cell.data_inputs.(0)) local_reason
        | ( Cell.Flip_flop | Cell.Gate _ | Cell.Latch _ | Cell.Input _
          | Cell.Clock_source _ ), _ ->
            ());
        match Ids.Cell.Tbl.find_opt env.eval cid with
        | Some e ->
            bump_len (e + 1) (fun () ->
                Format.asprintf "latch evaluation of %s in %a" c.Cell.name
                  Ids.Block.pp (Ids.Block.of_int b))
        | None -> ())
      (Partition.cells_of_block part (Ids.Block.of_int b))
   done);
  let length_driver = !length_driver in
  let length = !length in
  let link_scheds =
    Array.to_list
      (Array.mapi
         (fun i transports ->
           {
             Schedule.ls_link = links.(i);
             ls_transports =
               List.map
                 (fun (dom, dep, arr, hops) ->
                   {
                     Schedule.tr_domain = dom;
                     tr_fwd_dep = dep;
                     tr_fwd_arr = arr;
                     tr_hops = hops;
                     tr_hard = false;
                   })
                 transports;
           })
         routed)
  in
  let holdoffs =
    if not options.Tiers.latch_ordering then []
    else
      Sink.span obs "forward.holdoff" @@ fun () ->
      Holdoff.compute ~obs part dom_analysis la
        ~same_domain_only:options.Tiers.same_domain_only ~length
        ~arrival:(Holdoff.arrival_oracle link_scheds)
  in
  let sched =
    {
      Schedule.length;
      length_driver;
      vclock_hz = System.vclock_hz sys;
      link_scheds;
      holdoffs;
      peak_channel_usage = Resource.peak_usage res;
      dedicated_per_channel =
        Array.make (Array.length (System.channels sys)) 0;
      warnings;
    }
  in
  Schedule.record_metrics obs sched sys;
  sched
