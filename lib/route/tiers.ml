open Msched_netlist
module Partition = Msched_partition.Partition
module Placement = Msched_place.Placement
module System = Msched_arch.System
module Topology = Msched_arch.Topology
module Domain_analysis = Msched_mts.Domain_analysis
module Latch_analysis = Msched_mts.Latch_analysis
module Sink = Msched_obs.Sink
module Diag = Msched_diag.Diag

let log = Logs.Src.create "msched.tiers" ~doc:"TIERS scheduler"

module Log = (val Logs.src_log log : Logs.LOG)

type mts_mode = Mts_virtual | Mts_hard | Naive

type options = {
  mode : mts_mode;
  equalize_forks : bool;
  latch_ordering : bool;
  same_domain_only : bool;
  max_extra_slots : int;
}

let default_options =
  {
    mode = Mts_virtual;
    equalize_forks = true;
    latch_ordering = true;
    same_domain_only = true;
    max_extra_slots = 4096;
  }

let hard_options = { default_options with mode = Mts_hard }

let naive_options =
  {
    default_options with
    mode = Naive;
    equalize_forks = false;
    latch_ordering = false;
  }

exception Unroutable of Diag.t

(* Internal result of routing one link, in reverse coordinates. *)
type routed_transport = {
  rt_domain : Ids.Dom.t option;
  rt_rdep : int;
  rt_rarr : int;
  rt_hops : (int * int) list;
  rt_hard : bool;
}

type routed_link = { rl_link : Link.t; rl_transports : routed_transport list }

let mode_name = function
  | Mts_virtual -> "virtual"
  | Mts_hard -> "hard"
  | Naive -> "naive"

(* Ledger key of one transport of [l] (domain [-1] when the link is not
   decomposed per domain). *)
let transport_key (l : Link.t) dom =
  {
    Reroute.k_net = Ids.Net.to_int l.Link.net;
    k_src_block = Ids.Block.to_int l.Link.src_block;
    k_dst_block = Ids.Block.to_int l.Link.dst_block;
    k_domain = (match dom with Some d -> Ids.Dom.to_int d | None -> -1);
  }

(* Can a ledger entry be replayed without a search?  Ordinary contexts
   demand the anchor and the remembered slots; exact contexts additionally
   demand the recording search's whole probe transcript to resolve
   identically (every free probe still free, every blocked probe still
   blocked), which proves the skipped BFS would have returned exactly
   [e_hops] — the bit-identity obligation of delta compilation. *)
let replayable res ctx e ~r_arr =
  let free (channel, rslot) = Resource.free_at res ~channel ~rslot in
  e.Reroute.e_anchor = r_arr
  &&
  if Reroute.is_exact ctx then
    match e.Reroute.e_probes with
    | None -> false
    | Some (pf, pb) -> List.for_all free pf && not (List.exists free pb)
  else List.for_all free e.Reroute.e_hops

let schedule placement dom_analysis ?analysis ?(options = default_options)
    ?(obs = Sink.null) ?reroute () =
  Sink.span obs ~args:[ ("mode", mode_name options.mode) ] "tiers"
  @@ fun () ->
  let part = Placement.partition placement in
  let nl = Partition.netlist part in
  let sys = Placement.system placement in
  let la =
    match analysis with Some a -> a | None -> Latch_analysis.analyze part
  in
  Option.iter Reroute.clear_failures reroute;
  let warnings = ref [] in
  let warn fmt =
    Format.kasprintf
      (fun s ->
        Log.warn (fun m -> m "%s" s);
        warnings := s :: !warnings)
      fmt
  in
  let links =
    Sink.span obs "tiers.link-build" @@ fun () ->
    Array.of_list
      (Link.build placement dom_analysis
         ~decompose_mts:(options.mode <> Mts_hard)
         ~hard_mts:(options.mode = Mts_hard))
  in
  (* Per-net hard fallback: links the driver forced onto dedicated wires
     (the unroutable residue of a previous attempt) are rewritten as hard
     links, exactly as Mts_hard mode would build them — the hard pre-pass,
     the verifier's fork/dedication rules and the pin accounting then
     apply unchanged. *)
  let links =
    match reroute with
    | None -> links
    | Some ctx when Reroute.forced_hard_count ctx = 0 -> links
    | Some ctx ->
        let forced = ref 0 in
        let links =
          Array.map
            (fun (l : Link.t) ->
              if
                (not l.Link.hard)
                && Reroute.is_forced_hard ctx
                     ~net:(Ids.Net.to_int l.Link.net)
                     ~src_block:(Ids.Block.to_int l.Link.src_block)
                     ~dst_block:(Ids.Block.to_int l.Link.dst_block)
              then begin
                incr forced;
                { l with Link.hard = true; domains = [] }
              end
              else l)
            links
        in
        Sink.add obs "reroute.forced_hard" !forced;
        links
  in
  Sink.add obs "sched.links" (Array.length links);
  Sink.add obs "sched.hard_links"
    (Array.fold_left (fun n l -> if l.Link.hard then n + 1 else n) 0 links);
  Sink.annotate obs [ ("links", string_of_int (Array.length links)) ];
  let res = Resource.create sys in

  (* ---- Hard-routing pre-pass: dedicate wires for MTS crossings. ---- *)
  let hard_paths = Array.make (Array.length links) None in
  (Sink.span obs "tiers.hard-prepass" @@ fun () ->
   Array.iteri
     (fun i (l : Link.t) ->
       if l.Link.hard then
         match
           Pathfind.shortest_free_wire_path ~obs sys res ~src:l.Link.src_fpga
             ~dst:l.Link.dst_fpga
         with
         | Some channels ->
             List.iter (fun channel -> Resource.dedicate res ~channel) channels;
             hard_paths.(i) <- Some channels
         | None ->
             raise
               (Unroutable
                  (Diag.error Diag.E_CAPACITY
                     ~net:(Ids.Net.to_int l.Link.net)
                     ~fpga:(Ids.Fpga.to_int l.Link.src_fpga)
                     ~block:(Ids.Block.to_int l.Link.src_block)
                     ~culprit:(Netlist.net nl l.Link.net).Netlist.net_name
                     "hard routing exhausted wires for %a" Link.pp l)))
     links);

  (* ---- Processing order: links and latch groups, consumers first. ---- *)
  let nblocks = Partition.num_blocks part in
  let order, graph_warnings =
    Sink.span obs "tiers.order" @@ fun () -> Sched_graph.order part la links
  in
  List.iter (fun w -> warn "%s" w) graph_warnings;

  (* ---- ReadyTime requirement table, reverse coordinates. ---- *)
  let req : (int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let req_get b n =
    Option.value ~default:0
      (Hashtbl.find_opt req (Ids.Block.to_int b, Ids.Net.to_int n))
  in
  let req_bump b n v =
    let key = (Ids.Block.to_int b, Ids.Net.to_int n) in
    let cur = Option.value ~default:0 (Hashtbl.find_opt req key) in
    if v > cur then Hashtbl.replace req key v
  in
  (* Seed with frame-end deadlines: every origin that reaches a flip-flop
     data pin, RAM write pin or primary output must be settled that many
     slots before the frame end. *)
  for b = 0 to nblocks - 1 do
    let lab = la.(b) in
    Ids.Net.Tbl.iter
      (fun m info ->
        match info.Latch_analysis.deadline_delay with
        | Some d -> req_bump lab.Latch_analysis.block m d
        | None -> ())
      lab.Latch_analysis.origins
  done;

  (* ---- Process nodes. ---- *)
  let routed = Array.make (Array.length links) None in
  let lmax = ref 1 in
  let lmax_reason = ref "minimum frame" in
  let local_settle b n =
    Option.value ~default:0
      (Ids.Net.Tbl.find_opt la.(b).Latch_analysis.local_max_settle n)
  in
  let unroutable_diag (l : Link.t) r_arr =
    Diag.error Diag.E_UNROUTABLE
      ~net:(Ids.Net.to_int l.Link.net)
      ~fpga:(Ids.Fpga.to_int l.Link.dst_fpga)
      ~block:(Ids.Block.to_int l.Link.dst_block)
      ~slack:(r_arr + options.max_extra_slots)
      ~culprit:(Netlist.net nl l.Link.net).Netlist.net_name
      "no path for %a within slack budget %d" Link.pp l
      options.max_extra_slots
  in
  (* Without a reroute context an unroutable transport aborts the attempt
     immediately (fail-fast, the seed behavior).  With one, the failure is
     recorded as residue and the pass continues with an optimistic
     shortest-distance estimate, so one attempt discovers the whole
     unroutable set and everything routable lands in the ledger for the
     next (warm) attempt. *)
  let searched_transport ctx (l : Link.t) dom r_arr =
    let plog =
      match ctx with
      | Some c when Reroute.is_exact c -> Some (Pathfind.probe_log ())
      | Some _ | None -> None
    in
    let probes () =
      Option.map
        (fun (pl : Pathfind.probe_log) ->
          (pl.Pathfind.pr_free, pl.Pathfind.pr_blocked))
        plog
    in
    match
      Pathfind.search ~obs ?ctx ?probe:plog sys res ~src:l.Link.src_fpga
        ~dst:l.Link.dst_fpga ~r_arr ~max_extra:options.max_extra_slots
    with
    | Some p ->
        Pathfind.reserve_path res p;
        Option.iter
          (fun c ->
            Reroute.record c (transport_key l dom)
              {
                Reroute.e_anchor = r_arr;
                e_len = p.Pathfind.p_len;
                e_hops = p.Pathfind.p_hops;
                e_probes = probes ();
              })
          ctx;
        {
          rt_domain = dom;
          rt_rdep = r_arr + p.Pathfind.p_len;
          rt_rarr = r_arr;
          rt_hops = p.Pathfind.p_hops;
          rt_hard = false;
        }
    | None -> (
        let d = unroutable_diag l r_arr in
        match ctx with
        | None -> raise (Unroutable d)
        | Some c ->
            Reroute.note_failure c (transport_key l dom) d;
            Sink.incr obs "reroute.residue";
            let dist =
              Topology.distance (System.topology sys) l.Link.src_fpga
                l.Link.dst_fpga
            in
            {
              rt_domain = dom;
              rt_rdep = r_arr + dist;
              rt_rarr = r_arr;
              rt_hops = [];
              rt_hard = false;
            })
  in
  let route_transport (l : Link.t) dom r_arr =
    match reroute with
    | None -> searched_transport None l dom r_arr
    | Some ctx -> (
        let key = transport_key l dom in
        match Reroute.lookup ctx key with
        | Some e when replayable res ctx e ~r_arr ->
            (* Warm replay: same requirement, slots still free (and under
               an exact context, the whole probe transcript unchanged) —
               reserve the remembered path without searching. *)
            List.iter
              (fun (channel, rslot) -> Resource.reserve res ~channel ~rslot)
              e.Reroute.e_hops;
            Reroute.note_reused ctx;
            Sink.incr obs "reroute.reused";
            {
              rt_domain = dom;
              rt_rdep = r_arr + e.Reroute.e_len;
              rt_rarr = r_arr;
              rt_hops = e.Reroute.e_hops;
              rt_hard = false;
            }
        | Some _ ->
            Reroute.rip ctx key;
            Reroute.note_ripped ctx;
            Sink.incr obs "reroute.ripped";
            searched_transport reroute l dom r_arr
        | None ->
            Reroute.note_fresh ctx;
            Sink.incr obs "reroute.fresh";
            searched_transport reroute l dom r_arr)
  in
  let debug = Sys.getenv_opt "MSCHED_DEBUG_TIERS" <> None in
  let process_link xi =
    let l = links.(xi) in
    let r_arr = req_get l.Link.dst_block l.Link.net in
    if debug then Format.eprintf "LINK %a r_arr=%d@." Link.pp l r_arr;
    let transports =
      match hard_paths.(xi) with
      | Some channels ->
          (* Hard wires are unregistered: a transit through an FPGA's
             fabric and IO buffers is budgeted at two virtual clocks per
             hop, versus one for a pipelined virtual-wire hop. *)
          let hops = List.map (fun c -> (c, 0)) channels in
          [
            {
              rt_domain = None;
              rt_rdep = r_arr + (2 * List.length channels);
              rt_rarr = r_arr;
              rt_hops = hops;
              rt_hard = true;
            };
          ]
      | None ->
          let doms =
            match l.Link.domains with
            | [] -> [ None ]
            | ds -> List.map Option.some ds
          in
          let ts = List.map (fun d -> route_transport l d r_arr) doms in
          if options.equalize_forks && List.length ts > 1 then begin
            let rdep = List.fold_left (fun acc t -> max acc t.rt_rdep) 0 ts in
            List.map (fun t -> { t with rt_rdep = rdep }) ts
          end
          else ts
    in
    Sink.add obs "sched.transports" (List.length transports);
    Sink.observe obs "fork.fanout" (List.length transports);
    let rdep_max =
      List.fold_left (fun acc t -> max acc t.rt_rdep) 0 transports
    in
    routed.(xi) <- Some { rl_link = l; rl_transports = transports };
    (* Propagate into the source block: every origin feeding this link's
       source terminal must be ready MaxDelay earlier (in forward time) than
       the departure. *)
    let sb = Ids.Block.to_int l.Link.src_block in
    Ids.Net.Tbl.iter
      (fun m info ->
        List.iter
          (fun (onet, (d : Traverse.delay)) ->
            if Ids.Net.equal onet l.Link.net then
              req_bump l.Link.src_block m (rdep_max + d.Traverse.dmax))
          info.Latch_analysis.to_outputs)
      la.(sb).Latch_analysis.origins;
    (* Frame-start-settled sources bound the schedule length. *)
    let need = rdep_max + local_settle sb l.Link.net in
    if need > !lmax then begin
      lmax := need;
      lmax_reason :=
        Format.asprintf "transport chain: settle + departure of %a" Link.pp l
    end
  in
  let process_group b gi =
    let lab = la.(b) in
    let block = lab.Latch_analysis.block in
    let g = lab.Latch_analysis.groups.(gi) in
    let r_group =
      List.fold_left
        (fun acc latch ->
          match (Netlist.cell nl latch).Cell.output with
          | Some out -> max acc (req_get block out)
          | None -> acc)
        0 g.Latch_analysis.latches
    in
    if debug then
      Format.eprintf "GROUP b%d g%d R=%d latches=%a@." b gi r_group
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Ids.Cell.pp)
        g.Latch_analysis.latches;
    (* The latch evaluation itself costs one level on top of the pin
       delay, hence the +1 on both sides. *)
    let bump_for_dep (dep : Latch_analysis.dep) ~gate_side =
      (match dep.Latch_analysis.dep_pd.Latch_analysis.to_data with
      | Some d ->
          req_bump block dep.Latch_analysis.dep_origin
            (r_group + d.Traverse.dmax + 1)
      | None -> ());
      if gate_side then
        match dep.Latch_analysis.dep_pd.Latch_analysis.to_gate with
        | Some d ->
            req_bump block dep.Latch_analysis.dep_origin
              (r_group + d.Traverse.dmax + 1)
        | None -> ()
    in
    List.iter
      (bump_for_dep ~gate_side:options.latch_ordering)
      g.Latch_analysis.input_deps;
    List.iter (bump_for_dep ~gate_side:true) g.Latch_analysis.local_deps
  in
  (Sink.span obs "tiers.reverse-pass" @@ fun () ->
   List.iter
     (fun node ->
       match node with
       | Sched_graph.Lnk i -> process_link i
       | Sched_graph.Grp (b, gi) -> process_group b gi)
     order);

  (* Deferred unroutability: with a reroute context the whole residue was
     collected above; the attempt still fails, but the ledger now holds
     every routable transport and the context names every culprit. *)
  (match reroute with
  | None -> ()
  | Some ctx -> (
      Reroute.record_metrics obs ctx;
      match Reroute.failures ctx with
      | [] -> ()
      | (_, d) :: _ as fails ->
          Log.warn (fun m ->
              m "%d transport(s) unroutable this attempt" (List.length fails));
          raise (Unroutable d)));

  (* ---- Schedule length. ---- *)
  let length = ref !lmax in
  let length_driver = ref !lmax_reason in
  let bump_len need reason =
    if need > !length then begin
      length := need;
      length_driver := reason ()
    end
  in
  bump_len (Resource.max_rslot res) (fun () ->
      "wire congestion (latest reserved slot)");
  (Sink.span obs "tiers.length" @@ fun () ->
   for b = 0 to nblocks - 1 do
    let lab = la.(b) in
    let block = lab.Latch_analysis.block in
    List.iter
      (fun cid ->
        let c = Netlist.cell nl cid in
        let settle n = local_settle b n in
        let deadline_nets =
          match c.Cell.kind, c.Cell.trigger with
          | Cell.Flip_flop, Some (Cell.Dom_clock _) -> [ c.Cell.data_inputs.(0) ]
          | Cell.Ram { addr_bits }, _ ->
              List.init (2 + addr_bits) (fun i -> c.Cell.data_inputs.(i))
          | Cell.Output, _ -> [ c.Cell.data_inputs.(0) ]
          | (Cell.Flip_flop | Cell.Gate _ | Cell.Latch _ | Cell.Input _
            | Cell.Clock_source _), _ ->
              []
        in
        List.iter
          (fun n ->
            bump_len (settle n) (fun () ->
                Format.asprintf
                  "local combinational chain to frame-end sink %s in %a"
                  c.Cell.name Ids.Block.pp (Ids.Block.of_int b)))
          deadline_nets;
        (* Latches, net-triggered flip-flops and net-triggered RAM write
           ports: local pin settle plus the reverse-time output requirement
           must fit in the frame. *)
        match c.Cell.kind, c.Cell.trigger with
        | Cell.Latch _, _
        | (Cell.Flip_flop | Cell.Ram _), Some (Cell.Net_trigger _) ->
            let r =
              match c.Cell.output with
              | Some out -> req_get block out
              | None -> 0
            in
            let pin_settle =
              let data =
                match c.Cell.kind with
                | Cell.Ram { addr_bits } ->
                    let m = ref 0 in
                    for i = 0 to (2 + addr_bits) - 1 do
                      m := max !m (settle c.Cell.data_inputs.(i))
                    done;
                    !m
                | Cell.Latch _ | Cell.Flip_flop | Cell.Gate _ | Cell.Input _
                | Cell.Clock_source _ | Cell.Output ->
                    settle c.Cell.data_inputs.(0)
              in
              let gate =
                match c.Cell.trigger with
                | Some (Cell.Net_trigger tn) -> settle tn
                | Some (Cell.Dom_clock _) | None -> 0
              in
              max data gate
            in
            bump_len (r + pin_settle + 1) (fun () ->
                Format.asprintf "latch evaluation of %s in %a" c.Cell.name
                  Ids.Block.pp (Ids.Block.of_int b))
        | (Cell.Flip_flop | Cell.Ram _ | Cell.Gate _ | Cell.Input _
          | Cell.Clock_source _ | Cell.Output), _ ->
            ())
      (Partition.cells_of_block part (Ids.Block.of_int b))
   done);
  let length_driver = !length_driver in
  let length = !length in
  let fwd r = length - r in

  (* ---- Forward-time link schedules. ---- *)
  let link_scheds =
    Array.to_list routed
    |> List.filter_map (fun r ->
           Option.map
             (fun rl ->
               {
                 Schedule.ls_link = rl.rl_link;
                 ls_transports =
                   List.map
                     (fun t ->
                       {
                         Schedule.tr_domain = t.rt_domain;
                         tr_fwd_dep = fwd t.rt_rdep;
                         tr_fwd_arr = fwd t.rt_rarr;
                         tr_hops =
                           List.map (fun (c, rs) -> (c, fwd rs)) t.rt_hops;
                         tr_hard = t.rt_hard;
                       })
                     rl.rl_transports;
               })
             r)
  in

  (* ---- Data hold-offs (delay compensation). ---- *)
  let holdoffs =
    if not options.latch_ordering then []
    else
      Sink.span obs "tiers.holdoff" @@ fun () ->
      Holdoff.compute ~obs part dom_analysis la
        ~same_domain_only:options.same_domain_only ~length
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
        Array.init
          (Array.length (System.channels sys))
          (fun c -> Resource.dedicated res ~channel:c);
      warnings = List.rev !warnings;
    }
  in
  Schedule.record_metrics obs sched sys;
  sched
