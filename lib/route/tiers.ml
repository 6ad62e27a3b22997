open Msched_netlist
module Partition = Msched_partition.Partition
module Placement = Msched_place.Placement
module System = Msched_arch.System
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

(* Residue key of one transport of [l] (domain [-1] when the link is not
   decomposed per domain). *)
let transport_key (l : Link.t) dom =
  {
    Reroute.k_net = Ids.Net.to_int l.Link.net;
    k_src_block = Ids.Block.to_int l.Link.src_block;
    k_dst_block = Ids.Block.to_int l.Link.dst_block;
    k_domain = (match dom with Some d -> Ids.Dom.to_int d | None -> -1);
  }

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
  let order, graph_warnings =
    Sink.span obs "tiers.order" @@ fun () -> Sched_graph.order part la links
  in
  List.iter (fun w -> warn "%s" w) graph_warnings;
  let ready = Ready.seed part la links in

  (* ---- Route each link at its ReadyTime requirement. ---- *)
  let routed = Array.make (Array.length links) None in
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
     immediately (fail-fast).  With one, the failure is recorded as
     residue and the pass continues with an optimistic shortest-distance
     estimate, so one attempt discovers the whole unroutable set. *)
  let route_transport (l : Link.t) dom r_arr =
    match
      Pathfind.search ~obs ?ctx:reroute sys res ~src:l.Link.src_fpga
        ~dst:l.Link.dst_fpga ~r_arr ~max_extra:options.max_extra_slots
    with
    | Some p ->
        Pathfind.reserve_path res p;
        {
          rt_domain = dom;
          rt_rdep = r_arr + p.Pathfind.p_len;
          rt_rarr = r_arr;
          rt_hops = p.Pathfind.p_hops;
          rt_hard = false;
        }
    | None -> (
        let d = unroutable_diag l r_arr in
        match reroute with
        | None -> raise (Unroutable d)
        | Some c ->
            Reroute.note_failure c (transport_key l dom) d;
            Sink.incr obs "reroute.residue";
            let dist = System.distance sys l.Link.src_fpga l.Link.dst_fpga in
            {
              rt_domain = dom;
              rt_rdep = r_arr + dist;
              rt_rarr = r_arr;
              rt_hops = [];
              rt_hard = false;
            })
  in
  (* The link's reverse departure for requirement [r_arr]: the latest of
     its transports. *)
  let route_link xi r_arr =
    let l = links.(xi) in
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
    routed.(xi) <- Some { rl_link = l; rl_transports = transports };
    List.fold_left (fun acc t -> max acc t.rt_rdep) 0 transports
  in
  (Sink.span obs "tiers.reverse-pass" @@ fun () ->
   Ready.propagate ready ~latch_ordering:options.latch_ordering
     ~depart:route_link order);

  (* Deferred unroutability: with a reroute context the whole residue was
     collected above; the attempt still fails, and the context names every
     culprit. *)
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
  let congestion = Resource.max_rslot res in
  let { Ready.length; driver = length_driver; _ } =
    Sink.span obs "tiers.length" @@ fun () -> Ready.frame ready ~congestion
  in
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
