open Msched_netlist
module Partition = Msched_partition.Partition
module Placement = Msched_place.Placement
module System = Msched_arch.System
module Domain_analysis = Msched_mts.Domain_analysis
module Link = Msched_route.Link
module Schedule = Msched_route.Schedule

type violation =
  | Transport_overrun of {
      link : Link.t;
      domain : Ids.Dom.t option;
      dep : int;
      arr : int;
      length : int;
    }
  | Hop_misordered of {
      link : Link.t;
      domain : Ids.Dom.t option;
      channel : int;
      slot : int;
      dep : int;
      arr : int;
    }
  | Path_broken of {
      link : Link.t;
      domain : Ids.Dom.t option;
      detail : string;
    }
  | Departure_too_early of {
      link : Link.t;
      domain : Ids.Dom.t option;
      dep : int;
      required : int;
    }
  | Fork_skew of { link : Link.t; deps : int list; arrs : int list }
  | Missing_link of { net : Ids.Net.t; dst_block : Ids.Block.t }
  | Missing_fork_transport of {
      net : Ids.Net.t;
      dst_block : Ids.Block.t;
      domain : Ids.Dom.t;
    }
  | Channel_overbooked of {
      channel : int;
      slot : int;
      used : int;
      capacity : int;
    }
  | Peak_understated of { channel : int; recorded : int; actual : int }
  | Channel_overflow of { channel : int; committed : int; width : int }
  | Pin_budget_exceeded of { fpga : Ids.Fpga.t; used : int; budget : int }
  | Hard_not_dedicated of {
      channel : int;
      hard_transports : int;
      dedicated : int;
    }
  | Missing_holdoff of { cell : Ids.Cell.t }
  | Holdoff_misordered of { cell : Ids.Cell.t; gate : int; data : int }
  | Holdoff_out_of_frame of {
      cell : Ids.Cell.t;
      gate : int;
      data : int;
      length : int;
    }
  | Gate_after_data of {
      cell : Ids.Cell.t;
      data_holdoff : int;
      required : int;
    }

let kind_name = function
  | Transport_overrun _ -> "transport-overrun"
  | Hop_misordered _ -> "hop-misordered"
  | Path_broken _ -> "path-broken"
  | Departure_too_early _ -> "departure-too-early"
  | Fork_skew _ -> "fork-skew"
  | Missing_link _ -> "missing-link"
  | Missing_fork_transport _ -> "missing-fork-transport"
  | Channel_overbooked _ -> "channel-overbooked"
  | Peak_understated _ -> "peak-understated"
  | Channel_overflow _ -> "channel-overflow"
  | Pin_budget_exceeded _ -> "pin-budget"
  | Hard_not_dedicated _ -> "hard-not-dedicated"
  | Missing_holdoff _ -> "missing-holdoff"
  | Holdoff_misordered _ -> "holdoff-misordered"
  | Holdoff_out_of_frame _ -> "holdoff-out-of-frame"
  | Gate_after_data _ -> "gate-after-data"

let pp_domain ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some d -> Ids.Dom.pp ppf d

let pp_violation ppf = function
  | Transport_overrun { link; domain; dep; arr; length } ->
      Format.fprintf ppf
        "transport-overrun: %a dom=%a dep=%d arr=%d outside frame [0,%d]"
        Link.pp link pp_domain domain dep arr length
  | Hop_misordered { link; domain; channel; slot; dep; arr } ->
      Format.fprintf ppf
        "hop-misordered: %a dom=%a hop (ch%d, slot %d) not strictly \
         increasing within [%d,%d]"
        Link.pp link pp_domain domain channel slot dep arr
  | Path_broken { link; domain; detail } ->
      Format.fprintf ppf "path-broken: %a dom=%a %s" Link.pp link pp_domain
        domain detail
  | Departure_too_early { link; domain; dep; required } ->
      Format.fprintf ppf
        "departure-too-early: %a dom=%a departs at %d but source settles at \
         %d"
        Link.pp link pp_domain domain dep required
  | Fork_skew { link; deps; arrs } ->
      Format.fprintf ppf "fork-skew: %a deps={%a} arrs={%a} not equalized"
        Link.pp link
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
           Format.pp_print_int)
        deps
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
           Format.pp_print_int)
        arrs
  | Missing_link { net; dst_block } ->
      Format.fprintf ppf "missing-link: crossing %a never delivered to %a"
        Ids.Net.pp net Ids.Block.pp dst_block
  | Missing_fork_transport { net; dst_block; domain } ->
      Format.fprintf ppf
        "missing-fork-transport: %a to %a lacks constituent domain %a"
        Ids.Net.pp net Ids.Block.pp dst_block Ids.Dom.pp domain
  | Channel_overbooked { channel; slot; used; capacity } ->
      Format.fprintf ppf
        "channel-overbooked: ch%d slot %d carries %d transports, capacity %d"
        channel slot used capacity
  | Peak_understated { channel; recorded; actual } ->
      Format.fprintf ppf
        "peak-understated: ch%d records peak %d but hops use %d" channel
        recorded actual
  | Channel_overflow { channel; committed; width } ->
      Format.fprintf ppf
        "channel-overflow: ch%d commits %d wires, physical width %d" channel
        committed width
  | Pin_budget_exceeded { fpga; used; budget } ->
      Format.fprintf ppf "pin-budget: %a uses %d pins, budget %d" Ids.Fpga.pp
        fpga used budget
  | Hard_not_dedicated { channel; hard_transports; dedicated } ->
      Format.fprintf ppf
        "hard-not-dedicated: ch%d carries %d hard transports on %d dedicated \
         wires"
        channel hard_transports dedicated
  | Missing_holdoff { cell } ->
      Format.fprintf ppf "missing-holdoff: %a has no data hold-off record"
        Ids.Cell.pp cell
  | Holdoff_misordered { cell; gate; data } ->
      Format.fprintf ppf
        "holdoff-misordered: %a data slot %d not strictly after gate slot %d"
        Ids.Cell.pp cell data gate
  | Holdoff_out_of_frame { cell; gate; data; length } ->
      Format.fprintf ppf
        "holdoff-out-of-frame: %a (gate=%d, data=%d) outside frame [0,%d]"
        Ids.Cell.pp cell gate data length
  | Gate_after_data { cell; data_holdoff; required } ->
      Format.fprintf ppf
        "gate-after-data: %a releases data at %d but gate information \
         settles at %d"
        Ids.Cell.pp cell data_holdoff (required - 1)

type report = {
  violations : violation list;
  length : int;
  links_checked : int;
  transports_checked : int;
  holdoffs_checked : int;
  blocks_checked : int;
}

let is_clean r = r.violations = []

let count_kind r tag =
  List.length (List.filter (fun v -> String.equal (kind_name v) tag) r.violations)

let hold_safety_cells r =
  List.fold_left
    (fun acc v ->
      match v with
      | Missing_holdoff { cell }
      | Holdoff_misordered { cell; _ }
      | Holdoff_out_of_frame { cell; _ }
      | Gate_after_data { cell; _ } ->
          Ids.Cell.Set.add cell acc
      | Transport_overrun _ | Hop_misordered _ | Path_broken _
      | Departure_too_early _ | Fork_skew _ | Missing_link _
      | Missing_fork_transport _ | Channel_overbooked _ | Peak_understated _
      | Channel_overflow _ | Pin_budget_exceeded _ | Hard_not_dedicated _ ->
          acc)
    Ids.Cell.Set.empty r.violations

let pp_report ppf r =
  if is_clean r then
    Format.fprintf ppf
      "verify: clean (%d links, %d transports, %d holdoffs, %d blocks, frame \
       %d)"
      r.links_checked r.transports_checked r.holdoffs_checked r.blocks_checked
      r.length
  else begin
    Format.fprintf ppf "verify: %d violation(s):"
      (List.length r.violations);
    List.iter
      (fun v -> Format.fprintf ppf "@\n  %a" pp_violation v)
      r.violations
  end

module Itbl = Hashtbl.Make (Int)

(* [key.(i)]'s entries of [0, n) grouped by key, each group in increasing
   [i]: group [k] is [order.(start.(k)) .. order.(start.(k + 1) - 1)].
   Entries whose key is outside [0, nkeys) belong to no group. *)
let group_by nkeys n key =
  let start = Array.make (nkeys + 1) 0 in
  for i = 0 to n - 1 do
    let k = key i in
    if k >= 0 && k < nkeys then start.(k) <- start.(k) + 1
  done;
  for k = 1 to nkeys do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  (* [start.(k)] is now group [k]'s end; filling from the back counts it
     down to the group's start. *)
  let order = Array.make start.(nkeys) 0 in
  for i = n - 1 downto 0 do
    let k = key i in
    if k >= 0 && k < nkeys then begin
      start.(k) <- start.(k) - 1;
      order.(start.(k)) <- i
    end
  done;
  (start, order)

(* The [channel-overbooked] violations follow the iteration order of a
   [Hashtbl.create occupancy_size] table. *)
let occupancy_size = 1024

(* Wire-pool occupancy by (channel, slot): slots [0, span) of every
   channel in one dense array, any other slot in its channel's table, and
   the keys in the order of their first hop (at most one per hop). *)
type occupancy = {
  span : int;
  dense : int array;  (* channel * span + slot *)
  sparse : int Itbl.t option array;  (* by channel *)
  key_chan : int array;
  key_slot : int array;
  mutable nkeys : int;
}

let occupancy nch ~length ~hops =
  let span =
    if length >= 0 && (length + 1) * nch <= (4 * hops) + 1024 then length + 1
    else 0
  in
  {
    span;
    dense = Array.make (span * nch) 0;
    sparse = Array.make nch None;
    key_chan = Array.make hops 0;
    key_slot = Array.make hops 0;
    nkeys = 0;
  }

let occupied o c slot =
  if slot >= 0 && slot < o.span then o.dense.((c * o.span) + slot)
  else
    match o.sparse.(c) with
    | None -> 0
    | Some t -> ( try Itbl.find t slot with Not_found -> 0)

let occupy o c slot =
  let used = occupied o c slot in
  if used = 0 then begin
    o.key_chan.(o.nkeys) <- c;
    o.key_slot.(o.nkeys) <- slot;
    o.nkeys <- o.nkeys + 1
  end;
  if slot >= 0 && slot < o.span then o.dense.((c * o.span) + slot) <- used + 1
  else
    let t =
      match o.sparse.(c) with
      | Some t -> t
      | None ->
          let t = Itbl.create 16 in
          o.sparse.(c) <- Some t;
          t
    in
    Itbl.replace t slot (used + 1)

(* The hops of a transport's channel path from [at], checked against the
   channels they name. *)
let rec walk push channels (link : Link.t) domain at = function
  | [] ->
      if not (Ids.Fpga.equal at link.Link.dst_fpga) then
        push
          (Path_broken
             {
               link;
               domain;
               detail =
                 Format.asprintf "path ends at %a, destination is %a"
                   Ids.Fpga.pp at Ids.Fpga.pp link.Link.dst_fpga;
             })
  | (c, _) :: rest ->
      if c < 0 || c >= Array.length channels then
        push
          (Path_broken
             { link; domain; detail = Format.asprintf "unknown channel %d" c })
      else begin
        let ch = channels.(c) in
        if not (Ids.Fpga.equal ch.System.src at) then
          push
            (Path_broken
               {
                 link;
                 domain;
                 detail =
                   Format.asprintf "hop ch%d departs %a but value is at %a" c
                     Ids.Fpga.pp ch.System.src Ids.Fpga.pp at;
               });
        walk push channels link domain ch.System.dst rest
      end

let rec virtual_hops acc = function
  | [] -> acc
  | (tr : Schedule.transport) :: rest ->
      let n =
        if tr.Schedule.tr_hard then 0 else List.length tr.Schedule.tr_hops
      in
      virtual_hops (acc + n) rest

let rec latest_arrival at = function
  | [] -> at
  | (tr : Schedule.transport) :: rest ->
      latest_arrival (max at tr.Schedule.tr_fwd_arr) rest

(* FORK equalization: all virtual constituent transports of one MTS
   crossing must share one departure and one arrival. *)
let fork_skewed (transports : Schedule.transport list) =
  let rec first = function
    | [] -> false
    | (tr : Schedule.transport) :: rest ->
        if tr.Schedule.tr_hard then first rest else skewed tr rest
  and skewed (f : Schedule.transport) = function
    | [] -> false
    | (tr : Schedule.transport) :: rest ->
        ((not tr.Schedule.tr_hard)
        && (tr.Schedule.tr_fwd_dep <> f.Schedule.tr_fwd_dep
           || tr.Schedule.tr_fwd_arr <> f.Schedule.tr_fwd_arr))
        || skewed f rest
  in
  first transports

(* Departure readiness: a virtual transport may not sample its source
   terminal before the net can have settled there. *)
let rec check_departures push link required = function
  | [] -> ()
  | (tr : Schedule.transport) :: rest ->
      if (not tr.Schedule.tr_hard) && tr.Schedule.tr_fwd_dep < required then
        push
          (Departure_too_early
             {
               link;
               domain = tr.Schedule.tr_domain;
               dep = tr.Schedule.tr_fwd_dep;
               required;
             });
      check_departures push link required rest

let verify ?(obs = Msched_obs.Sink.null) placement analysis
    (sched : Schedule.t) =
  Msched_obs.Sink.span obs "verify" @@ fun () ->
  let part = Placement.partition placement in
  let nl = Partition.netlist part in
  let sys = Placement.system placement in
  let channels = System.channels sys in
  let nch = Array.length channels in
  let length = sched.Schedule.length in
  let violations = ref [] in
  let push v = violations := v :: !violations in
  let dedicated c =
    if c >= 0 && c < Array.length sched.Schedule.dedicated_per_channel then
      sched.Schedule.dedicated_per_channel.(c)
    else 0
  in
  let recorded_peak c =
    if c >= 0 && c < Array.length sched.Schedule.peak_channel_usage then
      sched.Schedule.peak_channel_usage.(c)
    else 0
  in
  let links = Array.of_list sched.Schedule.link_scheds in
  let nlinks = Array.length links in
  let link i = links.(i).Schedule.ls_link in

  (* ---- Per-transport structural checks + occupancy tallies. ---- *)
  let hops =
    Array.fold_left
      (fun acc (ls : Schedule.link_sched) ->
        virtual_hops acc ls.Schedule.ls_transports)
      0 links
  in
  let occ = occupancy nch ~length ~hops in
  let hard_cnt = Array.make (max 1 nch) 0 in
  let transports_checked = ref 0 in
  (* Slot monotonicity inside the transport window, and wire-pool
     occupancy accounting. *)
  let rec tally link (tr : Schedule.transport) prev = function
    | [] -> ()
    | (c, slot) :: rest ->
        let dep = tr.Schedule.tr_fwd_dep and arr = tr.Schedule.tr_fwd_arr in
        if slot <= prev || slot < dep || slot > arr then
          push
            (Hop_misordered
               {
                 link;
                 domain = tr.Schedule.tr_domain;
                 channel = c;
                 slot;
                 dep;
                 arr;
               });
        if c >= 0 && c < nch then occupy occ c slot;
        tally link tr slot rest
  in
  let rec check_transports link = function
    | [] -> ()
    | (tr : Schedule.transport) :: rest ->
        incr transports_checked;
        let dep = tr.Schedule.tr_fwd_dep and arr = tr.Schedule.tr_fwd_arr in
        if dep < 0 || arr < dep || arr > length then
          push
            (Transport_overrun
               { link; domain = tr.Schedule.tr_domain; dep; arr; length });
        (* Channel path connectivity (hard and virtual alike). *)
        walk push channels link tr.Schedule.tr_domain link.Link.src_fpga
          tr.Schedule.tr_hops;
        if tr.Schedule.tr_hard then
          (* Dedicated wires carry the value whenever the source changes:
             slots are meaningless, but every traversed channel must hold
             a dedicated wire for this transport. *)
          List.iter
            (fun (c, _) ->
              if c >= 0 && c < nch then hard_cnt.(c) <- hard_cnt.(c) + 1)
            tr.Schedule.tr_hops
        else tally link tr (dep - 1) tr.Schedule.tr_hops;
        check_transports link rest
  in
  Array.iter
    (fun (ls : Schedule.link_sched) ->
      let link = ls.Schedule.ls_link in
      check_transports link ls.Schedule.ls_transports;
      if fork_skewed ls.Schedule.ls_transports then begin
        let virts =
          List.filter
            (fun tr -> not tr.Schedule.tr_hard)
            ls.Schedule.ls_transports
        in
        push
          (Fork_skew
             {
               link;
               deps = List.map (fun tr -> tr.Schedule.tr_fwd_dep) virts;
               arrs = List.map (fun tr -> tr.Schedule.tr_fwd_arr) virts;
             })
      end)
    links;

  (* ---- Wire pools, peaks, dedication and pin budgets. ---- *)
  let actual_peak = Array.make (max 1 nch) 0 in
  let capacity c = channels.(c).System.width - dedicated c in
  let overbooked = ref false in
  for k = 0 to occ.nkeys - 1 do
    let c = occ.key_chan.(k) in
    let used = occupied occ c occ.key_slot.(k) in
    if used > actual_peak.(c) then actual_peak.(c) <- used;
    if used > capacity c then overbooked := true
  done;
  (* Overbooked slots in the iteration order of a generic table that
     received every key in first-hop order, as the tally once did (a clean
     schedule builds none). *)
  if !overbooked then begin
    let tbl = Hashtbl.create occupancy_size in
    for k = 0 to occ.nkeys - 1 do
      let c = occ.key_chan.(k) and slot = occ.key_slot.(k) in
      Hashtbl.replace tbl (c, slot) (occupied occ c slot)
    done;
    Hashtbl.iter
      (fun (c, slot) used ->
        if used > capacity c then
          push
            (Channel_overbooked { channel = c; slot; used; capacity = capacity c }))
      tbl
  end;
  (* Deterministic order for the slot-level violations found above. *)
  for c = 0 to nch - 1 do
    if recorded_peak c < actual_peak.(c) then
      push
        (Peak_understated
           { channel = c; recorded = recorded_peak c; actual = actual_peak.(c) });
    let committed = max (recorded_peak c) actual_peak.(c) + dedicated c in
    if committed > channels.(c).System.width then
      push
        (Channel_overflow
           { channel = c; committed; width = channels.(c).System.width });
    if hard_cnt.(c) > dedicated c then
      push
        (Hard_not_dedicated
           { channel = c; hard_transports = hard_cnt.(c); dedicated = dedicated c })
  done;
  let pins = Array.make (System.num_fpgas sys) 0 in
  Array.iteri
    (fun c (ch : System.channel) ->
      let wires = max (recorded_peak c) actual_peak.(c) + dedicated c in
      let s = Ids.Fpga.to_int ch.System.src
      and d = Ids.Fpga.to_int ch.System.dst in
      pins.(s) <- pins.(s) + wires;
      pins.(d) <- pins.(d) + wires)
    channels;
  Array.iteri
    (fun f used ->
      if used > System.pins_per_fpga sys then
        push
          (Pin_budget_exceeded
             {
               fpga = Ids.Fpga.of_int f;
               used;
               budget = System.pins_per_fpga sys;
             }))
    pins;

  (* ---- Completeness: every crossing net reaches every foreign block,
     with a transport per constituent domain for multi-transition nets.
     What one (net, destination block) receives is the union of the
     transports of every entry naming that pair: the entries are grouped
     by net once, and each pair scans its net's group. ---- *)
  let nnets = Netlist.num_nets nl in
  let net_start, by_net =
    group_by nnets nlinks (fun i -> Ids.Net.to_int (link i).Link.net)
  in
  (* Whether some transport of an entry for (net [n], block [b]) satisfies
     [p]. *)
  let delivers n b p =
    let found = ref false and k = ref net_start.(n) in
    while (not !found) && !k < net_start.(n + 1) do
      let ls = links.(by_net.(!k)) in
      if Ids.Block.to_int ls.Schedule.ls_link.Link.dst_block = b then
        found := List.exists p ls.Schedule.ls_transports;
      incr k
    done;
    !found
  in
  let any_transport _ = true in
  let is_hard (tr : Schedule.transport) = tr.Schedule.tr_hard in
  List.iter
    (fun net ->
      let n = Ids.Net.to_int net in
      List.iter
        (fun (dst_block, _terms) ->
          let b = Ids.Block.to_int dst_block in
          if not (delivers n b any_transport) then
            push (Missing_link { net; dst_block })
          else if
            (not (delivers n b is_hard))
            && Domain_analysis.is_multi_transition analysis net
          then
            Ids.Dom.Set.iter
              (fun d ->
                let carries (tr : Schedule.transport) =
                  match tr.Schedule.tr_domain with
                  | Some d' -> Ids.Dom.equal d d'
                  | None -> false
                in
                if not (delivers n b carries) then
                  push (Missing_fork_transport { net; dst_block; domain = d }))
              (Domain_analysis.transitions analysis net))
        (Partition.foreign_consumers part net))
    (Partition.crossing_nets part);

  (* ---- Per-block checks: hold safety (Observation 2) and departure
     readiness (Functional Axiom 1). ---- *)
  let holdoff_tbl = Ids.Cell.Tbl.create 64 in
  List.iter
    (fun (h : Schedule.holdoff) ->
      Ids.Cell.Tbl.replace holdoff_tbl h.Schedule.ho_cell h)
    sched.Schedule.holdoffs;
  let nblocks = Partition.num_blocks part in
  (* Each block's links, last listed first. *)
  let from_start, by_src =
    group_by nblocks nlinks (fun i -> Ids.Block.to_int (link i).Link.src_block)
  in
  let iter_links_from b f =
    for k = from_start.(b + 1) - 1 downto from_start.(b) do
      f links.(by_src.(k))
    done
  in
  (* The latest arrival of net [n] at block [b], at least 0. *)
  let arrival b n =
    let n = Ids.Net.to_int n in
    let at = ref 0 in
    if n < nnets then
      for k = net_start.(n) to net_start.(n + 1) - 1 do
        let ls = links.(by_net.(k)) in
        if Ids.Block.to_int ls.Schedule.ls_link.Link.dst_block = b then
          at := latest_arrival !at ls.Schedule.ls_transports
      done;
    !at
  in
  let shares_domain m data_net =
    not
      (Ids.Dom.Set.disjoint
         (Domain_analysis.transitions analysis m)
         (Domain_analysis.transitions analysis data_net))
  in
  let needs_holdoff (c : Cell.t) =
    match c.Cell.kind, c.Cell.trigger with
    | Cell.Latch _, _ -> true
    | (Cell.Flip_flop | Cell.Ram _), Some (Cell.Net_trigger _) -> true
    | (Cell.Flip_flop | Cell.Ram _), (Some (Cell.Dom_clock _) | None) -> false
    | (Cell.Gate _ | Cell.Input _ | Cell.Clock_source _ | Cell.Output), _ ->
        false
  in
  let is_ram (c : Cell.t) =
    match c.Cell.kind with Cell.Ram _ -> true | _ -> false
  in
  (* The delay tables are re-derived here from the netlist graph, through
     the shared delay kernel on regions of our own: the verifier reads
     none of the scheduler's Latch_analysis tables.  Per block, each cone
     from an input net folds into two dense tables, reset per block:
     - [gate_lb] (by cell): the latest link-fed same-domain arrival of a
       net-triggered cell's gate (read for hold-off cells only);
     - [required] (by net): when a net leaving the block can have
       settled, for the nets [link_block] marks as this block's. *)
  let scratch = Traverse.scratch nl in
  let gate_lb = Array.make (Netlist.num_cells nl) 0 in
  let required = Array.make nnets 0 in
  let link_block = Array.make nnets (-1) in
  (* The cone being walked: its block, region, source and arrival. *)
  let cur_b = ref 0 and cur_m = ref (Ids.Net.of_int 0) and cur_at = ref 0 in
  let cur_region = ref None in
  let cone_visit n _ dmax =
    let b = !cur_b and at = !cur_at in
    let region = Option.get !cur_region in
    let i = Ids.Net.to_int n in
    if link_block.(i) = b then required.(i) <- max required.(i) (at + dmax);
    let fanouts = Netlist.fanouts nl n in
    for t = 0 to Array.length fanouts - 1 do
      let tm = fanouts.(t) in
      let c = Netlist.cell nl tm.Netlist.term_cell in
      match tm.Netlist.term_pin, c.Cell.trigger with
      | Netlist.Trigger_pin, Some (Cell.Net_trigger _)
        when Traverse.contains region c.Cell.id
             && (is_ram c || shares_domain !cur_m c.Cell.data_inputs.(0)) ->
          let ci = Ids.Cell.to_int c.Cell.id in
          gate_lb.(ci) <- max gate_lb.(ci) (at + dmax)
      | (Netlist.Trigger_pin | Netlist.Data_pin _), _ -> ()
    done
  in
  for b = 0 to nblocks - 1 do
    let block = Ids.Block.of_int b in
    let cells = Partition.cells_of_block part block in
    let region = Traverse.region scratch cells in
    cur_b := b;
    cur_region := Some region;
    List.iter (fun cid -> gate_lb.(Ids.Cell.to_int cid) <- 0) cells;
    iter_links_from b (fun (ls : Schedule.link_sched) ->
        let i = Ids.Net.to_int ls.Schedule.ls_link.Link.net in
        link_block.(i) <- b;
        required.(i) <- 0);
    Traverse.settle region (fun n settle ->
        let i = Ids.Net.to_int n in
        if link_block.(i) = b then required.(i) <- settle);
    List.iter
      (fun m ->
        cur_m := m;
        cur_at := arrival b m;
        Traverse.cone region m cone_visit)
      (Partition.input_nets part block);
    (* Hold safety: latches and net-triggered flip-flops/RAMs must hold
       data back until after the latest link-fed same-domain gate
       arrival (delay compensation, paper Section 7 / Observation 2). *)
    List.iter
      (fun cid ->
        if needs_holdoff (Netlist.cell nl cid) then
          match Ids.Cell.Tbl.find holdoff_tbl cid with
          | exception Not_found -> push (Missing_holdoff { cell = cid })
          | h ->
              let gate = h.Schedule.ho_gate and data = h.Schedule.ho_data in
              if gate < 0 || data < 0 || gate > length || data > length then
                push (Holdoff_out_of_frame { cell = cid; gate; data; length })
              else begin
                if data < min length (gate + 1) then
                  push (Holdoff_misordered { cell = cid; gate; data });
                let required =
                  min length (gate_lb.(Ids.Cell.to_int cid) + 1)
                in
                if data < required then
                  push
                    (Gate_after_data
                       { cell = cid; data_holdoff = data; required })
              end)
      cells;
    iter_links_from b (fun (ls : Schedule.link_sched) ->
        let link = ls.Schedule.ls_link in
        check_departures push link
          required.(Ids.Net.to_int link.Link.net)
          ls.Schedule.ls_transports)
  done;
  let report =
    {
      violations = List.rev !violations;
      length;
      links_checked = List.length sched.Schedule.link_scheds;
      transports_checked = !transports_checked;
      holdoffs_checked = List.length sched.Schedule.holdoffs;
      blocks_checked = nblocks;
    }
  in
  if Msched_obs.Sink.enabled obs then begin
    let module Sink = Msched_obs.Sink in
    Sink.add obs "verify.runs" 1;
    Sink.add obs "verify.links_checked" report.links_checked;
    Sink.add obs "verify.transports_checked" report.transports_checked;
    Sink.add obs "verify.holdoffs_checked" report.holdoffs_checked;
    Sink.add obs "verify.blocks_checked" report.blocks_checked;
    Sink.add obs "verify.violations" (List.length report.violations)
  end;
  report
