open Msched_netlist
module Partition = Msched_partition.Partition
module Placement = Msched_place.Placement
module Schedule = Msched_route.Schedule
module Link = Msched_route.Link
module Edges = Msched_clocking.Edges

type violations = {
  hold_hazards : int;
  causality_inversions : int;
  late_events : int;
  event_overflows : int;
}

(* A transport instance prepared for fast per-frame enqueueing. *)
type prepared_transport = {
  pt_net : int;
  pt_src_block : int;
  pt_dst_block : int;
  pt_dep : int;
  pt_arr : int;
}

type event =
  | Apply of int * int * bool  (* block, net, value *)
  | Eval of int * Ids.Cell.t  (* block, cell *)
  | Sample of prepared_transport
  | Release_data of Ids.Cell.t  (* holdoff expiry: apply buffered latch data *)
  | Release_gate of Ids.Cell.t  (* gate settle: present the settled gate *)

type latch_state = {
  mutable data_view : bool;
  mutable gate_view : bool;
  mutable release_pending : bool;
  mutable gate_release_pending : bool;
  mutable prev_trigger : bool;
  mutable last_open_data_apply : int;  (* within current frame, -1 if none *)
  mutable last_gate_change : int;  (* within current frame, -1 if none *)
}

type t = {
  nl : Netlist.t;
  part : Partition.t;
  sched : Schedule.t;
  stim : Stimulus.t;
  nnets : int;
  sites : Bytes.t;  (* nblocks * nnets, 0/1 *)
  clock_levels : bool array;
  rams : bool array Ids.Cell.Tbl.t;
  ram_views : bool array Ids.Cell.Tbl.t;
      (* per net-triggered RAM: gated view of [we; wdata; waddr...] *)
  latches : latch_state Ids.Cell.Tbl.t;  (* latches, net-trig FFs and RAMs *)
  holdoff : (int * int) Ids.Cell.Tbl.t;  (* per cell: (gate, data) holdoff *)
  owner : int array;  (* per net: block of driver *)
  consumers : (int * Netlist.term) list array;  (* per net: (block, term) *)
  transports : prepared_transport list;
  hard_routes : (int * int) list array;  (* per net: (dst block, latency) *)
  dom_cells : Ids.Cell.t list array;  (* per domain: Dom_clock-triggered cells *)
  dom_inputs : Ids.Cell.t list array;  (* per domain: input cells *)
  live : bool array;  (* per net: transitively feeds a state/output sink *)
  mutable buckets : event list array;
  mutable frame_end : int;
  mutable hold_hazards : int;
  causality_inversions : int;
  mutable late_events : int;
  mutable event_overflows : int;
  mutable events_this_frame : int;
}

let site_idx t b n = (b * t.nnets) + n
let get_site t b n = Bytes.unsafe_get t.sites (site_idx t b n) <> '\000'

let set_site t b n v =
  Bytes.unsafe_set t.sites (site_idx t b n) (if v then '\001' else '\000')

let violations t =
  {
    hold_hazards = t.hold_hazards;
    causality_inversions = t.causality_inversions;
    late_events = t.late_events;
    event_overflows = t.event_overflows;
  }

let event_budget = 2_000_000

let debug_late =
  match Sys.getenv_opt "MSCHED_DEBUG_LATE" with Some _ -> true | None -> false

(* MSCHED_TRACE_NETS="12,34" traces site applies of those nets. *)
let trace_nets =
  match Sys.getenv_opt "MSCHED_TRACE_NETS" with
  | None -> []
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)

let schedule_event t time ev =
  let time = max 0 time in
  let time = min time (Array.length t.buckets - 1) in
  t.buckets.(time) <- ev :: t.buckets.(time)

let trigger_level t b (c : Cell.t) =
  match c.Cell.trigger with
  | Some (Cell.Dom_clock d) -> t.clock_levels.(Ids.Dom.to_int d)
  | Some (Cell.Net_trigger n) -> get_site t b (Ids.Net.to_int n)
  | None -> false

let holdoff_of t cid =
  Option.value ~default:(0, 0) (Ids.Cell.Tbl.find_opt t.holdoff cid)

(* The gate level a state element is allowed to see: the raw site for
   dom-clocked triggers (root clocks are glitch-free), the gated view for
   net triggers (intra-FPGA evaluation is scheduled; latches only see
   settled gates). *)
let gated_trigger_level t _b (c : Cell.t) ls =
  match c.Cell.trigger with
  | Some (Cell.Dom_clock d) -> t.clock_levels.(Ids.Dom.to_int d)
  | Some (Cell.Net_trigger _) -> ls.gate_view
  | None -> false

let update_gate_view t time b (c : Cell.t) ls =
  match c.Cell.trigger with
  | Some (Cell.Net_trigger tn) ->
      let site = get_site t b (Ids.Net.to_int tn) in
      if site <> ls.gate_view then begin
        let gho, _ = holdoff_of t c.Cell.id in
        if time >= gho then begin
          ls.gate_view <- site;
          ls.last_gate_change <- time
        end
        else if not ls.gate_release_pending then begin
          ls.gate_release_pending <- true;
          schedule_event t gho (Release_gate c.Cell.id)
        end
      end
  | Some (Cell.Dom_clock _) | None -> ()

let ram_addr t b (c : Cell.t) ~offset ~addr_bits =
  let addr = ref 0 in
  for i = 0 to addr_bits - 1 do
    if get_site t b (Ids.Net.to_int c.Cell.data_inputs.(offset + i)) then
      addr := !addr lor (1 lsl i)
  done;
  !addr

(* Apply a value to a site and schedule consumer evaluations one slot
   later (unit gate delay). *)
let rec apply t time b n v =
  if get_site t b n <> v then begin
    (* A value still changing after the frame deadline means the schedule
       under-provisioned this path (dead logic excluded: lateness is only
       counted when a site actually changes). *)
    if time > t.frame_end && t.live.(n) then begin
      t.late_events <- t.late_events + 1;
      if debug_late then
        Printf.eprintf "LATE-APPLY t=%d end=%d b%d n%d=%b (driver %s)\n%!"
          time t.frame_end b n v
          (Netlist.driver t.nl (Ids.Net.of_int n)).Cell.name
    end;
    set_site t b n v;
    if trace_nets <> [] && List.mem n trace_nets then
      Printf.eprintf "TRACE t=%d b%d n%d=%b\n%!" time b n v;
    (* Hard wires: destination copies follow the source continuously. *)
    if t.owner.(n) = b then
      List.iter
        (fun (db, latency) ->
          schedule_event t (time + latency) (Apply (db, n, v)))
        t.hard_routes.(n);
    List.iter
      (fun (cb, (tm : Netlist.term)) ->
        if cb = b then
          schedule_event t (time + 1) (Eval (cb, tm.Netlist.term_cell)))
      t.consumers.(n)
  end

and eval_cell t time b cid =
  let c = Netlist.cell t.nl cid in
  match c.Cell.kind with
  | Cell.Gate g ->
      let inputs =
        Array.map
          (fun n -> get_site t b (Ids.Net.to_int n))
          c.Cell.data_inputs
      in
      let v = Cell.eval_gate g inputs in
      apply t time b (Ids.Net.to_int (Option.get c.Cell.output)) v
  | Cell.Ram { addr_bits } -> begin
      (* Asynchronous read; writes commit on (gated) trigger rise.  A
         net-triggered RAM's write port gets the same gate-before-data
         treatment as a latch: the write pins are presented through a view
         held off until after the write clock has settled, so a
         multi-domain write clock (the paper's "memories under test"
         future work) never commits racing data. *)
      let mem = Ids.Cell.Tbl.find t.rams cid in
      (match c.Cell.trigger with
      | Some (Cell.Net_trigger _) ->
          let ls = Ids.Cell.Tbl.find t.latches cid in
          update_gate_view t time b c ls;
          let view = Ids.Cell.Tbl.find t.ram_views cid in
          let nview = Array.length view in
          (* A trigger rise in this very evaluation commits with the view as
             it stood BEFORE any data sync: on simultaneous arrival the old
             write-port values win (paper Figure 4a). *)
          let trig = ls.gate_view in
          if trig && not ls.prev_trigger then begin
            if view.(0) (* we *) then begin
              let a = ref 0 in
              for i = 0 to addr_bits - 1 do
                if view.(2 + i) then a := !a lor (1 lsl i)
              done;
              mem.(!a) <- view.(1)
            end
          end;
          ls.prev_trigger <- trig;
          let stale =
            let differs = ref false in
            for i = 0 to nview - 1 do
              if view.(i) <> get_site t b (Ids.Net.to_int c.Cell.data_inputs.(i))
              then differs := true
            done;
            !differs
          in
          if stale then begin
            let _, ho = holdoff_of t cid in
            if time >= ho then
              for i = 0 to nview - 1 do
                view.(i) <-
                  get_site t b (Ids.Net.to_int c.Cell.data_inputs.(i))
              done
            else if not ls.release_pending then begin
              ls.release_pending <- true;
              schedule_event t ho (Release_data cid)
            end
          end
      | Some (Cell.Dom_clock _) | None -> ());
      let v = mem.(ram_addr t b c ~offset:(2 + addr_bits) ~addr_bits) in
      apply t time b (Ids.Net.to_int (Option.get c.Cell.output)) v
    end
  | Cell.Latch { active_high } ->
      let ls = Ids.Cell.Tbl.find t.latches cid in
      update_gate_view t time b c ls;
      let gate = gated_trigger_level t b c ls in
      let gate_active = gate = active_high in
      (match c.Cell.trigger with
      | Some (Cell.Dom_clock _) ->
          if gate <> ls.prev_trigger then begin
            ls.prev_trigger <- gate;
            ls.last_gate_change <- time
          end
      | Some (Cell.Net_trigger _) | None -> ());
      update_data_view t time b c ls ~open_now:gate_active;
      if gate_active then
        apply t time b (Ids.Net.to_int (Option.get c.Cell.output)) ls.data_view
  | Cell.Flip_flop -> begin
      match c.Cell.trigger with
      | Some (Cell.Net_trigger _) ->
          let ls = Ids.Cell.Tbl.find t.latches cid in
          update_gate_view t time b c ls;
          let trig = gated_trigger_level t b c ls in
          (* Capture BEFORE syncing the data view: a data change landing in
             the same evaluation as the clock edge must lose the race. *)
          if trig && not ls.prev_trigger then
            apply t time b
              (Ids.Net.to_int (Option.get c.Cell.output))
              ls.data_view;
          ls.prev_trigger <- trig;
          update_data_view t time b c ls ~open_now:false
      | Some (Cell.Dom_clock _) | None ->
          (* Dom-clocked flip-flops capture at frame boundaries only. *)
          ()
    end
  | Cell.Input _ | Cell.Clock_source _ | Cell.Output -> ()

and update_data_view t time b (c : Cell.t) ls ~open_now =
  let dnet = Ids.Net.to_int c.Cell.data_inputs.(0) in
  let site = get_site t b dnet in
  if site <> ls.data_view then begin
    let _, ho = holdoff_of t c.Cell.id in
    if time >= ho then begin
      ls.data_view <- site;
      if open_now then ls.last_open_data_apply <- time
    end
    else if not ls.release_pending then begin
      ls.release_pending <- true;
      schedule_event t ho (Release_data c.Cell.id)
    end
  end

let process_event t time ev =
  t.events_this_frame <- t.events_this_frame + 1;
  match ev with
  | Apply (b, n, v) -> apply t time b n v
  | Eval (b, c) -> eval_cell t time b c
  | Sample pt ->
      let v = get_site t pt.pt_src_block pt.pt_net in
      schedule_event t pt.pt_arr (Apply (pt.pt_dst_block, pt.pt_net, v))
  | Release_data cid ->
      let ls = Ids.Cell.Tbl.find t.latches cid in
      ls.release_pending <- false;
      let b = Ids.Block.to_int (Partition.block_of_cell t.part cid) in
      eval_cell t time b cid
  | Release_gate cid ->
      let ls = Ids.Cell.Tbl.find t.latches cid in
      ls.gate_release_pending <- false;
      let b = Ids.Block.to_int (Partition.block_of_cell t.part cid) in
      eval_cell t time b cid

let drain t =
  let i = ref 0 in
  let n = Array.length t.buckets in
  while !i < n do
    (match t.buckets.(!i) with
    | [] -> incr i
    | evs ->
        t.buckets.(!i) <- [];
        if t.events_this_frame > event_budget then begin
          t.event_overflows <- t.event_overflows + 1;
          i := n
        end
        else begin
          (* FIFO within the bucket, but transport samples go last so a
             source net settling in this very slot is read post-update. *)
          let evs = List.rev evs in
          let samples, others =
            List.partition (function Sample _ -> true | _ -> false) evs
          in
          List.iter (process_event t !i) others;
          List.iter (process_event t !i) samples
        end)
  done

let begin_frame t =
  t.events_this_frame <- 0;
  Ids.Cell.Tbl.iter
    (fun _ ls ->
      ls.last_open_data_apply <- -1;
      ls.last_gate_change <- -1)
    t.latches

let end_frame_stats t =
  Ids.Cell.Tbl.iter
    (fun _ ls ->
      if
        ls.last_open_data_apply >= 0
        && ls.last_gate_change > ls.last_open_data_apply
      then t.hold_hazards <- t.hold_hazards + 1)
    t.latches

(* Apply one edge's frame-start effects (clock level, dom-clocked captures,
   testbench inputs).  Captures sample the settled previous-frame sites, so
   all edges of a multi-edge frame see consistent pre-frame state. *)
let apply_edge_effects t (e : Edges.edge) =
  let d = e.Edges.domain in
  let di = Ids.Dom.to_int d in
  let rising = e.Edges.polarity = Edges.Rising in
  t.clock_levels.(di) <- rising;
  (* Clock-source net level change in its owner block. *)
  (match Netlist.clock_source_net t.nl d with
  | Some n ->
      let ni = Ids.Net.to_int n in
      schedule_event t 0 (Apply (t.owner.(ni), ni, rising))
  | None -> ());
  (* Dom-clocked cells of this domain. *)
  List.iter
    (fun cid ->
      let c = Netlist.cell t.nl cid in
      let b = Ids.Block.to_int (Partition.block_of_cell t.part cid) in
      match c.Cell.kind with
      | Cell.Flip_flop ->
          if rising then begin
            (* Capture the settled previous-frame data now; publish at 0,
               matching the scheduler's frame-start-origin model. *)
            let v = get_site t b (Ids.Net.to_int c.Cell.data_inputs.(0)) in
            schedule_event t 0
              (Apply (b, Ids.Net.to_int (Option.get c.Cell.output), v))
          end
      | Cell.Ram { addr_bits } ->
          if rising then begin
            let we = get_site t b (Ids.Net.to_int c.Cell.data_inputs.(0)) in
            if we then begin
              let a = ram_addr t b c ~offset:2 ~addr_bits in
              (Ids.Cell.Tbl.find t.rams cid).(a) <-
                get_site t b (Ids.Net.to_int c.Cell.data_inputs.(1))
            end;
            schedule_event t 0 (Eval (b, cid))
          end
      | Cell.Latch _ -> schedule_event t 0 (Eval (b, cid))
      | Cell.Gate _ | Cell.Input _ | Cell.Clock_source _ | Cell.Output -> ())
    t.dom_cells.(di);
  (* Testbench input changes for this domain. *)
  if rising then
    List.iter
      (fun cid ->
        let c = Netlist.cell t.nl cid in
        let b = Ids.Block.to_int (Partition.block_of_cell t.part cid) in
        let v = Stimulus.value t.stim c ~edge_index:e.Edges.index in
        schedule_event t 0
          (Apply (b, Ids.Net.to_int (Option.get c.Cell.output), v)))
      t.dom_inputs.(di)

let run_frame t edges =
  begin_frame t;
  (* Enqueue the static transport schedule for this frame. *)
  List.iter (fun pt -> schedule_event t pt.pt_dep (Sample pt)) t.transports;
  List.iter (apply_edge_effects t) edges;
  drain t;
  end_frame_stats t

let run_edge t e = run_frame t [ e ]

let run t edges = List.iter (run_edge t) edges

let state_snapshot t =
  List.map
    (fun cid ->
      let c = Netlist.cell t.nl cid in
      let b = Ids.Block.to_int (Partition.block_of_cell t.part cid) in
      (cid, get_site t b (Ids.Net.to_int (Option.get c.Cell.output))))
    (Ref_sim.state_cells t.nl)

let ram_contents t cell = Array.copy (Ids.Cell.Tbl.find t.rams cell)

(* Static causality check: transports of one fork group must preserve
   sampling order on arrival. *)
let count_causality_inversions sched =
  List.fold_left
    (fun acc (ls : Schedule.link_sched) ->
      let ts = Array.of_list ls.Schedule.ls_transports in
      let n = Array.length ts in
      let count = ref 0 in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let a = ts.(i) and b = ts.(j) in
          let dep_lt = a.Schedule.tr_fwd_dep < b.Schedule.tr_fwd_dep in
          let arr_gt = a.Schedule.tr_fwd_arr > b.Schedule.tr_fwd_arr in
          let dep_gt = a.Schedule.tr_fwd_dep > b.Schedule.tr_fwd_dep in
          let arr_lt = a.Schedule.tr_fwd_arr < b.Schedule.tr_fwd_arr in
          if (dep_lt && arr_gt) || (dep_gt && arr_lt) then incr count
        done
      done;
      acc + !count)
    0 sched.Schedule.link_scheds

let create placement sched stim =
  let part = Placement.partition placement in
  let nl = Partition.netlist part in
  let nblocks = Partition.num_blocks part in
  let nnets = Netlist.num_nets nl in
  let owner = Array.make nnets 0 in
  Netlist.iter_nets nl (fun n ni ->
      owner.(Ids.Net.to_int n) <-
        Ids.Block.to_int (Partition.block_of_cell part ni.Netlist.driver));
  let consumers = Array.make nnets [] in
  Netlist.iter_nets nl (fun n ni ->
      let l =
        Array.to_list ni.Netlist.fanouts
        |> List.filter_map (fun (tm : Netlist.term) ->
               if Partition.is_global_term nl tm then None
               else
                 Some
                   ( Ids.Block.to_int
                       (Partition.block_of_cell part tm.Netlist.term_cell),
                     tm ))
      in
      consumers.(Ids.Net.to_int n) <- l);
  let ram_views = Ids.Cell.Tbl.create 8 in
  Netlist.iter_cells nl (fun c ->
      match c.Cell.kind, c.Cell.trigger with
      | Cell.Ram { addr_bits }, Some (Cell.Net_trigger _) ->
          Ids.Cell.Tbl.replace ram_views c.Cell.id
            (Array.make (2 + addr_bits) false)
      | _, _ -> ());
  let transports = ref [] in
  let hard_routes = Array.make nnets [] in
  List.iter
    (fun (ls : Schedule.link_sched) ->
      let link = ls.Schedule.ls_link in
      let ni = Ids.Net.to_int link.Link.net in
      List.iter
        (fun (tr : Schedule.transport) ->
          if tr.Schedule.tr_hard then
            hard_routes.(ni) <-
              ( Ids.Block.to_int link.Link.dst_block,
                max 1 (tr.Schedule.tr_fwd_arr - tr.Schedule.tr_fwd_dep) )
              :: hard_routes.(ni)
          else
            transports :=
              {
                pt_net = ni;
                pt_src_block = Ids.Block.to_int link.Link.src_block;
                pt_dst_block = Ids.Block.to_int link.Link.dst_block;
                pt_dep = tr.Schedule.tr_fwd_dep;
                pt_arr = tr.Schedule.tr_fwd_arr;
              }
              :: !transports)
        ls.Schedule.ls_transports)
    sched.Schedule.link_scheds;
  (* Later-sampled transports of a fork group must apply last on arrival
     ties, so sort by (arr, dep). *)
  let transports =
    List.sort
      (fun a b -> compare (a.pt_arr, a.pt_dep) (b.pt_arr, b.pt_dep))
      !transports
  in
  (* Liveness: a net is live when it feeds a sequential/output pin, or a
     combinational cell whose output is live.  Dead cones may legitimately
     settle after the frame deadline (the scheduler leaves them
     unconstrained), so they are excluded from lateness accounting. *)
  let live = Array.make nnets false in
  let changed = ref true in
  while !changed do
    changed := false;
    Netlist.iter_nets nl (fun n ni ->
        let i = Ids.Net.to_int n in
        if not live.(i) then begin
          let feeds_live =
            Array.exists
              (fun (tm : Netlist.term) ->
                let c = Netlist.cell nl tm.Netlist.term_cell in
                if
                  Levelize.is_comb_through c
                  && Levelize.is_comb_pin c tm.Netlist.term_pin
                then
                  match c.Cell.output with
                  | Some out -> live.(Ids.Net.to_int out)
                  | None -> false
                else
                  match c.Cell.kind with
                  | Cell.Latch _ | Cell.Flip_flop | Cell.Ram _ | Cell.Output ->
                      true
                  | Cell.Gate _ | Cell.Input _ | Cell.Clock_source _ -> false)
              ni.Netlist.fanouts
          in
          if feeds_live then begin
            live.(i) <- true;
            changed := true
          end
        end)
  done;
  let ndomains = Netlist.num_domains nl in
  let dom_cells = Array.make ndomains [] in
  let dom_inputs = Array.make ndomains [] in
  let latches = Ids.Cell.Tbl.create 64 in
  let rams = Ids.Cell.Tbl.create 8 in
  Netlist.iter_cells nl (fun c ->
      (match c.Cell.trigger with
      | Some (Cell.Dom_clock d) ->
          let di = Ids.Dom.to_int d in
          dom_cells.(di) <- c.Cell.id :: dom_cells.(di)
      | Some (Cell.Net_trigger _) | None -> ());
      (match c.Cell.kind with
      | Cell.Input { domain = Some d } ->
          let di = Ids.Dom.to_int d in
          dom_inputs.(di) <- c.Cell.id :: dom_inputs.(di)
      | Cell.Input { domain = None } | Cell.Gate _ | Cell.Latch _
      | Cell.Flip_flop | Cell.Ram _ | Cell.Clock_source _ | Cell.Output ->
          ());
      match c.Cell.kind with
      | Cell.Latch _ | Cell.Flip_flop | Cell.Ram _ ->
          Ids.Cell.Tbl.replace latches c.Cell.id
            {
              data_view = false;
              gate_view = false;
              release_pending = false;
              gate_release_pending = false;
              prev_trigger = false;
              last_open_data_apply = -1;
              last_gate_change = -1;
            };
          (match c.Cell.kind with
          | Cell.Ram { addr_bits } ->
              Ids.Cell.Tbl.replace rams c.Cell.id
                (Array.make (Cell.ram_words ~addr_bits) false)
          | Cell.Latch _ | Cell.Flip_flop | Cell.Gate _ | Cell.Input _
          | Cell.Clock_source _ | Cell.Output ->
              ())
      | Cell.Gate _ | Cell.Input _ | Cell.Clock_source _ | Cell.Output -> ());
  let holdoff = Ids.Cell.Tbl.create 64 in
  List.iter
    (fun (h : Schedule.holdoff) ->
      Ids.Cell.Tbl.replace holdoff h.Schedule.ho_cell
        (h.Schedule.ho_gate, h.Schedule.ho_data))
    sched.Schedule.holdoffs;
  (* Initialize sites from the settled reference state (configuration
     download): every block copy starts at the golden initial value. *)
  let golden = Ref_sim.create nl stim in
  let sites = Bytes.make (nblocks * nnets) '\000' in
  let t =
    {
      nl;
      part;
      sched;
      stim;
      nnets;
      sites;
      clock_levels = Array.make ndomains false;
      rams;
      ram_views;
      latches;
      holdoff;
      owner;
      consumers;
      transports;
      hard_routes;
      dom_cells;
      dom_inputs;
      live;
      buckets = Array.make (max 2 (4 * sched.Schedule.length) + 16) [];
      frame_end = sched.Schedule.length;
      hold_hazards = 0;
      causality_inversions = count_causality_inversions sched;
      late_events = 0;
      event_overflows = 0;
      events_this_frame = 0;
    }
  in
  for n = 0 to nnets - 1 do
    let v = Ref_sim.net_value golden (Ids.Net.of_int n) in
    for b = 0 to nblocks - 1 do
      set_site t b n v
    done
  done;
  Ids.Cell.Tbl.iter
    (fun cid ls ->
      let c = Netlist.cell nl cid in
      let b = Ids.Block.to_int (Partition.block_of_cell part cid) in
      ls.data_view <- get_site t b (Ids.Net.to_int c.Cell.data_inputs.(0));
      (match c.Cell.trigger with
      | Some (Cell.Net_trigger tn) ->
          ls.gate_view <- get_site t b (Ids.Net.to_int tn)
      | Some (Cell.Dom_clock _) | None -> ());
      ls.prev_trigger <- trigger_level t b c)
    latches;
  Ids.Cell.Tbl.iter
    (fun cid view ->
      let c = Netlist.cell nl cid in
      let b = Ids.Block.to_int (Partition.block_of_cell part cid) in
      Array.iteri
        (fun i _ ->
          view.(i) <- get_site t b (Ids.Net.to_int c.Cell.data_inputs.(i)))
        view)
    ram_views;
  t
