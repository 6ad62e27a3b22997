(* The critical chain is the provenance of the scheduler's own ReadyTime
   pass (Ready), run over the same processing order (Sched_graph) with
   every link's departure read from the compiled schedule instead of
   routed.  Because the order is consumers-first, a requirement is final
   before the link that reads it is taken, so the pass sees the table TIERS
   saw and its frame length lands exactly on Schedule.length for any
   TIERS-compiled schedule.  The chain is the provenance walk from the
   binding length constraint toward the frame end; requirement values
   strictly decrease along the walk, so it terminates and the hops tile
   [0, length] with no gaps. *)

open Msched_netlist
module System = Msched_arch.System
module Schedule = Msched_route.Schedule
module Link = Msched_route.Link
module Sched_graph = Msched_route.Sched_graph
module Ready = Msched_route.Ready
module Tiers = Msched_route.Tiers
module Sink = Msched_obs.Sink
module Diag = Msched_diag.Diag
module Compile = Msched.Compile

type hop = {
  h_kind : string;
  h_from : int;
  h_to : int;
  h_what : string;
  h_ctx : Diag.context;
  h_channel : int option;
}

type chain = {
  ch_hops : hop list;
  ch_length : int;
  ch_driver : string;
  ch_exact : bool;
}

let critical_chain ?(route = Tiers.default_options) (p : Compile.prepared)
    (sched : Schedule.t) =
  let part = p.Compile.partition in
  let la = p.Compile.latch_analysis in
  let nl = p.Compile.netlist in
  let length = sched.Schedule.length in
  let link_scheds = Array.of_list sched.Schedule.link_scheds in
  let links = Array.map (fun ls -> ls.Schedule.ls_link) link_scheds in
  let order, _graph_warnings = Sched_graph.order part la links in
  let departure i =
    List.fold_left
      (fun acc tr -> max acc (length - tr.Schedule.tr_fwd_dep))
      0 link_scheds.(i).Schedule.ls_transports
  in
  let ready = Ready.seed part la links in
  Ready.propagate ready ~latch_ordering:route.Tiers.latch_ordering
    ~depart:(fun i _ -> departure i)
    order;
  (* Wire congestion: the latest reverse slot with a multiplexed
     reservation — exactly the hops of non-hard transports — and the first
     (link, channel) holding it. *)
  let max_rslot = ref (-1) in
  let max_hop = ref None in
  Array.iteri
    (fun i ls ->
      List.iter
        (fun tr ->
          if not tr.Schedule.tr_hard then
            List.iter
              (fun (c, fs) ->
                let rs = length - fs in
                if rs > !max_rslot then begin
                  max_rslot := rs;
                  max_hop := Some (i, c)
                end)
              tr.Schedule.tr_hops)
        ls.Schedule.ls_transports)
    link_scheds;
  let frame = Ready.frame ready ~congestion:!max_rslot in
  (* ---- Chain construction from the binding constraint. ---- *)
  let net_name n = (Netlist.net nl n).Netlist.net_name in
  let cell_name c = (Netlist.cell nl c).Cell.name in
  let mk ?net ?cell ?block ?domain ?channel kind ~from_ ~to_ what =
    let from_ = max 0 (min length from_) in
    let to_ = max from_ (min length to_) in
    let ctx =
      {
        Diag.no_context with
        Diag.net = Option.map Ids.Net.to_int net;
        cell = Option.map Ids.Cell.to_int cell;
        block = Option.map Ids.Block.to_int block;
        domain = Option.map Ids.Dom.to_int domain;
      }
    in
    { h_kind = kind; h_from = from_; h_to = to_; h_what = what; h_ctx = ctx;
      h_channel = channel }
  in
  let buf = ref [] in
  let emit h = buf := h :: !buf in
  let rec walk fuel block n v =
    if v > 0 && fuel > 0 then begin
      let t = length - v in
      match Ready.provenance ready block n with
      | Some (v', why) when v' = v -> (
          match why with
          | Ready.Deadline ->
              emit
                (mk "sink-path" ~from_:t ~to_:length ~net:n ~block
                   (Format.asprintf
                      "combinational chain (depth %d) from net %s into a \
                       frame-end sink of %a"
                      v (net_name n) Ids.Block.pp block))
          | Ready.Via_link { link = li; dmax } ->
              let l = links.(li) in
              if dmax > 0 then
                emit
                  (mk "comb" ~from_:t ~to_:(t + dmax) ~net:n ~block
                     (Format.asprintf
                        "combinational (depth %d) from net %s to the source \
                         terminal of net %s in %a"
                        dmax (net_name n) (net_name l.Link.net) Ids.Block.pp
                        block));
              transport_hop fuel li (t + dmax)
          | Ready.Via_group { latch; gate; dmax; out } ->
              if dmax > 0 then
                emit
                  (mk "comb" ~from_:t ~to_:(t + dmax) ~net:n ~cell:latch
                     ~block
                     (Format.asprintf
                        "combinational (depth %d) from net %s to the %s pin \
                         of %s"
                        dmax (net_name n)
                        (if gate then "gate" else "data")
                        (cell_name latch)));
              emit
                (mk "latch-eval" ~from_:(t + dmax) ~to_:(t + dmax + 1)
                   ~cell:latch ~block
                   (Format.asprintf "evaluation of latch %s in %a"
                      (cell_name latch) Ids.Block.pp block));
              (match out with
              | Some out -> walk (fuel - 1) block out (v - dmax - 1)
              | None -> ()))
      | _ ->
          (* The pass disagrees with the schedule (a non-TIERS schedule);
             close the chain so the span invariant still holds. *)
          emit
            (mk "comb" ~from_:t ~to_:length ~net:n ~block
               (Format.asprintf "path of net %s to the frame end" (net_name n)))
    end
  and transport_hop fuel li t =
    let l = links.(li) in
    let ts = link_scheds.(li).Schedule.ls_transports in
    let arr = List.fold_left (fun a tr -> max a tr.Schedule.tr_fwd_arr) t ts in
    let ntr = List.length ts in
    let hard = List.exists (fun tr -> tr.Schedule.tr_hard) ts in
    let nhops =
      match ts with tr :: _ -> List.length tr.Schedule.tr_hops | [] -> 0
    in
    let what =
      if hard then
        Format.asprintf "dedicated-wire transport of %a (%d hops, 2 vclocks each)"
          Link.pp l nhops
      else if ntr > 1 then
        Format.asprintf
          "multi-domain transport of %a: %d fork-equalized transports, %d \
           hop(s) each"
          Link.pp l ntr nhops
      else Format.asprintf "transport of %a (%d hop(s))" Link.pp l nhops
    in
    let domain =
      match ts with
      | [ { Schedule.tr_domain = Some d; _ } ] -> Some d
      | _ -> None
    in
    let channel =
      match ts with
      | { Schedule.tr_hops = (c, _) :: _; _ } :: _ -> Some c
      | _ -> None
    in
    emit
      (mk "transport" ~from_:t ~to_:arr ~net:l.Link.net ~block:l.Link.dst_block
         ?domain ?channel what);
    walk (fuel - 1) l.Link.dst_block l.Link.net (length - arr)
  in
  let fuel = 4 * (length + 4) in
  let start () =
    match frame.Ready.binding with
    | Ready.Floor -> emit (mk "frame" ~from_:0 ~to_:length "minimum frame")
    | Ready.Transport { link = i; settle } ->
        let l = links.(i) in
        if settle > 0 then
          emit
            (mk "settle" ~from_:0 ~to_:settle ~net:l.Link.net
               ~block:l.Link.src_block
               (Format.asprintf
                  "frame-start combinational settle of net %s in %a (depth %d)"
                  (net_name l.Link.net) Ids.Block.pp l.Link.src_block settle));
        transport_hop fuel i settle
    | Ready.Congestion -> (
        match !max_hop with
        | None -> emit (mk "frame" ~from_:0 ~to_:length frame.Ready.driver)
        | Some (i, ch) ->
            let dep = length - departure i in
            if dep > 0 then
              emit
                (mk "congestion" ~from_:0 ~to_:dep ~channel:ch
                   (Format.asprintf
                      "wire congestion: channel %d is reserved back to the \
                       frame's first slots"
                      ch));
            transport_hop fuel i dep)
    | Ready.Sink { block; cell = cid; net = n } ->
        emit
          (mk "settle" ~from_:0 ~to_:length ~net:n ~cell:cid ~block
             (Format.asprintf
                "frame-start combinational chain (depth %d) to frame-end \
                 sink %s in %a"
                length (cell_name cid) Ids.Block.pp block))
    | Ready.Latch_eval { block; cell = cid; out; r; pin_settle } ->
        if pin_settle > 0 then
          emit
            (mk "settle" ~from_:0 ~to_:pin_settle ~cell:cid ~block
               (Format.asprintf
                  "frame-start settle of the data/gate pins of %s (depth %d)"
                  (cell_name cid) pin_settle));
        emit
          (mk "latch-eval" ~from_:pin_settle ~to_:(pin_settle + 1) ~cell:cid
             ~block
             (Format.asprintf "evaluation of latch %s in %a" (cell_name cid)
                Ids.Block.pp block));
        (match out with Some o -> walk fuel block o r | None -> ())
  in
  if frame.Ready.length <> length then
    {
      ch_hops =
        [ mk "frame" ~from_:0 ~to_:length sched.Schedule.length_driver ];
      ch_length = length;
      ch_driver = sched.Schedule.length_driver;
      ch_exact = false;
    }
  else begin
    start ();
    { ch_hops = List.rev !buf; ch_length = length;
      ch_driver = frame.Ready.driver; ch_exact = true }
  end

(* ---- Occupancy analytics. ---- *)

type occupancy = {
  oc_num_channels : int;
  oc_length : int;
  oc_channel_names : string array;
  oc_matrix : int array array;
  oc_per_channel_util : float array;
  oc_mean_util : float;
  oc_hot_channels : (int * int) list;
  oc_hot_links : (string * int) list;
  oc_hot_domains : (string * int) list;
  oc_mts_wire_slots : int;
  oc_single_wire_slots : int;
  oc_hard_wires : int;
}

let top_n n l =
  let sorted =
    List.sort (fun (ka, va) (kb, vb) -> compare (-va, ka) (-vb, kb)) l
  in
  List.filteri (fun i _ -> i < n) (List.filter (fun (_, v) -> v > 0) sorted)

let occupancy (sched : Schedule.t) sys =
  let matrix = Schedule.occupancy_matrix sched sys in
  let per = Schedule.per_channel_utilization sched sys in
  let names =
    Array.map
      (fun (c : System.channel) ->
        Format.asprintf "ch%d f%d->f%d" c.System.channel_index
          (Ids.Fpga.to_int c.System.src)
          (Ids.Fpga.to_int c.System.dst))
      (System.channels sys)
  in
  let channel_slots =
    Array.to_list
      (Array.mapi (fun i row -> (i, Array.fold_left ( + ) 0 row)) matrix)
  in
  let link_slots = Hashtbl.create 64 in
  let dom_slots = Hashtbl.create 8 in
  let mts = ref 0 and single = ref 0 in
  List.iter
    (fun ls ->
      let label = Format.asprintf "%a" Link.pp ls.Schedule.ls_link in
      List.iter
        (fun tr ->
          if not tr.Schedule.tr_hard then begin
            let n = List.length tr.Schedule.tr_hops in
            Hashtbl.replace link_slots label
              (n + Option.value ~default:0 (Hashtbl.find_opt link_slots label));
            match tr.Schedule.tr_domain with
            | Some d ->
                mts := !mts + n;
                let dn = Format.asprintf "%a" Ids.Dom.pp d in
                Hashtbl.replace dom_slots dn
                  (n + Option.value ~default:0 (Hashtbl.find_opt dom_slots dn))
            | None -> single := !single + n
          end)
        ls.Schedule.ls_transports)
    sched.Schedule.link_scheds;
  let bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  {
    oc_num_channels = Array.length matrix;
    oc_length = sched.Schedule.length;
    oc_channel_names = names;
    oc_matrix = matrix;
    oc_per_channel_util = per;
    oc_mean_util = Schedule.channel_utilization sched sys;
    oc_hot_channels = top_n 5 channel_slots;
    oc_hot_links = top_n 5 (bindings link_slots);
    oc_hot_domains = top_n 5 (bindings dom_slots);
    oc_mts_wire_slots = !mts;
    oc_single_wire_slots = !single;
    oc_hard_wires =
      Array.fold_left ( + ) 0 sched.Schedule.dedicated_per_channel;
  }

(* ---- Amdahl-style phase attribution from compiler spans. ---- *)

type phase = {
  ph_name : string;
  ph_count : int;
  ph_total_us : int;
  ph_self_us : int;
  ph_frac : float;
  ph_amdahl : float;
}

type attribution = {
  at_wall_us : int;
  at_phases : phase list;
  at_serial : string option;
}

let attribution obs =
  match Sink.spans obs with
  | [] -> None
  | spans ->
      let child_us = Hashtbl.create 64 in
      List.iter
        (fun (s : Sink.span) ->
          match s.Sink.sp_parent with
          | Some p ->
              Hashtbl.replace child_us p
                (s.Sink.sp_dur_us
                + Option.value ~default:0 (Hashtbl.find_opt child_us p))
          | None -> ())
        spans;
      let wall =
        List.fold_left
          (fun acc (s : Sink.span) ->
            if s.Sink.sp_depth = 0 then acc + s.Sink.sp_dur_us else acc)
          0 spans
      in
      let per_name = Hashtbl.create 64 in
      List.iter
        (fun (s : Sink.span) ->
          let self =
            max 0
              (s.Sink.sp_dur_us
              - Option.value ~default:0 (Hashtbl.find_opt child_us s.Sink.sp_id))
          in
          let count, total, self0 =
            Option.value ~default:(0, 0, 0)
              (Hashtbl.find_opt per_name s.Sink.sp_name)
          in
          Hashtbl.replace per_name s.Sink.sp_name
            (count + 1, total + s.Sink.sp_dur_us, self0 + self))
        spans;
      let phases =
        Hashtbl.fold
          (fun name (count, total, self) acc ->
            let frac =
              if wall > 0 then float_of_int self /. float_of_int wall else 0.0
            in
            {
              ph_name = name;
              ph_count = count;
              ph_total_us = total;
              ph_self_us = self;
              ph_frac = frac;
              ph_amdahl = (if frac < 1.0 then 1.0 /. (1.0 -. frac) else infinity);
            }
            :: acc)
          per_name []
        |> List.sort (fun a b ->
               compare (-a.ph_self_us, a.ph_name) (-b.ph_self_us, b.ph_name))
      in
      Some
        {
          at_wall_us = wall;
          at_phases = phases;
          at_serial =
            (match phases with [] -> None | p :: _ -> Some p.ph_name);
        }

(* ---- The full report. ---- *)

type t = {
  r_design : string;
  r_mode : string;
  r_length : int;
  r_driver : string;
  r_est_speed_hz : float;
  r_chain : chain;
  r_occupancy : occupancy;
  r_phases : attribution option;
}

let analyze ?(route = Tiers.default_options) ?(obs = Sink.null) ~design
    prepared sched =
  {
    r_design = design;
    r_mode = Tiers.mode_name route.Tiers.mode;
    r_length = sched.Schedule.length;
    r_driver = sched.Schedule.length_driver;
    r_est_speed_hz = Schedule.est_speed_hz sched;
    r_chain = critical_chain ~route prepared sched;
    r_occupancy = occupancy sched prepared.Compile.system;
    r_phases = attribution obs;
  }

(* ---- Exporters. ---- *)

let pp_summary ppf t =
  Format.fprintf ppf "explain: %s (%s): %d vclocks/frame, %.1f kHz — %s@,"
    t.r_design t.r_mode t.r_length
    (t.r_est_speed_hz /. 1e3)
    t.r_driver;
  Format.fprintf ppf "critical chain (span 0..%d%s):@," t.r_chain.ch_length
    (if t.r_chain.ch_exact then ", exact" else ", approximate");
  List.iter
    (fun h ->
      Format.fprintf ppf "  [%3d..%3d] %-11s %s@," h.h_from h.h_to h.h_kind
        h.h_what)
    t.r_chain.ch_hops;
  let oc = t.r_occupancy in
  Format.fprintf ppf
    "occupancy: %d channels x %d slots, mean utilization %.1f%%@,"
    oc.oc_num_channels (oc.oc_length + 1)
    (100.0 *. oc.oc_mean_util);
  let pp_rank label fmt_item items =
    if items <> [] then begin
      Format.fprintf ppf "  %s:" label;
      List.iter (fun it -> Format.fprintf ppf " %s" (fmt_item it)) items;
      Format.fprintf ppf "@,"
    end
  in
  pp_rank "hot channels"
    (fun (c, n) ->
      Format.asprintf "%s (%d wire-slots, %.0f%%)" oc.oc_channel_names.(c) n
        (100.0 *. oc.oc_per_channel_util.(c)))
    oc.oc_hot_channels;
  pp_rank "hot links"
    (fun (l, n) -> Printf.sprintf "%s (%d)" l n)
    oc.oc_hot_links;
  pp_rank "hot domains"
    (fun (d, n) -> Printf.sprintf "%s (%d)" d n)
    oc.oc_hot_domains;
  Format.fprintf ppf
    "  wire-slots: %d multi-domain (FORK) / %d single-domain, %d dedicated \
     wires@,"
    oc.oc_mts_wire_slots oc.oc_single_wire_slots oc.oc_hard_wires;
  match t.r_phases with
  | None -> ()
  | Some a ->
      Format.fprintf ppf "phase attribution (wall %.1f ms):@,"
        (float_of_int a.at_wall_us /. 1e3);
      List.iter
        (fun p ->
          if p.ph_self_us > 0 then
            Format.fprintf ppf
              "  %-18s self %8.1f ms  %5.1f%%  (Amdahl bound x%.2f)@,"
              p.ph_name
              (float_of_int p.ph_self_us /. 1e3)
              (100.0 *. p.ph_frac) p.ph_amdahl)
        a.at_phases;
      (match a.at_serial with
      | Some s -> Format.fprintf ppf "  serial bottleneck: %s@," s
      | None -> ())

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>%a@]" pp_summary t

let to_json t =
  let module J = Diag.Json in
  let b = Buffer.create 8192 in
  let first = ref true in
  Buffer.add_char b '{';
  J.field b ~first "schema" (J.string "msched-explain-1");
  J.field b ~first "design" (J.string t.r_design);
  J.field b ~first "mode" (J.string t.r_mode);
  J.field b ~first "length" (string_of_int t.r_length);
  J.field b ~first "driver" (J.string t.r_driver);
  J.field b ~first "est_speed_hz" (Printf.sprintf "%.6g" t.r_est_speed_hz);
  J.field b ~first "exact" (string_of_bool t.r_chain.ch_exact);
  J.field b ~first "chain_driver" (J.string t.r_chain.ch_driver);
  let chain =
    let cb = Buffer.create 1024 in
    Buffer.add_char cb '[';
    List.iteri
      (fun i h ->
        if i > 0 then Buffer.add_char cb ',';
        let hf = ref true in
        Buffer.add_char cb '{';
        J.field cb ~first:hf "kind" (J.string h.h_kind);
        J.field cb ~first:hf "from" (string_of_int h.h_from);
        J.field cb ~first:hf "to" (string_of_int h.h_to);
        J.field cb ~first:hf "what" (J.string h.h_what);
        let opt name v =
          match v with
          | Some v -> J.field cb ~first:hf name (string_of_int v)
          | None -> ()
        in
        opt "net" h.h_ctx.Diag.net;
        opt "cell" h.h_ctx.Diag.cell;
        opt "block" h.h_ctx.Diag.block;
        opt "domain" h.h_ctx.Diag.domain;
        opt "channel" h.h_channel;
        Buffer.add_char cb '}')
      t.r_chain.ch_hops;
    Buffer.add_char cb ']';
    Buffer.contents cb
  in
  J.field b ~first "chain" chain;
  let oc = t.r_occupancy in
  let occ =
    let ob = Buffer.create 4096 in
    let of_ = ref true in
    Buffer.add_char ob '{';
    J.field ob ~first:of_ "channels" (string_of_int oc.oc_num_channels);
    J.field ob ~first:of_ "length" (string_of_int oc.oc_length);
    J.field ob ~first:of_ "mean_utilization"
      (Printf.sprintf "%.6g" oc.oc_mean_util);
    let float_arr a =
      "["
      ^ String.concat ","
          (Array.to_list (Array.map (Printf.sprintf "%.6g") a))
      ^ "]"
    in
    let int_arr a =
      "[" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ "]"
    in
    J.field ob ~first:of_ "per_channel_utilization"
      (float_arr oc.oc_per_channel_util);
    J.field ob ~first:of_ "matrix"
      ("["
      ^ String.concat "," (Array.to_list (Array.map int_arr oc.oc_matrix))
      ^ "]");
    let rank name fmt_key l =
      J.field ob ~first:of_ name
        ("["
        ^ String.concat ","
            (List.map
               (fun (k, v) ->
                 Printf.sprintf "{%s,\"wire_slots\":%d}" (fmt_key k) v)
               l)
        ^ "]")
    in
    rank "hot_channels"
      (fun c -> Printf.sprintf "\"channel\":%d" c)
      oc.oc_hot_channels;
    rank "hot_links"
      (fun l -> Printf.sprintf "\"link\":%s" (J.string l))
      oc.oc_hot_links;
    rank "hot_domains"
      (fun d -> Printf.sprintf "\"domain\":%s" (J.string d))
      oc.oc_hot_domains;
    J.field ob ~first:of_ "mts_wire_slots" (string_of_int oc.oc_mts_wire_slots);
    J.field ob ~first:of_ "single_wire_slots"
      (string_of_int oc.oc_single_wire_slots);
    J.field ob ~first:of_ "hard_wires" (string_of_int oc.oc_hard_wires);
    Buffer.add_char ob '}';
    Buffer.contents ob
  in
  J.field b ~first "occupancy" occ;
  (match t.r_phases with
  | None -> ()
  | Some a ->
      let pb = Buffer.create 1024 in
      let pf = ref true in
      Buffer.add_char pb '{';
      J.field pb ~first:pf "wall_us" (string_of_int a.at_wall_us);
      (match a.at_serial with
      | Some s -> J.field pb ~first:pf "serial_bottleneck" (J.string s)
      | None -> ());
      J.field pb ~first:pf "phases"
        ("["
        ^ String.concat ","
            (List.map
               (fun p ->
                 Printf.sprintf
                   "{\"name\":%s,\"count\":%d,\"total_us\":%d,\"self_us\":%d,\"fraction\":%.6g,\"amdahl_bound\":%.6g}"
                   (J.string p.ph_name) p.ph_count p.ph_total_us p.ph_self_us
                   p.ph_frac p.ph_amdahl)
               a.at_phases)
        ^ "]");
      Buffer.add_char pb '}';
      J.field b ~first "phases" (Buffer.contents pb));
  Buffer.add_char b '}';
  Buffer.contents b

let perfetto_string t =
  let module J = Diag.Json in
  let oc = t.r_occupancy in
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  Array.iteri
    (fun c row ->
      Array.iteri
        (fun slot wires ->
          if not !first then Buffer.add_char b ',';
          first := false;
          Buffer.add_string b
            (Printf.sprintf
               "{\"name\":%s,\"ph\":\"C\",\"ts\":%d,\"pid\":0,\"tid\":0,\"args\":{\"wires\":%d}}"
               (J.string oc.oc_channel_names.(c))
               slot wires))
        row)
    oc.oc_matrix;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b
