open Msched_netlist
module System = Msched_arch.System

type transport = {
  tr_domain : Ids.Dom.t option;
  tr_fwd_dep : int;
  tr_fwd_arr : int;
  tr_hops : (int * int) list;
  tr_hard : bool;
}

type link_sched = { ls_link : Link.t; ls_transports : transport list }

type holdoff = { ho_cell : Ids.Cell.t; ho_gate : int; ho_data : int }

type t = {
  length : int;
  length_driver : string;
  vclock_hz : float;
  link_scheds : link_sched list;
  holdoffs : holdoff list;
  peak_channel_usage : int array;
  dedicated_per_channel : int array;
  warnings : string list;
}

let est_speed_hz t = t.vclock_hz /. float_of_int (max 1 t.length)

let total_holdoff t =
  List.fold_left (fun acc h -> acc + h.ho_data) 0 t.holdoffs

let pins_used_per_fpga t sys =
  let pins = Array.make (System.num_fpgas sys) 0 in
  Array.iteri
    (fun i (c : System.channel) ->
      let wires = t.peak_channel_usage.(i) + t.dedicated_per_channel.(i) in
      let s = Ids.Fpga.to_int c.System.src and d = Ids.Fpga.to_int c.System.dst in
      pins.(s) <- pins.(s) + wires;
      pins.(d) <- pins.(d) + wires)
    (System.channels sys);
  pins

let max_pins_used t sys = Array.fold_left max 0 (pins_used_per_fpga t sys)

let find_transports t ~net ~dst_block =
  List.concat_map
    (fun ls ->
      if
        Ids.Net.equal ls.ls_link.Link.net net
        && Ids.Block.equal ls.ls_link.Link.dst_block dst_block
      then ls.ls_transports
      else [])
    t.link_scheds

let holdoff_of t cell =
  List.find_opt (fun h -> Ids.Cell.equal h.ho_cell cell) t.holdoffs

let per_channel_utilization t sys =
  Array.mapi
    (fun i (c : System.channel) ->
      let used = t.peak_channel_usage.(i) + t.dedicated_per_channel.(i) in
      float_of_int used /. float_of_int c.System.width)
    (System.channels sys)

let channel_utilization t sys =
  let per = per_channel_utilization t sys in
  if Array.length per = 0 then 0.0
  else
    Array.fold_left ( +. ) 0.0 per /. float_of_int (Array.length per)

let occupancy_matrix t sys =
  let nc = Array.length (System.channels sys) in
  let m = Array.make_matrix nc (t.length + 1) 0 in
  List.iter
    (fun ls ->
      List.iter
        (fun tr ->
          if not tr.tr_hard then
            List.iter
              (fun (c, slot) ->
                if c >= 0 && c < nc && slot >= 0 && slot <= t.length then
                  m.(c).(slot) <- m.(c).(slot) + 1)
              tr.tr_hops)
        ls.ls_transports)
    t.link_scheds;
  m

let mean_transport_latency t =
  let n = ref 0 and sum = ref 0 in
  List.iter
    (fun ls ->
      List.iter
        (fun tr ->
          incr n;
          sum := !sum + (tr.tr_fwd_arr - tr.tr_fwd_dep))
        ls.ls_transports)
    t.link_scheds;
  if !n = 0 then 0.0 else float_of_int !sum /. float_of_int !n

(* Schedule-level metrics shared by the TIERS and forward schedulers:
   frame length, hold-off totals, per-channel wire occupancy (multiplexed
   peak plus dedicated) and per-FPGA pin usage distributions. *)
let record_metrics obs t sys =
  let module Sink = Msched_obs.Sink in
  if Sink.enabled obs then begin
    Sink.gauge obs "schedule.length" (float_of_int t.length);
    Sink.gauge obs "schedule.est_speed_hz" (est_speed_hz t);
    Sink.add obs "holdoff.cells" (List.length t.holdoffs);
    Sink.add obs "holdoff.slots" (total_holdoff t);
    Array.iteri
      (fun c peak ->
        Sink.observe obs "channel.occupancy" (peak + t.dedicated_per_channel.(c)))
      t.peak_channel_usage;
    Array.iter
      (fun p -> Sink.observe obs "fpga.pins_used" p)
      (pins_used_per_fpga t sys)
  end

(* Canonical JSON emission (schema "msched-schedule-1"): every field in a
   fixed order, every list in its structural order, no whitespace — two
   schedules are byte-identical iff they are semantically identical.  The
   routing pins hash it, and the warm≡cold and batch jobs 1≡4 suites diff
   it. *)
let to_json_string t =
  let module Json = Msched_diag.Diag.Json in
  let b = Buffer.create 8192 in
  let int_pairs ps =
    Buffer.add_char b '[';
    List.iteri
      (fun i (x, y) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "[%d,%d]" x y))
      ps;
    Buffer.add_char b ']'
  in
  Buffer.add_string b "{\"schema\":\"msched-schedule-1\",\"length\":";
  Buffer.add_string b (string_of_int t.length);
  Buffer.add_string b ",\"length_driver\":";
  Json.escape b t.length_driver;
  Buffer.add_string b (Printf.sprintf ",\"vclock_hz\":%.17g" t.vclock_hz);
  Buffer.add_string b (Printf.sprintf ",\"est_speed_hz\":%.17g" (est_speed_hz t));
  Buffer.add_string b ",\"links\":[";
  List.iteri
    (fun i ls ->
      if i > 0 then Buffer.add_char b ',';
      let l = ls.ls_link in
      Buffer.add_string b
        (Printf.sprintf
           "{\"net\":%d,\"src_block\":%d,\"dst_block\":%d,\"src_fpga\":%d,\"dst_fpga\":%d,\"hard\":%b,\"transports\":["
           (Ids.Net.to_int l.Link.net)
           (Ids.Block.to_int l.Link.src_block)
           (Ids.Block.to_int l.Link.dst_block)
           (Ids.Fpga.to_int l.Link.src_fpga)
           (Ids.Fpga.to_int l.Link.dst_fpga)
           l.Link.hard);
      List.iteri
        (fun j tr ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"domain\":%d,\"dep\":%d,\"arr\":%d,\"hard\":%b,\"hops\":"
               (match tr.tr_domain with Some d -> Ids.Dom.to_int d | None -> -1)
               tr.tr_fwd_dep tr.tr_fwd_arr tr.tr_hard);
          int_pairs tr.tr_hops;
          Buffer.add_char b '}')
        ls.ls_transports;
      Buffer.add_string b "]}")
    t.link_scheds;
  Buffer.add_string b "],\"holdoffs\":[";
  List.iteri
    (fun i h ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"cell\":%d,\"gate\":%d,\"data\":%d}"
           (Ids.Cell.to_int h.ho_cell) h.ho_gate h.ho_data))
    t.holdoffs;
  Buffer.add_string b "],\"peak_channel_usage\":[";
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v))
    t.peak_channel_usage;
  Buffer.add_string b "],\"dedicated_per_channel\":[";
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v))
    t.dedicated_per_channel;
  Buffer.add_string b "],\"warnings\":[";
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_char b ',';
      Json.escape b w)
    t.warnings;
  Buffer.add_string b "]}";
  Buffer.contents b

let pp_summary ppf t =
  Format.fprintf ppf
    "schedule: %d vclocks/frame (%s), %.1f kHz est. speed, %d links, %d \
     holdoffs (%d slots total)%s"
    t.length t.length_driver
    (est_speed_hz t /. 1e3)
    (List.length t.link_scheds)
    (List.length t.holdoffs) (total_holdoff t)
    (match t.warnings with
    | [] -> ""
    | w -> Format.asprintf " [%d warnings]" (List.length w))
