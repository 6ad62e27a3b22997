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
   routing pins hash it, the delta, served-ladder and batch jobs 1≡4
   suites diff it, and every delta request hashes it into [schedule_fp].
   Ints, bools and field names go straight into [b], list by list without
   a closure per element; only the two floats go through Printf.
   [spill b] runs after each link, where a caller that only hashes the
   document takes what [b] holds. *)
module Json = Msched_diag.Diag.Json

(* The comma after a list element that has a successor. *)
let sep b = function [] -> () | _ :: _ -> Buffer.add_char b ','

let rec write_hops b = function
  | [] -> ()
  | (c, slot) :: rest ->
      Buffer.add_char b '[';
      Json.add_int b c;
      Buffer.add_char b ',';
      Json.add_int b slot;
      Buffer.add_char b ']';
      sep b rest;
      write_hops b rest

let rec write_transports b = function
  | [] -> ()
  | tr :: rest ->
      Buffer.add_string b "{\"domain\":";
      Json.add_int b
        (match tr.tr_domain with Some d -> Ids.Dom.to_int d | None -> -1);
      Buffer.add_string b ",\"dep\":";
      Json.add_int b tr.tr_fwd_dep;
      Buffer.add_string b ",\"arr\":";
      Json.add_int b tr.tr_fwd_arr;
      Buffer.add_string b ",\"hard\":";
      Json.add_bool b tr.tr_hard;
      Buffer.add_string b ",\"hops\":[";
      write_hops b tr.tr_hops;
      Buffer.add_string b "]}";
      sep b rest;
      write_transports b rest

let rec write_links ~spill b = function
  | [] -> ()
  | ls :: rest ->
      let l = ls.ls_link in
      Buffer.add_string b "{\"net\":";
      Json.add_int b (Ids.Net.to_int l.Link.net);
      Buffer.add_string b ",\"src_block\":";
      Json.add_int b (Ids.Block.to_int l.Link.src_block);
      Buffer.add_string b ",\"dst_block\":";
      Json.add_int b (Ids.Block.to_int l.Link.dst_block);
      Buffer.add_string b ",\"src_fpga\":";
      Json.add_int b (Ids.Fpga.to_int l.Link.src_fpga);
      Buffer.add_string b ",\"dst_fpga\":";
      Json.add_int b (Ids.Fpga.to_int l.Link.dst_fpga);
      Buffer.add_string b ",\"hard\":";
      Json.add_bool b l.Link.hard;
      Buffer.add_string b ",\"transports\":[";
      write_transports b ls.ls_transports;
      Buffer.add_string b "]}";
      sep b rest;
      spill b;
      write_links ~spill b rest

let rec write_holdoffs b = function
  | [] -> ()
  | h :: rest ->
      Buffer.add_string b "{\"cell\":";
      Json.add_int b (Ids.Cell.to_int h.ho_cell);
      Buffer.add_string b ",\"gate\":";
      Json.add_int b h.ho_gate;
      Buffer.add_string b ",\"data\":";
      Json.add_int b h.ho_data;
      Buffer.add_char b '}';
      sep b rest;
      write_holdoffs b rest

let write_ints b a =
  for i = 0 to Array.length a - 1 do
    if i > 0 then Buffer.add_char b ',';
    Json.add_int b a.(i)
  done

let rec write_strings b = function
  | [] -> ()
  | w :: rest ->
      Json.escape b w;
      sep b rest;
      write_strings b rest

let write ~spill b t =
  let str = Buffer.add_string b in
  str "{\"schema\":\"msched-schedule-1\",\"length\":";
  Json.add_int b t.length;
  str ",\"length_driver\":";
  Json.escape b t.length_driver;
  str (Printf.sprintf ",\"vclock_hz\":%.17g" t.vclock_hz);
  str (Printf.sprintf ",\"est_speed_hz\":%.17g" (est_speed_hz t));
  str ",\"links\":[";
  write_links ~spill b t.link_scheds;
  str "],\"holdoffs\":[";
  write_holdoffs b t.holdoffs;
  str "],\"peak_channel_usage\":[";
  write_ints b t.peak_channel_usage;
  str "],\"dedicated_per_channel\":[";
  write_ints b t.dedicated_per_channel;
  str "],\"warnings\":[";
  write_strings b t.warnings;
  str "]}"

let to_json_string t =
  let b = Buffer.create 8192 in
  write ~spill:ignore b t;
  Buffer.contents b

(* Links are a few hundred bytes each, so spilling past [chunk] keeps the
   buffer at its first size. *)
let json_hash_hex t =
  let chunk = 1024 in
  let d = Json.digest () and b = Buffer.create (2 * chunk) in
  write b t ~spill:(fun b ->
      if Buffer.length b >= chunk then Json.digest_buffer d b);
  Json.digest_buffer d b;
  Json.digest_hex d

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
