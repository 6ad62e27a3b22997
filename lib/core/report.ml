module Partition = Msched_partition.Partition
module Classify = Msched_mts.Classify
module Schedule = Msched_route.Schedule
module Tiers = Msched_route.Tiers
module Netlist = Msched_netlist.Netlist

type t = {
  label : string;
  num_modules : int;
  num_mts_modules : int;
  num_domains : int;
  num_mts_paths : int;
  num_mts_fpgas : int;
  num_non_mts_fpgas : int;
  domain_names : string list;
  critical_path_hard : int;
  critical_path_virtual : int;
  speed_hard_hz : float;
  speed_virtual_hz : float;
  total_fpgas : int;
  holdoff_slots : int;
}

let of_design ?(options = Compile.default_options) (d : Msched_gen.Design_gen.design) =
  let prepared = Compile.prepare ~options d.Msched_gen.Design_gen.netlist in
  let hard = Compile.route ~obs:options.Compile.obs prepared Tiers.hard_options in
  let virt =
    Compile.route ~obs:options.Compile.obs prepared
      { options.Compile.route with Tiers.mode = Tiers.Mts_virtual }
  in
  let cls = prepared.Compile.classification in
  let nl = prepared.Compile.netlist in
  {
    label = d.Msched_gen.Design_gen.design_label;
    num_modules = d.Msched_gen.Design_gen.modules;
    num_mts_modules = d.Msched_gen.Design_gen.mts_modules;
    num_domains = Netlist.num_domains nl;
    num_mts_paths = Classify.num_mts_paths cls;
    num_mts_fpgas = Classify.num_mts_blocks cls;
    num_non_mts_fpgas = Classify.num_non_mts_blocks prepared.Compile.partition cls;
    domain_names =
      List.map (Netlist.domain_name nl) (Netlist.domains nl);
    critical_path_hard = hard.Schedule.length;
    critical_path_virtual = virt.Schedule.length;
    speed_hard_hz = Schedule.est_speed_hz hard;
    speed_virtual_hz = Schedule.est_speed_hz virt;
    total_fpgas = Partition.num_blocks prepared.Compile.partition;
    holdoff_slots = Schedule.total_holdoff virt;
  }

let pp_table ppf rows =
  let line fmt = Format.fprintf ppf fmt in
  let col f = List.iter (fun r -> line " | %14s" (f r)) rows in
  let row label f =
    line "%-38s" label;
    col f;
    line "@\n"
  in
  line "%-38s" "Testcase";
  col (fun r -> r.label);
  line "@\n";
  row "1. Num. Total Modules" (fun r -> string_of_int r.num_modules);
  row "2. Num. MTS Modules" (fun r -> string_of_int r.num_mts_modules);
  row "3. Num. Clock Domains" (fun r -> string_of_int r.num_domains);
  row "4. Num. MTS Paths" (fun r -> string_of_int r.num_mts_paths);
  row "5. Num. MTS FPGAs" (fun r -> string_of_int r.num_mts_fpgas);
  row "6. Clock Domains" (fun r -> String.concat " " r.domain_names);
  row "7. Num. Non MTS FPGAs" (fun r -> string_of_int r.num_non_mts_fpgas);
  row "8. Critical Path (VClocks) MTS HardRouted" (fun r ->
      string_of_int r.critical_path_hard);
  row "9. Critical Path (VClocks) MTS VirtualRouted" (fun r ->
      string_of_int r.critical_path_virtual);
  row "10. Est. Max Speed MTS HardRouted" (fun r ->
      Printf.sprintf "%.0f kHz" (r.speed_hard_hz /. 1e3));
  row "11. Est. Max Speed MTS VirtualRouted" (fun r ->
      Printf.sprintf "%.0f kHz" (r.speed_virtual_hz /. 1e3))
