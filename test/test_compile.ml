open Msched_netlist
module Partition = Msched_partition.Partition
module Schedule = Msched_route.Schedule
module Tiers = Msched_route.Tiers
module Design_gen = Msched_gen.Design_gen

let test_prepare_pipeline () =
  let d = Design_gen.fig3_latch () in
  let prepared = Msched.Compile.prepare d.Design_gen.netlist in
  Alcotest.(check bool) "has partition" true
    (Partition.num_blocks prepared.Msched.Compile.partition >= 1);
  Alcotest.(check int) "latch analysis per block"
    (Partition.num_blocks prepared.Msched.Compile.partition)
    (Array.length prepared.Msched.Compile.latch_analysis);
  (* fig3 has one MTS latch. *)
  Alcotest.(check int) "one MTS state" 1
    (Ids.Cell.Set.cardinal
       prepared.Msched.Compile.classification.Msched_mts.Classify.mts_states)

let test_compile_end_to_end () =
  let d = Design_gen.random_multidomain ~seed:55 ~domains:2 ~modules:15 ~mts_fraction:0.2 () in
  let compiled = Msched.Compile.compile d.Design_gen.netlist in
  Alcotest.(check bool) "schedule built" true
    (compiled.Msched.Compile.schedule.Schedule.length >= 1)

let test_multi_domain_ram_compiles () =
  let b = Netlist.Builder.create () in
  let d0 = Netlist.Builder.add_domain b "c0" in
  let d1 = Netlist.Builder.add_domain b "c1" in
  let i0 = Netlist.Builder.add_input b ~domain:d0 () in
  let i1 = Netlist.Builder.add_input b ~domain:d1 () in
  let mix = Netlist.Builder.add_gate b Cell.Or [ i0; i1 ] in
  let rdata =
    Netlist.Builder.add_ram b ~addr_bits:1 ~write_enable:i0 ~write_data:i0
      ~write_addr:[ i0 ] ~read_addr:[ i1 ] ~clock:(Cell.Net_trigger mix) ()
  in
  let (_ : Ids.Cell.t) = Netlist.Builder.add_output b rdata in
  let nl = Netlist.Builder.finalize b in
  let compiled = Msched.Compile.compile nl in
  Alcotest.(check bool) "schedules" true
    (compiled.Msched.Compile.schedule.Schedule.length >= 1)

let test_mts_ff_transformed_in_pipeline () =
  let b = Netlist.Builder.create () in
  let d0 = Netlist.Builder.add_domain b "c0" in
  let d1 = Netlist.Builder.add_domain b "c1" in
  let i0 = Netlist.Builder.add_input b ~domain:d0 () in
  let i1 = Netlist.Builder.add_input b ~domain:d1 () in
  let mix = Netlist.Builder.add_gate b Cell.Or [ i0; i1 ] in
  let q = Netlist.Builder.add_flip_flop b ~data:i0 ~clock:(Cell.Net_trigger mix) () in
  let (_ : Ids.Cell.t) = Netlist.Builder.add_output b q in
  let nl = Netlist.Builder.finalize b in
  let prepared = Msched.Compile.prepare nl in
  Alcotest.(check int) "one rewrite" 1 (List.length prepared.Msched.Compile.rewrites)

let test_report_shape () =
  let d = Design_gen.design1_like ~scale:0.02 () in
  let options =
    {
      Msched.Compile.default_options with
      Msched.Compile.max_block_weight = 64;
      pins_per_fpga = 96;
    }
  in
  let r = Msched.Report.of_design ~options d in
  Alcotest.(check int) "domains" 3 r.Msched.Report.num_domains;
  Alcotest.(check bool) "speeds positive" true
    (r.Msched.Report.speed_hard_hz > 0.0 && r.Msched.Report.speed_virtual_hz > 0.0);
  Alcotest.(check bool) "virtual at least as fast" true
    (r.Msched.Report.speed_virtual_hz >= r.Msched.Report.speed_hard_hz);
  Alcotest.(check int) "fpgas partition"
    r.Msched.Report.total_fpgas
    (r.Msched.Report.num_mts_fpgas + r.Msched.Report.num_non_mts_fpgas)

let test_pin_sweep_monotone () =
  let d = Design_gen.random_multidomain ~seed:66 ~domains:2 ~modules:50 ~mts_fraction:0.2 () in
  let points =
    Msched.Pin_sweep.sweep ~weights:[ 96; 24 ]
      ~pin_candidates:[ 96; 48; 24 ] d.Design_gen.netlist
  in
  Alcotest.(check int) "two points" 2 (List.length points);
  (* Smaller partitions -> more FPGAs, fewer hard pins. *)
  match points with
  | [ big; small ] ->
      Alcotest.(check bool) "more fpgas when smaller" true
        (small.Msched.Pin_sweep.fpga_count > big.Msched.Pin_sweep.fpga_count);
      Alcotest.(check bool) "fewer hard pins when smaller" true
        (small.Msched.Pin_sweep.pins_hard <= big.Msched.Pin_sweep.pins_hard);
      (* Virtual demand is far below hard demand on the big partition. *)
      (match big.Msched.Pin_sweep.pins_virtual with
      | Some v ->
          Alcotest.(check bool) "virtual << hard" true
            (v < big.Msched.Pin_sweep.pins_hard)
      | None -> Alcotest.fail "virtual should be feasible")
  | _ -> Alcotest.fail "expected two points"

let test_min_fpgas_under_limit () =
  let points =
    [
      {
        Msched.Pin_sweep.max_block_weight = 64;
        fpga_count = 10;
        pins_hard = 100;
        pins_virtual = Some 20;
        base_length = 5;
      };
      {
        Msched.Pin_sweep.max_block_weight = 32;
        fpga_count = 20;
        pins_hard = 50;
        pins_virtual = Some 16;
        base_length = 7;
      };
    ]
  in
  Alcotest.(check (option int)) "hard at 60" (Some 20)
    (Msched.Pin_sweep.min_fpgas_under_pin_limit points ~pin_limit:60 ~hard:true);
  Alcotest.(check (option int)) "virtual at 60" (Some 10)
    (Msched.Pin_sweep.min_fpgas_under_pin_limit points ~pin_limit:60 ~hard:false);
  Alcotest.(check (option int)) "hard at 40" None
    (Msched.Pin_sweep.min_fpgas_under_pin_limit points ~pin_limit:40 ~hard:true)

(* A design with no cells parses and lints clean.  Every entry point
   passes [prepare], which answers it as malformed input (E_EMPTY_DESIGN,
   exit 3), and the retry ladder stops there: one attempt, one
   diagnostic, no hard fallback. *)
let test_empty_design () =
  let module Diag = Msched_diag.Diag in
  let module Compile = Msched.Compile in
  let module Server = Msched_server.Server in
  let text =
    In_channel.with_open_bin
      (Filename.concat (Test_reader_pins.broken_dir ()) "empty.mnl")
      In_channel.input_all
  in
  let nl =
    match Serial.of_string text with
    | Ok nl -> nl
    | Error m -> Alcotest.failf "empty.mnl does not parse: %s" m
  in
  Alcotest.(check int) "lints clean" 0 (List.length (Lint.check nl));
  let code d = Diag.code_name d.Diag.code in
  (match Compile.compile nl with
  | _ -> Alcotest.fail "an empty design compiled"
  | exception e ->
      Alcotest.(check string) "compile" "E_EMPTY_DESIGN"
        (code (Compile.diag_of_exn e)));
  let r = Compile.compile_resilient ~max_retries:2 ~fallback_hard:true nl in
  Alcotest.(check int) "resilient: exit class" 3 (Compile.resilient_exit_code r);
  Alcotest.(check int) "resilient: one attempt" 1
    (List.length r.Compile.attempts);
  Alcotest.(check (list string)) "resilient: one diagnostic"
    [ "E_EMPTY_DESIGN" ]
    (List.map code r.Compile.diagnostics);
  let d =
    Server.run_delta Server.default_settings
      { Server.dq_path = "empty.mnl"; dq_text = text; dq_base = None }
  in
  Alcotest.(check int) "delta: exit class" 3 d.Server.dr_exit;
  Alcotest.(check (list string)) "delta: one diagnostic" [ "E_EMPTY_DESIGN" ]
    (List.map code d.Server.dr_diags)

(* A pin budget too small to give every channel of the system a wire is
   an infeasibility of the options, like a block budget a cell outweighs:
   E_CAPACITY (exit class 4) from [prepare], never an internal error. *)
let test_pin_budget_capacity () =
  let module Diag = Msched_diag.Diag in
  let module Compile = Msched.Compile in
  let nl = (Design_gen.fig3_latch ()).Design_gen.netlist in
  List.iter
    (fun pins ->
      let options =
        {
          Compile.default_options with
          Compile.max_block_weight = 4;
          pins_per_fpga = pins;
        }
      in
      let what = Printf.sprintf "pins %d" pins in
      (match Compile.compile ~options nl with
      | _ -> Alcotest.failf "%s: compiled" what
      | exception Compile.Compile_error d ->
          Alcotest.(check string) (what ^ ": compile") "E_CAPACITY"
            (Diag.code_name d.Diag.code)
      | exception e ->
          Alcotest.failf "%s: raised %s" what (Printexc.to_string e));
      let r = Compile.compile_resilient ~options ~max_retries:1 nl in
      Alcotest.(check int) (what ^ ": resilient exit class") 4
        (Compile.resilient_exit_code r))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "prepare pipeline" `Quick test_prepare_pipeline;
    Alcotest.test_case "compile end to end" `Quick test_compile_end_to_end;
    Alcotest.test_case "multi-domain ram compiles" `Quick test_multi_domain_ram_compiles;
    Alcotest.test_case "mts ff transformed" `Quick test_mts_ff_transformed_in_pipeline;
    Alcotest.test_case "report shape" `Slow test_report_shape;
    Alcotest.test_case "pin sweep monotone" `Slow test_pin_sweep_monotone;
    Alcotest.test_case "min fpgas under limit" `Quick test_min_fpgas_under_limit;
    Alcotest.test_case "an empty design is malformed input" `Quick
      test_empty_design;
    Alcotest.test_case "a pin budget that wires no channel is E_CAPACITY"
      `Quick test_pin_budget_capacity;
  ]
