(* Experiment harness regenerating every table and figure of the paper's
   evaluation (see DESIGN.md section 4):

     table1   — Table 1, "MTS Virtual Routing vs. Hard Routing"
     figure8  — Figure 8, FPGA count vs per-FPGA pin count
     fidelity — modeling-fidelity experiments (naive vs hard vs virtual)
     ablation — design-choice ablations (equalization, latch ordering,
                same-domain filtering) *)

module Netlist = Msched_netlist.Netlist
module Tiers = Msched_route.Tiers
module Schedule = Msched_route.Schedule
module Async_gen = Msched_clocking.Async_gen
module Fidelity = Msched_sim.Fidelity
module Design_gen = Msched_gen.Design_gen

let setup_logs () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning)

(* ------------------------------------------------------------------ *)

(* Legacy names keep their scale/seed plumbing; anything else goes through
   the shared generator-spec parser (same grammar as `msched gen`). *)
let design_of_name name scale seed =
  match name with
  | "design1" -> Design_gen.design1_like ?seed ~scale ()
  | "design2" -> Design_gen.design2_like ?seed ~scale ()
  | spec -> (
      match Design_gen.of_spec spec with
      | Ok d -> d
      | Error d ->
          Format.eprintf "%a@." Msched_diag.Diag.pp d;
          exit (Msched_diag.Diag.exit_code d.Msched_diag.Diag.code))

let table1 scale pins weight trace json =
  setup_logs ();
  let obs =
    if trace = None && json = None then Msched_obs.Sink.null
    else Msched_obs.Sink.create ()
  in
  let options =
    {
      Msched.Compile.default_options with
      Msched.Compile.max_block_weight = weight;
      pins_per_fpga = pins;
      obs;
    }
  in
  let rows =
    List.map
      (fun name -> Msched.Report.of_design ~options (design_of_name name scale None))
      [ "design1"; "design2" ]
  in
  let ppf =
    if trace = Some "-" || json = Some "-" then Format.err_formatter
    else Format.std_formatter
  in
  Format.fprintf ppf "%a@." Msched.Report.pp_table rows;
  Option.iter
    (fun path ->
      Msched_obs.Export.write_file path (Msched_obs.Export.chrome_trace_string obs))
    trace;
  Option.iter
    (fun path ->
      Msched_obs.Export.write_file path (Msched_obs.Export.json_string obs))
    json

let figure8 scale pins =
  setup_logs ();
  let design = design_of_name "design1" scale None in
  let options =
    { Msched.Compile.default_options with Msched.Compile.pins_per_fpga = pins }
  in
  let points = Msched.Pin_sweep.sweep ~options design.Design_gen.netlist in
  Format.printf "Figure 8 sweep for %s:@.%a@." design.Design_gen.design_label
    Msched.Pin_sweep.pp_points points;
  Format.printf
    "FPGAs needed under a per-FPGA pin limit (paper: 240 user IOs):@.";
  List.iter
    (fun limit ->
      let show hard =
        match
          Msched.Pin_sweep.min_fpgas_under_pin_limit points ~pin_limit:limit ~hard
        with
        | Some n -> string_of_int n
        | None -> "-"
      in
      Format.printf "  pin limit %4d: hard=%4s  virtual=%4s@." limit (show true)
        (show false))
    [ 240; 160; 120; 80; 60; 40 ]

let fidelity_one name scale seed horizon =
  let design = design_of_name name scale (Some seed) in
  let prepared = Msched.Compile.prepare design.Design_gen.netlist in
  let clocks =
    Async_gen.clocks ~seed (Netlist.domains prepared.Msched.Compile.netlist)
  in
  Format.printf "--- %s (seed %d): %a@." design.Design_gen.design_label seed
    Netlist.pp_summary prepared.Msched.Compile.netlist;
  List.iter
    (fun (label, opts) ->
      match Msched.Compile.route prepared opts with
      | sched ->
          let r =
            Fidelity.compare_run prepared.Msched.Compile.placement sched ~clocks
              ~horizon_ps:horizon ~seed ()
          in
          Format.printf "%-8s L=%-4d %s: %a@." label sched.Schedule.length
            (if Fidelity.perfect r then "OK  " else "FAIL")
            Fidelity.pp_report r
      | exception Tiers.Unroutable d ->
          Format.printf "%-8s %a@." label Msched_diag.Diag.pp d)
    [
      ("virtual", Tiers.default_options);
      ("hard", Tiers.hard_options);
      ("naive", Tiers.naive_options);
    ]

let fidelity scale seeds horizon =
  setup_logs ();
  List.iter (fun name -> fidelity_one name scale 11 horizon)
    [ "fig1"; "fig3"; "handshake" ];
  List.iter
    (fun seed ->
      let design =
        Design_gen.random_multidomain ~seed ~domains:3 ~modules:40
          ~mts_fraction:0.25 ()
      in
      let prepared = Msched.Compile.prepare design.Design_gen.netlist in
      let clocks =
        Async_gen.clocks ~seed (Netlist.domains prepared.Msched.Compile.netlist)
      in
      Format.printf "--- random seed %d@." seed;
      List.iter
        (fun (label, opts) ->
          let sched = Msched.Compile.route prepared opts in
          let r =
            Fidelity.compare_run prepared.Msched.Compile.placement sched ~clocks
              ~horizon_ps:horizon ~seed ()
          in
          Format.printf "%-8s %s: %a@." label
            (if Fidelity.perfect r then "OK  " else "FAIL")
            Fidelity.pp_report r)
        [
          ("virtual", Tiers.default_options);
          ("hard", Tiers.hard_options);
          ("naive", Tiers.naive_options);
        ])
    (List.init seeds (fun i -> 1000 + i))

let ablation seeds horizon =
  setup_logs ();
  let variants =
    [
      ("full", `Reverse, Tiers.default_options);
      ( "no-equalize",
        `Reverse,
        { Tiers.default_options with Tiers.equalize_forks = false } );
      ( "no-latch-order",
        `Reverse,
        { Tiers.default_options with Tiers.latch_ordering = false } );
      ( "all-domain",
        `Reverse,
        { Tiers.default_options with Tiers.same_domain_only = false } );
      ("forward", `Forward, Tiers.default_options);
      ( "forward-no-eq",
        `Forward,
        { Tiers.default_options with Tiers.equalize_forks = false } );
    ]
  in
  List.iter
    (fun seed ->
      let design =
        Design_gen.random_multidomain ~seed ~domains:3 ~modules:40
          ~mts_fraction:0.25 ()
      in
      let prepared = Msched.Compile.prepare design.Design_gen.netlist in
      let clocks =
        Async_gen.clocks ~seed (Netlist.domains prepared.Msched.Compile.netlist)
      in
      Format.printf "--- seed %d@." seed;
      List.iter
        (fun (label, direction, opts) ->
          let sched =
            match direction with
            | `Reverse -> Msched.Compile.route prepared opts
            | `Forward -> Msched.Compile.route_forward prepared opts
          in
          let r =
            Fidelity.compare_run prepared.Msched.Compile.placement sched ~clocks
              ~horizon_ps:horizon ~seed ()
          in
          Format.printf "%-15s L=%-4d holdoff=%-5d %s: %a@." label
            sched.Schedule.length
            (Schedule.total_holdoff sched)
            (if Fidelity.perfect r then "OK  " else "FAIL")
            Fidelity.pp_report r)
        variants)
    (List.init seeds (fun i -> 2000 + i))

(* The paper's scalability claim: "this approach can be scaled to handle an
   unlimited number of asynchronous domains".  Sweep the domain count on
   same-size designs and verify fidelity + report the critical path. *)
let domains_sweep max_domains horizon =
  setup_logs ();
  Format.printf "%-8s %-8s %-10s %-12s %-10s %s@." "domains" "blocks"
    "mts_paths" "cp(vclocks)" "holdoff" "fidelity";
  List.iter
    (fun nd ->
      let design =
        Design_gen.random_multidomain ~seed:(900 + nd) ~domains:nd ~modules:40
          ~mts_fraction:0.3 ()
      in
      let prepared = Msched.Compile.prepare design.Design_gen.netlist in
      let sched = Msched.Compile.route prepared Tiers.default_options in
      let clocks =
        Async_gen.clocks ~seed:nd
          (Netlist.domains prepared.Msched.Compile.netlist)
      in
      let r =
        Fidelity.compare_run prepared.Msched.Compile.placement sched ~clocks
          ~horizon_ps:horizon ~seed:nd ()
      in
      Format.printf "%-8d %-8d %-10d %-12d %-10d %s@." nd
        (Msched_partition.Partition.num_blocks prepared.Msched.Compile.partition)
        (Msched_mts.Classify.num_mts_paths prepared.Msched.Compile.classification)
        sched.Schedule.length
        (Schedule.total_holdoff sched)
        (if Fidelity.perfect r then "perfect"
         else Format.asprintf "%a" Fidelity.pp_report r))
    (List.init (max_domains - 1) (fun i -> i + 2))

(* The workload families (ISSUE 6): how MTS fraction and domain count
   drive schedule length and emulation frequency on the GALS/handshake
   topologies of arXiv 0802.3441 / 0710.4711 — the scaling rows the paper
   could not show on its two proprietary ASICs. *)
let workloads_rows () =
  List.concat
    [
      List.map
        (fun islands -> Printf.sprintf "gals:islands=%d,size=2" islands)
        [ 4; 8; 12; 16 ];
      List.map
        (fun density -> Printf.sprintf "dense:domains=12,density=%g" density)
        [ 0.1; 0.3; 0.6 ];
      List.map
        (fun banks -> Printf.sprintf "fabric:banks=%d,domains=4" banks)
        [ 4; 8; 16 ];
    ]

let workloads horizon =
  setup_logs ();
  Format.printf "%-28s %-8s %-8s %-9s %-10s %-12s %-10s %s@." "spec" "domains"
    "modules" "mts_frac" "mts_paths" "L(vclocks)" "est_kHz" "verify";
  List.iter
    (fun spec ->
      let design = design_of_name spec 0.1 None in
      let prepared = Msched.Compile.prepare design.Design_gen.netlist in
      let sched = Msched.Compile.route prepared Tiers.default_options in
      let report = Msched.Compile.verify_schedule prepared sched in
      let clocks =
        Async_gen.clocks ~seed:11
          (Netlist.domains prepared.Msched.Compile.netlist)
      in
      let f =
        Fidelity.compare_run prepared.Msched.Compile.placement sched ~clocks
          ~horizon_ps:horizon ~seed:11 ()
      in
      Format.printf "%-28s %-8d %-8d %-9.3f %-10d %-12d %-10.1f %s@." spec
        (Netlist.num_domains design.Design_gen.netlist)
        design.Design_gen.modules
        (float_of_int design.Design_gen.mts_modules
        /. float_of_int (max 1 design.Design_gen.modules))
        (Msched_mts.Classify.num_mts_paths prepared.Msched.Compile.classification)
        sched.Schedule.length
        (Schedule.est_speed_hz sched /. 1000.0)
        (if not (Msched_check.Verify.is_clean report) then "UNCLEAN"
         else if Fidelity.perfect f then "clean+perfect"
         else "clean"))
    (workloads_rows ())

(* ------------------------------------------------------------------ *)

open Cmdliner

let scale_arg =
  let doc = "Design scale relative to the paper's module counts." in
  Arg.(value & opt float 0.35 & info [ "scale" ] ~doc)

let pins_arg =
  let doc =
    "User-IO pins per FPGA. The paper's XC4062XL has 240; the default of 72      reproduces the paper's pin-pressure regime at our reduced design scale."
  in
  Arg.(value & opt int 72 & info [ "pins" ] ~doc)

let weight_arg =
  let doc = "Max partition block weight (FPGA capacity)." in
  Arg.(value & opt int 128 & info [ "weight" ] ~doc)

let seeds_arg =
  let doc = "Number of random-design seeds." in
  Arg.(value & opt int 3 & info [ "seeds" ] ~doc)

let horizon_arg =
  let doc = "Simulation horizon in picoseconds." in
  Arg.(value & opt int 300_000 & info [ "horizon" ] ~doc)

let max_domains_arg =
  let doc = "Largest domain count to sweep." in
  Arg.(value & opt int 8 & info [ "max-domains" ] ~doc)

let trace_arg =
  let doc = "Write a Chrome trace-event JSON of the run (\"-\" = stdout)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let json_arg =
  let doc = "Write the observability JSON document (\"-\" = stdout)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let workloads_cmd =
  Cmd.v
    (Cmd.info "workloads"
       ~doc:
         "Scaling table over the GALS/handshake workload families: schedule \
          length and emulation frequency vs domain count and MTS fraction")
    Term.(const workloads $ horizon_arg)

let domains_cmd =
  Cmd.v
    (Cmd.info "domains"
       ~doc:"Scalability sweep over the number of asynchronous domains")
    Term.(const domains_sweep $ max_domains_arg $ horizon_arg)

let table1_cmd =
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce Table 1 (virtual vs hard MTS routing)")
    Term.(const table1 $ scale_arg $ pins_arg $ weight_arg $ trace_arg $ json_arg)

let figure8_cmd =
  Cmd.v
    (Cmd.info "figure8" ~doc:"Reproduce Figure 8 (FPGA count vs pin count)")
    Term.(const figure8 $ scale_arg $ pins_arg)

let fidelity_cmd =
  Cmd.v
    (Cmd.info "fidelity" ~doc:"Modeling-fidelity experiments")
    Term.(const fidelity $ scale_arg $ seeds_arg $ horizon_arg)

let ablation_cmd =
  Cmd.v
    (Cmd.info "ablation" ~doc:"Design-choice ablations")
    Term.(const ablation $ seeds_arg $ horizon_arg)

(* Every subcommand runs under this, as every `msched` command does: a
   failure prints its structured diagnostic and exits with the documented
   class (docs/ROBUSTNESS.md; an unroutable design exits 4), never as an
   uncaught exception.  A host I/O failure (an unwritable --trace file)
   is malformed input. *)
let protect f =
  match f () with
  | code -> code
  | exception e ->
      let module Diag = Msched_diag.Diag in
      let d =
        match e with
        | Sys_error msg -> Diag.error Diag.E_PARSE "%s" msg
        | e -> Msched.Compile.diag_of_exn e
      in
      Format.eprintf "%a@." Diag.pp d;
      Diag.exit_code d.Diag.code

let () =
  let info =
    Cmd.info "experiments"
      ~doc:
        "Reproduction experiments for 'Static Scheduling of Multiple \
         Asynchronous Domains For Functional Verification' (DAC 2001)"
  in
  exit
    (protect (fun () ->
         Cmd.eval ~catch:false
           (Cmd.group info
              [
                table1_cmd;
                figure8_cmd;
                fidelity_cmd;
                ablation_cmd;
                domains_cmd;
                workloads_cmd;
              ])))
