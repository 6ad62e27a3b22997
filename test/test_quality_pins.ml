(* ---- Quality pins ----

   The paper's evaluation quantities are deterministic functions of the
   design, the compile options and the seeds: Table 1 frame lengths,
   estimated emulation speeds, verifier cleanliness, and the compiler's
   work counters behind them.  Each case rebuilds one section of the
   [msched-bench-pipeline-7] document that the bench harness used to gate
   with tolerances, with the same designs and options, renders it as
   [name=value] lines and compares them with one literal recorded from
   the last implementation that wrote that document.  The pins are exact.
   Nothing here reads a clock: perfbench is the only timer
   (perfbench/README.md).

   Sections:
   - designs.design1, designs.design2: [design{1,2}_like ~scale:0.05] at
     weight 64 and 96 pins.  One sink sees prepare, a virtual route, a
     hard route and the verifier on the virtual schedule; every counter
     and the wirelength, length and speed gauges are pinned.
   - driver: the seed-517 congested design through the resilient driver
     at weight 32, 24 pins, max-extra 0, two retries and the hard
     fallback: whether it degraded (succeeded past the baseline attempt)
     and every counter.  [driver.lint_warnings] counts the design's 108
     dangling nets as one warning.  The search counters were re-recorded
     when retry rungs stopped replaying the previous rung's routes: the
     relax-slack rung searches all 216 transports, as the ladder did with
     its context cleared before every rung.
   - workloads: three gals, three dense and three fabric generator specs
     at default options.  The pinned module counts fix each MTS fraction,
     so they also pin that the dense fraction rises with density and ends
     above one half.
   - par: length and speed of a 16-domain dense-crossing design at
     weight 64 and 96 pins.
   - delta: the first applicable domain flip of a six-island GALS design,
     compiled as a delta against the base manifest: warm equals cold, the
     block diff, length and speed. *)

module Compile = Msched.Compile
module Tiers = Msched_route.Tiers
module Schedule = Msched_route.Schedule
module Sink = Msched_obs.Sink
module Design_gen = Msched_gen.Design_gen
module Diff = Msched_delta.Diff
module Edit = Msched_delta.Edit

let options =
  {
    Compile.default_options with
    Compile.max_block_weight = 64;
    pins_per_fpga = 96;
  }

let hz = Printf.sprintf "%.1f"
let speed sched = hz (Schedule.est_speed_hz sched)
let render kvs = List.map (fun (k, v) -> k ^ "=" ^ v) kvs

let counters obs =
  List.map (fun (k, v) -> (k, string_of_int v)) (Sink.counters obs)

let design_section make () =
  let obs = Sink.create () in
  let prepared =
    Compile.prepare
      ~options:{ options with Compile.obs }
      (make ()).Design_gen.netlist
  in
  let virt = Compile.route ~obs prepared Tiers.default_options in
  ignore (Compile.route ~obs prepared Tiers.hard_options);
  ignore (Compile.verify_schedule ~obs prepared virt);
  render (counters obs @ List.map (fun (k, v) -> (k, hz v)) (Sink.gauges obs))

let driver_section () =
  let obs = Sink.create () in
  let congested =
    (Design_gen.random_multidomain ~seed:517 ~domains:3 ~modules:30
       ~mts_fraction:0.3 ())
      .Design_gen.netlist
  in
  let tight =
    {
      Compile.default_options with
      Compile.max_block_weight = 32;
      pins_per_fpga = 24;
      route = { Tiers.default_options with Tiers.max_extra_slots = 0 };
      obs;
    }
  in
  let r =
    Compile.compile_resilient ~options:tight ~max_retries:2
      ~fallback_hard:true congested
  in
  render (("degraded", string_of_bool (Compile.degraded r)) :: counters obs)

let workload_specs =
  List.map (Printf.sprintf "gals:islands=%d,size=2") [ 4; 8; 16 ]
  @ List.map (Printf.sprintf "dense:domains=12,density=%g") [ 0.1; 0.3; 0.6 ]
  @ List.map (Printf.sprintf "fabric:banks=%d,domains=4") [ 4; 8; 16 ]

let workload_line spec =
  let design =
    match Design_gen.of_spec spec with
    | Ok d -> d
    | Error _ -> invalid_arg spec
  in
  let prepared = Compile.prepare design.Design_gen.netlist in
  let sched = Compile.route prepared Tiers.default_options in
  let report = Compile.verify_schedule prepared sched in
  String.concat " "
    (spec
    :: render
         [
           ( "domains",
             string_of_int
               (Msched_netlist.Netlist.num_domains design.Design_gen.netlist) );
           ("modules", string_of_int design.Design_gen.modules);
           ("mts_modules", string_of_int design.Design_gen.mts_modules);
           ( "mts_paths",
             string_of_int
               (Msched_mts.Classify.num_mts_paths
                  prepared.Compile.classification) );
           ("schedule_length", string_of_int sched.Schedule.length);
           ("est_speed_hz", speed sched);
           ( "verifier_clean",
             string_of_bool (Msched_check.Verify.is_clean report) );
         ])

let workloads_section () = List.map workload_line workload_specs

let par_section () =
  let nl =
    (Design_gen.dense_crossing ~seed:11 ~domains:16 ~density:0.8 ())
      .Design_gen.netlist
  in
  let sched =
    Compile.route (Compile.prepare ~options nl) Tiers.default_options
  in
  render
    [
      ("schedule_length", string_of_int sched.Schedule.length);
      ("est_speed_hz", speed sched);
    ]

let delta_section () =
  let nl =
    (Design_gen.gals_islands ~seed:9 ~islands:6 ~island_size:6 ())
      .Design_gen.netlist
  in
  let options = Compile.default_options in
  let base = Compile.compile_base ~options nl in
  let rec pick seed =
    if seed > 19 then Alcotest.fail "no flip edit applies"
    else
      match Edit.apply ~seed Edit.Flip_domain nl with
      | Error _ -> pick (seed + 1)
      | Ok edit -> edit
  in
  let edited, edit = pick 0 in
  let cold = (Compile.compile ~options edited).Compile.schedule in
  let delta =
    Compile.compile_delta ~options ~manifest:base.Compile.base_manifest edited
  in
  let warm = delta.Compile.delta_compiled.Compile.schedule in
  let diff =
    match delta.Compile.delta_diff with
    | Some d -> d
    | None -> Alcotest.fail "delta fell back to a cold compile"
  in
  render
    [
      ("edit", edit);
      ( "schedule_identical",
        string_of_bool
          (Schedule.to_json_string warm = Schedule.to_json_string cold) );
      ("blocks_clean", string_of_int (Diff.clean_count diff));
      ("blocks_dirty", string_of_int (Diff.dirty_count diff));
      ("cone", string_of_int (Diff.cone_size diff));
      ("schedule_length", string_of_int warm.Schedule.length);
      ("est_speed_hz", speed warm);
    ]

(* ---- One literal per section ---- *)

let design1_pin =
  {|classify.mts_blocks=6
classify.mts_paths=6
classify.mts_states=2
domain.domains=3
domain.mts_nets=10
domain.multi_transition_nets=14
domain.nets=1874
holdoff.cells=4
holdoff.relax_rounds=62
holdoff.slots=41
latch.groups=2
latch.origins=728
mts.cells_out=1902
mts.ff_rewrites=0
partition.blocks=30
pathfind.congestion_blocked=222
pathfind.hard_searches=6
pathfind.searches=1452
pathfind.states_expanded=6538
pathfind.widenings=60
place.moves_accepted=10721
place.moves_tried=23228
sched.hard_links=6
sched.links=1452
sched.transports=1458
verify.blocks_checked=30
verify.holdoffs_checked=2
verify.links_checked=726
verify.runs=1
verify.transports_checked=732
verify.violations=0
place.wirelength=2296.0
schedule.est_speed_hz=1789473.7
schedule.length=19.0|}

let design2_pin =
  {|classify.mts_blocks=19
classify.mts_paths=62
classify.mts_states=3
domain.domains=2
domain.mts_nets=32
domain.multi_transition_nets=72
domain.nets=1039
holdoff.cells=6
holdoff.relax_rounds=46
holdoff.slots=120
latch.groups=2
latch.origins=554
mts.cells_out=1054
mts.ff_rewrites=0
partition.blocks=21
pathfind.congestion_blocked=53
pathfind.hard_searches=62
pathfind.searches=1102
pathfind.states_expanded=4560
pathfind.widenings=11
place.moves_accepted=7120
place.moves_tried=15843
sched.hard_links=62
sched.links=1102
sched.transports=1164
verify.blocks_checked=21
verify.holdoffs_checked=3
verify.links_checked=551
verify.runs=1
verify.transports_checked=613
verify.violations=0
place.wirelength=1613.0
schedule.est_speed_hz=1030303.0
schedule.length=33.0|}

let driver_pin =
  {|degraded=true
classify.mts_blocks=10
classify.mts_paths=10
classify.mts_states=9
domain.domains=3
domain.mts_nets=36
domain.multi_transition_nets=36
domain.nets=324
driver.attempts=2
driver.fallback_nets=0
driver.lint_errors=0
driver.lint_warnings=1
driver.retries=1
holdoff.cells=9
holdoff.relax_rounds=15
holdoff.slots=63
latch.groups=8
latch.origins=107
mts.cells_out=328
mts.ff_rewrites=0
partition.blocks=10
pathfind.congestion_blocked=74
pathfind.failures=8
pathfind.searches=216
pathfind.states_expanded=772
pathfind.widenings=13
place.moves_accepted=3426
place.moves_tried=7216
reroute.expansions=772
reroute.residue=8
sched.hard_links=0
sched.links=196
sched.transports=216
verify.blocks_checked=10
verify.holdoffs_checked=9
verify.links_checked=98
verify.runs=1
verify.transports_checked=108
verify.violations=0|}

let workloads_pin =
  {|gals:islands=4,size=2 domains=4 modules=8 mts_modules=0 mts_paths=0 schedule_length=8 est_speed_hz=4250000.0 verifier_clean=true
gals:islands=8,size=2 domains=8 modules=16 mts_modules=0 mts_paths=0 schedule_length=5 est_speed_hz=6800000.0 verifier_clean=true
gals:islands=16,size=2 domains=16 modules=32 mts_modules=0 mts_paths=0 schedule_length=5 est_speed_hz=6800000.0 verifier_clean=true
dense:domains=12,density=0.1 domains=12 modules=19 mts_modules=7 mts_paths=1 schedule_length=3 est_speed_hz=11333333.3 verifier_clean=true
dense:domains=12,density=0.3 domains=12 modules=32 mts_modules=20 mts_paths=26 schedule_length=6 est_speed_hz=5666666.7 verifier_clean=true
dense:domains=12,density=0.6 domains=12 modules=52 mts_modules=40 mts_paths=50 schedule_length=8 est_speed_hz=4250000.0 verifier_clean=true
fabric:banks=4,domains=4 domains=4 modules=8 mts_modules=4 mts_paths=0 schedule_length=4 est_speed_hz=8500000.0 verifier_clean=true
fabric:banks=8,domains=4 domains=4 modules=12 mts_modules=8 mts_paths=4 schedule_length=7 est_speed_hz=4857142.9 verifier_clean=true
fabric:banks=16,domains=4 domains=4 modules=20 mts_modules=16 mts_paths=10 schedule_length=8 est_speed_hz=4250000.0 verifier_clean=true|}

let par_pin =
  {|schedule_length=13
est_speed_hz=2615384.6|}

let delta_pin =
  {|edit=flip domain of cell c114
schedule_identical=true
blocks_clean=5
blocks_dirty=1
cone=1
schedule_length=6
est_speed_hz=5666666.7|}

let sections =
  [
    ( "designs.design1",
      design_section (Design_gen.design1_like ~scale:0.05),
      design1_pin );
    ( "designs.design2",
      design_section (Design_gen.design2_like ~scale:0.05),
      design2_pin );
    ("driver", driver_section, driver_pin);
    ("workloads", workloads_section, workloads_pin);
    ("par", par_section, par_pin);
    ("delta", delta_section, delta_pin);
  ]

let suite =
  List.map
    (fun (name, section, pin) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check (list string))
            name
            (String.split_on_char '\n' pin)
            (section ())))
    sections
