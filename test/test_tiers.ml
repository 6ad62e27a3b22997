module Partition = Msched_partition.Partition
module Tiers = Msched_route.Tiers
module Schedule = Msched_route.Schedule
module Link = Msched_route.Link
module DA = Msched_mts.Domain_analysis
module Design_gen = Msched_gen.Design_gen

let compile_design ?(weight = 24) ?(options = Tiers.default_options)
    (d : Design_gen.design) =
  let copts =
    { Msched.Compile.default_options with Msched.Compile.max_block_weight = weight }
  in
  let prepared = Msched.Compile.prepare ~options:copts d.Design_gen.netlist in
  (prepared, Msched.Compile.route prepared options)

let random_design seed =
  Design_gen.random_multidomain ~seed ~domains:3 ~modules:25 ~mts_fraction:0.3 ()

let test_schedule_nonempty () =
  let _, sched = compile_design (Design_gen.fig1 ()) ~weight:4 in
  Alcotest.(check bool) "has links" true (sched.Schedule.link_scheds <> []);
  Alcotest.(check bool) "positive length" true (sched.Schedule.length >= 1)

let test_departure_before_arrival () =
  let _, sched = compile_design (random_design 31) in
  List.iter
    (fun (ls : Schedule.link_sched) ->
      List.iter
        (fun (tr : Schedule.transport) ->
          Alcotest.(check bool) "dep < arr" true
            (tr.Schedule.tr_fwd_dep < tr.Schedule.tr_fwd_arr);
          Alcotest.(check bool) "dep >= 0" true (tr.Schedule.tr_fwd_dep >= 0);
          Alcotest.(check bool) "arr <= length" true
            (tr.Schedule.tr_fwd_arr <= sched.Schedule.length))
        ls.Schedule.ls_transports)
    sched.Schedule.link_scheds

let test_fork_groups_equalized () =
  let prepared, sched = compile_design (random_design 32) in
  let da = prepared.Msched.Compile.analysis in
  List.iter
    (fun (ls : Schedule.link_sched) ->
      if DA.is_multi_transition da ls.Schedule.ls_link.Link.net then begin
        match ls.Schedule.ls_transports with
        | [] | [ _ ] -> ()
        | first :: rest ->
            List.iter
              (fun (tr : Schedule.transport) ->
                Alcotest.(check int) "same departure" first.Schedule.tr_fwd_dep
                  tr.Schedule.tr_fwd_dep;
                Alcotest.(check int) "same arrival" first.Schedule.tr_fwd_arr
                  tr.Schedule.tr_fwd_arr)
              rest
      end)
    sched.Schedule.link_scheds

let test_no_causality_inversions_when_equalized () =
  let prepared, sched = compile_design (random_design 33) in
  let stim = Msched_sim.Stimulus.make (Partition.netlist prepared.Msched.Compile.partition) in
  let emu = Msched_sim.Emu_sim.create prepared.Msched.Compile.placement sched stim in
  Alcotest.(check int) "no inversions" 0
    (Msched_sim.Emu_sim.violations emu).Msched_sim.Emu_sim.causality_inversions

let test_channel_capacity_respected () =
  let prepared, sched = compile_design (random_design 34) in
  let sys = prepared.Msched.Compile.system in
  (* Count per (channel, fwd slot) usage from hop records. *)
  let usage = Hashtbl.create 256 in
  List.iter
    (fun (ls : Schedule.link_sched) ->
      List.iter
        (fun (tr : Schedule.transport) ->
          if not tr.Schedule.tr_hard then
            List.iter
              (fun (channel, slot) ->
                let k = (channel, slot) in
                Hashtbl.replace usage k
                  (1 + Option.value ~default:0 (Hashtbl.find_opt usage k)))
              tr.Schedule.tr_hops)
        ls.Schedule.ls_transports)
    sched.Schedule.link_scheds;
  Hashtbl.iter
    (fun (channel, _slot) n ->
      let width = (Msched_arch.System.channel sys channel).Msched_arch.System.width in
      Alcotest.(check bool) "within width" true (n <= width))
    usage

let test_holdoffs_present_for_mts_latches () =
  let _, sched = compile_design (Design_gen.fig3_latch ()) ~weight:4 in
  Alcotest.(check bool) "has holdoffs" true (sched.Schedule.holdoffs <> []);
  List.iter
    (fun (h : Schedule.holdoff) ->
      Alcotest.(check bool) "data after gate" true
        (h.Schedule.ho_data > h.Schedule.ho_gate || h.Schedule.ho_data = sched.Schedule.length))
    sched.Schedule.holdoffs

let test_naive_has_no_holdoffs () =
  let _, sched =
    compile_design (Design_gen.fig3_latch ()) ~weight:4 ~options:Tiers.naive_options
  in
  Alcotest.(check int) "no holdoffs" 0 (List.length sched.Schedule.holdoffs)

let test_hard_mode_dedicates () =
  let _, sched =
    compile_design (Design_gen.fig1 ()) ~weight:4 ~options:Tiers.hard_options
  in
  let dedicated = Array.fold_left ( + ) 0 sched.Schedule.dedicated_per_channel in
  Alcotest.(check bool) "dedicated wires exist" true (dedicated > 0);
  let hard_transport_exists =
    List.exists
      (fun (ls : Schedule.link_sched) ->
        List.exists (fun t -> t.Schedule.tr_hard) ls.Schedule.ls_transports)
      sched.Schedule.link_scheds
  in
  Alcotest.(check bool) "hard transports exist" true hard_transport_exists

let test_deterministic () =
  let _, s1 = compile_design (random_design 35) in
  let _, s2 = compile_design (random_design 35) in
  Alcotest.(check int) "same length" s1.Schedule.length s2.Schedule.length;
  Alcotest.(check int) "same link count"
    (List.length s1.Schedule.link_scheds)
    (List.length s2.Schedule.link_scheds)

let test_est_speed () =
  let _, sched = compile_design (Design_gen.fig1 ()) ~weight:4 in
  let expected = sched.Schedule.vclock_hz /. float_of_int sched.Schedule.length in
  Alcotest.(check (float 0.01)) "speed" expected (Schedule.est_speed_hz sched)

let test_diagnostics () =
  let prepared, sched = compile_design (random_design 36) in
  Alcotest.(check bool) "length driver nonempty" true
    (String.length sched.Schedule.length_driver > 0);
  let util =
    Schedule.channel_utilization sched prepared.Msched.Compile.system
  in
  Alcotest.(check bool) "utilization in [0,1]" true (util >= 0.0 && util <= 1.0);
  let lat = Schedule.mean_transport_latency sched in
  Alcotest.(check bool) "latency >= 1 hop" true (lat >= 1.0)

(* Observation 1 (paper Section 5): constraints only bind between
   same-domain (data, gate) pairs.  A latch whose gate transitions only in
   domain C while its data transitions in A and B has NO same-domain pair,
   so with the filter on, the gate's link arrival does not hold the data
   off; the conservative all-domain mode must wait for it. *)
let test_observation1_filter_shrinks_holdoff () =
  let module B = Msched_netlist.Netlist.Builder in
  let module Cell = Msched_netlist.Cell in
  let module Ids = Msched_netlist.Ids in
  let module Netlist = Msched_netlist.Netlist in
  let b = B.create ~design_name:"obs1" () in
  let da = B.add_domain b "a" in
  let db = B.add_domain b "b" in
  let dc = B.add_domain b "c" in
  let ia = B.add_input b ~domain:da () in
  let ib = B.add_input b ~domain:db () in
  let ic = B.add_input b ~domain:dc () in
  let qa = B.add_flip_flop b ~name:"qa" ~data:ia ~clock:(Cell.Dom_clock da) () in
  let qb = B.add_flip_flop b ~name:"qb" ~data:ib ~clock:(Cell.Dom_clock db) () in
  let qc = B.add_flip_flop b ~name:"qc" ~data:ic ~clock:(Cell.Dom_clock dc) () in
  (* Block 1 logic: data mixes A and B, gate is pure C. *)
  let data = B.add_gate b ~name:"data" Cell.Xor [ qa; qb ] in
  let gate = B.add_gate b ~name:"gate" Cell.Buf [ qc ] in
  let q = B.add_latch b ~name:"obs1_latch" ~data ~gate:(Cell.Net_trigger gate) () in
  let s = B.add_flip_flop b ~name:"s" ~data:q ~clock:(Cell.Dom_clock da) () in
  let (_ : Ids.Cell.t) = B.add_output b s in
  let nl = B.finalize b in
  let in_block1 (c : Cell.t) =
    match c.Cell.name with
    | "data" | "gate" | "obs1_latch" | "s" -> 1
    | _ -> 0
  in
  let assignment =
    Array.init (Netlist.num_cells nl) (fun i ->
        Ids.Block.of_int (in_block1 (Netlist.cell nl (Ids.Cell.of_int i))))
  in
  let part = Msched_partition.Partition.of_assignment nl assignment in
  let topo = Msched_arch.Topology.make Msched_arch.Topology.Mesh ~nx:2 ~ny:1 in
  let sys = Msched_arch.System.make topo ~pins_per_fpga:16 in
  let placement = Msched_place.Placement.place part sys () in
  let analysis = Msched_mts.Domain_analysis.compute nl in
  let latch =
    Netlist.fold_cells nl ~init:None ~f:(fun acc c ->
        if c.Cell.name = "obs1_latch" then Some c.Cell.id else acc)
    |> Option.get
  in
  let ho_of options =
    let sched = Tiers.schedule placement analysis ~options () in
    match Schedule.holdoff_of sched latch with
    | Some h -> h.Schedule.ho_data
    | None -> 0
  in
  let ho_same = ho_of Tiers.default_options in
  let ho_all = ho_of { Tiers.default_options with Tiers.same_domain_only = false } in
  Alcotest.(check bool)
    (Printf.sprintf "filtered %d < conservative %d" ho_same ho_all)
    true (ho_same < ho_all)

(* A combinational-through-latch loop crossing blocks creates a scheduling
   dependency cycle; the scheduler must fall back gracefully (warn, still
   produce a valid schedule) instead of diverging. *)
let test_cross_block_latch_loop_warns () =
  let module B = Msched_netlist.Netlist.Builder in
  let module Cell = Msched_netlist.Cell in
  let module Ids = Msched_netlist.Ids in
  let module Netlist = Msched_netlist.Netlist in
  let b = B.create ~design_name:"latch_loop" () in
  let da = B.add_domain b "a" in
  let db = B.add_domain b "b" in
  let ia = B.add_input b ~domain:da () in
  let ib = B.add_input b ~domain:db () in
  let ga = B.add_flip_flop b ~name:"ga" ~data:ia ~clock:(Cell.Dom_clock da) () in
  let gb = B.add_flip_flop b ~name:"gb" ~data:ib ~clock:(Cell.Dom_clock db) () in
  let qa = B.fresh_net b ~name:"qa" () in
  let qb = B.fresh_net b ~name:"qb" () in
  (* latch A (block 0) data <- latch B output; latch B (block 1) data <-
     latch A output: a loop whose transport crosses blocks both ways. *)
  let da_in = B.add_gate b ~name:"da_in" Cell.Buf [ qb ] in
  B.add_latch_to b ~name:"latchA" ~data:da_in ~gate:(Cell.Net_trigger ga)
    ~output:qa ();
  let db_in = B.add_gate b ~name:"db_in" Cell.Buf [ qa ] in
  B.add_latch_to b ~name:"latchB" ~data:db_in ~gate:(Cell.Net_trigger gb)
    ~output:qb ();
  let sa = B.add_flip_flop b ~name:"sa" ~data:qa ~clock:(Cell.Dom_clock da) () in
  let sb = B.add_flip_flop b ~name:"sb" ~data:qb ~clock:(Cell.Dom_clock db) () in
  let (_ : Ids.Cell.t) = B.add_output b sa in
  let (_ : Ids.Cell.t) = B.add_output b sb in
  let nl = B.finalize b in
  let block_of (c : Cell.t) =
    match c.Cell.name with
    | "da_in" | "latchA" | "sa" -> 0
    | "db_in" | "latchB" | "sb" -> 1
    | _ -> 0
  in
  let assignment =
    Array.init (Netlist.num_cells nl) (fun i ->
        Ids.Block.of_int (block_of (Netlist.cell nl (Ids.Cell.of_int i))))
  in
  let part = Partition.of_assignment nl assignment in
  let topo = Msched_arch.Topology.make Msched_arch.Topology.Mesh ~nx:2 ~ny:1 in
  let sys = Msched_arch.System.make topo ~pins_per_fpga:16 in
  let placement = Msched_place.Placement.place part sys () in
  let analysis = Msched_mts.Domain_analysis.compute nl in
  let sched = Tiers.schedule placement analysis () in
  Alcotest.(check bool) "cycle warning emitted" true
    (List.exists
       (fun w ->
         let n = String.length "cycle" and h = String.length w in
         let rec scan i = i + n <= h && (String.sub w i n = "cycle" || scan (i + 1)) in
         scan 0)
       sched.Schedule.warnings);
  Alcotest.(check bool) "schedule still valid" true (sched.Schedule.length >= 1)

(* ---- Routing pins ----

   Schedule hashes and pathfinder work of the TIERS reverse pass, the
   forward scheduler and the resilient ladder, recorded from the
   implementation that still carried a speculative parallel reverse pass
   and a forward-direction reroute ledger.  Any change to link order,
   channel exploration or the rungs a tight ladder takes shows up here,
   not just in a self-comparison.  The states-expanded literals were
   re-recorded when the search gained its distance bound; every hash and
   label stayed as recorded. *)

module Reroute = Msched_route.Reroute
module Sink = Msched_obs.Sink
module Diag = Msched_diag.Diag
module Compile = Msched.Compile

let pin_design = function
  | "design1" -> Design_gen.design1_like ~seed:1 ~scale:0.05 ()
  | "design2" -> Design_gen.design2_like ~seed:2 ~scale:0.05 ()
  | "gals" -> Design_gen.gals_islands ~seed:3 ~islands:4 ()
  | "fabric" -> Design_gen.gated_memory_fabric ~seed:5 ~banks:4 ()
  | "dense" -> Design_gen.dense_crossing ~seed:7 ~domains:8 ~density:0.5 ()
  | "dense12" -> Design_gen.dense_crossing ~seed:7 ~domains:12 ~density:0.6 ()
  | name -> invalid_arg name

let pin_prepare name ~weight ~pins =
  Compile.prepare
    ~options:
      {
        Compile.default_options with
        Compile.max_block_weight = weight;
        pins_per_fpga = pins;
      }
    (pin_design name).Design_gen.netlist

let schedule_hash s = Diag.Json.hash_hex (Schedule.to_json_string s)

(* (design, max_weight, pins, mode, schedule hash, states expanded) *)
let route_pins =
  [
    ("design1", 24, 240, Tiers.Mts_virtual, "07bc6a6ed10c83ce", 7237);
    ("design1", 24, 240, Tiers.Mts_hard, "10f4c18c1b6e719c", 7103);
    ("design2", 24, 240, Tiers.Mts_virtual, "16a691dcc6da1dac", 4390);
    ("design2", 24, 240, Tiers.Mts_hard, "173afadb9bb5705a", 3450);
    ("gals", 16, 16, Tiers.Mts_virtual, "94d12792d196f668", 179);
    ("gals", 16, 16, Tiers.Mts_hard, "94d12792d196f668", 179);
    ("fabric", 16, 240, Tiers.Mts_virtual, "3b8904bc0cb9fa7b", 82);
    ("fabric", 16, 240, Tiers.Mts_hard, "98b91d33547a0225", 46);
    ("fabric", 16, 12, Tiers.Mts_virtual, "fe8eb14681ab28af", 146);
    ("fabric", 16, 12, Tiers.Mts_hard, "cf1df6b4b87c3e17", 71);
    ("dense", 16, 32, Tiers.Mts_virtual, "cbf7cd4d337d8100", 303);
    ("dense", 16, 32, Tiers.Mts_hard, "c5f4010755892f16", 105);
    ("dense12", 16, 240, Tiers.Mts_virtual, "8d531f3c866b1863", 1605);
    ("dense12", 16, 240, Tiers.Mts_hard, "19f6fd19b73e451b", 505);
  ]

(* Each case routes once, with no context, on its prepared front end. *)
let test_route_pins () =
  List.iter
    (fun (name, weight, pins, mode, hash, states) ->
      let prepared = pin_prepare name ~weight ~pins in
      let options = { Tiers.default_options with Tiers.mode = mode } in
      let label what =
        Printf.sprintf "%s/w%d/p%d/%s: %s" name weight pins
          (Tiers.mode_name mode) what
      in
      let obs = Sink.create () in
      let s = Compile.route ~obs prepared options in
      Alcotest.(check string) (label "no context hash") hash (schedule_hash s);
      Alcotest.(check int)
        (label "no context states_expanded")
        states
        (Sink.counter obs "pathfind.states_expanded"))
    route_pins

(* (design, max_weight, pins, schedule hash, states expanded) *)
let forward_pins =
  [
    ("design1", 24, 240, "a4425e9ed2218a8f", 7237);
    ("dense", 16, 16, "0c849f0207d055ab", 373);
  ]

let test_forward_pins () =
  List.iter
    (fun (name, weight, pins, hash, states) ->
      let prepared = pin_prepare name ~weight ~pins in
      let obs = Sink.create () in
      let s = Compile.route_forward ~obs prepared Tiers.default_options in
      let label what =
        Printf.sprintf "forward %s/w%d/p%d: %s" name weight pins what
      in
      Alcotest.(check string) (label "hash") hash (schedule_hash s);
      Alcotest.(check int) (label "states_expanded") states
        (Sink.counter obs "pathfind.states_expanded"))
    forward_pins

(* Tight serve-style options: the baseline fails on zero slack and the
   relaxed rung succeeds.  The hash and counters were re-recorded when
   searches stopped reading the reroute context, and again when retry
   rungs stopped replaying the previous rung's routes: the relaxed rung
   now searches every transport, so the hash is the plain compile's at
   its slack budget and equals what the ladder gave with its context
   cleared before every rung.  The search work is the baseline's failing
   pass plus the relaxed rung's full one. *)
let test_ladder_pin () =
  let obs = Sink.create () in
  let options =
    {
      Compile.default_options with
      Compile.max_block_weight = 32;
      pins_per_fpga = 24;
      route = { Tiers.default_options with Tiers.max_extra_slots = 0 };
      obs;
    }
  in
  let r =
    Compile.compile_resilient ~options ~max_retries:2 ~fallback_hard:true
      (pin_design "design2").Design_gen.netlist
  in
  Alcotest.(check (list string)) "attempt labels" [ "baseline"; "relax-slack" ]
    (List.map (fun a -> a.Compile.attempt_label) r.Compile.attempts);
  Alcotest.(check string) "schedule hash" "a498531217c62435"
    (match r.Compile.compiled with
    | Some c -> schedule_hash c.Compile.schedule
    | None -> "none");
  List.iter
    (fun (counter, v) ->
      Alcotest.(check int) counter v (Sink.counter obs counter))
    [
      ("pathfind.states_expanded", 8853);
      ("pathfind.searches", 1520);
      ("pathfind.failures", 191);
      ("reroute.expansions", 8853);
      ("reroute.residue", 191);
    ]

(* ---- A context never steers a search ----

   Every served compile routes under a fresh reroute context, while
   [check], [explain], [simulate], [profile] and delta compiles route
   without one.  The pathfinder reads nothing from the context, so the
   served baseline rung must schedule each design byte for byte as
   [Compile.compile] does, with the same search work.  These cases route
   like the end-to-end benchmark's cold compiles (weight 64, 96 pins, no
   retries), and the hashes are what [Compile.compile] gave before the
   context stopped steering; the served schedules then differed on all
   five (design1 seed 1 read 258515b1f46decc7).  The two work counters
   were re-recorded when the search gained its distance bound. *)

(* (design, seed, schedule hash, states expanded, congestion-blocked
   probes) *)
let unsteered_pins =
  [
    ("design1", 1, "ac995464f9ca9865", 3235, 69);
    ("design1", 2, "ae737b806d31dccd", 3496, 186);
    ("design1", 3, "1385e75185fc7d99", 3663, 240);
    ("design2", 1, "e7d96dfdd298d6d8", 2670, 100);
    ("design2", 2, "c104132e0697240d", 2112, 70);
  ]

let test_context_never_steers () =
  List.iter
    (fun (name, seed, hash, states, blocked) ->
      let d =
        match name with
        | "design1" -> Design_gen.design1_like ~seed ~scale:0.05 ()
        | _ -> Design_gen.design2_like ~seed ~scale:0.05 ()
      in
      let options obs =
        {
          Compile.default_options with
          Compile.max_block_weight = 64;
          pins_per_fpga = 96;
          obs;
        }
      in
      let served_obs = Sink.create () and plain_obs = Sink.create () in
      let served =
        match
          (Compile.compile_resilient ~options:(options served_obs)
             ~max_retries:0 ~fallback_hard:false ~reroute:(Reroute.create ())
             d.Design_gen.netlist)
            .Compile.compiled
        with
        | Some c -> schedule_hash c.Compile.schedule
        | None -> "none"
      in
      let plain =
        schedule_hash
          (Compile.compile ~options:(options plain_obs) d.Design_gen.netlist)
            .Compile.schedule
      in
      List.iter
        (fun (side, h, obs) ->
          let label what =
            Printf.sprintf "%s/seed%d %s: %s" name seed side what
          in
          Alcotest.(check string) (label "hash") hash h;
          Alcotest.(check int) (label "states_expanded") states
            (Sink.counter obs "pathfind.states_expanded");
          Alcotest.(check int) (label "congestion_blocked") blocked
            (Sink.counter obs "pathfind.congestion_blocked"))
        [ ("served", served, served_obs); ("compile", plain, plain_obs) ])
    unsteered_pins

let prop_virtual_schedule_length_le_hard =
  QCheck.Test.make ~name:"virtual critical path <= hard critical path" ~count:8
    QCheck.(int_range 100 400)
    (fun seed ->
      let d =
        Design_gen.random_multidomain ~seed ~domains:2 ~modules:20
          ~mts_fraction:0.3 ()
      in
      let copts =
        {
          Msched.Compile.default_options with
          Msched.Compile.max_block_weight = 32;
          pins_per_fpga = 80;
        }
      in
      let prepared = Msched.Compile.prepare ~options:copts d.Design_gen.netlist in
      match
        ( Msched.Compile.route prepared Tiers.default_options,
          Msched.Compile.route prepared Tiers.hard_options )
      with
      | virt, hard -> virt.Schedule.length <= hard.Schedule.length
      | exception Tiers.Unroutable _ -> QCheck.assume_fail ())

let suite =
  [
    Alcotest.test_case "schedule nonempty" `Quick test_schedule_nonempty;
    Alcotest.test_case "departure before arrival" `Quick test_departure_before_arrival;
    Alcotest.test_case "fork groups equalized" `Quick test_fork_groups_equalized;
    Alcotest.test_case "no causality inversions" `Quick
      test_no_causality_inversions_when_equalized;
    Alcotest.test_case "channel capacity respected" `Quick test_channel_capacity_respected;
    Alcotest.test_case "holdoffs for MTS latches" `Quick test_holdoffs_present_for_mts_latches;
    Alcotest.test_case "naive has no holdoffs" `Quick test_naive_has_no_holdoffs;
    Alcotest.test_case "hard mode dedicates" `Quick test_hard_mode_dedicates;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "est speed" `Quick test_est_speed;
    Alcotest.test_case "diagnostics" `Quick test_diagnostics;
    Alcotest.test_case "observation-1 filter" `Quick
      test_observation1_filter_shrinks_holdoff;
    Alcotest.test_case "cross-block latch loop warns" `Quick
      test_cross_block_latch_loop_warns;
    Alcotest.test_case "route pins" `Quick test_route_pins;
    Alcotest.test_case "forward pins" `Quick test_forward_pins;
    Alcotest.test_case "ladder pin" `Quick test_ladder_pin;
    QCheck_alcotest.to_alcotest prop_virtual_schedule_length_le_hard;
    Alcotest.test_case "a context never steers a search" `Quick
      test_context_never_steers;
  ]
