(* The retry ladder.  Every rung searches every transport from scratch,
   so a served ladder that ends short of the per-net hard fallback must
   return the schedule [Compile.compile] gives under its winning rung's
   options, byte for byte, and every final schedule must be
   verifier-clean.  [?reuse] is ignored, so a ladder asked to reuse
   routes (warm) is the cold ladder byte for byte.  A failed attempt
   still names its whole unroutable residue, and the per-net fallback
   routes exactly that residue on dedicated wires. *)

module Tiers = Msched_route.Tiers
module Reroute = Msched_route.Reroute
module Schedule = Msched_route.Schedule
module Design_gen = Msched_gen.Design_gen
module Sink = Msched_obs.Sink
module Verify = Msched_check.Verify
module Compile = Msched.Compile
module Diag = Msched_diag.Diag

(* Tight enough that a fair share of seeds fail the baseline rung and
   exercise the retry ladder, loose enough that relaxation recovers:
   serve_mix's settings (weight 32, 24 pins, max-extra 0). *)
let tight_options =
  {
    Compile.default_options with
    Compile.max_block_weight = 32;
    pins_per_fpga = 24;
    route = { Tiers.default_options with Tiers.max_extra_slots = 0 };
  }

let design ~seed ~modules ~domains =
  (Design_gen.random_multidomain ~seed ~domains ~modules ~mts_fraction:0.25 ())
    .Design_gen.netlist

let run ?reuse ?(options = tight_options) ?(max_retries = 2)
    ?(fallback_hard = true) nl =
  Compile.compile_resilient ~options ~max_retries ~fallback_hard ?reuse nl

let labels r =
  List.map (fun a -> a.Compile.attempt_label) r.Compile.attempts

let check_verifier_clean name r =
  match r.Compile.compiled with
  | None -> ()
  | Some c ->
      let report =
        Compile.verify_schedule c.Compile.prepared c.Compile.schedule
      in
      Alcotest.(check bool) (name ^ ": verifier clean") true
        (Verify.is_clean report)

let schedule_hash s = Diag.Json.hash_hex (Schedule.to_json_string s)

(* ---- The byte contract: a served ladder is the plain compile of the
   rung it succeeded on. ---- *)

(* [Compile.compile] under the options [a] names: the ladder's options
   with the attempt's mode, slack budget and seeds. *)
let rung_options options (a : Compile.attempt) =
  {
    options with
    Compile.partition_seed = a.Compile.attempt_partition_seed;
    place_seed = a.Compile.attempt_place_seed;
    route =
      {
        options.Compile.route with
        Tiers.mode = a.Compile.attempt_mode;
        max_extra_slots = a.Compile.attempt_max_extra;
      };
  }

let per_net_fallback label =
  String.equal label "fallback-hard"
  || String.starts_with ~prefix:"fallback-hard-" label
     && not (String.equal label "fallback-hard-all")

(* Checks the ladder [r] ran on [nl] under [options]; returns the winning
   rung's label when its schedule was compared with the plain compile. *)
let check_contract ~what ~options nl r =
  check_verifier_clean what r;
  match (r.Compile.compiled, List.rev r.Compile.attempts) with
  | Some c, last :: _ when not (per_net_fallback last.Compile.attempt_label)
    ->
      let plain =
        (Compile.compile ~options:(rung_options options last) nl)
          .Compile.schedule
      in
      Alcotest.(check string)
        (Printf.sprintf "%s: %s schedule = Compile.compile's" what
           last.Compile.attempt_label)
        (schedule_hash plain)
        (schedule_hash c.Compile.schedule);
      Some last.Compile.attempt_label
  | _ -> None

(* The mix points of the kernel pins: weight 32, 24 pins, max-extra 0,
   two retries and the hard fallback, in both MTS modes. *)
let kernel_mix_specs =
  [
    "random:domains=3,modules=10,mts=0.20,seed=11";
    "gals:islands=4,size=3,seed=12";
    "dense:domains=8,density=0.20,seed=13";
    "fabric:banks=4,domains=3,seed=14";
    "design1:scale=0.02,seed=15";
    "design2:scale=0.02,seed=16";
  ]

let family_designs () =
  List.concat_map
    (fun (label, make) ->
      List.map
        (fun seed ->
          ( Printf.sprintf "%s seed %d" label seed,
            (make seed : Design_gen.design).Design_gen.netlist ))
        [ 300; 301; 302 ])
    [
      ( "gals",
        fun seed -> Design_gen.gals_islands ~seed ~islands:4 ~island_size:2 () );
      ( "dense",
        fun seed -> Design_gen.dense_crossing ~seed ~domains:6 ~density:0.3 () );
      ("fabric", fun seed -> Design_gen.gated_memory_fabric ~seed ~banks:4 ());
    ]

let random_designs () =
  List.concat_map
    (fun (modules, domains) ->
      List.init 17 (fun i ->
          let seed = 100 + i in
          ( Printf.sprintf "random m%d d%d seed %d" modules domains seed,
            design ~seed ~modules ~domains )))
    [ (10, 2); (16, 3); (22, 4) ]

(* ---- Warm == cold: the warm ladder is the cold one, byte for byte, and
   both are the plain compile of their winning rung. ---- *)

let schedule_hash_of r =
  Option.map (fun c -> schedule_hash c.Compile.schedule) r.Compile.compiled

(* Runs [designs] warm and cold; returns (succeeded, compared). *)
let differential designs =
  List.fold_left
    (fun (succeeded, compared) (what, nl) ->
      let warm = run ~reuse:true nl in
      let cold = run ~reuse:false nl in
      Alcotest.(check (list string))
        (what ^ ": same attempt labels")
        (labels cold) (labels warm);
      Alcotest.(check (option string))
        (what ^ ": same schedule")
        (schedule_hash_of cold) (schedule_hash_of warm);
      Alcotest.(check bool)
        (what ^ ": same degradation (mode, frequency, fallback nets)")
        true
        (cold.Compile.degradation = warm.Compile.degradation);
      check_verifier_clean (what ^ " warm") warm;
      let won = check_contract ~what ~options:tight_options nl cold in
      ( (if Compile.succeeded cold then succeeded + 1 else succeeded),
        if won = None then compared else compared + 1 ))
    (0, 0) designs

let test_differential_many_seeds () =
  let designs = random_designs () in
  let total = List.length designs in
  let succeeded, compared = differential designs in
  Alcotest.(check int) "suite is 51 designs" 51 total;
  Alcotest.(check bool)
    (Printf.sprintf "designs compiled (%d/%d)" succeeded total)
    true
    (succeeded > total / 2);
  Alcotest.(check bool)
    (Printf.sprintf "ladders compared with the plain compile (%d/%d)"
       compared total)
    true
    (compared > total / 2)

(* The GALS/handshake workload families, whose transport patterns
   (synchronizer chains, dense pairwise crossings, gated RAM write clocks)
   differ structurally from the random multidomain shape the ladder was
   tuned on. *)
let test_differential_families () =
  let designs = family_designs () in
  let total = List.length designs in
  let succeeded, compared = differential designs in
  Alcotest.(check int) "suite is 9 designs" 9 total;
  Alcotest.(check bool)
    (Printf.sprintf "family designs compiled (%d/%d)" succeeded total)
    true
    (succeeded > total / 2);
  Alcotest.(check bool)
    (Printf.sprintf "ladders compared with the plain compile (%d/%d)"
       compared total)
    true
    (compared > total / 2)

(* ---- Served ladders: outcomes pinned, schedules co-simulated. ----

   Thirty serve_mix-style first sightings, five per generator family
   (the first five per family of the end-to-end benchmark's serve_mix
   stream at seed 2901), compiled as the server compiles them: the
   netlist read back from its text, under [tight_options] (weight 32, 24
   pins, max-extra 0: serve_mix's settings), two retries and the hard
   fallback.  The attempt labels, achieved mode and fallback-net count
   are pinned; every final schedule must be verifier-clean and
   co-simulate against the reference simulator with no mismatching frame
   (250 ns, stimulus seeds 204-206).  The byte contract above covers
   their schedules. *)

(* (spec, attempt labels, achieved mode, fallback nets) *)
let served_ladder_pins =
  [
    ( "random:domains=4,modules=12,mts=0.16,seed=326434",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "gals:islands=3,size=2,seed=975070",
      [ "baseline" ], "virtual", 0 );
    ( "dense:domains=7,density=0.18,seed=904055",
      [ "baseline" ], "virtual", 0 );
    ( "fabric:banks=5,domains=3,seed=933626",
      [ "baseline" ], "virtual", 0 );
    ( "design1:scale=0.02,seed=274219",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "design2:scale=0.02,seed=233835",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "random:domains=4,modules=14,mts=0.11,seed=370372",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "gals:islands=5,size=4,seed=408602",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "dense:domains=7,density=0.19,seed=543645",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "fabric:banks=4,domains=2,seed=859071",
      [ "baseline" ], "virtual", 0 );
    ( "design1:scale=0.02,seed=151403",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "design2:scale=0.02,seed=3350",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "random:domains=4,modules=14,mts=0.18,seed=862758",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "gals:islands=4,size=4,seed=424086",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "dense:domains=7,density=0.16,seed=747395",
      [ "baseline" ], "virtual", 0 );
    ( "fabric:banks=6,domains=3,seed=782699",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "design1:scale=0.02,seed=862285",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "design2:scale=0.02,seed=968831",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "random:domains=4,modules=6,mts=0.25,seed=675819",
      [ "baseline" ], "virtual", 0 );
    ( "gals:islands=3,size=2,seed=730008",
      [ "baseline" ], "virtual", 0 );
    ( "dense:domains=7,density=0.15,seed=137559",
      [ "baseline" ], "virtual", 0 );
    ( "fabric:banks=2,domains=2,seed=749000",
      [ "baseline" ], "virtual", 0 );
    ( "design1:scale=0.02,seed=335393",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "design2:scale=0.02,seed=555208",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "random:domains=3,modules=9,mts=0.26,seed=408638",
      [ "baseline" ], "virtual", 0 );
    ( "gals:islands=3,size=2,seed=892726",
      [ "baseline" ], "virtual", 0 );
    ( "dense:domains=9,density=0.20,seed=237296",
      [ "baseline" ], "virtual", 0 );
    ( "fabric:banks=6,domains=3,seed=977388",
      [ "baseline" ], "virtual", 0 );
    ( "design1:scale=0.02,seed=910753",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
    ( "design2:scale=0.02,seed=128233",
      [ "baseline"; "relax-slack" ], "virtual", 0 );
  ]

let served_netlist spec =
  match Design_gen.of_spec spec with
  | Error _ -> invalid_arg spec
  | Ok d -> (
      match
        Msched_netlist.Serial.of_string_diag
          (Msched_netlist.Serial.to_string d.Design_gen.netlist)
      with
      | Ok nl -> nl
      | Error _ -> Alcotest.failf "%s: the served text does not parse" spec)

let mismatching_frames (c : Compile.compiled) seed =
  let p = c.Compile.prepared in
  let clocks =
    Msched_clocking.Async_gen.clocks ~seed
      (Msched_netlist.Netlist.domains p.Compile.netlist)
  in
  (Msched_sim.Fidelity.compare_run p.Compile.placement c.Compile.schedule
     ~clocks ~horizon_ps:250_000 ~seed ())
    .Msched_sim.Fidelity.mismatch_frames

let spec_netlist spec =
  match Design_gen.of_spec spec with
  | Ok d -> d.Design_gen.netlist
  | Error _ -> invalid_arg spec

let test_ladders_equal_plain_compile () =
  let compared = ref 0 and retried = ref 0 and total = ref 0 in
  let check ~what ?(options = tight_options) nl =
    incr total;
    match check_contract ~what ~options nl (run ~options nl) with
    | None -> ()
    | Some label ->
        incr compared;
        if label <> "baseline" then incr retried
  in
  List.iter
    (fun spec ->
      List.iter
        (fun mode ->
          let options =
            {
              tight_options with
              Compile.route = { tight_options.Compile.route with Tiers.mode };
            }
          in
          check
            ~what:(Printf.sprintf "%s %s" spec (Tiers.mode_name mode))
            ~options (spec_netlist spec))
        [ Tiers.Mts_virtual; Tiers.Mts_hard ])
    kernel_mix_specs;
  List.iter
    (fun (spec, _, _, _) -> check ~what:spec (served_netlist spec))
    served_ladder_pins;
  Alcotest.(check int) "ladders run" (12 + 30) !total;
  Alcotest.(check bool)
    (Printf.sprintf "ladders compared with the plain compile (%d/%d)"
       !compared !total)
    true
    (!compared > !total / 2);
  Alcotest.(check bool)
    (Printf.sprintf "compared ladders won past the baseline (%d)" !retried)
    true (!retried >= 10)

(* ---- Residue collection: one failed attempt names every culprit. ---- *)

let test_residue_collected () =
  let nl = design ~seed:517 ~modules:30 ~domains:3 in
  let prepared = Compile.prepare ~options:tight_options nl in
  let ctx = Reroute.create () in
  let obs = Sink.create () in
  (match Compile.route ~obs ~reroute:ctx prepared tight_options.Compile.route with
  | _ -> Alcotest.fail "expected the tight baseline to be unroutable"
  | exception Tiers.Unroutable _ -> ());
  let fails = Reroute.failures ctx in
  Alcotest.(check bool) "residue recorded" true (List.length fails >= 1);
  (* The pass went on past the first failure: every failed search is one
     residue entry, each an E_UNROUTABLE diagnostic of its own transport. *)
  Alcotest.(check int) "one entry per failed search"
    (Sink.counter obs "pathfind.failures")
    (List.length fails);
  Alcotest.(check bool) "more than one culprit" true (List.length fails > 1);
  Alcotest.(check int) "residue keys distinct" (List.length fails)
    (List.length (List.sort_uniq compare (List.map fst fails)));
  List.iter
    (fun ((k : Reroute.key), (d : Diag.t)) ->
      Alcotest.(check bool) "an unroutable diagnostic" true
        (d.Diag.code = Diag.E_UNROUTABLE);
      Alcotest.(check (option int)) "names its net" (Some k.Reroute.k_net)
        d.Diag.ctx.Diag.net)
    fails

(* ---- Forced-hard residue: verifier accepts per-net fallback. ---- *)

let test_forced_hard_verifies () =
  let nl = design ~seed:517 ~modules:30 ~domains:3 in
  let r =
    Compile.compile_resilient ~options:tight_options ~max_retries:0
      ~fallback_hard:true nl
  in
  Alcotest.(check bool) "fallback recovered" true (Compile.succeeded r);
  Alcotest.(check bool) "hard residue present" true
    (r.Compile.degradation.Compile.fallback_nets > 0);
  check_verifier_clean "per-net fallback" r

let test_served_ladders () =
  List.iter
    (fun (spec, want_labels, want_mode, want_fallback) ->
      let r = run (served_netlist spec) in
      Alcotest.(check (list string)) (spec ^ ": attempt labels") want_labels
        (labels r);
      let d = r.Compile.degradation in
      Alcotest.(check string) (spec ^ ": achieved mode") want_mode
        (match d.Compile.achieved_mode with
        | Some m -> Tiers.mode_name m
        | None -> "none");
      Alcotest.(check int) (spec ^ ": fallback nets") want_fallback
        d.Compile.fallback_nets;
      check_verifier_clean spec r;
      match r.Compile.compiled with
      | None -> ()
      | Some c ->
          List.iter
            (fun seed ->
              Alcotest.(check int)
                (Printf.sprintf "%s: mismatching frames, stimulus %d" spec seed)
                0 (mismatching_frames c seed))
            [ 204; 205; 206 ])
    served_ladder_pins

let suite =
  [
    Alcotest.test_case
      "served ladders equal the plain compile of their winning rung" `Slow
      test_ladders_equal_plain_compile;
    Alcotest.test_case "differential: warm == cold over 51 designs" `Slow
      test_differential_many_seeds;
    Alcotest.test_case "differential: warm == cold on workload families" `Slow
      test_differential_families;
    Alcotest.test_case "failed attempt collects whole residue" `Quick
      test_residue_collected;
    Alcotest.test_case "per-net forced-hard schedule verifies" `Quick
      test_forced_hard_verifies;
    Alcotest.test_case "served ladders: pins and co-simulation" `Quick
      test_served_ladders;
  ]
