(* Incremental rerouting: the warm retry path (ledger replay across
   rungs) must be equivalent to from-scratch retries — same outcome, same
   routing mode, same emulation frequency, and verifier-clean schedules
   on both sides. *)

module Ids = Msched_netlist.Ids
module Tiers = Msched_route.Tiers
module Reroute = Msched_route.Reroute
module Schedule = Msched_route.Schedule
module Design_gen = Msched_gen.Design_gen
module Sink = Msched_obs.Sink
module Verify = Msched_check.Verify
module Compile = Msched.Compile

(* Tight enough that a fair share of seeds fail the baseline rung and
   exercise the retry ladder, loose enough that relaxation recovers. *)
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

let run ~reuse ?(options = tight_options) ?(max_retries = 2)
    ?(fallback_hard = true) nl =
  Compile.compile_resilient ~options ~max_retries ~fallback_hard ~reuse nl

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

(* ---- Differential suite: warm vs from-scratch over many seeds. ---- *)

let differential_nl ~ctxname nl =
  let warm = run ~reuse:true nl in
  let cold = run ~reuse:false nl in
  Alcotest.(check bool)
    (ctxname ^ ": same success")
    (Compile.succeeded cold) (Compile.succeeded warm);
  Alcotest.(check (list string))
    (ctxname ^ ": same attempt labels")
    (labels cold) (labels warm);
  let mode r =
    match r.Compile.degradation.Compile.achieved_mode with
    | None -> "none"
    | Some m -> Tiers.mode_name m
  in
  Alcotest.(check string)
    (ctxname ^ ": same routing mode")
    (mode cold) (mode warm);
  (* Equal-anchor replay reuses minimal-length paths, so the frame length
     — hence the emulation frequency — must be bit-identical. *)
  let hz r =
    match r.Compile.degradation.Compile.achieved_hz with
    | None -> 0.0
    | Some hz -> hz
  in
  Alcotest.(check (float 0.0))
    (ctxname ^ ": same emulation frequency")
    (hz cold) (hz warm);
  check_verifier_clean (ctxname ^ " warm") warm;
  check_verifier_clean (ctxname ^ " cold") cold;
  Compile.succeeded warm

let differential_one ~seed ~modules ~domains =
  differential_nl
    ~ctxname:(Printf.sprintf "seed %d" seed)
    (design ~seed ~modules ~domains)

let test_differential_many_seeds () =
  (* >= 50 designs across sizes and domain counts. *)
  let succeeded = ref 0 and total = ref 0 in
  List.iter
    (fun (modules, domains) ->
      for seed = 100 to 100 + 16 do
        incr total;
        if differential_one ~seed ~modules ~domains then incr succeeded
      done)
    [ (10, 2); (16, 3); (22, 4) ];
  Alcotest.(check bool)
    (Printf.sprintf "designs compiled (%d/%d)" !succeeded !total)
    true
    (!succeeded > !total / 2);
  Alcotest.(check bool) "suite is >= 50 designs" true (!total >= 50)

let test_differential_families () =
  (* Warm ≡ cold must also hold on the GALS/handshake workload families
     (ISSUE 6), whose transport patterns — synchronizer chains, dense
     pairwise crossings, gated RAM write clocks — differ structurally from
     the random multidomain shape the ladder was tuned on. *)
  let succeeded = ref 0 and total = ref 0 in
  List.iter
    (fun (label, thunk) ->
      List.iter
        (fun seed ->
          incr total;
          let d : Msched_gen.Design_gen.design = thunk seed in
          if
            differential_nl
              ~ctxname:(Printf.sprintf "%s seed %d" label seed)
              d.Design_gen.netlist
          then incr succeeded)
        [ 300; 301; 302 ])
    [
      ( "gals",
        fun seed -> Design_gen.gals_islands ~seed ~islands:4 ~island_size:2 () );
      ( "dense",
        fun seed -> Design_gen.dense_crossing ~seed ~domains:6 ~density:0.3 () );
      ( "fabric",
        fun seed -> Design_gen.gated_memory_fabric ~seed ~banks:4 () );
    ];
  Alcotest.(check bool)
    (Printf.sprintf "family designs compiled (%d/%d)" !succeeded !total)
    true
    (!succeeded > !total / 2)

(* ---- Warm reuse must do strictly less search work on retry rungs. ---- *)

let test_warm_expansions_lower () =
  (* A design set where the baseline rung fails and retries recover: the
     acceptance criterion is strictly fewer pathfinder expansions under
     warm reuse on every rung after the first, plus actual ledger hits. *)
  let exercised = ref 0 in
  List.iter
    (fun seed ->
      let nl = design ~seed ~modules:30 ~domains:3 in
      let obs_warm = Sink.create () in
      let obs_cold = Sink.create () in
      let warm =
        run ~reuse:true
          ~options:{ tight_options with Compile.obs = obs_warm }
          nl
      in
      let cold =
        run ~reuse:false
          ~options:{ tight_options with Compile.obs = obs_cold }
          nl
      in
      if
        Compile.succeeded warm
        && Compile.succeeded cold
        && List.length warm.Compile.attempts >= 2
        && labels warm = labels cold
      then begin
        incr exercised;
        (* Per-rung: every warm attempt beyond the baseline searches less
           than its cold counterpart. *)
        List.iteri
          (fun i (w, c) ->
            if i >= 1 then begin
              Alcotest.(check bool)
                (Printf.sprintf "seed %d rung %d (%s): warm expands less"
                   seed (i + 1) w.Compile.attempt_label)
                true
                (w.Compile.attempt_expansions < c.Compile.attempt_expansions);
              Alcotest.(check bool)
                (Printf.sprintf "seed %d rung %d: ledger replayed" seed (i + 1))
                true
                (w.Compile.attempt_reused > 0)
            end)
          (List.combine warm.Compile.attempts cold.Compile.attempts);
        (* Aggregate, via the observability counters. *)
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: total reroute.expansions lower" seed)
          true
          (Sink.counter obs_warm "reroute.expansions"
          < Sink.counter obs_cold "reroute.expansions");
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: reroute.reused counted" seed)
          true
          (Sink.counter obs_warm "reroute.reused" >= 1);
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: cold never reuses" seed)
          true
          (Sink.counter obs_cold "reroute.reused" = 0);
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: reused transports reported" seed)
          true
          (warm.Compile.degradation.Compile.reused_transports >= 1
          && cold.Compile.degradation.Compile.reused_transports = 0)
      end)
    [ 517; 518; 519; 523 ];
  Alcotest.(check bool) "retry-exercising seeds found" true (!exercised >= 2)

(* ---- Residue collection: one failed attempt names every culprit. ---- *)

let test_residue_collected () =
  let nl = design ~seed:517 ~modules:30 ~domains:3 in
  let prepared = Compile.prepare ~options:tight_options nl in
  let ctx = Reroute.create () in
  (match Compile.route ~reroute:ctx prepared tight_options.Compile.route with
  | _ -> Alcotest.fail "expected the tight baseline to be unroutable"
  | exception Tiers.Unroutable _ -> ());
  let fails = Reroute.failures ctx in
  Alcotest.(check bool) "residue recorded" true (List.length fails >= 1);
  Alcotest.(check bool) "ledger keeps routable transports" true
    (Reroute.ledger_size ctx > List.length fails);
  (* The residue keys must not sit in the ledger as routed entries. *)
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool) "failed key not in ledger" true
        (Reroute.lookup ctx k = None))
    fails

(* ---- Random rip-up / reroute keeps the schedule verifier-clean. ---- *)

(* Axiom 2 (equal-delay MERGE) and Observation 2 (hold safety) are exactly
   what the static verifier checks; after any random subset of the ledger
   is ripped and the design rerouted warm, the result must still verify
   and keep the frame length of the from-scratch schedule. *)
let prop_random_ripup_stays_clean =
  QCheck.Test.make ~name:"random rip-up/reroute keeps schedules clean"
    ~count:12
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let nl = design ~seed:(200 + (seed mod 17)) ~modules:14 ~domains:3 in
      let options = { tight_options with Compile.max_block_weight = 48 } in
      let route_opts =
        { Tiers.default_options with Tiers.max_extra_slots = 64 }
      in
      match Compile.prepare ~options nl with
      | exception Compile.Compile_error _ -> QCheck.assume_fail ()
      | prepared -> (
          let ctx = Reroute.create () in
          match Compile.route ~reroute:ctx prepared route_opts with
          | exception Tiers.Unroutable _ -> QCheck.assume_fail ()
          | s1 ->
              let rng = Random.State.make [| seed |] in
              let keys = List.sort compare (Reroute.keys ctx) in
              List.iter
                (fun k ->
                  if Random.State.bool rng then Reroute.rip ctx k)
                keys;
              let s2 = Compile.route ~reroute:ctx prepared route_opts in
              let report = Compile.verify_schedule prepared s2 in
              if not (Verify.is_clean report) then
                QCheck.Test.fail_reportf
                  "rerouted schedule fails verification:@\n%a"
                  Verify.pp_report report;
              if s2.Schedule.length <> s1.Schedule.length then
                QCheck.Test.fail_reportf
                  "frame length drifted after rip-up: %d -> %d"
                  s1.Schedule.length s2.Schedule.length;
              true))

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

(* ---- Served ladders: outcomes pinned, schedules co-simulated. ----

   Thirty serve_mix-style first sightings, five per generator family
   (the first five per family of the end-to-end benchmark's serve_mix
   stream at seed 2901), compiled as the server compiles them: the
   netlist read back from its text, under [tight_options] (weight 32, 24
   pins, max-extra 0: serve_mix's settings), two retries and the hard
   fallback.  The attempt labels, achieved mode and fallback-net count
   are pinned; every final schedule must be verifier-clean and
   co-simulate against the reference simulator with no mismatching frame
   (250 ns, stimulus seeds 204-206); a ladder that ends on its baseline
   rung must schedule the design byte for byte as [Compile.compile]
   does. *)

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

let schedule_bytes (c : Compile.compiled) =
  Schedule.to_json_string c.Compile.schedule

let test_served_ladders () =
  List.iter
    (fun (spec, want_labels, want_mode, want_fallback) ->
      let nl = served_netlist spec in
      let r = run ~reuse:true nl in
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
            [ 204; 205; 206 ];
          if labels r = [ "baseline" ] then
            Alcotest.(check bool)
              (spec ^ ": baseline schedule = Compile.compile's")
              true
              (String.equal (schedule_bytes c)
                 (schedule_bytes (Compile.compile ~options:tight_options nl))))
    served_ladder_pins

let suite =
  [
    Alcotest.test_case "differential: warm == cold over 51 designs" `Slow
      test_differential_many_seeds;
    Alcotest.test_case "differential: warm == cold on workload families" `Slow
      test_differential_families;
    Alcotest.test_case "warm reuse expands strictly less" `Quick
      test_warm_expansions_lower;
    Alcotest.test_case "failed attempt collects whole residue" `Quick
      test_residue_collected;
    Alcotest.test_case "per-net forced-hard schedule verifies" `Quick
      test_forced_hard_verifies;
    QCheck_alcotest.to_alcotest prop_random_ripup_stays_clean;
    Alcotest.test_case "served ladders: pins and co-simulation" `Quick
      test_served_ladders;
  ]
