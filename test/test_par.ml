(* Parallel-compile determinism: --compile-jobs is a pure wall-clock knob.
   The speculative parallel TIERS reverse pass must produce byte-identical
   schedules, identical attempt ladders and identical emulation
   frequencies at every parallel width, cold and warm.  The placement
   annealer is sequential at any width, so its counters, span args and
   result must not move with --compile-jobs either. *)

module Tiers = Msched_route.Tiers
module Schedule = Msched_route.Schedule
module Placement = Msched_place.Placement
module Design_gen = Msched_gen.Design_gen
module Sink = Msched_obs.Sink
module Verify = Msched_check.Verify
module Diag = Msched_diag.Diag
module Compile = Msched.Compile

(* Same pressure as test_reroute: tight enough that many seeds exercise
   the retry ladder (and with it the warm parallel path), loose enough
   that relaxation recovers. *)
let tight_options jobs =
  {
    Compile.default_options with
    Compile.max_block_weight = 32;
    pins_per_fpga = 24;
    route = { Tiers.default_options with Tiers.max_extra_slots = 0 };
    compile_jobs = jobs;
  }

let run ~jobs ~reuse ?(options = tight_options) nl =
  Compile.compile_resilient ~options:(options jobs) ~max_retries:2
    ~fallback_hard:true ~reuse nl

let labels r = List.map (fun a -> a.Compile.attempt_label) r.Compile.attempts

let hz r =
  match r.Compile.degradation.Compile.achieved_hz with
  | None -> 0.0
  | Some hz -> hz

let schedule_json r =
  match r.Compile.compiled with
  | None -> "<none>"
  | Some c -> Schedule.to_json_string c.Compile.schedule

let check_verifier_clean name r =
  match r.Compile.compiled with
  | None -> ()
  | Some c ->
      let report =
        Compile.verify_schedule c.Compile.prepared c.Compile.schedule
      in
      Alcotest.(check bool) (name ^ ": verifier clean") true
        (Verify.is_clean report)

(* The core differential: a jobs=4 resilient run against the jobs=1 run on
   the same netlist — byte-identical schedule JSON, same ladder, same Hz —
   under both a warm (ledger-reusing) and a cold context. *)
let differential_nl ?options ~ctxname nl =
  let compiled = ref false in
  List.iter
    (fun (mode, reuse) ->
      let seq = run ~jobs:1 ~reuse ?options nl in
      let par = run ~jobs:4 ~reuse ?options nl in
      let name what = Printf.sprintf "%s %s: %s" ctxname mode what in
      Alcotest.(check bool)
        (name "same success")
        (Compile.succeeded seq) (Compile.succeeded par);
      Alcotest.(check (list string))
        (name "same attempt labels")
        (labels seq) (labels par);
      Alcotest.(check (float 0.0)) (name "same Hz") (hz seq) (hz par);
      Alcotest.(check string)
        (name "byte-identical schedule JSON")
        (schedule_json seq) (schedule_json par);
      check_verifier_clean (name "jobs=4") par;
      if Compile.succeeded par then compiled := true)
    [ ("warm", true); ("cold", false) ];
  !compiled

let test_differential_many_seeds () =
  (* The 51-design set of the warm-reroute differential (test_reroute),
     now diffed across parallel widths. *)
  let succeeded = ref 0 and total = ref 0 in
  List.iter
    (fun (modules, domains) ->
      for seed = 100 to 100 + 16 do
        incr total;
        let nl =
          (Design_gen.random_multidomain ~seed ~domains ~modules
             ~mts_fraction:0.25 ())
            .Design_gen.netlist
        in
        if differential_nl ~ctxname:(Printf.sprintf "seed %d" seed) nl then
          incr succeeded
      done)
    [ (10, 2); (16, 3); (22, 4) ];
  Alcotest.(check bool)
    (Printf.sprintf "designs compiled (%d/%d)" !succeeded !total)
    true
    (!succeeded > !total / 2);
  Alcotest.(check bool) "suite is >= 50 designs" true (!total >= 50)

let families =
  [
    ("fig1", fun () -> Design_gen.fig1 ());
    ("fig3_latch", fun () -> Design_gen.fig3_latch ());
    ("handshake", fun () -> Design_gen.handshake ());
    ( "random",
      fun () ->
        Design_gen.random_multidomain ~seed:42 ~domains:3 ~modules:14
          ~mts_fraction:0.3 () );
    ("design1", fun () -> Design_gen.design1_like ~seed:1 ~scale:0.05 ());
    ("design2", fun () -> Design_gen.design2_like ~seed:2 ~scale:0.05 ());
    ("gals", fun () -> Design_gen.gals_islands ~seed:3 ~islands:4 ());
    ( "dense",
      fun () -> Design_gen.dense_crossing ~seed:4 ~domains:6 ~density:0.3 () );
    ("fabric", fun () -> Design_gen.gated_memory_fabric ~seed:5 ~banks:4 ());
  ]

let test_differential_families () =
  (* Every generator family, in both MTS routing modes. *)
  List.iter
    (fun (label, thunk) ->
      let d = thunk () in
      List.iter
        (fun (mname, mode) ->
          let options jobs =
            {
              (tight_options jobs) with
              Compile.route =
                { Tiers.default_options with Tiers.mode };
            }
          in
          ignore
            (differential_nl ~options
               ~ctxname:(Printf.sprintf "%s/%s" label mname)
               d.Design_gen.netlist))
        [ ("virtual", Tiers.Mts_virtual); ("hard", Tiers.Mts_hard) ])
    families

(* qcheck: any random multidomain design, any jobs in {1,2,4} — all three
   widths agree byte-for-byte. *)
let prop_jobs_agree =
  QCheck.Test.make ~name:"jobs 1/2/4 agree on random multidomain" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let nl =
        (Design_gen.random_multidomain ~seed ~domains:(2 + (seed mod 3))
           ~modules:(8 + (seed mod 9)) ~mts_fraction:0.25 ())
          .Design_gen.netlist
      in
      let results =
        List.map (fun jobs -> run ~jobs ~reuse:true nl) [ 1; 2; 4 ]
      in
      match results with
      | [ r1; r2; r4 ] ->
          schedule_json r1 = schedule_json r2
          && schedule_json r1 = schedule_json r4
          && labels r1 = labels r2
          && labels r1 = labels r4
      | _ -> false)

(* ---- Placement: move counters and result are jobs-independent. ---- *)

let test_placement_counters_jobs_independent () =
  List.iter
    (fun seed ->
      let d =
        Design_gen.random_multidomain ~seed ~domains:3 ~modules:18
          ~mts_fraction:0.25 ()
      in
      let place jobs =
        let obs = Sink.create () in
        let p =
          Compile.prepare
            ~options:
              {
                Compile.default_options with
                Compile.obs = obs;
                compile_jobs = jobs;
                max_block_weight = 32;
              }
            d.Design_gen.netlist
        in
        (obs, p.Compile.placement)
      in
      let obs1, p1 = place 1 in
      let obs4, p4 = place 4 in
      List.iter
        (fun c ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d: %s jobs-independent" seed c)
            (Sink.counter obs1 c) (Sink.counter obs4 c))
        [ "place.moves_tried"; "place.moves_accepted" ];
      Alcotest.(check (float 0.0))
        (Printf.sprintf "seed %d: same wirelength" seed)
        (float_of_int (Placement.wirelength p1))
        (float_of_int (Placement.wirelength p4));
      (* The annotated placement span's moves_accepted/moves_rejected
         args are identical too. *)
      let span_args obs =
        List.concat_map
          (fun sp ->
            if sp.Sink.sp_name = "placement" then sp.Sink.sp_args else [])
          (Sink.spans obs)
        |> List.filter (fun (k, _) ->
               k = "moves_accepted" || k = "moves_rejected")
      in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "seed %d: span args jobs-independent" seed)
        (span_args obs1) (span_args obs4);
      (* And the placement itself. *)
      let assignment p =
        List.init
          (Msched_partition.Partition.num_blocks (Placement.partition p))
          (fun b ->
            Msched_netlist.Ids.Fpga.to_int
              (Placement.fpga_of_block p (Msched_netlist.Ids.Block.of_int b)))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: identical placement" seed)
        (assignment p1) (assignment p4))
    [ 700; 701; 702 ]

(* ---- Oversubscription budget: jobs x compile_jobs capped. ---- *)

let test_jobs_budget () =
  let ok ~jobs ~compile_jobs ~recommended =
    match Compile.check_jobs_budget ~recommended ~jobs ~compile_jobs () with
    | Ok () -> true
    | Error _ -> false
  in
  (* Either knob alone may exceed the budget. *)
  Alcotest.(check bool) "jobs alone passes" true
    (ok ~jobs:16 ~compile_jobs:1 ~recommended:8);
  Alcotest.(check bool) "compile-jobs alone passes" true
    (ok ~jobs:1 ~compile_jobs:16 ~recommended:8);
  (* Product within budget passes. *)
  Alcotest.(check bool) "product = budget passes" true
    (ok ~jobs:2 ~compile_jobs:4 ~recommended:8);
  (* Product beyond budget is a structured E_PARSE diagnostic. *)
  Alcotest.(check bool) "product > budget fails" false
    (ok ~jobs:4 ~compile_jobs:4 ~recommended:8);
  (match Compile.check_jobs_budget ~recommended:8 ~jobs:3 ~compile_jobs:3 () with
  | Ok () -> Alcotest.fail "3x3 > 8 must be rejected"
  | Error d ->
      Alcotest.(check string) "diagnostic code" "E_PARSE"
        (Diag.code_name d.Diag.code))

(* ---- tiers.par.* accounting sanity on a direct schedule call. ---- *)

let test_tiers_par_counters () =
  let d =
    Design_gen.random_multidomain ~seed:900 ~domains:3 ~modules:16
      ~mts_fraction:0.25 ()
  in
  let prepared =
    Compile.prepare
      ~options:{ Compile.default_options with Compile.max_block_weight = 32 }
      d.Design_gen.netlist
  in
  let obs = Sink.create () in
  let sched =
    Compile.route ~obs ~jobs:4 prepared Tiers.default_options
  in
  let sched_seq = Compile.route prepared Tiers.default_options in
  Alcotest.(check string) "route jobs=4 == jobs=1"
    (Schedule.to_json_string sched_seq)
    (Schedule.to_json_string sched);
  let committed = Sink.counter obs "tiers.par.links_committed" in
  let redone = Sink.counter obs "tiers.par.links_redone" in
  let solo = Sink.counter obs "tiers.par.links_solo" in
  let links = Sink.counter obs "sched.links" in
  Alcotest.(check int) "every link accounted once" links
    (committed + redone + solo);
  Alcotest.(check bool) "some links actually speculated" true
    (committed + redone > 0);
  Alcotest.(check bool) "batches recorded" true
    (Sink.counter obs "tiers.par.batches" > 0)

let suite =
  [
    Alcotest.test_case "parallel differential: 51-seed set" `Slow
      test_differential_many_seeds;
    Alcotest.test_case "parallel differential: families x modes" `Slow
      test_differential_families;
    QCheck_alcotest.to_alcotest prop_jobs_agree;
    Alcotest.test_case "placement counters jobs-independent" `Quick
      test_placement_counters_jobs_independent;
    Alcotest.test_case "jobs budget check" `Quick test_jobs_budget;
    Alcotest.test_case "tiers.par counters account every link" `Quick
      test_tiers_par_counters;
  ]
