(* Schedule explainability.

   The critical chain is the provenance walk of the ReadyTime pass TIERS
   runs, fed the compiled schedule's departures; its contract is sharp
   enough to test structurally:

   - the chain is {e exact} for every TIERS-compiled schedule: the replayed
     length equals [Schedule.length], the first hop starts at slot 0, the
     last ends at [length], and every hop starts where the previous ended
     (dependency contiguity) — across seeded workload families, both
     routing modes, random multi-domain designs (qcheck), and schedules
     the hard fallback rescued, which mix dedicated-wire and virtual
     links;
   - explain output is byte-deterministic: two independent compiles of the
     same seeded design render identical [msched-explain-1] documents;
   - the occupancy matrix column peaks agree with the schedule's own
     [peak_channel_usage] accounting;
   - phase attribution does exact Amdahl arithmetic on a fake clock, and
     [Sink.annotate] lands args on the innermost open span. *)

module Design_gen = Msched_gen.Design_gen
module Tiers = Msched_route.Tiers
module Schedule = Msched_route.Schedule
module Sink = Msched_obs.Sink
module Explain = Msched_explain.Explain

let compile ?(weight = 48) ?(route = Tiers.default_options) nl =
  let options =
    { Msched.Compile.default_options with Msched.Compile.max_block_weight = weight }
  in
  let prepared = Msched.Compile.prepare ~options nl in
  let sched = Msched.Compile.route prepared route in
  (prepared, sched)

let check_chain label route prepared sched =
  let chain = Explain.critical_chain ~route prepared sched in
  Alcotest.(check bool)
    (label ^ ": chain is exact (pass length = schedule length)")
    true chain.Explain.ch_exact;
  Alcotest.(check int)
    (label ^ ": chain length") sched.Schedule.length chain.Explain.ch_length;
  (match chain.Explain.ch_hops with
  | [] -> Alcotest.fail (label ^ ": chain has no hops")
  | first :: _ ->
      Alcotest.(check int) (label ^ ": first hop starts at 0") 0
        first.Explain.h_from);
  let rec contiguous prev = function
    | [] ->
        Alcotest.(check int)
          (label ^ ": last hop ends at schedule length")
          sched.Schedule.length prev
    | h :: rest ->
        Alcotest.(check int)
          (Printf.sprintf "%s: hop %S starts where the previous ended" label
             h.Explain.h_what)
          prev h.Explain.h_from;
        Alcotest.(check bool)
          (label ^ ": hop does not go backwards")
          true
          (h.Explain.h_to >= h.Explain.h_from);
        contiguous h.Explain.h_to rest
  in
  contiguous 0 chain.Explain.ch_hops;
  chain

let seeded_families () =
  List.iter
    (fun (label, nl) ->
      List.iter
        (fun (mode, route) ->
          let prepared, sched = compile ~route nl in
          ignore (check_chain (label ^ " " ^ mode) route prepared sched))
        [ ("virtual", Tiers.default_options); ("hard", Tiers.hard_options) ])
    [
      ( "gals",
        (Design_gen.of_spec "gals:islands=4,size=2" |> function
         | Ok d -> d.Design_gen.netlist
         | Error _ -> Alcotest.fail "gals spec") );
      ( "dense",
        (Design_gen.of_spec "dense:domains=6,density=0.3" |> function
         | Ok d -> d.Design_gen.netlist
         | Error _ -> Alcotest.fail "dense spec") );
      ( "fabric",
        (Design_gen.of_spec "fabric:banks=4" |> function
         | Ok d -> d.Design_gen.netlist
         | Error _ -> Alcotest.fail "fabric spec") );
      ("design1", (Design_gen.design1_like ~scale:0.05 ()).Design_gen.netlist);
    ]

let prop_random_chains_exact =
  QCheck.Test.make ~name:"random multi-domain chains are exact and contiguous"
    ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let d =
        Design_gen.random_multidomain ~seed ~domains:3 ~modules:6
          ~mts_fraction:0.3 ()
      in
      let route = Tiers.default_options in
      let prepared, sched = compile ~route d.Design_gen.netlist in
      let chain = Explain.critical_chain ~route prepared sched in
      chain.Explain.ch_exact
      && (match chain.Explain.ch_hops with
         | [] -> false
         | first :: _ -> first.Explain.h_from = 0)
      && List.fold_left
           (fun prev h ->
             match prev with
             | None -> None
             | Some p ->
                 if h.Explain.h_from = p && h.Explain.h_to >= p then
                   Some h.Explain.h_to
                 else None)
           (Some 0) chain.Explain.ch_hops
         = Some sched.Schedule.length)

(* Congested random designs (30 modules, weight 32, 24 pins, no slack, no
   retries) that only the hard fallback rescues: per net
   ([fallback-hard]) or for the whole schedule ([fallback-hard-all]).
   Either way the schedule mixes dedicated-wire and virtual links, and the
   chain must still be exact. *)
let fallback_chains_exact () =
  let options =
    {
      Msched.Compile.default_options with
      Msched.Compile.max_block_weight = 32;
      pins_per_fpga = 24;
      route = { Tiers.default_options with Tiers.max_extra_slots = 0 };
    }
  in
  List.iter
    (fun seed ->
      let label = Printf.sprintf "seed %d" seed in
      let nl =
        (Design_gen.random_multidomain ~seed ~domains:3 ~modules:30
           ~mts_fraction:0.25 ())
          .Design_gen.netlist
      in
      let r =
        Msched.Compile.compile_resilient ~options ~max_retries:0
          ~fallback_hard:true nl
      in
      match r.Msched.Compile.compiled with
      | None -> Alcotest.failf "%s: the fallback did not compile" label
      | Some c ->
          let sched = c.Msched.Compile.schedule in
          let hard ls =
            List.exists (fun tr -> tr.Schedule.tr_hard) ls.Schedule.ls_transports
          in
          let links = sched.Schedule.link_scheds in
          Alcotest.(check bool)
            (label ^ ": hard and virtual links mix")
            true
            (List.exists hard links && not (List.for_all hard links));
          let mode =
            Option.get r.Msched.Compile.degradation.Msched.Compile.achieved_mode
          in
          ignore
            (check_chain label
               { options.Msched.Compile.route with Tiers.mode }
               c.Msched.Compile.prepared sched))
    [ 500; 503; 507; 508; 514; 518; 529; 541; 554; 557 ]

let deterministic_json () =
  let analyze () =
    let nl = (Design_gen.design1_like ~scale:0.05 ()).Design_gen.netlist in
    let prepared, sched = compile nl in
    Explain.to_json (Explain.analyze ~design:"design1" prepared sched)
  in
  let a = analyze () and b = analyze () in
  Alcotest.(check string) "two fresh compiles render identical explain JSON" a b;
  let contains sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "document carries the schema tag" true
    (contains "msched-explain-1" a)

let occupancy_matches_peaks () =
  let nl = (Design_gen.design1_like ~scale:0.05 ()).Design_gen.netlist in
  let prepared, sched = compile nl in
  let oc = Explain.occupancy sched prepared.Msched.Compile.system in
  Alcotest.(check int) "one row per channel"
    (Array.length sched.Schedule.peak_channel_usage)
    (Array.length oc.Explain.oc_matrix);
  Array.iteri
    (fun c row ->
      let peak = Array.fold_left max 0 row in
      Alcotest.(check int)
        (Printf.sprintf "channel %d: matrix column peak = recorded peak" c)
        sched.Schedule.peak_channel_usage.(c)
        peak)
    oc.Explain.oc_matrix;
  Alcotest.(check bool) "wire-slot split covers all multiplexed hops" true
    (oc.Explain.oc_mts_wire_slots + oc.Explain.oc_single_wire_slots
    = Array.fold_left
        (fun acc row -> acc + Array.fold_left ( + ) 0 row)
        0 oc.Explain.oc_matrix)

let attribution_math () =
  let now = ref 0.0 in
  let obs = Sink.create ~clock:(fun () -> !now) () in
  (* root [0,100ms] with child [20,60ms]: root self 60ms, child self 40ms. *)
  Sink.span obs "root" (fun () ->
      now := 0.020;
      Sink.span obs "child" (fun () -> now := 0.060);
      now := 0.100);
  match Explain.attribution obs with
  | None -> Alcotest.fail "attribution missing"
  | Some a ->
      Alcotest.(check int) "wall is the root span" 100_000 a.Explain.at_wall_us;
      Alcotest.(check (option string)) "serial bottleneck is the root's self"
        (Some "root") a.Explain.at_serial;
      let phase name =
        List.find (fun p -> p.Explain.ph_name = name) a.Explain.at_phases
      in
      Alcotest.(check int) "root self excludes the child" 60_000
        (phase "root").Explain.ph_self_us;
      Alcotest.(check int) "child self" 40_000 (phase "child").Explain.ph_self_us;
      let r = phase "root" in
      Alcotest.(check bool) "Amdahl bound of a 0.6 fraction is 2.5" true
        (abs_float (r.Explain.ph_amdahl -. 2.5) < 1e-9)

let annotate_lands_on_open_span () =
  let obs = Sink.create () in
  Sink.span obs "stage" (fun () -> Sink.annotate obs [ ("k", "v") ]);
  Sink.annotate obs [ ("ignored", "no-open-span") ];
  match Sink.spans obs with
  | [ s ] ->
      Alcotest.(check (list (pair string string)))
        "args recorded on the innermost open span" [ ("k", "v") ]
        s.Sink.sp_args
  | _ -> Alcotest.fail "expected exactly one span"

let suite =
  [
    Alcotest.test_case "seeded families: chains exact in both modes" `Slow
      seeded_families;
    QCheck_alcotest.to_alcotest prop_random_chains_exact;
    Alcotest.test_case "hard-fallback chains are exact" `Quick
      fallback_chains_exact;
    Alcotest.test_case "explain JSON is byte-deterministic" `Quick
      deterministic_json;
    Alcotest.test_case "occupancy matrix matches peak accounting" `Quick
      occupancy_matches_peaks;
    Alcotest.test_case "phase attribution Amdahl arithmetic" `Quick
      attribution_math;
    Alcotest.test_case "Sink.annotate targets the innermost open span" `Quick
      annotate_lands_on_open_span;
  ]
