(* Bechamel timing benches, one group per paper artifact (see DESIGN.md §4):

     table1/*   — compile + route cost behind each Table 1 column pair
     figure8/*  — cost of one pin-sweep point behind Figure 8
     fidelity/* — emulation-frame and golden-frame execution cost
     ablation/* — scheduler variants on one prepared design

   Workloads are scaled down so the whole run finishes in about a minute;
   `dune exec bin/experiments.exe -- <cmd>` regenerates the actual
   tables/figures at evaluation scale. *)

open Bechamel
open Toolkit
module Netlist = Msched_netlist.Netlist
module Tiers = Msched_route.Tiers
module Async_gen = Msched_clocking.Async_gen
module Edges = Msched_clocking.Edges
module Design_gen = Msched_gen.Design_gen

let options =
  {
    Msched.Compile.default_options with
    Msched.Compile.max_block_weight = 64;
    pins_per_fpga = 96;
  }

(* Shared prepared designs, built once: the benches time the interesting
   phases, not the generator. *)
let design1 = lazy (Design_gen.design1_like ~scale:0.05 ())
let design2 = lazy (Design_gen.design2_like ~scale:0.05 ())

let prepared1 =
  lazy (Msched.Compile.prepare ~options (Lazy.force design1).Design_gen.netlist)

let prepared2 =
  lazy (Msched.Compile.prepare ~options (Lazy.force design2).Design_gen.netlist)

let route_bench name prepared opts =
  Test.make ~name
    (Staged.stage (fun () ->
         ignore (Msched.Compile.route (Lazy.force prepared) opts)))

let table1_tests =
  Test.make_grouped ~name:"table1"
    [
      Test.make ~name:"design1_prepare"
        (Staged.stage (fun () ->
             ignore
               (Msched.Compile.prepare ~options
                  (Lazy.force design1).Design_gen.netlist)));
      route_bench "design1_route_virtual" prepared1 Tiers.default_options;
      route_bench "design1_route_hard" prepared1 Tiers.hard_options;
      route_bench "design2_route_virtual" prepared2 Tiers.default_options;
      route_bench "design2_route_hard" prepared2 Tiers.hard_options;
    ]

let figure8_tests =
  Test.make_grouped ~name:"figure8"
    [
      Test.make ~name:"sweep_point"
        (Staged.stage (fun () ->
             ignore
               (Msched.Pin_sweep.sweep ~weights:[ 64 ]
                  ~pin_candidates:[ 96; 48 ]
                  (Lazy.force design1).Design_gen.netlist)));
    ]

(* Fidelity: per-frame execution cost of both simulators. *)
let fidelity_env =
  lazy
    (let prepared = Lazy.force prepared1 in
     let sched = Msched.Compile.route prepared Tiers.default_options in
     let nl = prepared.Msched.Compile.netlist in
     let stim = Msched_sim.Stimulus.make nl in
     let emu =
       Msched_sim.Emu_sim.create prepared.Msched.Compile.placement sched stim
     in
     let golden = Msched_sim.Ref_sim.create nl stim in
     let clocks = Async_gen.clocks (Netlist.domains nl) in
     let edges = Array.of_list (Edges.stream clocks ~horizon_ps:2_000_000) in
     (emu, golden, edges, ref 0, ref 0))

let fidelity_tests =
  Test.make_grouped ~name:"fidelity"
    [
      Test.make ~name:"emulator_frame"
        (Staged.stage (fun () ->
             let emu, _, edges, i, _ = Lazy.force fidelity_env in
             Msched_sim.Emu_sim.run_edge emu edges.(!i mod Array.length edges);
             incr i));
      Test.make ~name:"golden_frame"
        (Staged.stage (fun () ->
             let _, golden, edges, _, j = Lazy.force fidelity_env in
             Msched_sim.Ref_sim.apply_edge golden
               edges.(!j mod Array.length edges);
             incr j));
    ]

let ablation_tests =
  Test.make_grouped ~name:"ablation"
    [
      route_bench "full" prepared1 Tiers.default_options;
      route_bench "no_equalize" prepared1
        { Tiers.default_options with Tiers.equalize_forks = false };
      route_bench "no_latch_order" prepared1
        { Tiers.default_options with Tiers.latch_ordering = false };
      route_bench "all_domain" prepared1
        { Tiers.default_options with Tiers.same_domain_only = false };
    ]

let benchmark () =
  let tests =
    Test.make_grouped ~name:"msched"
      [ table1_tests; figure8_tests; fidelity_tests; ablation_tests ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Analyze.merge ols instances [ results ]

(* One instrumented pipeline run per design (prepare, virtual + hard route,
   verify), exported as BENCH_pipeline.json so phase wall-times and counters
   are diffable across commits alongside the bechamel numbers. *)
let pipeline_doc design =
  let obs = Msched_obs.Sink.create () in
  let prepared =
    Msched.Compile.prepare
      ~options:{ options with Msched.Compile.obs }
      (Lazy.force design).Design_gen.netlist
  in
  let virt = Msched.Compile.route ~obs prepared Tiers.default_options in
  ignore (Msched.Compile.route ~obs prepared Tiers.hard_options);
  ignore (Msched.Compile.verify_schedule ~obs prepared virt);
  Msched_obs.Export.json_string obs

(* A retry-exercising resilient run on a congested design: the driver's
   ladder (and the warm-reroute machinery underneath it) shows up in the
   exported [driver.*] / [reroute.*] counters, and the driver JSON itself
   is embedded so attempt-by-attempt costs are diffable too. *)
let driver_doc () =
  let obs = Msched_obs.Sink.create () in
  let congested =
    (Design_gen.random_multidomain ~seed:517 ~domains:3 ~modules:30
       ~mts_fraction:0.3 ())
      .Design_gen.netlist
  in
  let tight =
    {
      Msched.Compile.default_options with
      Msched.Compile.max_block_weight = 32;
      pins_per_fpga = 24;
      route = { Tiers.default_options with Tiers.max_extra_slots = 0 };
      obs;
    }
  in
  let r =
    Msched.Compile.compile_resilient ~options:tight ~max_retries:2
      ~fallback_hard:true congested
  in
  Printf.sprintf "{\"result\":%s,\"obs\":%s}"
    (Msched.Compile.resilient_to_json r)
    (Msched_obs.Export.json_string obs)

(* Batch-server throughput: designs/sec at 1 vs 4 workers over a seeded
   corpus, and cache-cold vs cache-warm wall time on a congested corpus
   where the persisted reroute ledger actually shortens the search.  The
   host core count is recorded because worker-count speedup is bounded by
   it (a 1-core container cannot show parallel gain). *)
let batch_doc () =
  let module Server = Msched_server.Server in
  let module Serial = Msched_netlist.Serial in
  let design ~seed ~modules =
    Serial.to_string
      (Design_gen.random_multidomain ~seed ~domains:3 ~modules
         ~mts_fraction:0.25 ())
        .Design_gen.netlist
  in
  let corpus n ~base ~modules =
    List.init n (fun i ->
        Server.job_of_text ~index:i
          ~path:(Printf.sprintf "bench-%02d.mnl" i)
          (design ~seed:(base + i) ~modules))
  in
  (* Throughput: 16 mid-size designs, cache off.  Large enough that
     per-design compile work dominates domain-spawn overhead. *)
  let throughput = corpus 16 ~base:700 ~modules:24 in
  (* Best-of-3 wall time: sub-100ms batches are noisy under GC. *)
  let best run =
    let pick a b = if a.Server.b_wall_s <= b.Server.b_wall_s then a else b in
    pick (run ()) (pick (run ()) (run ()))
  in
  let b1 =
    best (fun () -> Server.run_batch ~jobs:1 Server.default_settings throughput)
  in
  let b4 =
    best (fun () -> Server.run_batch ~jobs:4 Server.default_settings throughput)
  in
  (* Cache: 6 congested designs under tight options, one cold batch to
     populate a fresh cache directory, one warm batch over it. *)
  let tight =
    {
      Msched.Compile.default_options with
      Msched.Compile.max_block_weight = 32;
      pins_per_fpga = 24;
      route = { Tiers.default_options with Tiers.max_extra_slots = 0 };
    }
  in
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "msched-bench-cache-%d" (Unix.getpid ()))
  in
  let congested = corpus 6 ~base:517 ~modules:30 in
  let settings =
    {
      Server.default_settings with
      Server.s_options = tight;
      s_max_retries = 2;
      s_fallback_hard = true;
      s_cache_dir = Some cache_dir;
    }
  in
  (* One cold batch populates the fresh cache; warm batches replay it. *)
  let cold = Server.run_batch ~jobs:1 settings congested in
  let warm = best (fun () -> Server.run_batch ~jobs:1 settings congested) in
  let count status b =
    Array.fold_left
      (fun n r -> if r.Server.r_cache = status then n + 1 else n)
      0 b.Server.b_results
  in
  let per_s b =
    if b.Server.b_wall_s > 0.0 then
      float_of_int (Array.length b.Server.b_results) /. b.Server.b_wall_s
    else 0.0
  in
  Printf.sprintf
    "{\"cores\":%d,\"throughput\":{\"designs\":%d,\"jobs1_wall_s\":%.6f,\"jobs4_wall_s\":%.6f,\"speedup_4v1\":%.3f,\"designs_per_s_jobs1\":%.2f,\"designs_per_s_jobs4\":%.2f,\"max_inflight_jobs4\":%d},\"cache\":{\"designs\":%d,\"cold_wall_s\":%.6f,\"warm_wall_s\":%.6f,\"warm_speedup\":%.3f,\"warm_hits\":%d}}"
    (Domain.recommended_domain_count ())
    (List.length throughput) b1.Server.b_wall_s b4.Server.b_wall_s
    (if b4.Server.b_wall_s > 0.0 then b1.Server.b_wall_s /. b4.Server.b_wall_s
     else 0.0)
    (per_s b1) (per_s b4) b4.Server.b_max_inflight (List.length congested)
    cold.Server.b_wall_s warm.Server.b_wall_s
    (if warm.Server.b_wall_s > 0.0 then
       cold.Server.b_wall_s /. warm.Server.b_wall_s
     else 0.0)
    (count Server.Cache_warm warm)

(* Socket-serve throughput: req/s and p50/p99 latency over a REAL tcp
   socket at 1 vs 4 worker domains, 4 concurrent client connections each —
   the full hardened path (framing, dispatch queue, worker domains,
   response write-back), not just [run_batch].  Latency is per request,
   measured at the client. *)
let serve_doc () =
  let module Serial = Msched_netlist.Serial in
  let module Dispatch = Msched_server.Dispatch in
  let module Transport = Msched_server.Transport in
  let requests_per_client = 6 and clients = 4 in
  let texts =
    Array.init (requests_per_client * clients) (fun i ->
        Serial.to_string
          (Design_gen.random_multidomain ~seed:(800 + i) ~domains:2
             ~modules:12 ~mts_fraction:0.25 ())
            .Design_gen.netlist)
  in
  let run_round ~workers =
    let cfg =
      {
        Transport.default_config with
        Transport.t_address = Transport.Tcp ("127.0.0.1", 0);
        t_dispatch =
          { Dispatch.default_config with Dispatch.d_workers = workers };
      }
    in
    let srv = Transport.start cfg in
    let port =
      match Transport.bound_address srv with
      | Transport.Tcp (_, p) -> p
      | Transport.Unix_path _ | Transport.Stdio _ -> assert false
    in
    let latencies = Array.make (Array.length texts) 0.0 in
    let client ci =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let buf = Bytes.create 65536 in
      let carry = ref "" in
      let recv_line () =
        let rec go () =
          match String.index_opt !carry '\n' with
          | Some i ->
              let line = String.sub !carry 0 i in
              carry := String.sub !carry (i + 1) (String.length !carry - i - 1);
              line
          | None -> (
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> failwith "serve bench: server closed early"
              | n ->
                  carry := !carry ^ Bytes.sub_string buf 0 n;
                  go ())
        in
        go ()
      in
      for r = 0 to requests_per_client - 1 do
        let idx = (ci * requests_per_client) + r in
        let req =
          Printf.sprintf "{\"text\":%s}\n"
            (Msched_diag.Diag.Json.string texts.(idx))
        in
        let t0 = Unix.gettimeofday () in
        let rec write off =
          if off < String.length req then
            write (off + Unix.write_substring fd req off (String.length req - off))
        in
        write 0;
        ignore (recv_line ());
        latencies.(idx) <- Unix.gettimeofday () -. t0
      done;
      Unix.close fd
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init clients (Thread.create client) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    Transport.request_shutdown srv `Drain;
    let s = Transport.wait srv in
    Array.sort compare latencies;
    let pct p =
      let n = Array.length latencies in
      latencies.(min (n - 1) (int_of_float (p *. float_of_int n)))
    in
    Printf.sprintf
      "{\"workers\":%d,\"clients\":%d,\"requests\":%d,\"wall_s\":%.6f,\"req_per_s\":%.2f,\"latency_p50_s\":%.6f,\"latency_p99_s\":%.6f,\"peak_inflight\":%d,\"drain_clean\":%b}"
      workers clients (Array.length texts) wall
      (if wall > 0.0 then float_of_int (Array.length texts) /. wall else 0.0)
      (pct 0.50) (pct 0.99)
      s.Transport.sm_counters.Dispatch.c_peak_inflight s.Transport.sm_clean
  in
  let w1 = run_round ~workers:1 in
  let w4 = run_round ~workers:4 in
  Printf.sprintf "{\"cores\":%d,\"rounds\":[%s,%s]}"
    (Domain.recommended_domain_count ())
    w1 w4

(* The GALS/handshake workload families (ISSUE 6), through the shared
   generator-spec parser: per spec, how MTS fraction and domain count drive
   schedule length and estimated emulation frequency.  Default pins/weight
   (not the bench's tightened [options]): these rows chart scheduling
   scaling, not congestion recovery. *)
let workloads_doc () =
  let module Verify = Msched_check.Verify in
  let module Diag = Msched_diag.Diag in
  let point spec =
    let design =
      match Design_gen.of_spec spec with
      | Ok d -> d
      | Error d -> raise (Diag.Fail d)
    in
    let prepared = Msched.Compile.prepare design.Design_gen.netlist in
    let sched = Msched.Compile.route prepared Tiers.default_options in
    let report = Msched.Compile.verify_schedule prepared sched in
    Printf.sprintf
      "{\"spec\":%s,\"domains\":%d,\"modules\":%d,\"mts_modules\":%d,\"mts_fraction\":%.4f,\"mts_paths\":%d,\"schedule_length\":%d,\"est_speed_hz\":%.1f,\"verifier_clean\":%b}"
      (Diag.Json.string spec)
      (Netlist.num_domains design.Design_gen.netlist)
      design.Design_gen.modules design.Design_gen.mts_modules
      (float_of_int design.Design_gen.mts_modules
      /. float_of_int (max 1 design.Design_gen.modules))
      (Msched_mts.Classify.num_mts_paths prepared.Msched.Compile.classification)
      sched.Msched_route.Schedule.length
      (Msched_route.Schedule.est_speed_hz sched)
      (Verify.is_clean report)
  in
  let family name specs =
    Printf.sprintf "\"%s\":[%s]" name
      (String.concat "," (List.map point specs))
  in
  Printf.sprintf "{%s,%s,%s}"
    (family "gals"
       (List.map
          (fun islands -> Printf.sprintf "gals:islands=%d,size=2" islands)
          [ 4; 8; 16 ]))
    (family "dense"
       (List.map
          (fun density -> Printf.sprintf "dense:domains=12,density=%g" density)
          [ 0.1; 0.3; 0.6 ]))
    (family "fabric"
       (List.map
          (fun banks -> Printf.sprintf "fabric:banks=%d,domains=4" banks)
          [ 4; 8; 16 ]))

(* Intra-compile parallelism (--compile-jobs): prepare and route wall at
   jobs 1/2/4 on one large dense-crossing design.  Only the equality
   classes are gate-worthy — byte-identical schedules, identical
   placements, stable length/speed; the wall times are recorded for
   eyeballing, never asserted (a 1-core CI runner cannot show parallel
   gain, and shared-runner clocks are noise). *)
let par_doc () =
  let spec = "dense:domains=16,density=0.8" in
  let nl =
    (Design_gen.dense_crossing ~seed:11 ~domains:16 ~density:0.8 ())
      .Design_gen.netlist
  in
  let run jobs =
    let t0 = Unix.gettimeofday () in
    let prepared =
      Msched.Compile.prepare
        ~options:{ options with Msched.Compile.compile_jobs = jobs }
        nl
    in
    let t1 = Unix.gettimeofday () in
    let sched = Msched.Compile.route ~jobs prepared Tiers.default_options in
    let t2 = Unix.gettimeofday () in
    (prepared, sched, t1 -. t0, t2 -. t1)
  in
  let p1, s1, prep1, route1 = run 1 in
  let p2, s2, prep2, route2 = run 2 in
  let p4, s4, prep4, route4 = run 4 in
  let module Placement = Msched_place.Placement in
  let assignment p =
    let placement = p.Msched.Compile.placement in
    List.init
      (Msched_partition.Partition.num_blocks (Placement.partition placement))
      (fun b ->
        Msched_netlist.Ids.Fpga.to_int
          (Placement.fpga_of_block placement (Msched_netlist.Ids.Block.of_int b)))
  in
  let sjson s = Msched_route.Schedule.to_json_string s in
  Printf.sprintf
    "{\"design\":%s,\"cores\":%d,\"prepare_wall_s\":{\"jobs1\":%.6f,\"jobs2\":%.6f,\"jobs4\":%.6f},\"route_wall_s\":{\"jobs1\":%.6f,\"jobs2\":%.6f,\"jobs4\":%.6f},\"schedule_identical_1v2\":%b,\"schedule_identical_1v4\":%b,\"placement_identical\":%b,\"schedule_length\":%d,\"est_speed_hz\":%.1f}"
    (Msched_diag.Diag.Json.string spec)
    (Domain.recommended_domain_count ())
    prep1 prep2 prep4 route1 route2 route4
    (sjson s1 = sjson s2)
    (sjson s1 = sjson s4)
    (assignment p1 = assignment p2 && assignment p1 = assignment p4)
    s1.Msched_route.Schedule.length
    (Msched_route.Schedule.est_speed_hz s1)

(* Incremental delta compilation (ISSUE 10): one cold base compile with a
   manifest harvest, an identity replay (everything reused, zero search),
   and a connectivity-preserving single-block edit compiled warm against
   the manifest.  The gate keys on the equality classes — the warm
   schedule byte-identical to the cold one, strictly fewer pathfinder
   expansions — and on the reuse fraction; wall times are informational. *)
let delta_doc () =
  let module Compile = Msched.Compile in
  let module Edit = Msched_delta.Edit in
  let module Diff = Msched_delta.Diff in
  let spec = "gals:islands=6,size=6" in
  let nl =
    (Design_gen.gals_islands ~seed:9 ~islands:6 ~island_size:6 ())
      .Design_gen.netlist
  in
  let options = Compile.default_options in
  let t0 = Unix.gettimeofday () in
  let base = Compile.compile_base ~options nl in
  let base_wall = Unix.gettimeofday () -. t0 in
  let ident =
    Compile.compile_delta ~options ~manifest:base.Compile.base_manifest nl
  in
  let sjson c = Msched_route.Schedule.to_json_string c.Compile.schedule in
  (* First flip seed that achieves reuse: domain flips preserve
     connectivity, so the seeded partition stays stable and the untouched
     blocks replay (deterministic for the committed seed). *)
  let rec pick seed =
    if seed > 19 then failwith "bench delta: no flip edit achieved reuse"
    else
      match Edit.apply ~seed Edit.Flip_domain nl with
      | Error _ -> pick (seed + 1)
      | Ok (edited, desc) ->
          let cold = Compile.compile_base ~options edited in
          let t1 = Unix.gettimeofday () in
          let delta =
            Compile.compile_delta ~options
              ~manifest:base.Compile.base_manifest edited
          in
          let warm_wall = Unix.gettimeofday () -. t1 in
          if delta.Compile.delta_reused > 0 then
            (desc, cold, delta, warm_wall)
          else pick (seed + 1)
  in
  let desc, cold, delta, warm_wall = pick 0 in
  let clean, dirty, cone =
    match delta.Compile.delta_diff with
    | Some d -> (Diff.clean_count d, Diff.dirty_count d, Diff.cone_size d)
    | None -> (0, 0, 0)
  in
  Printf.sprintf
    "{\"design\":%s,\"edit\":%s,\"base_expansions\":%d,\"base_wall_s\":%.6f,\"identity_reused\":%d,\"identity_expansions\":%d,\"blocks_clean\":%d,\"blocks_dirty\":%d,\"cone\":%d,\"reused\":%d,\"ripped\":%d,\"fresh\":%d,\"cold_expansions\":%d,\"warm_expansions\":%d,\"warm_wall_s\":%.6f,\"fewer_expansions\":%b,\"reuse_fraction\":%.4f,\"schedule_identical\":%b,\"schedule_length\":%d,\"est_speed_hz\":%.1f}"
    (Msched_diag.Diag.Json.string spec)
    (Msched_diag.Diag.Json.string desc)
    base.Compile.base_expansions base_wall ident.Compile.delta_reused
    ident.Compile.delta_expansions clean dirty cone
    delta.Compile.delta_reused delta.Compile.delta_ripped
    delta.Compile.delta_fresh cold.Compile.base_expansions
    delta.Compile.delta_expansions warm_wall
    (delta.Compile.delta_expansions < cold.Compile.base_expansions)
    (Compile.delta_reuse_fraction delta)
    (sjson delta.Compile.delta_compiled = sjson cold.Compile.base_compiled)
    delta.Compile.delta_compiled.Compile.schedule.Msched_route.Schedule.length
    (Msched_route.Schedule.est_speed_hz
       delta.Compile.delta_compiled.Compile.schedule)

let write_pipeline_json path =
  let doc =
    Printf.sprintf
      "{\"schema\":\"msched-bench-pipeline-7\",\"designs\":{\"design1\":%s,\"design2\":%s},\"driver\":%s,\"batch\":%s,\"serve\":%s,\"workloads\":%s,\"par\":%s,\"delta\":%s}\n"
      (pipeline_doc design1) (pipeline_doc design2) (driver_doc ())
      (batch_doc ()) (serve_doc ()) (workloads_doc ()) (par_doc ())
      (delta_doc ())
  in
  let oc = open_out path in
  output_string oc doc;
  close_out oc;
  Printf.eprintf "wrote %s\n%!" path

(* ---- The regression gate (--baseline FILE --check).

   The fresh pipeline document is diffed against a committed baseline with
   the per-metric-class tolerances of [Msched_explain.Baseline]; any
   regression writes BENCH_diff.json, prints the verdict table and exits
   non-zero, which is what CI keys on. *)

let arg_value flag =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = flag then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_gate ~baseline fresh_path =
  let module Baseline = Msched_explain.Baseline in
  let module Diag = Msched_diag.Diag in
  match Baseline.compare_runs ~baseline ~fresh:(read_file fresh_path) with
  | Error d ->
      Format.eprintf "bench gate: %a@." Diag.pp d;
      exit (Diag.exit_code d.Diag.code)
  | Ok diff ->
      let oc = open_out "BENCH_diff.json" in
      output_string oc (Baseline.to_json diff);
      output_string oc "\n";
      close_out oc;
      Format.eprintf "%a@.wrote BENCH_diff.json@." Baseline.pp diff;
      if not (Baseline.ok diff) then exit 1

let main () =
  (* Snapshot the baseline BEFORE the fresh run overwrites it: the
     committed baseline usually IS BENCH_pipeline.json. *)
  let baseline =
    match arg_value "--baseline" with
    | Some path when Array.exists (( = ) "--check") Sys.argv ->
        Some (read_file path)
    | Some _ | None -> None
  in
  write_pipeline_json "BENCH_pipeline.json";
  (match baseline with
  | Some baseline -> run_gate ~baseline "BENCH_pipeline.json"
  | None -> ());
  if
    Array.exists (( = ) "--pipeline-only") Sys.argv
    || Array.exists (( = ) "--check") Sys.argv
  then exit 0;
  let results = benchmark () in
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 120; h = 1 }
  in
  let module U = Bechamel_notty.Unit in
  U.add Instance.monotonic_clock (Measure.unit Instance.monotonic_clock);
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.eol img |> Notty_unix.output_image

(* Nothing escapes as an uncaught exception with a backtrace: any failure
   is classified through the shared diagnostic mapper and exits with its
   documented class — the same contract as the CLI. *)
let () =
  try main ()
  with e ->
    let module Diag = Msched_diag.Diag in
    let d = Msched.Compile.diag_of_exn e in
    Format.eprintf "bench: %a@." Diag.pp d;
    exit (Diag.exit_code d.Diag.code)
