(* File-based compiler driver: operate on netlists in the text format of
   Msched_netlist.Serial (extension-agnostic; see lib/netlist/serial.mli).

     msched compile  design.mnl|SPEC [--pins N] [--weight N] [--mode virtual|hard|naive]
                     [--forward] [--retries N] [--fallback-hard] [--cold]
                     [--max-extra N] [--diag-json FILE]
                     [--delta-base MANIFEST] [--emit-manifest FILE]
     msched delta diff BASE EDITED [--pins N] [--weight N] [--json FILE]
     msched lint     design.mnl [--diag-json FILE]
     msched check    design.mnl|SPEC [--pins N] [--weight N] [--mode virtual|hard|naive] [--forward] [--json FILE]
     msched explain  design.mnl|SPEC [--mode virtual|hard|naive] [--json FILE] [--trace FILE]
     msched stats    design.mnl
     msched dot      design.mnl [--partition] > design.dot
     msched simulate design.mnl [--horizon PS] [--seed N] [--diag-json FILE]
     msched profile  design.mnl|SPEC [--trace FILE]
     msched gen      SPEC [--scale F] > design.mnl

   SPEC is a generator spec in the grammar of Design_gen.of_spec — e.g.
   "design2:scale=0.05", "gals:islands=16,size=8",
   "dense:domains=24,density=0.3", "fabric:banks=12" — the same parser the
   bench and experiment harness use.  A malformed spec is an E_PARSE
   diagnostic (exit 3), like any other malformed input.

   compile/check/simulate/profile accept --trace FILE to dump a Chrome
   trace-event JSON of the run ("-" = stdout); diagnostics of check go to
   stderr so the trace stream stays parseable.

   Exit codes (documented in docs/ROBUSTNESS.md): 0 success, 1 usage, 2
   verification failure, 3 malformed input, 4 unroutable/infeasible, 5
   unsupported construct, 6 internal error. *)

module Netlist = Msched_netlist.Netlist
module Serial = Msched_netlist.Serial
module Lint = Msched_netlist.Lint
module Dot = Msched_netlist.Dot
module Stats = Msched_netlist.Stats
module Ids = Msched_netlist.Ids
module Diag = Msched_diag.Diag
module Tiers = Msched_route.Tiers
module Schedule = Msched_route.Schedule
module Partition = Msched_partition.Partition
module Async_gen = Msched_clocking.Async_gen
module Fidelity = Msched_sim.Fidelity
module Design_gen = Msched_gen.Design_gen
module Sink = Msched_obs.Sink
module Obs_export = Msched_obs.Export
module Server = Msched_server.Server
module Manifest = Msched_server.Manifest
module Cache = Msched_server.Cache
module Dispatch = Msched_server.Dispatch
module Transport = Msched_server.Transport
module Delta_manifest = Msched_delta.Manifest
module Delta_diff = Msched_delta.Diff

(* Errors are always printed; warnings are capped so a lint-unclean but
   compilable design doesn't bury the result (full detail via --diag-json). *)
let max_printed_warnings = 10

let print_diags path diags =
  let warnings = ref 0 in
  List.iter
    (fun d ->
      if Diag.is_error d then Format.eprintf "%s: %a@." path Diag.pp d
      else begin
        incr warnings;
        if !warnings <= max_printed_warnings then
          Format.eprintf "%s: %a@." path Diag.pp d
      end)
    diags;
  if !warnings > max_printed_warnings then
    Format.eprintf "%s: … %d more warning(s) suppressed@." path
      (!warnings - max_printed_warnings)

let report_of diags =
  let rep = Diag.Report.create () in
  Diag.Report.add_list rep diags;
  rep

let read_netlist path =
  match
    Serial.of_string_diag (In_channel.with_open_bin path In_channel.input_all)
  with
  | Ok nl -> nl
  | Error diags ->
      print_diags path diags;
      exit (Diag.Report.exit_code (report_of diags))

(* compile/check/profile/gen accept either a netlist file or a generator
   spec; one parser (Design_gen.of_spec) is shared with the bench and the
   experiment harness. *)
let design_of_spec spec =
  match Design_gen.of_spec spec with
  | Ok d -> d
  | Error d ->
      Format.eprintf "%a@." Diag.pp d;
      exit (Diag.exit_code d.Diag.code)

(* [scale] applies only to the bare legacy names [design1]/[design2]; specs
   carry their own parameters. *)
let netlist_of_design_arg ?(scale = 0.1) name =
  if Sys.file_exists name then read_netlist name
  else
    match name with
    | "design1" -> (Design_gen.design1_like ~scale ()).Design_gen.netlist
    | "design2" -> (Design_gen.design2_like ~scale ()).Design_gen.netlist
    | spec -> (design_of_spec spec).Design_gen.netlist

(* Every command runs under this wrapper: structured failures print their
   diagnostic and exit with the documented class; nothing escapes as an
   uncaught exception with a backtrace.  Host I/O failures (a missing
   file, a socket path in a missing directory) are malformed input; every
   other exception goes through the pipeline's own classifier. *)
let protect f =
  try f () with
  | e ->
      let d =
        match e with
        | Sys_error msg -> Diag.error Diag.E_PARSE "%s" msg
        | Unix.Unix_error (err, call, arg) ->
            Diag.error Diag.E_PARSE "%s%s: %s" call
              (if arg = "" then "" else " " ^ arg)
              (Unix.error_message err)
        | e -> Msched.Compile.diag_of_exn e
      in
      Format.eprintf "%a@." Diag.pp d;
      exit (Diag.exit_code d.Diag.code)

let options_of ?(obs = Sink.null) pins weight =
  {
    Msched.Compile.default_options with
    Msched.Compile.pins_per_fpga = pins;
    max_block_weight = weight;
    obs;
  }

(* A [--trace FILE] argument turns the sink on; without it every probe in
   the pipeline is a no-op. *)
let sink_of_trace = function None -> Sink.null | Some _ -> Sink.create ()

let write_trace trace obs =
  match trace with
  | None -> ()
  | Some path -> Obs_export.write_file path (Obs_export.chrome_trace_string obs)

let route_options_of mode =
  match mode with
  | "virtual" -> Tiers.default_options
  | "hard" -> Tiers.hard_options
  | "naive" -> Tiers.naive_options
  | other ->
      Printf.eprintf "unknown mode %s (virtual|hard|naive)\n" other;
      exit 1

let pp_compiled ppf pins (c : Msched.Compile.compiled) =
  let prepared = c.Msched.Compile.prepared in
  let sched = c.Msched.Compile.schedule in
  Format.fprintf ppf "design:   %a@." Netlist.pp_summary
    prepared.Msched.Compile.netlist;
  Format.fprintf ppf "partition: %a@." Partition.pp_summary
    prepared.Msched.Compile.partition;
  Format.fprintf ppf "mts:      %a@." Msched_mts.Classify.pp_summary
    prepared.Msched.Compile.classification;
  Format.fprintf ppf "%a@." Schedule.pp_summary sched;
  Format.fprintf ppf "pins used (worst FPGA): %d / %d@."
    (Schedule.max_pins_used sched prepared.Msched.Compile.system)
    pins;
  Format.fprintf ppf
    "channel utilization: %.1f%%, mean transport latency: %.1f@."
    (100.0 *. Schedule.channel_utilization sched prepared.Msched.Compile.system)
    (Schedule.mean_transport_latency sched)

(* The incremental loop (docs/DELTA.md): [--emit-manifest] persists the
   compile's manifest; [--delta-base] diffs the edited design's blocks
   against a previous one.  Both bypass the retry ladder: the compile is
   the plain cold one and raises (under [protect]) exactly when it would
   without them. *)
let pp_delta ppf (d : Msched.Compile.delta_result) =
  match d.Msched.Compile.delta_diff with
  | Some diff -> Format.fprintf ppf "delta:    %a@." Delta_diff.pp diff
  | None ->
      Format.fprintf ppf
        "delta:    no diff (foreign manifest: options or block count \
         differ)@."

let read_delta_manifest path =
  match
    Delta_manifest.of_json_string
      (In_channel.with_open_bin path In_channel.input_all)
  with
  | Ok m -> m
  | Error msg ->
      Format.eprintf "%s: %a@." path Diag.pp
        (Diag.error Diag.E_CACHE "not a delta manifest: %s" msg);
      exit (Diag.exit_code Diag.E_CACHE)

let compile_delta_cmd ~options ~ppf ~pins ~delta_base ~emit_manifest nl =
  let manifest =
    match delta_base with
    | Some mpath ->
        let base = read_delta_manifest mpath in
        let d = Msched.Compile.compile_delta ~options ~manifest:base nl in
        pp_compiled ppf pins d.Msched.Compile.delta_compiled;
        pp_delta ppf d;
        d.Msched.Compile.delta_manifest
    | None ->
        let b = Msched.Compile.compile_base ~options nl in
        pp_compiled ppf pins b.Msched.Compile.base_compiled;
        Format.fprintf ppf "delta:    base manifest: %d blocks@."
          b.Msched.Compile.base_manifest.Delta_manifest.num_blocks;
        b.Msched.Compile.base_manifest
  in
  match emit_manifest with
  | None -> ()
  | Some p ->
      Obs_export.write_file p (Delta_manifest.to_json_string manifest ^ "\n")

let compile_cmd path pins weight mode forward retries fallback_hard cold
    max_extra trace diag_json delta_base emit_manifest =
  protect @@ fun () ->
  let nl = netlist_of_design_arg path in
  let obs = sink_of_trace trace in
  let ropts = route_options_of mode in
  let ropts =
    match max_extra with
    | None -> ropts
    | Some n -> { ropts with Tiers.max_extra_slots = n }
  in
  (* With --trace - or --diag-json -, that stream owns stdout; move the
     human-readable summary to stderr. *)
  let ppf =
    if trace = Some "-" || diag_json = Some "-" then Format.err_formatter
    else Format.std_formatter
  in
  if forward then begin
    (* The forward scheduler has no retry ladder; it stays on the fail-fast
       path (under [protect], so failures still exit with their class). *)
    let prepared =
      Msched.Compile.prepare ~options:(options_of ~obs pins weight) nl
    in
    let sched = Msched.Compile.route_forward ~obs prepared ropts in
    pp_compiled ppf pins
      { Msched.Compile.prepared; Msched.Compile.schedule = sched };
    write_trace trace obs
  end
  else if delta_base <> None || emit_manifest <> None then begin
    let options =
      {
        (options_of ~obs pins weight) with
        Msched.Compile.route = ropts;
      }
    in
    compile_delta_cmd ~options ~ppf ~pins ~delta_base ~emit_manifest nl;
    write_trace trace obs
  end
  else begin
    let options =
      {
        (options_of ~obs pins weight) with
        Msched.Compile.route = ropts;
      }
    in
    let r =
      Msched.Compile.compile_resilient ~options ~max_retries:retries
        ~fallback_hard ~reuse:(not cold) nl
    in
    print_diags path r.Msched.Compile.diagnostics;
    (match r.Msched.Compile.compiled with
    | Some c -> pp_compiled ppf pins c
    | None -> ());
    if retries > 0 || fallback_hard || r.Msched.Compile.compiled = None then
      Format.fprintf ppf "%a@." Msched.Compile.pp_resilient r;
    (match diag_json with
    | None -> ()
    | Some p ->
        Obs_export.write_file p (Msched.Compile.resilient_to_json r ^ "\n"));
    write_trace trace obs;
    let code = Msched.Compile.resilient_exit_code r in
    if code <> 0 then exit code
  end

let lint_cmd path diag_json =
  protect @@ fun () ->
  let text = In_channel.with_open_bin path In_channel.input_all in
  let diags =
    match Serial.of_string_diag text with
    | Error diags -> diags
    | Ok nl -> Lint.check nl
  in
  print_diags path diags;
  let rep = report_of diags in
  Format.eprintf "%d error(s), %d warning(s)@."
    (List.length (Diag.Report.errors rep))
    (List.length (Diag.Report.warnings rep));
  (match diag_json with
  | None -> ()
  | Some p -> Obs_export.write_file p (Diag.Report.to_json rep ^ "\n"));
  if Diag.Report.has_errors rep then exit (Diag.Report.exit_code rep)

(* The machine-readable side of [check]: verifier verdict plus the
   schedule-quality numbers a dashboard wants next to it (utilization and
   the critical path). *)
let check_json ~design ~mode ~route prepared sched
    (report : Msched_check.Verify.report) =
  let module J = Diag.Json in
  let sys = prepared.Msched.Compile.system in
  let chain = Msched_explain.Explain.critical_chain ~route prepared sched in
  let b = Buffer.create 1024 in
  let first = ref true in
  Buffer.add_char b '{';
  J.field b ~first "schema" (J.string "msched-check-1");
  J.field b ~first "design" (J.string design);
  J.field b ~first "mode" (J.string mode);
  J.field b ~first "clean"
    (string_of_bool (Msched_check.Verify.is_clean report));
  J.field b ~first "violations"
    (string_of_int (List.length report.Msched_check.Verify.violations));
  let kinds =
    List.sort_uniq compare
      (List.map Msched_check.Verify.kind_name
         report.Msched_check.Verify.violations)
  in
  let kb = Buffer.create 128 in
  let kf = ref true in
  Buffer.add_char kb '{';
  List.iter
    (fun k ->
      J.field kb ~first:kf k
        (string_of_int (Msched_check.Verify.count_kind report k)))
    kinds;
  Buffer.add_char kb '}';
  J.field b ~first "kinds" (Buffer.contents kb);
  let sb = Buffer.create 256 in
  let sf = ref true in
  Buffer.add_char sb '{';
  J.field sb ~first:sf "length" (string_of_int sched.Schedule.length);
  J.field sb ~first:sf "driver" (J.string sched.Schedule.length_driver);
  J.field sb ~first:sf "est_speed_hz"
    (Printf.sprintf "%.6g" (Schedule.est_speed_hz sched));
  J.field sb ~first:sf "channel_utilization"
    (Printf.sprintf "%.6g" (Schedule.channel_utilization sched sys));
  J.field sb ~first:sf "per_channel_utilization"
    ("["
    ^ String.concat ","
        (Array.to_list
           (Array.map (Printf.sprintf "%.6g")
              (Schedule.per_channel_utilization sched sys)))
    ^ "]");
  Buffer.add_char sb '}';
  J.field b ~first "schedule" (Buffer.contents sb);
  let cb = Buffer.create 128 in
  let cf = ref true in
  Buffer.add_char cb '{';
  J.field cb ~first:cf "exact"
    (string_of_bool chain.Msched_explain.Explain.ch_exact);
  J.field cb ~first:cf "driver"
    (J.string chain.Msched_explain.Explain.ch_driver);
  J.field cb ~first:cf "hops"
    (string_of_int (List.length chain.Msched_explain.Explain.ch_hops));
  J.field cb ~first:cf "span_from" "0";
  J.field cb ~first:cf "span_to"
    (string_of_int chain.Msched_explain.Explain.ch_length);
  Buffer.add_char cb '}';
  J.field b ~first "critical_path" (Buffer.contents cb);
  Buffer.add_char b '}';
  Buffer.contents b

let check_cmd path pins weight mode forward trace json =
  protect @@ fun () ->
  let nl = netlist_of_design_arg path in
  let obs = sink_of_trace trace in
  let prepared =
    Msched.Compile.prepare ~options:(options_of ~obs pins weight) nl
  in
  let ropts = route_options_of mode in
  let sched =
    if forward then Msched.Compile.route_forward ~obs prepared ropts
    else Msched.Compile.route ~obs prepared ropts
  in
  let report = Msched.Compile.verify_schedule ~obs prepared sched in
  (* Diagnostics on stderr: stdout stays free for --trace - / JSON piping. *)
  Format.eprintf "%a@.%a@." Schedule.pp_summary sched
    Msched_check.Verify.pp_report report;
  List.iter
    (fun w -> Format.eprintf "scheduler warning: %s@." w)
    sched.Schedule.warnings;
  (match json with
  | None -> ()
  | Some p ->
      Obs_export.write_file p
        (check_json ~design:path ~mode ~route:ropts prepared sched report
        ^ "\n"));
  write_trace trace obs;
  if not (Msched_check.Verify.is_clean report) then exit 2

let explain_cmd name pins weight mode scale json trace =
  protect @@ fun () ->
  let nl = netlist_of_design_arg ~scale name in
  (* Always record spans: the report's phase-attribution table needs them.
     (The library itself stays deterministic — tests analyze with a null
     sink.) *)
  let obs = Sink.create () in
  let prepared =
    Msched.Compile.prepare ~options:(options_of ~obs pins weight) nl
  in
  let ropts = route_options_of mode in
  let sched = Msched.Compile.route ~obs prepared ropts in
  let report =
    Msched_explain.Explain.analyze ~route:ropts ~obs ~design:name prepared
      sched
  in
  let ppf =
    if json = Some "-" || trace = Some "-" then Format.err_formatter
    else Format.std_formatter
  in
  Format.fprintf ppf "%a@." Msched_explain.Explain.pp_summary report;
  (match json with
  | None -> ()
  | Some p ->
      Obs_export.write_file p (Msched_explain.Explain.to_json report ^ "\n"));
  match trace with
  | None -> ()
  | Some p ->
      Obs_export.write_file p (Msched_explain.Explain.perfetto_string report)

let stats_cmd path =
  protect @@ fun () ->
  let nl = read_netlist path in
  Format.printf "%a@.%a@." Netlist.pp_summary nl Stats.pp (Stats.compute nl)

let dot_cmd path partition weight =
  protect @@ fun () ->
  let nl = read_netlist path in
  if partition then begin
    let part = Partition.make nl ~max_weight:weight () in
    let cluster c = Some (Ids.Block.to_int (Partition.block_of_cell part c)) in
    Format.printf "%a@." (Dot.output ~cluster) nl
  end
  else Format.printf "%a@." (Dot.output ?cluster:None) nl

let simulate_cmd path horizon seed pins weight trace diag_json =
  (* Simulation-fidelity failures flow through the same structured
     diagnostics as the static pipeline: any exception becomes its diag
     (written to --diag-json before exiting with its class), and an
     imperfect run exits with the verification class carrying
     [Fidelity.diags_of_report]. *)
  let emit diags =
    match diag_json with
    | None -> ()
    | Some p ->
        Obs_export.write_file p (Diag.Report.to_json (report_of diags) ^ "\n")
  in
  protect @@ fun () ->
  try
    let nl = read_netlist path in
    let obs = sink_of_trace trace in
    let prepared =
      Msched.Compile.prepare ~options:(options_of ~obs pins weight) nl
    in
    let sched = Msched.Compile.route ~obs prepared Tiers.default_options in
    let clocks =
      Async_gen.clocks ~seed (Netlist.domains prepared.Msched.Compile.netlist)
    in
    let report =
      Fidelity.compare_run prepared.Msched.Compile.placement sched ~clocks
        ~horizon_ps:horizon ~seed ~obs ()
    in
    let ppf =
      if trace = Some "-" || diag_json = Some "-" then Format.err_formatter
      else Format.std_formatter
    in
    Format.fprintf ppf "%a@.fidelity: %a@." Schedule.pp_summary sched
      Fidelity.pp_report report;
    let diags = Fidelity.diags_of_report report in
    print_diags path diags;
    emit diags;
    write_trace trace obs;
    if not (Fidelity.perfect report) then
      exit (Diag.Report.exit_code (report_of diags))
  with e ->
    (* [exit] terminates before reaching here, so this catches genuine
       failures only: classify, persist, exit with the class. *)
    let d = Msched.Compile.diag_of_exn e in
    emit [ d ];
    Format.eprintf "%s: %a@." path Diag.pp d;
    exit (Diag.exit_code d.Diag.code)

let profile_cmd name pins weight scale trace json =
  protect @@ fun () ->
  let nl = netlist_of_design_arg ~scale name in
  let obs = Sink.create () in
  let prepared =
    Msched.Compile.prepare ~options:(options_of ~obs pins weight) nl
  in
  let tiers = Msched.Compile.route ~obs prepared Tiers.default_options in
  let forward =
    Msched.Compile.route_forward ~obs prepared Tiers.default_options
  in
  ignore (Msched.Compile.verify_schedule ~obs prepared tiers);
  ignore (Msched.Compile.verify_schedule ~obs prepared forward);
  let ppf =
    if trace = Some "-" || json = Some "-" then Format.err_formatter
    else Format.std_formatter
  in
  Format.fprintf ppf "%a@." Obs_export.pp_summary obs;
  write_trace trace obs;
  match json with
  | None -> ()
  | Some path -> Obs_export.write_file path (Obs_export.json_string obs)

let vcd_cmd path horizon seed =
  protect @@ fun () ->
  let nl = read_netlist path in
  let sim = Msched_sim.Ref_sim.create nl (Msched_sim.Stimulus.make ~seed nl) in
  let clocks = Async_gen.clocks ~seed (Netlist.domains nl) in
  let edges = Msched_clocking.Edges.stream clocks ~horizon_ps:horizon in
  Msched_sim.Vcd.trace_run sim ~edges Format.std_formatter

(* ---- Batch server front end (see docs/SERVER.md). ---- *)

let server_settings pins weight mode retries fallback_hard cold max_extra
    cache_dir obs_jobs =
  let ropts = route_options_of mode in
  let ropts =
    match max_extra with
    | None -> ropts
    | Some n -> { ropts with Tiers.max_extra_slots = n }
  in
  {
    Server.s_options =
      {
        (options_of pins weight) with
        Msched.Compile.route = ropts;
      };
    s_max_retries = retries;
    s_fallback_hard = fallback_hard;
    s_reuse = not cold;
    s_cache_dir = cache_dir;
    s_obs_jobs = obs_jobs;
  }

let batch_cmd source jobs cache_dir out pins weight mode retries
    fallback_hard cold max_extra trace json =
  protect @@ fun () ->
  Option.iter Cache.ensure_dir cache_dir;
  let settings =
    server_settings pins weight mode retries fallback_hard cold max_extra
      cache_dir
      (trace <> None || json <> None)
  in
  match Manifest.load source with
  | Error diags ->
      print_diags source diags;
      exit (Diag.Report.exit_code (report_of diags))
  | Ok entries ->
      let job_list =
        List.mapi
          (fun index e ->
            match Server.job_of_file ~index e.Manifest.e_path with
            | Ok job -> job
            | Error d ->
                Format.eprintf "%s: %a@." e.Manifest.e_path Diag.pp d;
                exit (Diag.exit_code d.Diag.code))
          entries
      in
      let batch = Server.run_batch ~jobs settings job_list in
      Obs_export.write_file out (Server.to_ndjson batch);
      (* Human summary on stderr; stdout may be carrying the NDJSON. *)
      Format.eprintf "%s@." (Server.summary_json batch);
      (match (trace, json) with
      | None, None -> ()
      | _ ->
          let obs = Sink.create () in
          Server.record_obs obs batch;
          write_trace trace obs;
          (match json with
          | None -> ()
          | Some path -> Obs_export.write_file path (Obs_export.json_string obs)));
      let code = Server.exit_code batch in
      if code <> 0 then exit code

let serve_cmd use_stdin socket tcp workers queue_max overload deadline grace
    cache_max_bytes inject cache_dir pins weight mode retries fallback_hard
    cold max_extra =
  protect @@ fun () ->
  let settings =
    server_settings pins weight mode retries fallback_hard cold max_extra
      cache_dir false
  in
  let address =
    match (socket, tcp) with
    | Some _, Some _ ->
        Printf.eprintf "serve: --socket and --tcp are mutually exclusive\n";
        exit 1
    | Some path, None -> Transport.Unix_path path
    | None, Some hostport -> (
        match Transport.parse_address ("tcp:" ^ hostport) with
        | Ok a -> a
        | Error msg ->
            Printf.eprintf "serve: %s\n" msg;
            exit 1)
    | None, None ->
        if not use_stdin then begin
          Printf.eprintf
            "serve: pass --stdin, --socket PATH, or --tcp HOST:PORT\n";
          exit 1
        end;
        (* One session over stdin/stdout; its EOF drains the server. *)
        Transport.Stdio (Unix.stdin, Unix.stdout)
  in
  let overload =
    match overload with
    | "shed" -> Dispatch.Shed
    | "block" -> Dispatch.Block
    | other ->
        Printf.eprintf "serve: unknown --overload %S (shed|block)\n" other;
        exit 1
  in
  let cfg =
    {
      Transport.default_config with
      Transport.t_address = address;
      t_dispatch =
        {
          Dispatch.d_workers = workers;
          d_queue_max = queue_max;
          d_overload = overload;
          d_deadline_s = deadline;
          d_grace_s = grace;
        };
      t_settings = settings;
      t_inject_faults = inject;
      t_cache_max_bytes = cache_max_bytes;
    }
  in
  let srv = Transport.start cfg in
  (* First SIGTERM/SIGINT drains gracefully; a second one escalates to
     abort (queued requests shed, hung workers abandoned). *)
  let hits = ref 0 in
  let on_signal _ =
    incr hits;
    Transport.request_shutdown srv (if !hits >= 2 then `Abort else `Drain)
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Printf.eprintf "msched serve: listening on %s (%d workers, queue %d, %s)\n%!"
    (Transport.address_name (Transport.bound_address srv))
    (max 1 workers) queue_max
    (Dispatch.overload_name overload);
  let s = Transport.wait srv in
  print_endline (Transport.summary_json s);
  if not s.Transport.sm_clean then exit 1

(* ---- Cache hygiene front end (`msched cache stats|gc`). ---- *)

let cache_stats_cmd dir =
  protect @@ fun () ->
  let s = Cache.stats ~dir in
  Printf.printf
    "{\"schema\":\"msched-cache-stats-1\",\"dir\":%s,\"entries\":%d,\"results\":%d,\"manifests\":%d,\"blocks\":%d,\"bytes\":%d,\"oldest_s\":%.3f}\n"
    (Diag.Json.string dir) s.Cache.st_entries s.Cache.st_results
    s.Cache.st_manifests s.Cache.st_blocks s.Cache.st_bytes
    s.Cache.st_oldest_s

let cache_gc_cmd dir max_bytes =
  protect @@ fun () ->
  let r = Cache.gc ~dir ~max_bytes in
  Printf.printf
    "{\"schema\":\"msched-cache-gc-1\",\"dir\":%s,\"max_bytes\":%d,\"scanned\":%d,\"evicted\":%d,\"orphans\":%d,\"bytes_before\":%d,\"bytes_after\":%d}\n"
    (Diag.Json.string dir) max_bytes r.Cache.gc_scanned r.Cache.gc_evicted
    r.Cache.gc_orphans r.Cache.gc_bytes_before r.Cache.gc_bytes_after

(* ---- Incremental-compile front end (`msched delta diff`). ---- *)

let delta_diff_cmd base edited pins weight json =
  protect @@ fun () ->
  let options = options_of pins weight in
  let b = Msched.Compile.compile_base ~options (netlist_of_design_arg base) in
  let prepared =
    Msched.Compile.prepare ~options (netlist_of_design_arg edited)
  in
  let ppf =
    if json = Some "-" then Format.err_formatter else Format.std_formatter
  in
  match
    Delta_diff.compute ~manifest:b.Msched.Compile.base_manifest
      prepared.Msched.Compile.placement
      ~analysis:prepared.Msched.Compile.analysis
  with
  | None ->
      Format.fprintf ppf
        "delta diff: block counts differ — topology changed, nothing is \
         comparable@.";
      (match json with
      | None -> ()
      | Some p ->
          Obs_export.write_file p
            "{\"schema\":\"msched-delta-diff-1\",\"comparable\":false}\n")
  | Some diff ->
      Format.fprintf ppf "%a@." Delta_diff.pp diff;
      (match json with
      | None -> ()
      | Some p ->
          Obs_export.write_file p (Delta_diff.to_json_string diff ^ "\n"))

let gen_cmd name scale =
  protect @@ fun () ->
  let design =
    match name with
    | "design1" -> Design_gen.design1_like ~scale ()
    | "design2" -> Design_gen.design2_like ~scale ()
    | spec -> design_of_spec spec
  in
  print_string (Serial.to_string design.Design_gen.netlist)

open Cmdliner

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DESIGN" ~doc:"Netlist file")

let design_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DESIGN"
        ~doc:
          (Printf.sprintf "Netlist file, or generator spec: %s"
             Design_gen.spec_help))

(* An integer flag with a lower bound: a value below it is a usage error
   (exit 1), refused before any compile could fail on it under another
   exit class. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= lo -> Ok n
    | Ok _ | Error _ ->
        Error
          (`Msg
            (Printf.sprintf "invalid value '%s', expected an integer >= %d" s
               lo))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let pins_arg =
  Arg.(
    value
    & opt (int_at_least 1) 240
    & info [ "pins" ] ~docv:"N" ~doc:"Pins per FPGA")
let weight_arg = Arg.(value & opt int 64 & info [ "weight" ] ~doc:"Block capacity")
let mode_arg = Arg.(value & opt string "virtual" & info [ "mode" ] ~doc:"virtual|hard|naive")
let forward_arg = Arg.(value & flag & info [ "forward" ] ~doc:"Forward scheduler")
let horizon_arg = Arg.(value & opt int 300_000 & info [ "horizon" ] ~doc:"Sim horizon (ps)")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Stimulus/clock seed")
let partition_arg = Arg.(value & flag & info [ "partition" ] ~doc:"Cluster by partition block")
let scale_arg = Arg.(value & opt float 0.1 & info [ "scale" ] ~doc:"Generator scale")

let retries_arg =
  Arg.(
    value & opt (int_at_least 0) 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry budget for the resilient driver: on failure, relax the \
           slack budget, then rip-up & retry with perturbed seeds")

let fallback_hard_arg =
  Arg.(
    value & flag
    & info [ "fallback-hard" ]
        ~doc:
          "If all (re)tries fail, fall back from virtual MTS routing to \
           dedicated hard wires (correct but slower)")

let cold_arg =
  Arg.(
    value & flag
    & info [ "cold" ]
        ~doc:
          "Disable warm rerouting between retry rungs: every attempt \
           re-searches all transports from scratch instead of replaying \
           the previous attempt's routes (same outcome, attempt ladder, \
           routing mode and frequency; the schedule bytes may differ)")

let max_extra_arg =
  Arg.(
    value
    & opt (some (int_at_least 0)) None
    & info [ "max-extra" ] ~docv:"N"
        ~doc:"Congestion slack budget per transport (overrides the mode default)")

let diag_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "diag-json" ] ~docv:"FILE"
        ~doc:"Write the structured diagnostic/driver JSON (\"-\" = stdout)")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace-event JSON of the run (\"-\" = stdout)")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the observability JSON document (\"-\" = stdout)")

let check_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write the msched-check-1 verdict JSON (verifier counts, schedule \
           quality, channel utilization, critical path; \"-\" = stdout)")

let name_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SPEC"
        ~doc:
          (Printf.sprintf "Generator spec: %s" Design_gen.spec_help))

let source_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"MANIFEST|DIR"
        ~doc:
          "Batch source: a directory (every *.mnl underneath, recursively, \
           sorted) or a manifest file (one design path or {\"path\": ...} \
           NDJSON object per line, # comments)")

let jobs_arg =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains compiling designs concurrently (default: the \
           recommended domain count; output is byte-identical for any N, \
           apart from which records read \"cache\":\"warm\" under \
           --cache-dir)")

let cache_dir_arg ~doc =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let batch_cache_dir_arg =
  cache_dir_arg
    ~doc:
      "Result cache (created if missing): a design whose text and \
       settings match an earlier exit-0 compile byte for byte is answered \
       from its stored record (\"cache\":\"warm\"); others compile and \
       store (\"cold\"); a corrupt entry compiles with an E_CACHE warning \
       (\"corrupt\").  Records otherwise equal the uncached ones"

let serve_cache_dir_arg =
  cache_dir_arg
    ~doc:
      "Cache directory (created if missing).  Compile requests use it as \
       a result cache: a byte-exact repeat of an earlier exit-0 request \
       under the same settings is answered from its stored record \
       (\"cache\":\"warm\"), anything else compiles and stores \
       (\"cold\").  {\"op\":\"delta\"} requests store each design's \
       manifest here and diff the next edit against it.  Corrupt entries \
       compile cold with an E_CACHE warning"

let out_arg =
  Arg.(
    value & opt string "-"
    & info [ "out" ] ~docv:"FILE"
        ~doc:"NDJSON results: one msched-batch-1 record per design plus a \
              msched-batch-summary-1 line (\"-\" = stdout)")

let stdin_flag_arg =
  Arg.(
    value & flag
    & info [ "stdin" ]
        ~doc:
          "Serve one session over standard input and output: the socket \
           request grammar (docs/SERVER.md), one response line per request; \
           at EOF the connection and server summary lines, then exit")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix-domain socket: framed NDJSON requests, one \
           response line per request (protocol in docs/SERVER.md)")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:
          "Listen on a TCP socket (empty host = 127.0.0.1; port 0 picks a \
           free port, printed on stderr)")

let workers_arg =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker domains compiling requests concurrently")

let queue_max_arg =
  Arg.(
    value & opt int 64
    & info [ "queue-max" ] ~docv:"N"
        ~doc:
          "Bound on queued (admitted but not yet running) requests; beyond \
           it the --overload policy applies")

let overload_arg =
  Arg.(
    value & opt string "shed"
    & info [ "overload" ] ~docv:"shed|block"
        ~doc:
          "Full-queue policy: $(b,shed) answers E_OVERLOAD immediately, \
           $(b,block) makes the request wait for space (still subject to \
           its deadline)")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Default per-request deadline: expired requests are answered \
           E_TIMEOUT (cancelled if still queued, abandoned if running); a \
           request's own \"deadline_s\" overrides this")

let grace_arg =
  Arg.(
    value & opt float 1.0
    & info [ "grace" ] ~docv:"SECONDS"
        ~doc:
          "How long an abandoned (timed-out) job may keep its worker before \
           the worker is written off and replaced")

let cache_max_bytes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-max-bytes" ] ~docv:"BYTES"
        ~doc:
          "Cap the --cache-dir entries (results and manifests): a \
           janitor evicts least-recently-used entries past the cap while \
           the server runs")

let inject_faults_arg =
  Arg.(
    value & flag
    & info [ "inject-faults" ]
        ~doc:
          "Accept poison:sleep=N | poison:hang | poison:crash requests \
           (chaos testing); without this flag they are refused with \
           E_UNSUPPORTED")

let cache_positional_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Cache directory (as passed to --cache-dir)")

let gc_max_bytes_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "max-bytes" ] ~docv:"BYTES"
        ~doc:"Evict least-recently-used entries until the cache fits")

let delta_base_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "delta-base" ] ~docv:"MANIFEST"
        ~doc:
          "Edit loop: compile cold, then diff the design's blocks against \
           a previous compile's --emit-manifest JSON and print which blocks \
           the edit dirtied (the schedule is the cold one; see \
           docs/DELTA.md)")

let emit_manifest_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-manifest" ] ~docv:"FILE"
        ~doc:
          "Write this compile's delta manifest (options and design \
           fingerprints, placement, block fingerprints and boundary \
           signatures; \"-\" = stdout) — the base for a later \
           --delta-base run")

let delta_base_design_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BASE" ~doc:"Base design: netlist file or generator spec")

let delta_edited_design_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"EDITED"
        ~doc:"Edited design: netlist file or generator spec")

let delta_cmd =
  Cmd.group
    (Cmd.info "delta"
       ~doc:
         "Incremental-compilation tools: inspect what an edit dirties \
          before paying for the compile (docs/DELTA.md)")
    [
      Cmd.v
        (Cmd.info "diff"
           ~doc:
             "Compile BASE, prepare EDITED, and report the block-level \
              diff — clean/dirty fingerprints, moved blocks, changed \
              boundary nets and the dirty cone (--json = \
              msched-delta-diff-1 line)")
        Term.(
          const delta_diff_cmd $ delta_base_design_arg
          $ delta_edited_design_arg $ pins_arg $ weight_arg $ json_arg);
    ]

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Cache maintenance: inspect or shrink a --cache-dir directory of \
          result entries and delta manifests (safe against a live server: \
          eviction runs under the cache lock and never removes in-use \
          entries, which loads keep fresh by touching their mtime)")
    [
      Cmd.v
        (Cmd.info "stats"
           ~doc:
             "Entry counts (all, results, manifests, leftover blocks), total \
              bytes and LRU age as one JSON line")
        Term.(const cache_stats_cmd $ cache_positional_dir_arg);
      Cmd.v
        (Cmd.info "gc"
           ~doc:
             "Evict least-recently-used entries until the directory fits \
              --max-bytes; prints a msched-cache-gc-1 JSON line")
        Term.(const cache_gc_cmd $ cache_positional_dir_arg $ gc_max_bytes_arg);
    ]

let cmds =
  [
    Cmd.v (Cmd.info "compile" ~doc:"Compile a netlist and print the schedule")
      Term.(
        const compile_cmd $ design_arg $ pins_arg $ weight_arg $ mode_arg
        $ forward_arg $ retries_arg $ fallback_hard_arg $ cold_arg
        $ max_extra_arg $ trace_arg $ diag_json_arg $ delta_base_arg
        $ emit_manifest_arg);
    Cmd.v
      (Cmd.info "lint"
         ~doc:
           "Parse and lint a netlist: one diagnostic per parse error, \
            undriven input, combinational cycle and unknown domain, and one \
            warning for all dangling nets (their count and the first eight)")
      Term.(const lint_cmd $ path_arg $ diag_json_arg);
    Cmd.v
      (Cmd.info "check"
         ~doc:"Compile a netlist and statically verify the schedule")
      Term.(
        const check_cmd $ design_arg $ pins_arg $ weight_arg $ mode_arg
        $ forward_arg $ trace_arg $ check_json_arg);
    Cmd.v
      (Cmd.info "explain"
         ~doc:
           "Compile a design and explain the schedule: the critical chain \
            whose slot span equals the frame length, per-channel occupancy \
            analytics, and an Amdahl-style compile-phase attribution \
            (--json = msched-explain-1 document, --trace = Perfetto \
            occupancy counter tracks)")
      Term.(
        const explain_cmd $ design_arg $ pins_arg $ weight_arg $ mode_arg
        $ scale_arg $ json_arg $ trace_arg);
    Cmd.v (Cmd.info "stats" ~doc:"Netlist statistics")
      Term.(const stats_cmd $ path_arg);
    Cmd.v (Cmd.info "dot" ~doc:"Graphviz DOT export")
      Term.(const dot_cmd $ path_arg $ partition_arg $ weight_arg);
    Cmd.v (Cmd.info "simulate" ~doc:"Compile and co-simulate against the golden model")
      Term.(
        const simulate_cmd $ path_arg $ horizon_arg $ seed_arg $ pins_arg
        $ weight_arg $ trace_arg $ diag_json_arg);
    Cmd.v
      (Cmd.info "profile"
         ~doc:
           "Run the full pipeline (prepare, both schedulers, verifier) with \
            an enabled observability sink and print the span/metric summary")
      Term.(
        const profile_cmd $ design_arg $ pins_arg $ weight_arg
        $ scale_arg $ trace_arg $ json_arg);
    Cmd.v (Cmd.info "vcd" ~doc:"Golden-simulate and dump a VCD waveform to stdout")
      Term.(const vcd_cmd $ path_arg $ horizon_arg $ seed_arg);
    Cmd.v (Cmd.info "gen" ~doc:"Emit a benchmark design in the text format")
      Term.(const gen_cmd $ name_arg $ scale_arg);
    Cmd.v
      (Cmd.info "batch"
         ~doc:
           "Compile a whole corpus concurrently on a Domain worker pool \
            and emit one NDJSON record per design (see docs/SERVER.md)")
      Term.(
        const batch_cmd $ source_arg $ jobs_arg $ batch_cache_dir_arg $ out_arg
        $ pins_arg $ weight_arg $ mode_arg $ retries_arg $ fallback_hard_arg
        $ cold_arg $ max_extra_arg $ trace_arg $ json_arg);
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Long-lived compile server: NDJSON requests over --stdin, a \
            --socket (Unix-domain) or --tcp listener; concurrent worker \
            domains, bounded queue with --overload backpressure, \
            per-request deadlines, crash recovery, graceful drain on \
            SIGTERM (twice = abort); see docs/SERVER.md")
      Term.(
        const serve_cmd $ stdin_flag_arg $ socket_arg $ tcp_arg $ workers_arg
        $ queue_max_arg $ overload_arg $ deadline_arg $ grace_arg
        $ cache_max_bytes_arg $ inject_faults_arg $ serve_cache_dir_arg $ pins_arg
        $ weight_arg $ mode_arg $ retries_arg $ fallback_hard_arg $ cold_arg
        $ max_extra_arg);
    delta_cmd;
    cache_cmd;
  ]

(* A command-line parse error is a usage error: exit 1, not cmdliner's
   124 (docs/ROBUSTNESS.md). *)
let () =
  let info =
    Cmd.info "msched" ~doc:"Multi-domain static-scheduling emulation compiler"
  in
  match Cmd.eval (Cmd.group info cmds) with
  | code when code = Cmd.Exit.cli_error -> exit 1
  | code -> exit code
