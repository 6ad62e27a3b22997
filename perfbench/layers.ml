(* The traced run: the workload's requests replayed in this process, calling
   each layer's public functions in the order the server calls them, with
   a benchmark span around each call.  The compile options carry an enabled
   sink, so the compiler's own phase spans nest under those spans.  Each
   request is replayed twice, untraced and traced, into separate cache
   directories; the untraced replay gives service times and allocation, the
   traced one the span tree, and their ratio the tracing overhead. *)

module Compile = Msched.Compile
module Server = Msched_server.Server
module Cache = Msched_server.Cache
module Schedule = Msched_route.Schedule
module Reroute = Msched_route.Reroute
module Serial = Msched_netlist.Serial
module Netlist = Msched_netlist.Netlist
module Design_gen = Msched_gen.Design_gen
module Edit = Msched_delta.Edit
module Diff = Msched_delta.Diff
module Sink = Msched_obs.Sink
module Diag = Msched_diag.Diag

let now = Unix.gettimeofday

(* ---- One request, as the server runs it ---- *)

type replay = {
  wall_s : float;
  minor_mw : float;
  major_mw : float;
  sink : Sink.t;  (** The request's own sink ({!Sink.null} untraced). *)
  cache_hit : bool option;  (** Reroute-cache load outcome, when one was made. *)
  stored_kb : float option;  (** Bytes written by the cache store. *)
  resilient : Compile.resilient option;
  delta : Compile.delta_result option;
  base_manifest : Msched_delta.Manifest.t option;
  key : string;  (** Delta: this design's manifest key. *)
}

let file_kb path = try float_of_int (Unix.stat path).Unix.st_size /. 1024.0 with Unix.Unix_error _ -> 0.0

let manifest_kb ~dir ~key =
  let prefix = "block-" ^ key ^ "-" in
  Array.fold_left
    (fun acc f ->
      if String.length f > String.length prefix
         && String.sub f 0 (String.length prefix) = prefix
      then acc +. file_kb (Filename.concat dir f)
      else acc)
    (file_kb (Cache.manifest_file ~dir ~key))
    (Sys.readdir dir)

(* Server.make_ctx + run_job + record_json. *)
let serve_compile ~obs (s : Server.settings) text =
  let span name f = Sink.span obs name f in
  let options = { s.Server.s_options with Compile.obs } in
  let report = Diag.Report.create () in
  let hit = ref None and stored = ref None in
  let resilient =
    span "request" @@ fun () ->
    let key, cache, reroute =
      match s.Server.s_cache_dir with
      | None -> ("", Server.Cache_off, Reroute.create ())
      | Some dir -> (
          let key = span "cache.key" (fun () -> Cache.key ~text ~options) in
          match span "cache.load" (fun () -> Cache.load ~dir ~key) with
          | Cache.Hit ctx ->
              hit := Some true;
              (key, Server.Cache_warm, ctx)
          | Cache.Miss ->
              hit := Some false;
              (key, Server.Cache_cold, Reroute.create ())
          | Cache.Corrupt d ->
              hit := Some false;
              Diag.Report.add report d;
              (key, Server.Cache_corrupt, Reroute.create ()))
    in
    let resilient, exit_code =
      match span "serial.parse" (fun () -> Serial.of_string_diag text) with
      | Error diags ->
          Diag.Report.add_list report diags;
          (None, Diag.Report.exit_code report)
      | Ok nl ->
          let r =
            span "compile_resilient" (fun () ->
                Compile.compile_resilient ~options
                  ~max_retries:s.Server.s_max_retries
                  ~fallback_hard:s.Server.s_fallback_hard ~reuse:s.Server.s_reuse
                  ~reroute nl)
          in
          (match (s.Server.s_cache_dir, Compile.succeeded r) with
          | Some dir, true -> (
              match span "cache.store" (fun () -> Cache.store ~dir ~key reroute) with
              | Ok () -> stored := Some (Cache.file ~dir ~key)
              | Error d -> Diag.Report.add report d)
          | _ -> ());
          (Some r, Compile.resilient_exit_code r)
    in
    let result =
      {
        Server.r_job = Server.job_of_text ~index:0 ~path:"<inline>" text;
        r_key = key;
        r_cache = cache;
        r_resilient = resilient;
        r_diags = Diag.Report.to_list report;
        r_exit = exit_code;
        r_queue_s = 0.0;
        r_wall_s = 0.0;
        r_counters = [];
      }
    in
    ignore (span "emit" (fun () -> Server.record_json result));
    resilient
  in
  (resilient, !hit, !stored)

let outcome_of (d : Compile.delta_result option) manifest sched =
  let diff f = match d with Some { Compile.delta_diff = Some x; _ } -> f x | _ -> 0 in
  let get f z = match d with Some d -> f d | None -> z in
  {
    Server.do_blocks_clean = diff Diff.clean_count;
    do_blocks_dirty = diff Diff.dirty_count;
    do_cone = diff Diff.cone_size;
    do_reused = get (fun d -> d.Compile.delta_reused) 0;
    do_ripped = get (fun d -> d.Compile.delta_ripped) 0;
    do_fresh =
      get (fun d -> d.Compile.delta_fresh)
        (List.length manifest.Msched_delta.Manifest.entries);
    do_expansions = get (fun d -> d.Compile.delta_expansions) 0;
    do_reuse_fraction = get Compile.delta_reuse_fraction 0.0;
    do_cold_fallback = get (fun d -> d.Compile.delta_diff = None) false;
    do_schedule_fp = Cache.hash_hex (Schedule.to_json_string sched);
    do_length = sched.Schedule.length;
    do_est_speed_hz = Schedule.est_speed_hz sched;
  }

(* Server.run_delta + delta_record_json. *)
let serve_delta ~obs (s : Server.settings) ~base text =
  let span name f = Sink.span obs name f in
  let options = { s.Server.s_options with Compile.obs } in
  let dir = Option.get s.Server.s_cache_dir in
  span "request" @@ fun () ->
  let key = span "cache.key" (fun () -> Cache.key ~text ~options) in
  let base_status, manifest =
    match base with
    | None -> (Server.Base_none, None)
    | Some bkey -> (
        match span "cache.load_manifest" (fun () -> Cache.load_manifest ~dir ~key:bkey) with
        | Cache.M_miss -> (Server.Base_miss, None)
        | Cache.M_corrupt _ -> (Server.Base_corrupt, None)
        | Cache.M_hit (m, missing) -> (Server.Base_warm missing, Some m))
  in
  let nl =
    match span "serial.parse" (fun () -> Serial.of_string_diag text) with
    | Ok nl -> nl
    | Error _ -> failwith "delta replay: the edited text does not parse"
  in
  let compiled, manifest', delta =
    match manifest with
    | Some m ->
        let d = span "compile_delta" (fun () -> Compile.compile_delta ~options ~manifest:m nl) in
        (d.Compile.delta_compiled, d.Compile.delta_manifest, Some d)
    | None ->
        let b = span "compile_base" (fun () -> Compile.compile_base ~options nl) in
        (b.Compile.base_compiled, b.Compile.base_manifest, None)
  in
  (match span "cache.store_manifest" (fun () -> Cache.store_manifest ~dir ~key manifest') with
  | Ok () -> ()
  | Error d -> failwith (Format.asprintf "delta replay: %a" Diag.pp d));
  ignore
    (span "emit" (fun () ->
         Server.delta_record_json
           {
             Server.dr_request = { Server.dq_path = "<inline>"; dq_text = text; dq_base = base };
             dr_key = key;
             dr_base = base_status;
             dr_outcome = Some (outcome_of delta manifest' compiled.Compile.schedule);
             dr_diags = [];
             dr_exit = 0;
           }));
  (delta, manifest, key)

let replay ~obs (w : Workload.t) ~dir ~base text =
  let s =
    if w.Workload.cached then (Workload.with_cache_dir w dir).Workload.settings
    else w.Workload.settings
  in
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_words in
  let t0 = now () in
  let resilient, cache_hit, stored, delta, base_manifest, key =
    match w.Workload.kind with
    | Workload.Delta_edit ->
        let delta, base_manifest, key = serve_delta ~obs s ~base text in
        (None, None, None, delta, base_manifest, key)
    | Workload.Cold_compile | Workload.Serve_mix ->
        let resilient, cache_hit, stored = serve_compile ~obs s text in
        (resilient, cache_hit, stored, None, None, "")
  in
  let wall_s = now () -. t0 in
  {
    wall_s;
    minor_mw = (Gc.minor_words () -. minor0) /. 1e6;
    (* Promotions are counted at minor collections, so this lags by at
       most one minor heap; it is averaged over many requests. *)
    major_mw = ((Gc.quick_stat ()).Gc.major_words -. major0) /. 1e6;
    sink = obs;
    cache_hit;
    stored_kb =
      (if key <> "" then Some (manifest_kb ~dir ~key) else Option.map file_kb stored);
    resilient;
    delta;
    base_manifest;
    key;
  }

(* ---- Span arithmetic ---- *)

let ms_of_us us = float_of_int us /. 1000.0

(* Total duration (ms) of the spans called [name]. *)
let dur sink name =
  List.fold_left
    (fun acc sp -> if sp.Sink.sp_name = name then acc +. ms_of_us sp.Sink.sp_dur_us else acc)
    0.0 (Sink.spans sink)

let ran sink name = List.exists (fun sp -> sp.Sink.sp_name = name) (Sink.spans sink)

(* Self time per span name (ms): each span's duration minus that of its
   direct children, summed per name over every span of [sinks]. *)
let self_times sinks =
  let tbl = Hashtbl.create 64 in
  let add k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun sink ->
      let spans = Sink.spans sink in
      let child_us = Hashtbl.create 64 in
      List.iter
        (fun sp ->
          match sp.Sink.sp_parent with
          | Some p ->
              Hashtbl.replace child_us p
                (sp.Sink.sp_dur_us + Option.value ~default:0 (Hashtbl.find_opt child_us p))
          | None -> ())
        spans;
      List.iter
        (fun sp ->
          add sp.Sink.sp_name
            (ms_of_us (sp.Sink.sp_dur_us - Option.value ~default:0 (Hashtbl.find_opt child_us sp.Sink.sp_id))))
        spans)
    sinks;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort (fun (_, a) (_, b) -> compare b a)

(* ---- Metrics ---- *)

type metric = { name : string; value : float; unit : string; samples : int }

let m name unit samples value = { name; value; unit; samples }

let median_of name unit values =
  let a = Array.of_list values in
  m name unit (Array.length a) (if a = [||] then 0.0 else Stats.median a)

let mean_of name unit values =
  let a = Array.of_list values in
  m name unit (Array.length a) (if a = [||] then 0.0 else Stats.mean a)

let ratio_of name num den samples = m name "ratio" samples (Stats.ratio num den)

(* Per-request medians of a span's time, over the requests where it ran. *)
let span_ms reqs name metric =
  median_of metric "ms" (List.filter_map (fun r -> if ran r.sink name then Some (dur r.sink name) else None) reqs)

let counter r name = float_of_int (Sink.counter r.sink name)

(* ---- Phase pass: prepare / route / verify one at a time ---- *)

type phase_run = {
  prepare_s : float;
  route_s : float option;  (** [None]: the baseline attempt was unroutable. *)
  prepare_mw : float;
  route_mw : float;
  verify_mw : float option;
}

(* [Gc.minor_words] counts the live minor heap too; the [Gc.quick_stat]
   count only moves at minor collections. *)
let minor_mw f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  (r, now () -. t0, (Gc.minor_words () -. w0) /. 1e6)

let phases ?(jobs = 1) (options : Compile.options) text =
  let options = { options with Compile.compile_jobs = jobs; obs = Sink.null } in
  let nl = Serial.of_string_exn text in
  let p, prepare_s, prepare_mw = minor_mw (fun () -> Compile.prepare ~options nl) in
  let sched, route_s, route_mw =
    minor_mw (fun () ->
        try Some (Compile.route ~jobs p options.Compile.route)
        with Msched_route.Tiers.Unroutable _ -> None)
  in
  let verify_mw =
    Option.map
      (fun s ->
        let _, _, mw = minor_mw (fun () -> Compile.verify_schedule p s) in
        mw)
      sched
  in
  {
    prepare_s;
    route_s = Option.map (fun _ -> route_s) sched;
    prepare_mw;
    route_mw;
    verify_mw;
  }

(* Wall of prepare + route at parallel width 1 over width 2, alternating
   which width runs first. *)
let par_speedup options texts =
  let w1 = ref 0.0 and w2 = ref 0.0 in
  List.iteri
    (fun i text ->
      let wall jobs =
        let r = phases ~jobs options text in
        r.prepare_s +. Option.value ~default:0.0 r.route_s
      in
      if i mod 2 = 0 then begin
        w1 := !w1 +. wall 1;
        w2 := !w2 +. wall 2
      end
      else begin
        w2 := !w2 +. wall 2;
        w1 := !w1 +. wall 1
      end)
    (texts @ texts);
  Stats.ratio !w1 !w2

(* design1 at three sizes: self time of each phase against cell count.
   Each phase is a leaf span at parallel width 1; "ladder" is the whole
   compile. *)
let ladder_scales = [ 0.05; 0.1; 0.2 ]

let ladder_phases =
  [
    ("growth_exp.placement", "placement");
    ("growth_exp.tiers_reverse_pass", "tiers.reverse-pass");
    ("growth_exp.verify", "verify");
    ("growth_exp.latch_analysis", "latch-analysis");
    ("growth_exp.compile", "ladder");
  ]

let size_ladder ~global (options : Compile.options) ~seed =
  let points =
    List.map
      (fun scale ->
        let spec = Printf.sprintf "design1:scale=%g,seed=%d" scale seed in
        let nl = Serial.of_string_exn (Workload.text_of_spec spec) in
        let obs = Sink.fork global in
        let options = { options with Compile.obs } in
        Sink.span obs ~args:[ ("spec", spec) ] "ladder" (fun () ->
            let p = Compile.prepare ~options nl in
            match Compile.route ~obs p options.Compile.route with
            | s -> ignore (Compile.verify_schedule ~obs p s)
            | exception Msched_route.Tiers.Unroutable _ -> ());
        let durs = List.map (fun (_, span) -> (span, dur obs span)) ladder_phases in
        Sink.merge global obs;
        (float_of_int (Netlist.num_cells nl), durs))
      ladder_scales
  in
  List.map
    (fun (metric, span) ->
      m metric "exponent" (List.length points)
        (Stats.growth_exponent (List.map (fun (cells, durs) -> (cells, List.assoc span durs)) points)))
    ladder_phases

(* ---- The traced run ---- *)

type result = {
  metrics : metric list;
  not_run : (string * string) list;  (** Metric, why it reads 0 here. *)
  self_ms : (string * float) list;  (** Per span name, over traced requests. *)
  replayed : int;
  global : Sink.t;
}

type pair = {
  index : int;  (** Stream position. *)
  req : Workload.request;
  untraced : replay;
  traced : replay;
  diff_ms : float option;  (** Delta: the block diff, re-run and timed. *)
  cold_s : float option;  (** Delta: a cold compile of the same text. *)
}

(* Requests replayed per workload: enough for stable medians, few enough to
   keep a traced run within its time budget on a 2-core host. *)
let replay_count = function
  | Workload.Cold_compile -> 6
  | Workload.Serve_mix -> 100
  | Workload.Delta_edit -> 25

let run (w : Workload.t) ~work_dir ~(client_ms : (int * float) list) ~summary =
  let global = Sink.create () in
  let n = replay_count w.Workload.kind in
  let items = List.init n (Workload.get w.Workload.stream) in
  let dir_a = Filename.concat work_dir "replay-untraced"
  and dir_b = Filename.concat work_dir "replay-traced" in
  List.iter Cache.ensure_dir [ dir_a; dir_b ];
  (* Delta: seed both chains with the base compile, as set-up does. *)
  let base_key dir =
    match w.Workload.kind with
    | Workload.Delta_edit ->
        let text = (List.hd w.Workload.warmup).Workload.text in
        Some (replay ~obs:Sink.null w ~dir ~base:None text).key
    | Workload.Cold_compile | Workload.Serve_mix -> None
  in
  let base0_a = base_key dir_a and base0_b = base_key dir_b in
  let base_a = ref base0_a and base_b = ref base0_b in
  let pairs =
    List.mapi
      (fun i (req : Workload.request) ->
        if req.Workload.from_base then begin
          base_a := base0_a;
          base_b := base0_b
        end;
        let untraced () =
          let r = replay ~obs:Sink.null w ~dir:dir_a ~base:!base_a req.Workload.text in
          base_a := Some r.key;
          r
        in
        let traced () =
          let obs = Sink.fork global in
          let r = replay ~obs w ~dir:dir_b ~base:!base_b req.Workload.text in
          base_b := Some r.key;
          r
        in
        let untraced, traced =
          if i mod 2 = 0 then
            let a = untraced () in
            (a, traced ())
          else
            let b = traced () in
            (untraced (), b)
        in
        (* Measurements that would distort the request spans run after
           them: the block diff on the same inputs, and the cold compile of
           the same text that delta work is compared against. *)
        let diff_ms, cold_s =
          match (traced.delta, traced.base_manifest) with
          | Some d, Some manifest ->
              let p = d.Compile.delta_compiled.Compile.prepared in
              let t0 = now () in
              ignore
                (Sink.span traced.sink "delta.diff-rerun" (fun () ->
                     Diff.compute ~manifest p.Compile.placement ~analysis:p.Compile.analysis));
              let diff_ms = (now () -. t0) *. 1000.0 in
              let nl = Serial.of_string_exn req.Workload.text in
              let t1 = now () in
              ignore (Compile.compile ~options:w.Workload.settings.Server.s_options nl);
              (Some diff_ms, Some (now () -. t1))
          | _ -> (None, None)
        in
        Sink.merge global traced.sink;
        { index = i; req; untraced; traced; diff_ms; cold_s })
      items
  in
  let tr = List.map (fun p -> p.traced) pairs in
  let un = List.map (fun p -> p.untraced) pairs in
  let count = List.length tr in
  let sum f l = List.fold_left (fun acc r -> acc +. f r) 0.0 l in
  let total name = sum (fun r -> counter r name) tr in
  (* Serve overhead: client latency minus in-process service time. *)
  let overhead =
    List.filter_map
      (fun p ->
        Option.map (fun ms -> ms -. (p.untraced.wall_s *. 1000.0)) (List.assoc_opt p.index client_ms))
      pairs
  in
  let summary_num k =
    match Option.bind summary (fun l -> Result.to_option (Diag.Json.parse l)) with
    | Some doc -> Option.value ~default:0.0 (Option.bind (Diag.Json.mem k doc) Diag.Json.num)
    | None -> 0.0
  in
  (* Phase pass over the workload's first three distinct designs. *)
  let distinct =
    List.fold_left
      (fun acc (r : Workload.request) ->
        if List.length acc < 3 && not (List.mem r.Workload.text acc) then r.Workload.text :: acc else acc)
      [] items
  in
  let options = w.Workload.settings.Server.s_options in
  let phase_runs = List.map (phases options) distinct in
  let deltas = List.filter_map (fun r -> r.delta) tr in
  let kind_reuse k =
    mean_of
      ("delta.reuse_fraction." ^ Edit.kind_name k)
      "ratio"
      (List.filter_map
         (fun p ->
           match p.traced.delta with
           | Some d when p.req.Workload.edit = Some k -> Some (Compile.delta_reuse_fraction d)
           | _ -> None)
         pairs)
  in
  let dirty, blocks =
    List.fold_left
      (fun (dirty, blocks) d ->
        match d.Compile.delta_diff with
        | Some diff -> (dirty + Diff.dirty_count diff, blocks + Diff.dirty_count diff + Diff.clean_count diff)
        | None -> (dirty, blocks))
      (0, 0) deltas
  in
  let is_cold = w.Workload.kind = Workload.Cold_compile in
  let cold_texts = List.map (fun (r : Workload.request) -> r.Workload.text) w.Workload.warmup in
  let ladder = if is_cold then size_ladder ~global options ~seed:w.Workload.seed else [] in
  let par =
    if is_cold then [ m "par.speedup_2v1" "ratio" (2 * List.length cold_texts) (par_speedup options cold_texts) ]
    else []
  in
  let resilients = List.filter_map (fun r -> r.resilient) tr in
  let loads = List.filter_map (fun r -> r.cache_hit) tr in
  let metrics =
    [
      span_ms tr "serial.parse" "serial.parse_ms";
      span_ms tr "cache.key" "cache.key_ms";
      span_ms tr "domain-analysis" "prepare.domain_analysis_ms";
      span_ms tr "mts-transform" "prepare.mts_transform_ms";
      span_ms tr "partition" "prepare.partition_ms";
      span_ms tr "latch-analysis" "prepare.latch_analysis_ms";
      span_ms tr "placement" "placement.ms";
      mean_of "placement.moves_tried" "count/req" (List.map (fun r -> counter r "place.moves_tried") tr);
      ratio_of "placement.accept_ratio" (total "place.moves_accepted") (total "place.moves_tried") count;
      m "placement.us_per_move" "us" count
        (Stats.ratio (1000.0 *. sum (fun r -> dur r.sink "placement") tr) (total "place.moves_tried"));
      span_ms tr "tiers.reverse-pass" "tiers.reverse_pass_ms";
      median_of "tiers.other_ms" "ms"
        (List.filter_map
           (fun r -> if ran r.sink "tiers" then Some (dur r.sink "tiers" -. dur r.sink "tiers.reverse-pass") else None)
           tr);
      mean_of "pathfind.states_expanded" "count/req" (List.map (fun r -> counter r "pathfind.states_expanded") tr);
      m "pathfind.states_per_search" "states" count
        (Stats.ratio (total "pathfind.states_expanded") (total "pathfind.searches"));
      mean_of "pathfind.failures" "count/req" (List.map (fun r -> counter r "pathfind.failures") tr);
      mean_of "driver.attempts_per_req" "count/req"
        (List.map (fun r -> float_of_int (List.length r.Compile.attempts)) resilients);
      mean_of "driver.retry_frac" "ratio"
        (List.map (fun r -> if List.length r.Compile.attempts > 1 then 1.0 else 0.0) resilients);
      mean_of "driver.fallback_nets" "count/req" (List.map (fun r -> counter r "driver.fallback_nets") tr);
      ratio_of "reroute.reuse_ratio" (total "reroute.reused")
        (total "reroute.reused" +. total "reroute.ripped" +. total "reroute.fresh")
        count;
      span_ms tr "verify" "verify.ms";
      span_ms tr "emit" "emit.ms";
      span_ms tr "cache.load" "cache.load_ms";
      span_ms tr "cache.store" "cache.store_ms";
      median_of "cache.store_kb" "KiB"
        (if w.Workload.kind = Workload.Delta_edit then [] else List.filter_map (fun r -> r.stored_kb) tr);
      mean_of "cache.hit_ratio" "ratio" (List.map (fun h -> if h then 1.0 else 0.0) loads);
      span_ms tr "cache.load_manifest" "cache.manifest_load_ms";
      span_ms tr "cache.store_manifest" "cache.manifest_store_ms";
      median_of "cache.manifest_kb" "KiB"
        (if w.Workload.kind = Workload.Delta_edit then List.filter_map (fun r -> r.stored_kb) tr else []);
      median_of "delta.diff_ms" "ms" (List.filter_map (fun p -> p.diff_ms) pairs);
      span_ms tr "compile_delta" "delta.compile_ms";
      mean_of "delta.expansions" "count/req" (List.map (fun d -> float_of_int d.Compile.delta_expansions) deltas);
      mean_of "delta.reuse_fraction" "ratio" (List.map Compile.delta_reuse_fraction deltas);
    ]
    @ List.map kind_reuse Edit.all_kinds
    @ [
        mean_of "delta.cold_fallback_frac" "ratio"
          (List.map (fun d -> if d.Compile.delta_diff = None then 1.0 else 0.0) deltas);
        ratio_of "delta.dirty_block_frac" (float_of_int dirty) (float_of_int blocks) (List.length deltas);
        median_of "delta.warm_over_cold" "ratio"
          (List.filter_map (fun p -> Option.map (fun c -> p.untraced.wall_s /. c) p.cold_s) pairs);
        median_of "serve.overhead_ms" "ms" overhead;
        m "dispatch.peak_inflight" "count" 1 (summary_num "peak_inflight");
        m "dispatch.peak_queue_depth" "count" 1 (summary_num "peak_queue_depth");
        mean_of "gc.minor_mw_per_req" "Mwords" (List.map (fun r -> r.minor_mw) un);
        mean_of "gc.major_mw_per_req" "Mwords" (List.map (fun r -> r.major_mw) un);
        median_of "gc.prepare_mw" "Mwords" (List.map (fun p -> p.prepare_mw) phase_runs);
        median_of "gc.route_mw" "Mwords" (List.map (fun p -> p.route_mw) phase_runs);
        median_of "gc.verify_mw" "Mwords" (List.filter_map (fun p -> p.verify_mw) phase_runs);
        m "obs.overhead_frac" "ratio" count
          (Stats.ratio (sum (fun r -> r.wall_s) tr) (sum (fun r -> r.wall_s) un) -. 1.0);
      ]
    @ (if par = [] then [ m "par.speedup_2v1" "ratio" 0 0.0 ] else par)
    @ if ladder = [] then List.map (fun (n, _) -> m n "exponent" 0 0.0) ladder_phases else ladder
  in
  let not_run =
    List.filter_map
      (fun mt ->
        if mt.samples = 0 then
          Some
            ( mt.name,
              if String.length mt.name > 11 && String.sub mt.name 0 11 = "growth_exp." then
                "size ladder runs on cold_compile only"
              else if mt.name = "par.speedup_2v1" then "measured on the cold_compile designs only"
              else "the layer does not run on this workload" )
        else None)
      metrics
  in
  { metrics; not_run; self_ms = self_times (List.map (fun r -> r.sink) tr); replayed = count; global }

(* What the benchmark cannot see from outside the program, and what it
   reports instead. *)
let unmeasured =
  [
    ( "dispatch.queue_wait_ms",
      "the server reports no per-request timing; serve.overhead_ms (client latency minus \
       in-process service time) stands in for it" );
    ( "delta.diff_ms",
      "compile_delta has no span around its block diff; the same Diff.compute call is re-run \
       on the same inputs and timed" );
    ( "cache and emit times inside the server",
      "measured on the in-process replay, which calls the same functions in the same order" );
  ]
