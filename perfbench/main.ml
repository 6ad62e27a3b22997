(* perfbench: one workload against the real `msched serve`.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--server PATH]

   Launches the server with the workload's flags (set-up is repeated and
   its median reported), drives it in a closed loop over TCP for S seconds,
   checks every response against an in-process reference compile, and
   prints a metric table followed by one JSON result line.  With --trace 1
   the result line carries the per-layer metrics of an in-process replay
   instead (see layers.ml), and a Chrome/Perfetto span file is written.
   Full results, with provenance and sample counts, go to perfbench/out. *)

open Perfbench

let now = Unix.gettimeofday
let setups = 5

let usage () =
  prerr_endline
    "usage: main.exe --workload cold_compile|serve_mix|delta_edit --seed N \
     --seconds S --trace 0|1 [--server PATH]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  server : string;
}

let out_dir = "perfbench/out"

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10;
        trace = false;
        server = ".bench_build/default/bin/msched_cli.exe";
      }
  in
  let int_arg flag v = match int_of_string_opt v with Some n -> n | None -> prerr_endline ("bad " ^ flag); usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> a := { !a with seed = int_arg "--seed" v }; go rest
    | "--seconds" :: v :: rest -> a := { !a with seconds = int_arg "--seconds" v }; go rest
    | "--trace" :: v :: rest -> a := { !a with trace = int_arg "--trace" v <> 0 }; go rest
    | "--server" :: v :: rest -> a := { !a with server = v }; go rest
    | other :: _ -> prerr_endline ("unknown argument " ^ other); usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  !a

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ---- Provenance ---- *)

let command_output prog args =
  try
    let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let commit () =
  if Sys.file_exists ".git" then
    Option.value ~default:"unknown" (command_output "git" [ "rev-parse"; "HEAD" ])
  else "unknown (not a git checkout; see source_digest)"

(* FNV-1a over the compiler's sources, so a result names the code it
   measured even outside a git checkout. *)
let source_digest () =
  let rec files d =
    if Sys.file_exists d && Sys.is_directory d then
      Array.to_list (Sys.readdir d)
      |> List.concat_map (fun f -> files (Filename.concat d f))
    else if Filename.check_suffix d ".ml" || Filename.check_suffix d ".mli"
            || Filename.basename d = "dune"
    then [ d ]
    else []
  in
  let all = List.sort compare (files "lib" @ files "bin") in
  let b = Buffer.create (1 lsl 20) in
  List.iter (fun f -> Buffer.add_string b f; Buffer.add_string b (Client.read_file f)) all;
  Msched_server.Cache.hash_hex (Buffer.contents b)

(* ---- JSON output ---- *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let str = Msched_diag.Diag.Json.string
let obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"
let arr items = "[" ^ String.concat "," items ^ "]"

let metric_json (mt : Layers.metric) ~samples =
  obj
    ([ ("value", num mt.Layers.value); ("unit", str mt.Layers.unit) ]
    @ if samples then [ ("samples", string_of_int mt.Layers.samples) ] else [])

let print_table title (ms : Layers.metric list) =
  Printf.printf "%s\n  %-34s %18s  %-9s %s\n" title "metric" "value" "unit" "samples";
  List.iter
    (fun (mt : Layers.metric) ->
      Printf.printf "  %-34s %18.6f  %-9s %d\n" mt.Layers.name mt.Layers.value mt.Layers.unit
        mt.Layers.samples)
    ms

(* ---- One run ---- *)

type outcome = {
  e2e : Layers.metric list;  (** The gated end-to-end metrics. *)
  raw : Layers.metric list;  (** Unnormalized times, slowdown, failed share. *)
  attempted : int;
  failed : int;
  failures : (int * string) list;  (** Stream index and reason. *)
  distinct : int;  (** Distinct request texts checked. *)
  cosimulated : int;
  summary : string option;  (** The server's shutdown summary line. *)
  steal_frac : float;  (** Host CPU time stolen by the hypervisor while timed. *)
  by_input : (string * float array) list;  (** Latencies (ms) per input class. *)
  layers : Layers.result option;
}

let run args (w : Workload.t) =
  let work = Filename.concat out_dir (Printf.sprintf "work-%s-%d" w.Workload.name (Unix.getpid ())) in
  mkdir_p work;
  Fun.protect ~finally:(fun () -> try rm_rf work with _ -> ()) @@ fun () ->
  let ok_or_die what = function
    | Some l -> (
        match Checks.check_exit l with
        | Ok () -> l
        | Error e -> failwith (Printf.sprintf "%s: %s" what e))
    | None -> failwith (what ^ ": no response")
  in
  if w.Workload.prefetch_per_s > 0 then
    ignore (Workload.get w.Workload.stream ((w.Workload.prefetch_per_s * args.seconds) - 1));
  (* Set-up: launch, connect, warm up; repeated, the last server kept. *)
  let setup k =
    let dir = Filename.concat work (Printf.sprintf "server-%d" k) in
    mkdir_p dir;
    let flags =
      w.Workload.flags
      @ if w.Workload.cached then [ "--cache-dir"; Filename.concat dir "cache" ] else []
    in
    let slowdown = Calib.measure ~runs:1 () /. Calib.reference_ms in
    let t0 = now () in
    let srv = Client.launch ~exe:args.server ~flags ~dir in
    let conns = Array.init w.Workload.connections (fun _ -> Client.connect srv.Client.port) in
    let base =
      match w.Workload.kind with
      | Workload.Delta_edit ->
          let r = List.hd w.Workload.warmup in
          let l = ok_or_die "base compile" (Client.roundtrip conns.(0) (Workload.line w r)) in
          Checks.delta_key l
      | Workload.Cold_compile | Workload.Serve_mix ->
          Array.iter
            (fun c ->
              List.iter
                (fun r -> ignore (ok_or_die "warm-up request" (Client.roundtrip c (Workload.line w r))))
                w.Workload.warmup)
            conns;
          None
    in
    (srv, conns, base, (now () -. t0, slowdown))
  in
  let rec setup_all k acc =
    let ((srv, conns, _, _) as s) = setup k in
    if k + 1 < setups then begin
      Array.iter Client.close conns;
      ignore (Client.shutdown srv);
      setup_all (k + 1) (s :: acc)
    end
    else (s, List.rev (s :: acc))
  in
  let (srv, conns, base0, _), all = setup_all 0 [] in
  let setup_times = Array.of_list (List.map (fun (_, _, _, (t, _)) -> t) all) in
  let setup_norm = Array.of_list (List.map (fun (_, _, _, (t, slow)) -> t /. slow) all) in
  (* Timed closed loop. *)
  let counter = ref 0 and base = ref base0 in
  let next ~conn:_ ~prev =
    (match (w.Workload.kind, prev) with
    | Workload.Delta_edit, Some l -> (
        match Checks.delta_key l with Some k -> base := Some k | None -> ())
    | _ -> ());
    let i = !counter in
    incr counter;
    let r = Workload.get w.Workload.stream i in
    if r.Workload.from_base then base := base0;
    Some (i, Workload.line w ?base:!base r)
  in
  let cpu0 = Client.cpu_s srv.Client.pid and host0 = Client.host_jiffies () in
  let samples, calib, calib_s =
    Client.closed_loop conns ~seconds:(float_of_int args.seconds) ~stall_s:60.0
      ~calib_every_s:1.0 ~calibrate:(fun () -> Calib.measure ~runs:1 ()) ~next
  in
  let cpu1 = Client.cpu_s srv.Client.pid and host1 = Client.host_jiffies () in
  let rss = Client.peak_rss_mb srv.Client.pid in
  Array.iter Client.close conns;
  let summary = Client.shutdown srv in
  (* Output checks, outside the timed region. *)
  let text_of s = (Workload.get w.Workload.stream s.Client.index).Workload.text in
  let index_of_text = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let t = text_of s in
      if not (Hashtbl.mem index_of_text t) then Hashtbl.add index_of_text t (Hashtbl.length index_of_text))
    samples;
  let texts = Array.make (Hashtbl.length index_of_text) "" in
  Hashtbl.iter (fun t i -> texts.(i) <- t) index_of_text;
  let cosim = Checks.cosim_sample ~seed:w.Workload.seed (Array.length texts) in
  let refs = Checks.references w.Workload.kind w.Workload.settings ~cosim texts in
  let verdicts =
    Checks.verdicts w.Workload.kind refs
      (List.map (fun s -> (Hashtbl.find index_of_text (text_of s), s.Client.response)) samples)
  in
  let failures =
    List.concat
      (List.map2
         (fun s v -> match v with Error e -> [ (s.Client.index, e) ] | Ok _ -> [])
         samples verdicts)
  in
  let attempted = List.length samples in
  let failed = Checks.failed verdicts in
  let answered = List.filter (fun s -> s.Client.response <> None) samples in
  let lat = Array.of_list (List.map Client.latency_ms answered) in
  let completed = Array.length lat in
  let wall =
    List.fold_left (fun acc s -> Float.max acc s.Client.received) neg_infinity samples
    -. List.fold_left (fun acc s -> Float.min acc s.Client.sent) infinity samples
    -. calib_s
  in
  let hz = Array.of_list (List.filter_map Result.to_option verdicts) in
  let by_input =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let c = Workload.input_class (Workload.get w.Workload.stream s.Client.index) in
        Hashtbl.replace tbl c (Client.latency_ms s :: Option.value ~default:[] (Hashtbl.find_opt tbl c)))
      answered;
    Hashtbl.fold (fun k v acc -> (k, Array.of_list v) :: acc) tbl [] |> List.sort compare
  in
  (* Time metrics are gated host-normalized (see calib.ml): each latency
     is divided by the host's slowdown at that moment, CPU time and
     throughput by the mean slowdown over the run. *)
  let slow s = Calib.slowdown calib ((s.Client.sent +. s.Client.received) /. 2.0) in
  let nlat = Array.of_list (List.map (fun s -> Client.latency_ms s /. slow s) answered) in
  let mean_slow = if answered = [] then 1.0 else Stats.mean (Array.of_list (List.map slow answered)) in
  let throughput = Stats.ratio (float_of_int completed) wall in
  let cpu_ms = Stats.ratio (1000.0 *. (cpu1 -. cpu0)) (float_of_int completed) in
  let m = Layers.m in
  let e2e =
    [
      m "latency_p50_ms" "ms" completed (Stats.median nlat);
      m "latency_p90_ms" "ms" completed (Stats.quantile nlat 0.9);
      m "throughput_rps" "1/s" completed (throughput *. mean_slow);
      m "ok_frac" "ratio" attempted (Stats.ratio (float_of_int (attempted - failed)) (float_of_int attempted));
      m "cpu_ms_per_req" "ms" completed (cpu_ms /. mean_slow);
      m "peak_rss_mb" "MiB" 1 rss;
      m "setup_s" "s" setups (Stats.median setup_norm);
      m "emu_khz_geomean" "kHz" (Array.length hz) (Stats.geomean hz /. 1000.0);
    ]
  in
  let raw =
    [
      m "raw.latency_p50_ms" "ms" completed (Stats.median lat);
      m "raw.latency_p90_ms" "ms" completed (Stats.quantile lat 0.9);
      m "raw.throughput_rps" "1/s" completed throughput;
      m "raw.cpu_ms_per_req" "ms" completed cpu_ms;
      m "raw.setup_s" "s" setups (Stats.median setup_times);
      m "host_slowdown" "ratio" (List.length calib) mean_slow;
      m "failed_frac" "ratio" attempted (Stats.ratio (float_of_int failed) (float_of_int attempted));
    ]
  in
  let layers =
    if args.trace then
      Some
        (Layers.run w ~work_dir:work
           ~client_ms:(List.map (fun s -> (s.Client.index, Client.latency_ms s)) answered)
           ~summary)
    else None
  in
  {
    e2e;
    raw;
    attempted;
    failed;
    failures;
    distinct = Array.length texts;
    cosimulated = Array.fold_left (fun n c -> if c = None then n else n + 1) 0 cosim;
    summary;
    steal_frac = Stats.ratio (fst host1 -. fst host0) (snd host1 -. snd host0);
    by_input;
    layers;
  }

let metrics_obj ~samples ms =
  obj (List.map (fun (mt : Layers.metric) -> (mt.Layers.name, metric_json mt ~samples)) ms)

let () =
  let args = parse_args () in
  (* A signal must still stop the server (Client's at_exit handler). *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
  let w =
    match Workload.make args.workload ~seed:args.seed with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ args.workload);
        usage ()
  in
  if not (Sys.file_exists args.server) then begin
    prerr_endline ("perfbench: server executable not found: " ^ args.server);
    exit 2
  end;
  if args.seconds < 1 then usage ();
  mkdir_p out_dir;
  let o =
    try run args w
    with e ->
      Printf.eprintf "perfbench %s: %s\n" w.Workload.name (Printexc.to_string e);
      exit 1
  in
  let trace_flag = if args.trace then 1 else 0 in
  let span_file = Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" w.Workload.name args.seed) in
  let result_file =
    Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace%d.json" w.Workload.name args.seed trace_flag)
  in
  let flags =
    w.Workload.flags @ if w.Workload.cached then [ "--cache-dir"; "<fresh dir>" ] else []
  in
  let provenance =
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", str Sys.ocaml_version);
      ("commit", str (commit ()));
      ("source_digest", str (source_digest ()));
      ("seed", string_of_int args.seed);
      ("seconds", string_of_int args.seconds);
      ("server_flags", arr (List.map str flags));
      ("connections", string_of_int w.Workload.connections);
      ("setups", string_of_int setups);
      ("steal_frac", num o.steal_frac);
    ]
  in
  Printf.printf
    "perfbench %s  seed=%d seconds=%d trace=%d nproc=%d ocaml=%s steal=%.1f%%\n  why: %s\n  serve flags: %s\n"
    w.Workload.name args.seed args.seconds trace_flag (Domain.recommended_domain_count ())
    Sys.ocaml_version (100.0 *. o.steal_frac) w.Workload.why (String.concat " " flags);
  print_table "end-to-end (untraced server, closed loop; times host-normalized)" o.e2e;
  print_table "as measured" o.raw;
  Printf.printf "  checked: %d requests, %d distinct texts, %d co-simulated, %d failed\n" o.attempted
    o.distinct o.cosimulated o.failed;
  Printf.printf "  latency by input: %s\n"
    (String.concat ", "
       (List.map
          (fun (c, a) -> Printf.sprintf "%s n=%d p50=%.1fms" c (Array.length a) (Stats.median a))
          o.by_input));
  List.iteri (fun i (idx, e) -> if i < 5 then Printf.printf "  FAILED request %d: %s\n" idx e) o.failures;
  (match o.layers with
  | Some l ->
      print_table (Printf.sprintf "per-layer (in-process replay of %d requests)" l.Layers.replayed) l.Layers.metrics;
      List.iter (fun (n, why) -> Printf.printf "  %s reads 0: %s\n" n why) l.Layers.not_run;
      Msched_obs.Export.write_file span_file (Msched_obs.Export.chrome_trace_string l.Layers.global);
      Printf.printf "  span file (Perfetto / chrome://tracing): %s\n" span_file
  | None -> ());
  let counts =
    [
      ("correct", string_of_bool (o.failed = 0));
      ("attempted", string_of_int o.attempted);
      ("failed", string_of_int o.failed);
    ]
  in
  let doc =
    obj
      ([ ("schema", str "msched-perfbench-1"); ("workload", str w.Workload.name); ("why", str w.Workload.why);
         ("provenance", obj provenance) ]
      @ counts
      @ [
          ("failures", arr (List.map (fun (i, e) -> obj [ ("request", string_of_int i); ("why", str e) ]) o.failures));
          ("distinct_texts", string_of_int o.distinct);
          ("cosimulated", string_of_int o.cosimulated);
          ("server_summary", Option.value ~default:"null" o.summary);
          ( "latency_by_input",
            obj
              (List.map
                 (fun (c, a) ->
                   ( c,
                     obj
                       [
                         ("samples", string_of_int (Array.length a));
                         ("p50_ms", num (Stats.median a));
                         ("p90_ms", num (Stats.quantile a 0.9));
                       ] ))
                 o.by_input) );
          ("end_to_end", metrics_obj ~samples:true o.e2e);
          ("as_measured", metrics_obj ~samples:true o.raw);
        ]
      @
      match o.layers with
      | None -> []
      | Some l ->
          [
            ("per_layer", metrics_obj ~samples:true l.Layers.metrics);
            ("not_run", obj (List.map (fun (n, why) -> (n, str why)) l.Layers.not_run));
            ("unmeasured", obj (List.map (fun (n, why) -> (n, str why)) Layers.unmeasured));
            ("self_ms", obj (List.map (fun (n, v) -> (n, num v)) l.Layers.self_ms));
            ("span_file", str span_file);
          ])
  in
  Msched_obs.Export.write_file result_file doc;
  Printf.printf "  result file: %s\n" result_file;
  let metrics = match o.layers with None -> o.e2e | Some l -> l.Layers.metrics in
  print_endline (obj (counts @ [ ("metrics", metrics_obj ~samples:false metrics) ]))
