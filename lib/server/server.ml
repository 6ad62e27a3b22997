(* Batch compilation server: many designs through the resilient driver,
   concurrently, with nothing shared between in-flight jobs.

   [run_job] gives every job its own copy of the compile options carrying
   a job-private observability sink and its own diagnostic report; the
   resilient driver creates the job's reroute context.  The pipeline
   passes reachable from [Compile.compile] hold no module-level mutable
   state (audit in docs/SERVER.md), so two jobs never race — which is
   what makes the jobs=N output byte-identical to jobs=1.

   Timing and observability are kept out of the per-design NDJSON records
   (they go to the summary line and the server sink instead), so a
   compile record is a pure function of (design text, settings).  That
   is what lets [answer] answer a byte-exact repeat from the result
   entry its first compile stored: only the record's "cache" member
   tells the two apart. *)

module Compile = Msched.Compile
module Serial = Msched_netlist.Serial
module Sink = Msched_obs.Sink
module Diag = Msched_diag.Diag

type job = {
  j_index : int;  (** Position in the batch; results merge in this order. *)
  j_path : string;  (** Display name (file path, or synthetic label). *)
  j_text : string;  (** Netlist text, parsed inside the worker. *)
}

type settings = {
  s_options : Compile.options;
      (** Template; each job runs with a private copy (its own sink). *)
  s_max_retries : int;
  s_fallback_hard : bool;
  s_reuse : bool;  (** Warm rerouting across retry rungs (--cold unsets). *)
  s_cache_dir : string option;
      (** Result entries and delta manifests ([--cache-dir]). *)
  s_obs_jobs : bool;
      (** Give each job an enabled sink and merge its counters into the
          server totals (on for --trace; off keeps probes free). *)
}

let default_settings =
  {
    s_options = Compile.default_options;
    s_max_retries = 3;
    s_fallback_hard = false;
    s_reuse = true;
    s_cache_dir = None;
    s_obs_jobs = false;
  }

type cache_status = Cache_off | Cache_cold | Cache_warm | Cache_corrupt

let cache_status_name = function
  | Cache_off -> "off"
  | Cache_cold -> "cold"
  | Cache_warm -> "warm"
  | Cache_corrupt -> "corrupt"

type job_result = {
  r_job : job;
  r_key : string;  (** Always [""]; kept for the benchmark. *)
  r_cache : cache_status;  (** Always [Cache_off] from {!run_job}. *)
  r_resilient : Compile.resilient option;
      (** [None] when the design text did not parse. *)
  r_diags : Diag.t list;  (** Front-end diagnostics. *)
  r_exit : int;  (** The job's documented exit class (0 on success). *)
  r_queue_s : float;  (** Batch start to job start. *)
  r_wall_s : float;
  r_counters : (string * int) list;  (** Job-sink counters (s_obs_jobs). *)
}

(* Everything mutable a job touches — its sink, options copy and report —
   is created here and owned by this call alone. *)
let run_job settings ~epoch job =
  let t0 = Unix.gettimeofday () in
  let obs = if settings.s_obs_jobs then Sink.create () else Sink.null in
  let options = { settings.s_options with Compile.obs } in
  let report = Diag.Report.create () in
  let resilient, exit_code =
    match Serial.of_string_diag job.j_text with
    | Error diags ->
        Diag.Report.add_list report diags;
        (None, Diag.Report.exit_code report)
    | Ok nl ->
        let r =
          Compile.compile_resilient ~options
            ~max_retries:settings.s_max_retries
            ~fallback_hard:settings.s_fallback_hard ~reuse:settings.s_reuse
            nl
        in
        (Some r, Compile.resilient_exit_code r)
  in
  let t1 = Unix.gettimeofday () in
  {
    r_job = job;
    r_key = "";
    r_cache = Cache_off;
    r_resilient = resilient;
    r_diags = Diag.Report.to_list report;
    r_exit = exit_code;
    r_queue_s = t0 -. epoch;
    r_wall_s = t1 -. t0;
    r_counters = Sink.counters obs;
  }

(* ---- Delta jobs ({"op":"delta"}): a cold compile plus the block diff
   against a cached base manifest (docs/DELTA.md).  The new manifest is
   stored under the design's own content key, which the response
   announces — a client threads that key into its next edit's request so
   every response explains what that edit changed. *)

module Schedule = Msched_route.Schedule

type base_status =
  | Base_none  (** No base requested: cold base compile. *)
  | Base_warm of int  (** Manifest loaded; [n] is always 0. *)
  | Base_miss
      (** Key given, no manifest under it (evicted, never stored, or not a
          key at all). *)
  | Base_corrupt  (** Header failed its checksum; E_CACHE diag carried. *)
  | Base_off  (** Base requested but the server runs without --cache-dir. *)

let base_status_name = function
  | Base_none -> "none"
  | Base_warm _ -> "warm"
  | Base_miss -> "miss"
  | Base_corrupt -> "corrupt"
  | Base_off -> "off"

type delta_request = {
  dq_path : string;  (** Display name. *)
  dq_text : string;  (** Netlist text of the {e edited} design. *)
  dq_base : string option;  (** Manifest key from a previous response. *)
}

type delta_outcome = {
  do_blocks_clean : int;
  do_blocks_dirty : int;
  do_cone : int;
  do_reused : int;
  do_ripped : int;
  do_fresh : int;
  do_expansions : int;
  do_reuse_fraction : float;
      (** The four replay fields above and this one always read 0. *)
  do_cold_fallback : bool;
      (** A base was loaded but is not comparable (foreign options
          fingerprint or block-count mismatch): no diff. *)
  do_schedule_fp : string;
      (** Content hash of the schedule JSON: equal fp = byte-identical
          schedule, the warm≡cold witness a client can assert. *)
  do_length : int;
  do_est_speed_hz : float;
}

type delta_result = {
  dr_request : delta_request;
  dr_key : string;  (** Manifest key for this design ([""] cache off). *)
  dr_base : base_status;
  dr_outcome : delta_outcome option;  (** [None]: parse/compile failure. *)
  dr_diags : Diag.t list;
  dr_exit : int;
}

(* The canonical text is rendered once: it is the preimage of both the
   manifest key and the new manifest's design fingerprint. *)
let run_delta settings req =
  let report = Diag.Report.create () in
  let options = { settings.s_options with Compile.obs = Sink.null } in
  let parsed = Serial.of_string_diag req.dq_text in
  let canonical =
    match parsed with Ok nl -> Serial.to_string nl | Error _ -> req.dq_text
  in
  let key =
    match settings.s_cache_dir with
    | None -> ""
    | Some _ -> Cache.key_of_canonical ~options canonical
  in
  let fail base =
    {
      dr_request = req;
      dr_key = key;
      dr_base = base;
      dr_outcome = None;
      dr_diags = Diag.Report.to_list report;
      dr_exit = Diag.Report.exit_code report;
    }
  in
  let base, manifest =
    match (req.dq_base, settings.s_cache_dir) with
    | None, _ -> (Base_none, None)
    | Some _, None -> (Base_off, None)
    | Some bkey, Some dir -> (
        match Cache.load_manifest ~dir ~key:bkey with
        | Cache.M_miss -> (Base_miss, None)
        | Cache.M_corrupt d ->
            Diag.Report.add report d;
            (Base_corrupt, None)
        | Cache.M_hit (m, missing) -> (Base_warm missing, Some m))
  in
  match parsed with
  | Error diags ->
      Diag.Report.add_list report diags;
      fail base
  | Ok nl -> (
      let design_fp = Msched_delta.Fingerprint.design_of_canonical canonical in
      match
        match manifest with
        | Some m ->
            let d = Compile.compile_delta ~options ~design_fp ~manifest:m nl in
            ( d.Compile.delta_compiled,
              d.Compile.delta_manifest,
              d.Compile.delta_diff )
        | None ->
            let b = Compile.compile_base ~options ~design_fp nl in
            (b.Compile.base_compiled, b.Compile.base_manifest, None)
      with
      | exception e ->
          Diag.Report.add report (Compile.diag_of_exn e);
          fail base
      | compiled, manifest', diff ->
          (match settings.s_cache_dir with
          | Some dir -> (
              match Cache.store_manifest ~dir ~key manifest' with
              | Ok () -> ()
              | Error d -> Diag.Report.add report d)
          | None -> ());
          let sched = compiled.Compile.schedule in
          let count f = match diff with Some d -> f d | None -> 0 in
          let outcome =
            {
              do_blocks_clean = count Msched_delta.Diff.clean_count;
              do_blocks_dirty = count Msched_delta.Diff.dirty_count;
              do_cone = count Msched_delta.Diff.cone_size;
              do_reused = 0;
              do_ripped = 0;
              do_fresh = 0;
              do_expansions = 0;
              do_reuse_fraction = 0.0;
              do_cold_fallback = Option.is_some manifest && diff = None;
              do_schedule_fp = Schedule.json_hash_hex sched;
              do_length = sched.Schedule.length;
              do_est_speed_hz = Schedule.est_speed_hz sched;
            }
          in
          {
            dr_request = req;
            dr_key = key;
            dr_base = base;
            dr_outcome = Some outcome;
            dr_diags = Diag.Report.to_list report;
            dr_exit = Diag.Report.exit_code report;
          })

(* The [diagnostics] member of every record, written in place. *)
let diagnostics b ~first diags =
  Diag.Json.field b ~first "diagnostics" "[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char b ',';
      Diag.to_json_buf b d)
    diags;
  Buffer.add_char b ']'

let delta_record_json r =
  let module J = Diag.Json in
  let b = Buffer.create 1024 in
  let first = ref true in
  Buffer.add_char b '{';
  J.field b ~first "schema" (J.string "msched-delta-1");
  J.field b ~first "design" (J.string r.dr_request.dq_path);
  if r.dr_key <> "" then J.field b ~first "key" (J.string r.dr_key);
  J.field b ~first "base" (J.string (base_status_name r.dr_base));
  (match r.dr_base with
  | Base_warm missing ->
      J.field b ~first "base_missing_blocks" (string_of_int missing)
  | _ -> ());
  J.field b ~first "exit_code" (string_of_int r.dr_exit);
  diagnostics b ~first r.dr_diags;
  J.field b ~first "delta"
    (match r.dr_outcome with
    | None -> "null"
    | Some o ->
        let db = Buffer.create 512 in
        let df = ref true in
        Buffer.add_char db '{';
        J.field db ~first:df "blocks_clean" (string_of_int o.do_blocks_clean);
        J.field db ~first:df "blocks_dirty" (string_of_int o.do_blocks_dirty);
        J.field db ~first:df "cone" (string_of_int o.do_cone);
        J.field db ~first:df "reused" (string_of_int o.do_reused);
        J.field db ~first:df "ripped" (string_of_int o.do_ripped);
        J.field db ~first:df "fresh" (string_of_int o.do_fresh);
        J.field db ~first:df "expansions" (string_of_int o.do_expansions);
        J.field db ~first:df "reuse_fraction"
          (Printf.sprintf "%.6g" o.do_reuse_fraction);
        J.field db ~first:df "cold_fallback"
          (string_of_bool o.do_cold_fallback);
        J.field db ~first:df "schedule_fp" (J.string o.do_schedule_fp);
        J.field db ~first:df "length" (string_of_int o.do_length);
        J.field db ~first:df "est_speed_hz"
          (Printf.sprintf "%.6g" o.do_est_speed_hz);
        Buffer.add_char db '}';
        Buffer.contents db);
  Buffer.add_char b '}';
  Buffer.contents b

(* ---- Job construction. ---- *)

let job_of_text ~index ~path text = { j_index = index; j_path = path; j_text = text }

(* Request text an answer quotes back (a path, a poison spec, an op
   name): at most [echo_max] bytes, then the original length, so an
   answer stays small whatever a client sends. *)
let echo_max = 256

let echo s =
  let n = String.length s in
  if n <= echo_max then s
  else Printf.sprintf "%s... (%d bytes)" (String.sub s 0 echo_max) n

let job_of_file ~index path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok (job_of_text ~index ~path text)
  | exception Sys_error msg ->
      (* The OS error starts with the path again: quote the path once. *)
      let lp = String.length path in
      let reason =
        if
          String.starts_with ~prefix:path msg
          && String.length msg >= lp + 2
          && String.sub msg lp 2 = ": "
        then String.sub msg (lp + 2) (String.length msg - lp - 2)
        else msg
      in
      Error (Diag.error Diag.E_PARSE "%s: %s" (echo path) (echo reason))

(* ---- NDJSON emission (schemas msched-batch-1 / msched-batch-summary-1).

   The per-design record is deterministic: no wall-clock fields, job
   order fixed by j_index.  Timing lives in the summary line only. *)

(* A record is a head ([schema], [design], [cache]) and a tail (the
   members after [cache]).  The tail is what a result entry stores. *)
let record_head ~design ~cache =
  Printf.sprintf {|{"schema":"msched-batch-1","design":%s,"cache":%s,|}
    (Diag.Json.string design)
    (Diag.Json.string (cache_status_name cache))

let record ~design ~cache ~exit diags result =
  let b = Buffer.create 1024 in
  Buffer.add_string b (record_head ~design ~cache);
  let first = ref true in
  Diag.Json.field b ~first "exit_code" (string_of_int exit);
  diagnostics b ~first diags;
  Diag.Json.field b ~first "result" result;
  Buffer.add_char b '}';
  Buffer.contents b

let record_json r =
  record ~design:r.r_job.j_path ~cache:r.r_cache ~exit:r.r_exit r.r_diags
    (match r.r_resilient with
    | None -> "null"
    | Some r -> Compile.resilient_to_json r)

(* [record_head] ^ the tail slice ^ "}", in one allocation: a hit's
   record, built from the entry it read. *)
let assemble ~design ~cache (src, pos, len) =
  let head = record_head ~design ~cache in
  let hl = String.length head in
  let b = Bytes.create (hl + len + 1) in
  Bytes.blit_string head 0 b 0 hl;
  Bytes.blit_string src pos b hl len;
  Bytes.set b (hl + len) '}';
  Bytes.unsafe_to_string b

(* ---- One executor: every compile and delta request. ---- *)

type request = Compile of job | Delta of delta_request

type status = [ `Ok | `Degraded | `Failed ]

type answer = {
  a_record : string Lazy.t;
  a_exit : int;
  a_status : status;
  a_cache : cache_status option;
  a_queue_s : float;
  a_wall_s : float;
  a_counters : (string * int) list;
}

(* Everything besides the options that changes a compile record: the
   retry ladder's policy.  [Tiers]' fork, latch-order and same-domain
   switches are left out because only [--mode] sets them, and the mode
   is in the fingerprint. *)
let policy settings =
  Printf.sprintf "%s;retries=%d;fallback_hard=%b;reuse=%b"
    (Cache.fingerprint settings.s_options)
    settings.s_max_retries settings.s_fallback_hard settings.s_reuse

let status_of r =
  match r.r_resilient with
  | Some res when Compile.succeeded res ->
      if Compile.degraded res then `Degraded else `Ok
  | _ -> `Failed

(* Records are built by whoever sends them, off the worker domain, except
   a stored record, which the worker builds to store: building a
   compile's JSON on the worker put its large temporary strings next to
   the compile's own peak and measured +7% peak RSS on cold_compile. *)
let answer settings ~epoch request =
  let t0 = Unix.gettimeofday () in
  let answer ~record ~exit ~status ~cache ~counters =
    {
      a_record = record;
      a_exit = exit;
      a_status = status;
      a_cache = cache;
      a_queue_s = t0 -. epoch;
      a_wall_s = Unix.gettimeofday () -. t0;
      a_counters = counters;
    }
  in
  match (request, settings.s_cache_dir) with
  | Delta req, _ ->
      let r = run_delta settings req in
      answer
        ~record:(lazy (delta_record_json r))
        ~exit:r.dr_exit
        ~status:(if r.dr_exit = 0 then `Ok else `Failed)
        ~cache:None ~counters:[]
  | Compile job, None ->
      let r = run_job settings ~epoch job in
      answer
        ~record:(lazy (record_json r))
        ~exit:r.r_exit ~status:(status_of r) ~cache:(Some Cache_off)
        ~counters:r.r_counters
  | Compile job, Some dir -> (
      let policy = policy settings and text = job.j_text in
      let key = Cache.result_key ~policy ~text in
      (* Compile, and store the tail of an exit-0 record: a failure, even
         a transient E_INTERNAL, compiles again next time.  [found] (a
         warning about the entry read) and a failed store's warning lead
         the answer's diagnostics and never go into the entry. *)
      let compile ~cache found =
        let r = { (run_job settings ~epoch job) with r_cache = cache } in
        let status = status_of r and record = record_json r in
        let stored =
          match status with
          | `Failed -> []
          | (`Ok | `Degraded) as status -> (
              let hl = String.length (record_head ~design:job.j_path ~cache) in
              let tail = (record, hl, String.length record - hl - 1) in
              match
                Cache.store_result ~dir ~key ~policy ~text ~status ~tail
              with
              | Ok () -> []
              | Error d -> [ d ])
        in
        let record =
          match found @ stored with
          | [] -> record
          | warnings -> record_json { r with r_diags = warnings @ r.r_diags }
        in
        answer ~record:(Lazy.from_val record) ~exit:r.r_exit ~status
          ~cache:(Some cache) ~counters:r.r_counters
      in
      match Cache.load_result ~dir ~key ~policy ~text with
      | Cache.R_hit { tail; status } ->
          answer
            ~record:(lazy (assemble ~design:job.j_path ~cache:Cache_warm tail))
            ~exit:0
            ~status:(status :> status)
            ~cache:(Some Cache_warm) ~counters:[]
      | Cache.R_miss -> compile ~cache:Cache_cold []
      | Cache.R_corrupt d -> compile ~cache:Cache_corrupt [ d ])

type batch_result = {
  b_results : answer array;  (** In job order, always. *)
  b_jobs : int;  (** Worker count actually used. *)
  b_max_inflight : int;
  b_queue_peak : int;
  b_wall_s : float;
}

(* Closed batches run on the shared domain pool: jobs 1 runs inline in
   the caller, otherwise the caller works as one of [jobs] workers.  Each
   result lands in its job's slot, so records merge in job order no
   matter which domain ran them. *)
let run_batch ?(jobs = 1) settings job_list =
  let tasks = Array.of_list job_list in
  let n = Array.length tasks in
  let jobs = max 1 (min jobs n) in
  let results = Array.make n None in
  let inflight = Atomic.make 0 and peak = Atomic.make 0 in
  let rec note_peak cur =
    let m = Atomic.get peak in
    if cur > m && not (Atomic.compare_and_set peak m cur) then note_peak cur
  in
  let epoch = Unix.gettimeofday () in
  Msched_par.Pool.with_pool ~jobs (fun pool ->
      Msched_par.Pool.run pool ~n (fun ~worker:_ i ->
          note_peak (1 + Atomic.fetch_and_add inflight 1);
          results.(i) <- Some (answer settings ~epoch (Compile tasks.(i)));
          Atomic.decr inflight));
  let wall = Unix.gettimeofday () -. epoch in
  {
    b_results = Array.map Option.get results;
    b_jobs = jobs;
    b_max_inflight = Atomic.get peak;
    (* Every task beyond the worker count starts its life queued. *)
    b_queue_peak = max 0 (n - jobs);
    b_wall_s = wall;
  }

let ok_degraded_failed batch =
  Array.fold_left
    (fun (ok, degraded, failed) a ->
      match a.a_status with
      | `Ok -> (ok + 1, degraded, failed)
      | `Degraded -> (ok, degraded + 1, failed)
      | `Failed -> (ok, degraded, failed + 1))
    (0, 0, 0) batch.b_results

let cache_counts_json count =
  let module J = Diag.Json in
  let b = Buffer.create 128 in
  let first = ref true in
  Buffer.add_char b '{';
  List.iter
    (fun s -> J.field b ~first (cache_status_name s) (string_of_int (count s)))
    [ Cache_off; Cache_cold; Cache_warm; Cache_corrupt ];
  Buffer.add_char b '}';
  Buffer.contents b

let summary_json batch =
  let module J = Diag.Json in
  let ok, degraded, failed = ok_degraded_failed batch in
  let n = Array.length batch.b_results in
  let b = Buffer.create 512 in
  let first = ref true in
  Buffer.add_char b '{';
  J.field b ~first "schema" (J.string "msched-batch-summary-1");
  J.field b ~first "designs" (string_of_int n);
  J.field b ~first "ok" (string_of_int ok);
  J.field b ~first "degraded" (string_of_int degraded);
  J.field b ~first "failed" (string_of_int failed);
  J.field b ~first "jobs" (string_of_int batch.b_jobs);
  J.field b ~first "max_inflight" (string_of_int batch.b_max_inflight);
  J.field b ~first "queue_depth_peak" (string_of_int batch.b_queue_peak);
  J.field b ~first "cache"
    (cache_counts_json (fun status ->
         Array.fold_left
           (fun n a -> if a.a_cache = Some status then n + 1 else n)
           0 batch.b_results));
  J.field b ~first "wall_s" (Printf.sprintf "%.6f" batch.b_wall_s);
  J.field b ~first "designs_per_s"
    (Printf.sprintf "%.6g"
       (if batch.b_wall_s > 0.0 then float_of_int n /. batch.b_wall_s
        else 0.0));
  Buffer.add_char b '}';
  Buffer.contents b

let to_ndjson batch =
  let b = Buffer.create 4096 in
  Array.iter
    (fun a ->
      Buffer.add_string b (Lazy.force a.a_record);
      Buffer.add_char b '\n')
    batch.b_results;
  Buffer.add_string b (summary_json batch);
  Buffer.add_char b '\n';
  Buffer.contents b

(* Batch exit class: 0 when every job compiled (degraded counts as
   success, matching the single-design driver), else the class of the
   first failing job — deterministic because results are in job order. *)
let exit_code batch =
  Array.fold_left
    (fun acc a -> if acc <> 0 then acc else a.a_exit)
    0 batch.b_results

(* ---- Deterministic merges (job order) onto a main-domain sink. ---- *)

let merged_counters batch =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun a ->
      List.iter
        (fun (name, v) ->
          Hashtbl.replace tbl name
            (v + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
        a.a_counters)
    batch.b_results;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let record_obs obs batch =
  if Sink.enabled obs then begin
    Sink.gauge obs "server.jobs_inflight_max"
      (float_of_int batch.b_max_inflight);
    Sink.gauge obs "server.workers" (float_of_int batch.b_jobs);
    Sink.gauge obs "server.queue_depth_peak" (float_of_int batch.b_queue_peak);
    Array.iter
      (fun a ->
        Sink.incr obs "server.jobs";
        (if a.a_exit <> 0 then Sink.incr obs "server.jobs_failed");
        Sink.observe obs "server.queue_wait_us"
          (int_of_float (a.a_queue_s *. 1e6));
        Sink.observe obs "server.job_wall_us"
          (int_of_float (a.a_wall_s *. 1e6)))
      batch.b_results;
    List.iter (fun (name, v) -> Sink.add obs name v) (merged_counters batch)
  end

(* ---- Transport helpers: id echo and pre-driver failure records. ---- *)

let with_id id json =
  match id with
  | None -> json
  | Some id ->
      (* Splice {"id":...} in front of the record's first member. *)
      Printf.sprintf "{\"id\":%s,%s"
        (Diag.Json.string id)
        (String.sub json 1 (String.length json - 1))

let error_record ?id ~path diags =
  let rep = Diag.Report.create () in
  Diag.Report.add_list rep diags;
  with_id id
    (record ~design:(echo path) ~cache:Cache_off
       ~exit:(Diag.Report.exit_code rep) diags "null")
