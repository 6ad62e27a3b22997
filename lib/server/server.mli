(** Compile and delta requests, their one executor, and the closed-batch
    runner.

    {!run_job} and {!run_delta} each carry one design through
    {!Msched.Compile}; everything mutable a job touches (options copy with
    a private observability sink, diagnostic report, reroute context) is
    created inside that call, and a compile job's record is a pure
    function of its design text and the settings.  {!answer} is the one
    executor of [batch] and [serve]: it takes a {!request}, a compile or
    a delta, and returns one {!answer} whose record the sender forces.
    For a compile it puts the result cache in front of {!run_job}: with a
    cache directory, a byte-exact repeat is answered from the record its
    first compile stored.  {!run_batch} runs a closed list of jobs
    through {!answer} on a {!Msched_par.Pool}; an open request stream
    runs them on {!Dispatch} via {!Transport}.  Per-design records are
    deterministic — byte-identical across worker counts, and across
    cache hits and misses once the [cache] member is set aside — because
    no mutable state is shared between in-flight jobs (audit in
    [docs/SERVER.md]) and results merge in job order.

    Output is NDJSON: one [msched-batch-1] record per design (embedding
    the job's [msched-driver-1] document) plus one [msched-batch-summary-1]
    line; timing appears only in the summary.  A delta request's record
    is [msched-delta-1]. *)

type job = {
  j_index : int;  (** Position in the batch; results merge in this order. *)
  j_path : string;  (** Display name (file path, or synthetic label). *)
  j_text : string;  (** Netlist text, parsed inside the worker. *)
}

type settings = {
  s_options : Msched.Compile.options;
      (** Template; each job runs with a private copy (its own sink). *)
  s_max_retries : int;
  s_fallback_hard : bool;
  s_reuse : bool;  (** Warm rerouting across retry rungs ([--cold] unsets). *)
  s_cache_dir : string option;
      (** [--cache-dir]: where {!answer} keeps result entries and
          {!run_delta} its delta manifests.  [None] turns both off;
          {!run_job} alone never reads it. *)
  s_obs_jobs : bool;
      (** Give each job an enabled sink and merge its counters into the
          server totals (on for [--trace]; off keeps probes free). *)
}

val default_settings : settings

type cache_status = Cache_off | Cache_cold | Cache_warm | Cache_corrupt
(** A compile record's [cache] field, set by {!answer}: [Cache_off]
    without a cache directory; [Cache_cold] compiled (and stored, when
    exit 0); [Cache_warm] answered from a result entry; [Cache_corrupt]
    compiled because the entry failed its checksum or format, with an
    E_CACHE warning. *)

val cache_status_name : cache_status -> string

type job_result = {
  r_job : job;
  r_key : string;
      (** Always [""] from {!run_job}, and in no record; kept because the
          benchmark under [perfbench/] builds [job_result] values. *)
  r_cache : cache_status;
  r_resilient : Msched.Compile.resilient option;
      (** [None] when the design text did not parse. *)
  r_diags : Msched_diag.Diag.t list;  (** Front-end diagnostics. *)
  r_exit : int;  (** The job's documented exit class (0 on success). *)
  r_queue_s : float;  (** Batch start to job start. *)
  r_wall_s : float;
  r_counters : (string * int) list;  (** Job-sink counters ([s_obs_jobs]). *)
}

val run_job : settings -> epoch:float -> job -> job_result
(** The compile itself, without the result cache.  Never raises on bad
    input: parse and pipeline failures land in [r_diags] and [r_exit]. *)

(** {2 Delta jobs}

    The [{"op": "delta"}] request (docs/DELTA.md): compile an edited
    design cold and diff its blocks against the cached manifest of its
    previous version, to explain what the edit changed.  The new
    manifest is stored under the design's own content key, announced in
    the response so the client can thread it into its next edit. *)

type base_status =
  | Base_none  (** No base requested: cold base compile. *)
  | Base_warm of int  (** Manifest loaded; [n] is always 0. *)
  | Base_miss
      (** Key given, nothing stored under it — or not a key at all (not
          16 lowercase hex digits), which never reaches the filesystem. *)
  | Base_corrupt  (** Header failed its checksum; E_CACHE diag carried. *)
  | Base_off  (** Base requested but the server runs without --cache-dir. *)

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
      (** [do_reused] through [do_reuse_fraction] always read 0: nothing is
          replayed.  They keep the [msched-delta-1] fields. *)
  do_cold_fallback : bool;
      (** A base was loaded but is not comparable (foreign options
          fingerprint or block-count mismatch): no diff. *)
  do_schedule_fp : string;
      (** Content hash of the schedule JSON — the warm≡cold witness: a
          client can assert it equals the cold compile's. *)
  do_length : int;
  do_est_speed_hz : float;
}

type delta_result = {
  dr_request : delta_request;
  dr_key : string;  (** Manifest key for this design ([""] cache off). *)
  dr_base : base_status;
  dr_outcome : delta_outcome option;  (** [None]: parse/compile failure. *)
  dr_diags : Msched_diag.Diag.t list;
  dr_exit : int;
}

val run_delta : settings -> delta_request -> delta_result
(** Never raises: pipeline failures are classified into [dr_diags] and
    [dr_exit], exactly like {!run_job}. *)

val delta_record_json : delta_result -> string
(** One deterministic [msched-delta-1] object. *)

(** {2 The executor} *)

type request = Compile of job | Delta of delta_request
(** A compile request ([msched-batch-1] answer) or a delta request
    ([msched-delta-1] answer). *)

type status = [ `Ok | `Degraded | `Failed ]
(** Compiled, compiled after retries or a fallback, or not compiled. *)

type answer = {
  a_record : string Lazy.t;
      (** The [msched-batch-1] or [msched-delta-1] record, without an id.
          Force it once, in the thread that sends it: {!answer} builds
          only a stored record on the worker. *)
  a_exit : int;  (** Its exit class. *)
  a_status : status;
  a_cache : cache_status option;
      (** The record's [cache] member; [None] for a delta record, which
          has none and which the serve summary's [cache] counts leave
          out. *)
  a_queue_s : float;  (** Batch start (or submit) to job start. *)
  a_wall_s : float;  (** Lookup, compile and store. *)
  a_counters : (string * int) list;
      (** Job-sink counters ([s_obs_jobs]); none on a hit or a delta. *)
}
(** One answered request: the record, and what the batch and serve
    summaries count. *)

val policy : settings -> string
(** The line a result entry is keyed and checked on: the options
    fingerprint plus [s_max_retries], [s_fallback_hard] and [s_reuse]. *)

val answer : settings -> epoch:float -> request -> answer
(** The one executor of [batch] and [serve].  A delta request is
    {!run_delta} and {!delta_record_json}.  A compile request without
    [s_cache_dir] is {!run_job} and {!record_json}, [cache] ["off"].
    With it, the request's result entry ({!Cache.load_result}) answers a
    hit with its stored bytes ([cache] ["warm"]); a miss compiles, stores
    an exit-0 record and answers ["cold"]; a corrupt entry compiles,
    answers ["corrupt"] with the E_CACHE warning first in [diagnostics],
    and repairs the entry.  A failed store adds its E_CACHE warning the
    same way.  Never raises on bad input. *)

(** {2 Closed batches} *)

type batch_result = {
  b_results : answer array;  (** In job order, always. *)
  b_jobs : int;  (** Worker count actually used. *)
  b_max_inflight : int;  (** Measured peak of concurrently running jobs. *)
  b_queue_peak : int;
      (** Peak depth of the pending-task queue: tasks that existed before a
          worker slot freed up for them ([max 0 (tasks - jobs)]). *)
  b_wall_s : float;
}

val run_batch : ?jobs:int -> settings -> job list -> batch_result
(** {!answer} over every job.  [jobs] is clamped to
    [1 .. length job_list].  At [jobs = 1] every job runs inline in the
    caller; otherwise on a {!Msched_par.Pool} of [jobs] workers, the
    caller among them. *)

val job_of_text : index:int -> path:string -> string -> job

val job_of_file : index:int -> string -> (job, Msched_diag.Diag.t) result
(** Read a design file.  An unreadable file is an E_PARSE diagnostic that
    quotes the path once, through {!echo}, followed by the OS error. *)

val echo : string -> string
(** Request text as an answer quotes it back: the first 256 bytes, then
    the original length when it is longer (identity up to 256 bytes). *)

val record_json : job_result -> string
(** One deterministic [msched-batch-1] object (no timing fields). *)

val cache_counts_json : (cache_status -> int) -> string
(** [{"off":n,"cold":n,"warm":n,"corrupt":n}], the [cache] member of the
    batch and serve summaries. *)

val summary_json : batch_result -> string
(** The [msched-batch-summary-1] line (carries all the timing). *)

val to_ndjson : batch_result -> string
(** All records, one per line, then the summary line. *)

val exit_code : batch_result -> int
(** 0 when every job compiled (degraded counts as success), else the exit
    class of the first failing job in job order. *)

val record_obs : Msched_obs.Sink.t -> batch_result -> unit
(** Record the [server.*] metrics (queue wait, job wall, in-flight
    high-water mark) plus the merged job counters onto a
    main-domain sink.  Call after {!run_batch}; no-op on a null sink. *)

val with_id : string option -> string -> string
(** Splice [{"id": ...}] in front of a record's first member (identity on
    [None]); lets transports echo the client's request id. *)

val error_record : ?id:string -> path:string -> Msched_diag.Diag.t list -> string
(** A [msched-batch-1] record for a request that never reached the driver
    (parse failure, unreadable file, shed, timed out, worker crash):
    [design] is [echo path], [result] is null, [exit_code] is the first
    diagnostic's class. *)
