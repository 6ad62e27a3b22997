(** The full emulation-compiler pipeline (paper Section 2):

    domain analysis → MTS flip-flop transform → partitioning → placement →
    per-block latch analysis → MTS classification → static scheduling.

    [prepare] runs everything up to (and excluding) routing, so multiple
    routing modes (virtual / hard / naive) can be compared on the same
    partition and placement — exactly how Table 1 compares rows 8/9. *)

open Msched_netlist

type options = {
  max_block_weight : int;  (** FPGA capacity in cell-weight units. *)
  pins_per_fpga : int;
  topology_kind : Msched_arch.Topology.kind;
  vclock_hz : float;
  partition_seed : int;
  place_seed : int;
  place_effort : int;
  route : Msched_route.Tiers.options;
  verify : bool;
      (** Run the independent static verifier ({!Msched_check.Verify}) on
          the compiled schedule and raise {!Compile_error} on violations. *)
  obs : Msched_obs.Sink.t;
      (** Observability sink.  {!Msched_obs.Sink.null} (the default) makes
          every probe a no-op; an enabled sink records a span per pipeline
          phase plus the counters catalogued in [docs/OBSERVABILITY.md]. *)
  compile_jobs : int;
      (** Ignored: every compile runs on the calling domain.  The field
          stays only because the frozen end-to-end benchmark under
          [perfbench/] still sets it; it goes with that benchmark's
          [par.speedup_2v1]. *)
}

val default_options : options
(** 240 pins (XC4062XL), mesh, 34 MHz virtual clock, virtual MTS routing,
    verification on. *)

type prepared = {
  original : Netlist.t;
  netlist : Netlist.t;  (** After the MTS flip-flop transform. *)
  rewrites : Msched_mts.Transform.rewrite list;
  analysis : Msched_mts.Domain_analysis.t;
  partition : Msched_partition.Partition.t;
  system : Msched_arch.System.t;
  placement : Msched_place.Placement.t;
  latch_analysis : Msched_mts.Latch_analysis.t array;
  classification : Msched_mts.Classify.t;
}

type compiled = {
  prepared : prepared;
  schedule : Msched_route.Schedule.t;
}

exception Compile_error of Msched_diag.Diag.t
(** Structured pipeline failure: [E_UNSUPPORTED] for constructs the flow
    cannot compile, [E_CAPACITY] for infeasible capacity settings,
    [E_VERIFY] / [E_HOLD_VIOLATION] for schedules rejected by the static
    verifier, [E_INTERNAL] for invariant breakage.  Routing failures
    escape as {!Msched_route.Tiers.Unroutable} with their own diagnostic
    payload. *)

val prepare : ?options:options -> Netlist.t -> prepared
(** @raise Compile_error on unsupported constructs (multi-domain RAM write
    clocks) or infeasible capacity settings: [E_CAPACITY] when a cell is
    heavier than [max_block_weight], or when [pins_per_fpga] is too small
    to give every channel of the system a wire. *)

val route :
  ?obs:Msched_obs.Sink.t ->
  ?reroute:Msched_route.Reroute.t ->
  ?jobs:int ->
  prepared ->
  Msched_route.Tiers.options ->
  Msched_route.Schedule.t
(** Reverse (TIERS) scheduling.  With a [reroute] context the attempt
    routes the context's forced-hard links on dedicated wires and
    collects the whole unroutable residue before it fails — see
    {!Msched_route.Tiers.schedule}; the context never changes a search,
    so a successful route under a fresh context returns the schedule a
    route without one returns.  [jobs] is ignored, like
    {!options.compile_jobs}, and kept for [perfbench/]'s callers. *)

val route_forward :
  ?obs:Msched_obs.Sink.t ->
  prepared ->
  Msched_route.Tiers.options ->
  Msched_route.Schedule.t
(** Forward list scheduling (see {!Msched_route.Forward}). *)

val verify_schedule :
  ?obs:Msched_obs.Sink.t ->
  prepared ->
  Msched_route.Schedule.t ->
  Msched_check.Verify.report
(** Run the static verifier against a schedule routed from [prepared]. *)

val compile : ?options:options -> Netlist.t -> compiled
(** [prepare], then {!route} with [options.route]; when [options.verify]
    is set the schedule is then checked by {!Msched_check.Verify} and a
    violation raises {!Compile_error} with the pretty-printed report.  The
    resilient driver retries routing on one prepared front end without
    re-partitioning and re-placing. *)

(** {2 Delta compilation}

    A delta compile is a cold compile plus the block diff that explains
    what the edit changed.  Every compile builds a
    {!Msched_delta.Manifest.t} of its design (options and design
    fingerprints, the placement assignment, block fingerprints and
    boundary signatures); {!compile_delta} compares the edited design's
    manifest with the base one.  The schedule never depends on the base:
    it is {!compile}'s, byte for byte.  See [docs/DELTA.md]. *)

val options_fingerprint : options -> string
(** Canonical rendering of every option that shapes a compile (routing
    mode, slack, capacity, seeds, effort, vclock, topology, verify).  The
    server cache keys on it; manifests embed it, and a delta against a
    manifest built under different options skips the diff. *)

type base = {
  base_compiled : compiled;
  base_manifest : Msched_delta.Manifest.t;
}

val compile_base : ?options:options -> ?design_fp:string -> Netlist.t -> base
(** {!compile}, plus the manifest of the compiled design.  [design_fp] is
    the manifest's design fingerprint when the caller already has it
    ({!Msched_delta.Fingerprint.design_of_canonical} of the canonical text
    it keyed on); without it, the design is rendered again to compute
    {!Msched_delta.Fingerprint.design}.  Passing anything else makes the
    manifest lie about its design. *)

type delta_result = {
  delta_compiled : compiled;
  delta_manifest : Msched_delta.Manifest.t;
      (** The edited design's manifest: the base for the {e next} edit. *)
  delta_diff : Msched_delta.Diff.t option;
      (** [None] when the base is not comparable: a foreign options
          fingerprint, or a different block count. *)
  delta_reused : int;
  delta_ripped : int;
  delta_fresh : int;
  delta_expansions : int;
      (** These four always read 0: nothing is replayed.  They stay so the
          frozen end-to-end benchmark under [perfbench/] keeps compiling. *)
}

val delta_reuse_fraction : delta_result -> float
(** Always 0, like the [delta_reused] family. *)

val compile_delta :
  ?options:options ->
  ?design_fp:string ->
  manifest:Msched_delta.Manifest.t ->
  Netlist.t ->
  delta_result
(** {!compile_base} of [nl] (with [design_fp] as there), then
    {!Msched_delta.Diff.between} the base
    [manifest] and the new one.  Observability: span [delta] around the
    [compile] span, counters [delta.blocks_clean], [delta.blocks_dirty],
    [delta.cone], [delta.cold_fallback].
    @raise Compile_error / {!Msched_route.Tiers.Unroutable} exactly when
    {!compile} of [nl] would. *)

val diag_of_exn : exn -> Msched_diag.Diag.t
(** Map any pipeline exception onto its structured diagnostic
    ([Compile_error] / [Unroutable] / [Unsupported] / [Diag.Fail] payloads
    pass through; netlist validation errors, combinational cycles and
    unexpected exceptions are classified).  This is the classifier the
    resilient driver and the CLI/bench entry points share. *)

(** {2 Resilient driver}

    {!compile} is fail-fast: the first problem raises.  The resilient
    driver never lets an exception escape.  It lints the netlist first
    ({!Msched_netlist.Lint}), then walks a bounded escalation ladder:

    + baseline attempt with the requested options;
    + relax the congestion-slack budget ([max_extra_slots]);
    + rip-up & retry: relaxed slack plus perturbed partition/placement
      seeds (one rung per remaining retry);
    + optionally ([fallback_hard]) fall back to dedicated (hard) wires —
      {e per net} first: only the unroutable residue the last attempt
      recorded is hard-wired, the rest of the schedule stays virtual
      (rungs [fallback-hard], [fallback-hard-2], …); the whole-schedule
      hard baseline ([fallback-hard-all], paper Table 1 rows 8 vs 9) runs
      only when the residue cannot be named or refuses to converge.

    Every attempt searches every transport from scratch.  Attempts share
    one {!Msched_route.Reroute.t} context, which carries only the last
    attempt's residue and the forced-hard set the per-net fallback builds
    from it; the context never steers a search.  So a ladder that ends on
    [baseline], [relax-slack], [reseed-N] or [fallback-hard-all] returns
    the schedule {!compile} gives under that rung's options (mode,
    [max_extra_slots], partition and place seeds), byte for byte; the
    server, [check], [explain] and [simulate] all see the same
    schedule.

    Every attempt and diagnostic is recorded; the degradation report says
    what was requested vs what was achieved.  Observability: span
    [driver] / [driver.lint] / [driver.attempt], counters
    [driver.attempts], [driver.retries], [driver.fallback_nets],
    [driver.fallback_forced], [driver.lint_errors],
    [driver.lint_warnings], plus the [reroute.*] family (see
    [docs/OBSERVABILITY.md]). *)

type attempt_outcome =
  | Attempt_ok of { length : int; est_speed_hz : float }
  | Attempt_failed of Msched_diag.Diag.t

type attempt = {
  attempt_label : string;
      (** ["baseline"], ["relax-slack"], ["reseed-N"], ["fallback-hard"],
          ["fallback-hard-N"], ["fallback-hard-all"]. *)
  attempt_mode : Msched_route.Tiers.mts_mode;
  attempt_max_extra : int;
  attempt_partition_seed : int;
  attempt_place_seed : int;
  attempt_expansions : int;
      (** Pathfinder states expanded during this attempt. *)
  attempt_outcome : attempt_outcome;
}

type degradation = {
  requested_mode : Msched_route.Tiers.mts_mode;
  achieved_mode : Msched_route.Tiers.mts_mode option;
  requested_hz : float;  (** The virtual-clock ceiling (one emulated cycle
                             per vclock). *)
  achieved_hz : float option;  (** [est_speed_hz] of the final schedule. *)
  retries : int;  (** Attempts made beyond the baseline. *)
  fallback_nets : int;  (** Hard-wired transports in the final schedule when
                            a hard fallback (per-net or whole-schedule) was
                            taken; 0 otherwise. *)
  lint_errors : int;
  lint_warnings : int;
}

type resilient = {
  compiled : compiled option;  (** [None] when every attempt failed or lint
                                   found errors. *)
  attempts : attempt list;  (** In execution order; empty when lint errors
                                stopped the run before any attempt. *)
  diagnostics : Msched_diag.Diag.t list;
      (** Lint findings plus one diagnostic per failed attempt. *)
  degradation : degradation;
}

val compile_resilient :
  ?options:options ->
  ?max_retries:int ->
  ?fallback_hard:bool ->
  ?reuse:bool ->
  ?reroute:Msched_route.Reroute.t ->
  Netlist.t ->
  resilient
(** Never raises (any unexpected exception becomes an [E_INTERNAL]
    diagnostic).  [max_retries] (default 3) bounds the escalation rungs
    after the baseline attempt; [fallback_hard] (default [false]) appends
    the per-net hard-fallback rungs (and the whole-schedule hard rung as a
    last resort).  [reuse] is ignored: every rung searches from scratch.
    It stays only because the frozen benchmark under [perfbench/] passes
    it.  [reroute] supplies the context the ladder uses instead of a
    fresh one; it is mutated in place, so a caller that passes a fresh
    context can read the ladder's statistics from it afterwards. *)

val succeeded : resilient -> bool
val degraded : resilient -> bool
(** Succeeded, but not on the baseline attempt. *)

val resilient_exit_code : resilient -> int
(** 0 on success (even degraded); otherwise the
    {!Msched_diag.Diag.exit_code} class of the first error diagnostic. *)

val pp_resilient : Format.formatter -> resilient -> unit

val resilient_to_json : resilient -> string
(** Stable JSON document (schema ["msched-driver-2"]) with status,
    attempts, diagnostics and the degradation report. *)
