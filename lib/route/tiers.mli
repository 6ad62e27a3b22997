(** TIERS-style reverse static scheduling with multi-domain (MTS) support —
    the paper's Sections 6 and 7.

    The scheduler processes {e route-links} and {e latch groups} in a
    dependency order derived from combinational reachability inside blocks:
    consumers before producers, gate-side constraints before data-side ones
    (G-type latch ordering).  Each link is routed backwards in time over the
    time-expanded wire graph so that it arrives exactly when its destination
    needs it, by a minimal-latency search that depends only on the live
    reservation table; ReadyTime requirements then propagate to the source
    block's terminals.  Multi-transition nets travel as per-domain
    transports whose latencies are equalized so the merge at the
    destination is causally correct; hold-time safety at latches is
    enforced by scheduling gate information no later than data and by data
    hold-offs (delay compensation). *)

type mts_mode =
  | Mts_virtual  (** The paper's contribution: scheduled MTS transport. *)
  | Mts_hard  (** Baseline: MTS nets on dedicated (hard) wires. *)
  | Naive
      (** Broken baseline for fidelity experiments: per-domain transports
          routed independently with no causal alignment and no latch
          ordering. *)

type options = {
  mode : mts_mode;
  equalize_forks : bool;
      (** Pad per-domain transports of one MTS crossing to equal latency. *)
  latch_ordering : bool;
      (** Enforce gate-before-data ReadyTimes and emit data hold-offs. *)
  same_domain_only : bool;
      (** Apply hold constraints only to same-domain (data, gate) pairs
          (Observation 1); [false] is the conservative all-pairs ablation. *)
  max_extra_slots : int;
      (** Congestion slack allowed beyond shortest distance per transport. *)
}

val default_options : options
(** [Mts_virtual], everything on, [max_extra_slots = 4096]. *)

val mode_name : mts_mode -> string
(** ["virtual"], ["hard"], ["naive"]. *)

val hard_options : options
val naive_options : options

exception Unroutable of Msched_diag.Diag.t
(** The payload is a structured diagnostic ([E_UNROUTABLE] for slack-budget
    exhaustion, [E_CAPACITY] for wire/pin exhaustion) carrying the culprit
    net, destination FPGA/block and the slack budget that was exceeded. *)

val schedule :
  Msched_place.Placement.t ->
  Msched_mts.Domain_analysis.t ->
  ?analysis:Msched_mts.Latch_analysis.t array ->
  ?options:options ->
  ?obs:Msched_obs.Sink.t ->
  ?reroute:Reroute.t ->
  unit ->
  Schedule.t
(** Compile a placed design into a static schedule.  [analysis] (per-block
    latch analysis) is computed on demand when not supplied.  [obs] records
    stage spans ([tiers.*]) plus scheduler/pathfinder/channel metrics (see
    [docs/OBSERVABILITY.md]).

    The reverse pass is one sequential walk over the dependency order
    ({!Ready.propagate}): each link is routed against the live
    reservation table at its ReadyTime requirement, and its requirements
    propagate before the next node is taken; {!Ready.frame} then sets the
    frame length and [length_driver].

    With a [reroute] context, links the driver forced hard
    ({!Reroute.force_hard}) are routed on dedicated wires, and an
    unroutable transport no longer aborts the pass: the whole residue is
    collected into the context first, then {!Unroutable} is raised with
    the first culprit.  Every transport is searched; a search never reads
    the context (see {!Pathfind.search}), so a successful attempt under a
    context with no forced-hard links returns the schedule an attempt
    without one returns.
    @raise Unroutable when a transport cannot be placed within the slack
    budget (e.g. hard wires exhausted a channel). *)
