(** Forward list scheduling — the variant the paper notes its techniques
    also apply to ("the techniques explained are also applicable to forward
    routing", Section 6).

    Links and latch groups are processed producers-first.  Each transport
    departs as soon as its source terminal has settled and is routed
    forward in time for the earliest feasible arrival; per-domain
    transports of an MTS crossing are equalized by aligning their arrivals
    to the group's latest (when [equalize_forks] is set).  The frame length
    is whatever the resulting arrivals plus frame-end deadlines require.

    Compared to reverse (TIERS) scheduling, forward scheduling tends to
    deliver values earlier than needed, which lengthens latch hold-offs and
    can lengthen the critical path — the reason the original Virtual Wires
    work went reverse.  The [scheduler-duel] ablation quantifies this. *)

exception Unsupported of Msched_diag.Diag.t
(** Structured [E_UNSUPPORTED] diagnostic. *)

val schedule :
  Msched_place.Placement.t ->
  Msched_mts.Domain_analysis.t ->
  ?analysis:Msched_mts.Latch_analysis.t array ->
  ?options:Tiers.options ->
  ?obs:Msched_obs.Sink.t ->
  unit ->
  Schedule.t
(** Every transport is searched cold: the forward scheduler takes no
    reroute context (ledger keys are reverse slots), and an unroutable
    transport aborts immediately.
    @raise Unsupported when [options.mode] is [Mts_hard] (dedicated-wire
    pre-routing is a property of the baseline flow, not of this scheduler).
    @raise Tiers.Unroutable when a transport cannot be placed within the
    slack budget. *)
