(** Concurrent request dispatcher for `msched serve`: a bounded queue of
    jobs drained by a fixed set of worker domains, with explicit
    backpressure, per-request deadlines, crash recovery and graceful
    shutdown.  The full state machine (request and worker lifecycles) is
    documented in [docs/SERVER.md]; the failure taxonomy (E_OVERLOAD,
    E_TIMEOUT, E_INTERNAL) in [docs/ROBUSTNESS.md].

    The dispatcher is generic in the job and result types so the chaos
    tests can inject poison work; `msched serve` instantiates it with
    the transport's payload (a {!Server.request} or a poison) and
    {!Server.answer}.

    Threading model: submitters are sys-threads (one per client session),
    workers are domains, and one monitor thread reaps crashed workers,
    replaces hung ones, wakes submitters whose deadline has passed, and is
    the {e only} writer of the optional observability sink (sinks are
    single-threaded mutable state). *)

type overload =
  | Shed  (** Full queue: answer E_OVERLOAD immediately. *)
  | Block
      (** Full queue: make the submitter wait for space (still bounded by
          its deadline). *)

val overload_name : overload -> string

type 'res outcome =
  | Done of 'res
  | Rejected of Msched_diag.Diag.t
      (** E_OVERLOAD: shed on a full queue, or refused while draining /
          aborted before starting.  Retryable. *)
  | Timed_out of Msched_diag.Diag.t
      (** E_TIMEOUT: deadline expired — cancelled while queued, or the
          running compile was abandoned. *)
  | Crashed of Msched_diag.Diag.t
      (** E_INTERNAL: the worker domain died executing this job (it was
          reaped and replaced). *)

type config = {
  d_workers : int;  (** Worker domains (>= 1). *)
  d_queue_max : int;  (** Bounded queue depth. *)
  d_overload : overload;
  d_deadline_s : float option;  (** Default per-request deadline. *)
  d_grace_s : float;
      (** How long an abandoned (timed-out, still running) worker may keep
          going before the monitor writes it off and spawns a
          replacement. *)
}

val default_config : config
(** 2 workers, queue 64, shed, no deadline, 1 s grace. *)

type ('job, 'res) t

val create :
  ?sink:Msched_obs.Sink.t ->
  ?gauges:(string * (unit -> float)) list ->
  config ->
  (stopping:(unit -> bool) -> 'job -> 'res) ->
  ('job, 'res) t
(** Spawn the workers and the monitor.  The run function receives
    [stopping], which turns true on {!abort}: cooperative long-running
    jobs may poll it and bail early (compiles that ignore it simply finish
    and are dropped).  A run function that {e raises} kills its worker —
    that is the crash-recovery path, not an error-reporting channel;
    report job failures in the ['res] value.

    [gauges] are extra probes sampled by the monitor alongside the
    [server.*] gauges (e.g. cache eviction counts owned by the transport
    layer), keeping the sink single-writer. *)

val submit :
  ?client:int -> ?deadline_s:float -> ('job, 'res) t -> 'job -> 'res outcome
(** Enqueue and wait for the outcome (blocks the calling thread on a
    condition the dispatcher broadcasts when a result lands, so a finished
    job wakes its submitter at once; no polling).  Under [Block], a
    submitter facing a full queue waits on the same condition, which also
    fires when a queued ticket leaves the queue or draining starts.
    [deadline_s] overrides the config default; [None] means wait forever.
    A deadline is checked on each wake-up and on the monitor's 10 ms tick,
    so it fires within one tick of expiry.
    Safe to call from many threads concurrently.

    [client] (default 0) names the fairness lane: tickets queue per
    client and workers drain the lanes round-robin, so one client
    flooding the queue cannot starve the others — each queued client
    gets one job per rotation.  The transport passes its connection id
    here; the queue bound and overload policy apply across all lanes
    combined. *)

type counters = {
  c_submitted : int;
  c_completed : int;
  c_rejected : int;
  c_timed_out : int;
  c_crashed : int;
  c_late : int;  (** Abandoned jobs that eventually finished anyway. *)
  c_reaped : int;  (** Dead (crashed) worker domains joined + replaced. *)
  c_replaced : int;  (** Hung workers written off after the grace period. *)
  c_queue_depth : int;
  c_inflight : int;
  c_peak_queue_depth : int;
  c_peak_inflight : int;
  c_peak_lanes : int;  (** Most distinct client fairness lanes queued at once. *)
}

val counters : ('job, 'res) t -> counters
(** Consistent snapshot (taken under the dispatcher lock). *)

val drain : ?timeout_s:float -> ('job, 'res) t -> bool
(** Graceful shutdown: stop accepting, let the workers finish everything
    already queued and running, join them, stop the monitor.  Returns
    [false] if some worker failed to finish within [timeout_s] (default
    30 s) and was leaked to process exit. *)

val abort : ?timeout_s:float -> ('job, 'res) t -> bool
(** Forced shutdown: stop accepting, answer every queued request with
    E_OVERLOAD, raise the [stopping] flag for cooperative jobs, then wait
    up to [timeout_s] (default 2 s) for workers to exit; stragglers are
    leaked to process exit ([false]). *)
