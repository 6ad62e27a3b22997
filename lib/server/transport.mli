(** Transport for `msched serve`: framed NDJSON requests over a
    Unix-domain or TCP stream socket, or one session over a pair of fds
    ([serve --stdin]), dispatched onto {!Dispatch} worker domains — one
    response line per request, per-connection summary at client EOF,
    [msched-serve-summary-1] from {!wait} after shutdown.

    One request path: every compile, delta or poison line parses to one
    {!Q_job}; the session turns its source into one {!Server.request},
    the dispatcher runs {!Server.answer} on it, and the session sends
    the one {!Server.answer} that comes back.

    Protocol grammar, timeout/backpressure semantics and the drain state
    machine are documented in [docs/SERVER.md]; the failure taxonomy
    (E_PARSE / E_OVERLOAD / E_TIMEOUT / E_INTERNAL / E_UNSUPPORTED) in
    [docs/ROBUSTNESS.md]. *)

type address =
  | Unix_path of string
  | Tcp of string * int
  | Stdio of Unix.file_descr * Unix.file_descr
      (** One session reading requests from the first fd and writing
          responses to the second (the CLI passes stdin and stdout).  The
          caller keeps owning both fds.  The session's end — input EOF, a
          vanished reader, an oversized frame — requests a drain. *)

val address_name : address -> string
(** ["unix:/path"] / ["tcp:host:port"] / ["stdio"]. *)

val parse_address : string -> (address, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"] (empty host means 127.0.0.1), or a
    bare path (Unix-domain); never {!Stdio}. *)

(** Fault-injection requests, accepted only when the server was started
    with fault injection enabled (they exercise the dispatcher's timeout,
    hang-replacement and crash-recovery paths from real clients). *)
type poison =
  | Sleep of float  (** Hold a worker for N seconds, then compile. *)
  | Hang  (** Hold a worker until the server aborts. *)
  | Crash  (** Raise inside the worker: kills its domain. *)

val poison_name : poison -> string

type source = [ `Path of string | `Text of string ]

type request =
  | Q_blank
  | Q_job of {
      q_work :
        [ `Compile of source
        | `Delta of source * string option
              (** [{"op": "delta"}] (docs/DELTA.md), with the manifest key
                  of a prior response as its base; no key means a cold
                  base compile that seeds the cache. *)
        | `Poison of poison ];
      q_id : string option;
      q_deadline_s : float option;
    }
      (** Every request a worker answers: a compile, a delta or a
          poison. *)
  | Q_shutdown of [ `Drain | `Abort ]
  | Q_bad of { q_diag : Msched_diag.Diag.t; q_id : string option }
      (** [q_id]: the frame's ["id"], when it parsed far enough to have
          one, so even a refused request is answered under its id. *)

val parse_request : inject_faults:bool -> string -> request
(** One request line — the one request grammar of every transport.
    Poison lines parse to {!Q_bad} (E_UNSUPPORTED) unless
    [inject_faults]. *)

type config = {
  t_address : address;
  t_dispatch : Dispatch.config;
  t_settings : Server.settings;
  t_inject_faults : bool;
  t_max_frame : int;
      (** Max request-line bytes; an unterminated frame beyond this is
          answered with E_PARSE and the connection closed. *)
  t_cache_max_bytes : int option;
      (** Cache size cap, enforced by a janitor thread (and once at start
          and shutdown) via {!Cache.gc}. *)
  t_gc_interval_s : float;
  t_drain_timeout_s : float;
  t_abort_timeout_s : float;
}

val default_config : config

type t

val start : ?sink:Msched_obs.Sink.t -> config -> t
(** Bind, listen, spawn the dispatcher (workers + monitor), the accept
    thread (for {!Stdio}: the one session thread instead) and the cache
    janitor; returns immediately.  Ignores SIGPIPE.
    @raise Msched_diag.Diag.Fail when the Unix listen path exists and is
    not a socket. *)

val bound_address : t -> address
(** The actual bound address — resolves TCP port 0 to the kernel-chosen
    port (how tests listen on a free port). *)

val request_shutdown : t -> [ `Drain | `Abort ] -> unit
(** Request a shutdown: one compare-and-set on the atomic {!wait} polls,
    and no lock, so a signal handler may call it whichever thread it
    interrupts.  Escalates drain to abort; never de-escalates.  Also
    triggered by a client sending [{"op": "shutdown"}]. *)

type summary = {
  sm_counters : Dispatch.counters;
  sm_connections : int;
  sm_disconnects : int;  (** Clients that vanished mid-session. *)
  sm_frame_errors : int;
  sm_evictions : int;  (** Cache entries evicted by the janitor. *)
  sm_cache : (Server.cache_status * int) list;
      (** [msched-batch-1] responses sent, by their [cache] member; error
          records that never reached a worker read [Cache_off]. *)
  sm_wall_s : float;
  sm_clean : bool;
      (** Every worker finished within the timeout and no abort
          escalation happened. *)
}

val wait : t -> summary
(** Block until a shutdown is requested, then run it: stop accepting
    connections, drain (or abort) the dispatcher — every in-flight request
    is answered, queued requests run to completion on drain or are shed
    with E_OVERLOAD on abort — flush per-connection summaries, close
    sessions, release the socket.  Call once. *)

val summary_json : summary -> string
(** The [msched-serve-summary-1] line. *)
