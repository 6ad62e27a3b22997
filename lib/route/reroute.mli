(** Retry context: what one attempt of a retry ladder leaves for the
    next.

    Every attempt of [Compile.compile_resilient]'s retry ladder searches
    every transport from scratch; nothing routed by one attempt is
    replayed by another.  A context carries only what the per-net hard
    fallback reads:

    - the failure residue of the last attempt: which transports found no
      path.  With a context, an unroutable transport no longer aborts the
      pass, so one failed attempt names every culprit;
    - a forced-hard set: links the driver has decided to route on
      dedicated wires instead of the time-multiplexed pool (the per-net
      hard fallback, which moves only the unroutable residue off the
      scheduled network instead of flipping the whole schedule to hard
      mode);
    - the pathfinder's expansion count, for the attempt records.

    A context never changes what a search finds: {!Pathfind} reads
    nothing from it and only charges its expansion count to it.  With an
    empty forced-hard set, an attempt that succeeds under a context
    schedules its design byte for byte as an attempt without one, so
    every rung short of the per-net fallback returns the schedule
    [Compile.compile] gives under that rung's options.  A context lives
    in memory for one compile's retry ladder; nothing persists it.  All
    state is single-threaded mutable, like {!Msched_obs.Sink}. *)

type key = {
  k_net : int;
  k_src_block : int;
  k_dst_block : int;
  k_domain : int;  (** Constituent domain of the transport, [-1] for none. *)
}
(** One transport of a link. *)

type t

val create : unit -> t
(** An empty context. *)

val clear : t -> unit
(** Drop the failure residue and the forced-hard set (the expansion
    count is kept; it is monotone over the context's lifetime). *)

(** {2 Failure residue} *)

val note_failure : t -> key -> Msched_diag.Diag.t -> unit
val failures : t -> (key * Msched_diag.Diag.t) list
(** Transports of the {e last} attempt that found no path, in discovery
    order. *)

val clear_failures : t -> unit
(** Called by the schedulers on entry, and by the driver before every
    attempt, so {!failures} always describes the most recent attempt. *)

(** {2 Forced-hard set (per-net fallback)} *)

val force_hard : t -> key -> unit
(** Mark the link behind [key] (net, src block, dst block — the domain is
    ignored) to be routed on dedicated wires on subsequent attempts. *)

val is_forced_hard : t -> net:int -> src_block:int -> dst_block:int -> bool
val forced_hard_count : t -> int

(** {2 Statistics} *)

val note_expansions : t -> int -> unit
(** Called by the pathfinder with the number of BFS states popped. *)

val expansions : t -> int
(** States expanded over the context's lifetime. *)

val record_metrics : Msched_obs.Sink.t -> t -> unit
(** Record the [reroute.forced_hard_links] gauge into [obs].  No-op on
    a disabled sink. *)
