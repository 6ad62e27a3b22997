(** Incremental rerouting context: negotiated-congestion history and a
    per-transport reservation ledger that survive across scheduling
    attempts (PathFinder-style, after McMurchie & Ebeling).

    The TIERS scheduler is stateless: every attempt of
    [Compile.compile_resilient]'s retry ladder searches every transport
    anew.  A reroute context makes retries {e warm}: transports whose
    requirement (arrival anchor slot) is unchanged and whose reserved
    slots are still free are {e replayed} from the ledger without a
    search; only the stale or previously-unroutable {e residue} is ripped
    up and re-searched — biased away from historically congested channels
    by the per-channel history table.

    A context also carries the failure residue of the last attempt (which
    transports found no path) and a forced-hard set: links the driver has
    decided to route on dedicated wires instead of the time-multiplexed
    pool (the per-net hard fallback — ripping up only the unroutable
    residue instead of flipping the whole schedule to hard mode).

    One context belongs to one prepared design: partition or placement
    reseeding invalidates both ledger and history ({!clear}).  A context
    lives in memory for one compile's retry ladder; nothing persists it,
    so a compile's answer depends only on its design and settings.  All
    state is single-threaded mutable, like {!Msched_obs.Sink}. *)

type key = {
  k_net : int;
  k_src_block : int;
  k_dst_block : int;
  k_domain : int;  (** Constituent domain of the transport, [-1] for none. *)
}

type entry = {
  e_anchor : int;
      (** The arrival slot [r_arr] the path was searched for.  A ledger hit
          is only replayable when the new requirement matches exactly. *)
  e_len : int;  (** Path latency in virtual clocks. *)
  e_hops : (int * int) list;  (** (channel, reverse slot) per hop. *)
}

type t

val create : unit -> t
(** An empty PathFinder-style negotiated-congestion context. *)

val clear : t -> unit
(** Drop ledger, history, failures and the forced-hard set (statistics
    are kept; they are monotone over the context's lifetime).  Required
    when the placement the entries were routed against changes. *)

(** {2 Reservation ledger} *)

val lookup : t -> key -> entry option
val record : t -> key -> entry -> unit
(** Insert or overwrite the entry for [key]. *)

val rip : t -> key -> unit
(** Remove a ledger entry (rip-up); a no-op for unknown keys. *)

val keys : t -> key list
(** All ledger keys, in unspecified order. *)

val ledger_size : t -> int

(** {2 Congestion history} *)

val bump_history : t -> channel:int -> unit
(** Called by the pathfinder whenever a hop over [channel] is rejected
    because the slot is full: one unit of negotiated-congestion history. *)

val history : t -> channel:int -> int
val history_total : t -> int
(** Sum over channels; 0 means channel exploration order is untouched. *)

(** {2 Failure residue} *)

val note_failure : t -> key -> Msched_diag.Diag.t -> unit
val failures : t -> (key * Msched_diag.Diag.t) list
(** Transports of the {e last} attempt that found no path, in discovery
    order. *)

val clear_failures : t -> unit
(** Called by the schedulers on entry so {!failures} always describes the
    most recent attempt. *)

(** {2 Forced-hard set (per-net fallback)} *)

val force_hard : t -> key -> unit
(** Mark the link behind [key] (net, src block, dst block — the domain is
    ignored) to be routed on dedicated wires on subsequent attempts. *)

val is_forced_hard : t -> net:int -> src_block:int -> dst_block:int -> bool
val forced_hard_count : t -> int

(** {2 Statistics (monotone over the context's lifetime)} *)

val note_expansions : t -> int -> unit
(** Called by the pathfinder with the number of BFS states popped. *)

val expansions : t -> int
val reused : t -> int
(** Transports replayed from the ledger without a search. *)

val ripped : t -> int
(** Stale ledger entries (anchor mismatch or reserved slot taken) that
    were discarded and re-searched. *)

val fresh : t -> int
(** Transports routed with no usable ledger entry. *)

val note_reused : t -> unit
val note_ripped : t -> unit
val note_fresh : t -> unit

val record_metrics : Msched_obs.Sink.t -> t -> unit
(** Record the context statistics as [reroute.*] gauges into [obs]
    (cumulative totals; the per-attempt counters are recorded at the use
    sites).  No-op on a disabled sink. *)
