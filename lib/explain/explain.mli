(** Schedule explainability: why is the frame as long as it is, and where
    do the wires go?

    The compiler's observability ({!Msched_obs}) times the {e compiler};
    this pass explains the {e compiled artifact}.  Three analyses over a
    finished {!Msched_route.Schedule.t} plus the prepared front-end it was
    built from:

    - {b Critical chain} ({!critical_chain}): the dependency path of
      settles, transports, FORK equalizations and latch evaluations whose
      end-to-end slot span equals [Schedule.length].  It is the
      provenance of the ReadyTime pass TIERS runs ({!Msched_route.Ready}):
      the pass walks the scheduler's own processing order
      ({!Msched_route.Sched_graph}) with each link's departure taken from
      the compiled schedule, keeps the raise behind every requirement, and
      applies the frame-length rule; the chain is the provenance walk from
      the binding length constraint to the frame end.  For a
      TIERS-compiled schedule the pass's length equals [Schedule.length]
      and the chain is exact ([ch_exact]); for schedules it cannot
      reproduce (e.g. the forward scheduler's) it degrades to a single
      whole-frame hop with [ch_exact = false].

    - {b Occupancy} ({!occupancy}): the per-slot × per-channel hop matrix
      (generalizing {!Msched_route.Schedule.channel_utilization}), hot
      channel / link / domain rankings by wire-slots, and the
      MTS-vs-single-domain contribution split.

    - {b Phase attribution} ({!attribution}): an Amdahl-style self-time
      table over recorded compiler spans, naming the serial fraction a
      parallelization effort must attack.

    Exporters follow the {!Msched_obs.Export} style: a human summary tree,
    a stable [msched-explain-1] JSON document, and a Perfetto/Chrome trace
    of per-channel occupancy counter tracks. *)

type hop = {
  h_kind : string;
      (** One of ["settle"], ["transport"], ["comb"], ["latch-eval"],
          ["sink-path"], ["congestion"], ["frame"]. *)
  h_from : int;  (** Forward slot the hop starts at. *)
  h_to : int;  (** Forward slot the hop ends at ([>= h_from]). *)
  h_what : string;  (** Human description of the hop. *)
  h_ctx : Msched_diag.Diag.context;
      (** Culprit ids (net/cell/block/domain — the channel rides in
          [fpga]-free [slack]-free context via [h_channel]). *)
  h_channel : int option;  (** Channel index for transport-ish hops. *)
}

type chain = {
  ch_hops : hop list;
      (** In forward-time order; contiguous: the first hop starts at slot
          0, each hop starts where the previous one ended, and the last
          ends at [ch_length]. *)
  ch_length : int;  (** The schedule's frame length. *)
  ch_driver : string;  (** The pass's description of the binding constraint. *)
  ch_exact : bool;
      (** The pass's length equals the schedule's.  When [false] the
          chain is the single whole-frame fallback hop. *)
}

val critical_chain :
  ?route:Msched_route.Tiers.options ->
  Msched.Compile.prepared ->
  Msched_route.Schedule.t ->
  chain
(** [route] must be the options the schedule was compiled with (only
    [latch_ordering] influences the pass; defaults to
    {!Msched_route.Tiers.default_options}). *)

type occupancy = {
  oc_num_channels : int;
  oc_length : int;
  oc_channel_names : string array;  (** ["ch3 f1->f2"], per channel. *)
  oc_matrix : int array array;
      (** [channel × (length + 1)]: multiplexed hops per (channel, slot). *)
  oc_per_channel_util : float array;
  oc_mean_util : float;
  oc_hot_channels : (int * int) list;
      (** (channel, wire-slots), busiest first, zero-traffic channels
          omitted, at most 5. *)
  oc_hot_links : (string * int) list;  (** (link description, wire-slots). *)
  oc_hot_domains : (string * int) list;  (** (domain, wire-slots). *)
  oc_mts_wire_slots : int;
      (** Hops on constituent-domain (FORK) transports. *)
  oc_single_wire_slots : int;  (** Hops on untagged multiplexed transports. *)
  oc_hard_wires : int;  (** Dedicated wires (whole-frame occupancy). *)
}

val occupancy : Msched_route.Schedule.t -> Msched_arch.System.t -> occupancy

type phase = {
  ph_name : string;
  ph_count : int;  (** Spans with this name. *)
  ph_total_us : int;  (** Summed wall time including children. *)
  ph_self_us : int;  (** Summed wall time excluding child spans. *)
  ph_frac : float;  (** Self time over total root wall time. *)
  ph_amdahl : float;
      (** Speedup bound from parallelizing this phase alone:
          [1 / (1 - ph_frac)]. *)
}

type attribution = {
  at_wall_us : int;  (** Summed duration of root spans. *)
  at_phases : phase list;  (** Largest self-time first. *)
  at_serial : string option;  (** The serial bottleneck phase. *)
}

val attribution : Msched_obs.Sink.t -> attribution option
(** [None] for a disabled sink or one with no completed spans. *)

type t = {
  r_design : string;
  r_mode : string;
  r_length : int;
  r_driver : string;  (** The schedule's own [length_driver]. *)
  r_est_speed_hz : float;
  r_chain : chain;
  r_occupancy : occupancy;
  r_phases : attribution option;
}

val analyze :
  ?route:Msched_route.Tiers.options ->
  ?obs:Msched_obs.Sink.t ->
  design:string ->
  Msched.Compile.prepared ->
  Msched_route.Schedule.t ->
  t
(** Everything above in one report.  Phases are included only when [obs]
    is an enabled sink with recorded spans; without them the report (and
    {!to_json}) is a deterministic function of the compiled schedule. *)

val pp_summary : Format.formatter -> t -> unit
(** Human tree: chain, occupancy rankings, phase table. *)

val to_json : t -> string
(** Stable [msched-explain-1] document.  Byte-deterministic for a fixed
    design/seed when the report carries no phase attribution (phase rows
    embed wall times). *)

val perfetto_string : t -> string
(** Chrome trace-event JSON of per-channel occupancy counter tracks: one
    counter ("C") event per (channel, slot), [ts] = forward slot.  Loads
    in {{:https://ui.perfetto.dev}Perfetto} next to a compiler trace. *)
