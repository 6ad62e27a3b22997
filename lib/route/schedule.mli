(** The compiled static schedule: everything the emulation-system simulator
    and the reports need.

    All times here are {e forward} virtual-clock slots within one frame of
    [length] slots: slot 0 is the frame start (domain edges applied), values
    feeding frame-end consumers must be final by slot [length]. *)

open Msched_netlist

type transport = {
  tr_domain : Ids.Dom.t option;
      (** The constituent domain this transport carries ([None] for
          single-domain nets and hard wires). *)
  tr_fwd_dep : int;  (** Source terminal sampled at this slot. *)
  tr_fwd_arr : int;  (** Destination copy updated at this slot. *)
  tr_hops : (int * int) list;  (** (channel, forward slot) per hop. *)
  tr_hard : bool;
      (** Dedicated-wire transport: flows whenever the source changes, with
          [tr_fwd_arr - tr_fwd_dep] hops of combinational latency. *)
}

type link_sched = { ls_link : Link.t; ls_transports : transport list }

type holdoff = {
  ho_cell : Ids.Cell.t;  (** A latch or net-triggered flip-flop. *)
  ho_gate : int;
      (** Forward slot at which the gate/clock pin's settled value is
          presented to the state element.  Before it, transient (glitching)
          gate values are masked — intra-FPGA evaluation is scheduled, so
          latches never see unsettled gates. *)
  ho_data : int;
      (** Forward slot before which data-pin updates are buffered; always
          strictly after [ho_gate] (the materialization of the paper's
          delay compensation: data never outruns gate). *)
}

type t = {
  length : int;  (** Virtual clocks per frame (the critical path). *)
  length_driver : string;
      (** Human-readable description of the binding constraint that set
          [length] (a transport chain, a latch evaluation, a local
          combinational chain, or wire congestion). *)
  vclock_hz : float;
  link_scheds : link_sched list;
  holdoffs : holdoff list;
  peak_channel_usage : int array;  (** Multiplexed wires, per channel. *)
  dedicated_per_channel : int array;
  warnings : string list;
}

val est_speed_hz : t -> float
(** [vclock_hz / length] — paper Table 1 rows 10–11. *)

val total_holdoff : t -> int
(** Sum of data hold-off slots (a proxy for injected compensation flops). *)

val pins_used_per_fpga : t -> Msched_arch.System.t -> int array
(** Per FPGA: pins actually exercised — peak multiplexed wires plus
    dedicated wires over all incident channels (each wire costs one pin at
    each endpoint). *)

val max_pins_used : t -> Msched_arch.System.t -> int

val holdoff_of : t -> Ids.Cell.t -> holdoff option

val per_channel_utilization : t -> Msched_arch.System.t -> float array
(** Per channel: (peak multiplexed + dedicated wires) / width. *)

val channel_utilization : t -> Msched_arch.System.t -> float
(** Mean over channels of {!per_channel_utilization} — how hard the
    schedule leans on the physical wire pool. *)

val occupancy_matrix : t -> Msched_arch.System.t -> int array array
(** [channel × (length + 1)] matrix of multiplexed hop counts: entry
    [(c, s)] is the number of time-multiplexed transport hops crossing
    channel [c] at forward slot [s].  Dedicated (hard) wires are excluded —
    they occupy their channel continuously and are reported separately in
    [dedicated_per_channel]. *)

val mean_transport_latency : t -> float
(** Average arrival − departure over all transports (0 when there are
    none). *)

val to_json_string : t -> string
(** Canonical JSON emission (schema ["msched-schedule-1"]): fixed field
    order, structural list order, no whitespace — two schedules serialize
    byte-identically iff they are semantically identical.  This is the
    equality witness of the differential suites (delta ≡ cold, a served
    ladder ≡ the plain compile of its winning rung, batch jobs 1≡4) and
    what the routing pins hash. *)

val json_hash_hex : t -> string
(** [Msched_diag.Diag.Json.hash_hex (to_json_string t)], hashed while the
    same writer runs, without building the string. *)

val record_metrics : Msched_obs.Sink.t -> t -> Msched_arch.System.t -> unit
(** Record schedule-level observability metrics (frame length and estimated
    speed gauges, hold-off counters, per-channel occupancy and per-FPGA pin
    histograms) into [obs].  No-op on a disabled sink. *)

val pp_summary : Format.formatter -> t -> unit
