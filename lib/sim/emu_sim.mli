(** Emulation-system simulator: executes a compiled static schedule.

    Models the emulator at virtual-clock granularity.  Every block (FPGA)
    holds its own copy of each net it consumes; copies are updated only by
    the schedule's transports (sampled at the source at [tr_fwd_dep],
    delivered at [tr_fwd_arr]) or, for hard wires, whenever the source
    changes (with hop latency).  Gates evaluate event-driven with unit
    delay; latches are genuinely level-sensitive, so mis-scheduled arrivals
    produce real hold-time clobbering — the failure mode the paper's
    scheduler exists to prevent.  Data hold-offs from the schedule delay
    data-pin application at latches, materializing the paper's delay
    compensation.

    One frame executes one edge of the merged clock stream.  After each
    frame the architectural state can be compared against {!Ref_sim}. *)

open Msched_netlist

type violations = {
  hold_hazards : int;
      (** Data applied to an open latch that later received a gate update in
          the same frame (new data evaluated against an old gate). *)
  causality_inversions : int;
      (** Transport pairs of one MTS crossing where an earlier-sampled value
          arrived after a later-sampled one (static schedule property). *)
  late_events : int;  (** Events past the frame length (schedule overrun). *)
  event_overflows : int;  (** Frames that hit the event budget (oscillation). *)
}

type t

val create :
  Msched_place.Placement.t ->
  Msched_route.Schedule.t ->
  Stimulus.t ->
  t
(** Sites are initialized from the settled reference-simulator state
    (modeling configuration download), so frame 0 starts aligned. *)

val run_edge : t -> Msched_clocking.Edges.edge -> unit
(** One frame per edge — the controller mode where the emulator steps the
    design one clock event at a time. *)

val run_frame : t -> Msched_clocking.Edges.edge list -> unit
(** One frame carrying all the edges that fall within its wall-clock window
    (see {!Msched_clocking.Edges.frames}).  All edges take effect at slot 0,
    with captures sampling the settled pre-frame state; cross-domain races
    inside one window are resolved by the schedule's gate-before-data
    discipline, which can transiently differ from the golden simulator's
    sequential edge order (frame quantization — a property of real
    emulators, measured by {!Fidelity.compare_frames}). *)

val run : t -> Msched_clocking.Edges.edge list -> unit

val state_snapshot : t -> (Ids.Cell.t * bool) list
(** Owner-block output values of every state cell, in {!Ref_sim.state_cells}
    order — directly comparable with {!Ref_sim.state_snapshot}. *)

val ram_contents : t -> Ids.Cell.t -> bool array
val violations : t -> violations
