(** Static schedule verifier: an independent axiom-checking pass over
    compiled schedules.

    The TIERS and forward schedulers ({!Msched_route.Tiers},
    {!Msched_route.Forward}) construct schedules that are correct {e by
    construction}; the fidelity harness ({!Msched_sim.Fidelity}) checks them
    {e dynamically} against a finite edge stream.  This module closes the
    gap with a third, static leg: it re-derives the paper's invariants
    directly from a finished {!Msched_route.Schedule.t} plus the placement
    and domain analysis it was built from.  It reads none of the
    schedulers' tables; the only code it shares with them is the
    netlist-level Min/MaxDelay kernel ({!Msched_netlist.Traverse}), run on
    regions of its own.  The transport, resource and completeness checks
    are O(schedule); the hold-safety and departure checks add, per block,
    an O(block) region build and one kernel cone per input net.  A
    schedule that passes is structurally incapable of the failure modes of
    the paper's Section 3, independent of any particular stimulus.

    Checked axioms, mapped to the paper:

    - {b Functional Axiom 1} (timing closure): every transport fits inside
      the frame, departs no earlier than its source can have settled
      ([Departure_too_early], [Transport_overrun]), and hop slots advance
      strictly monotonically along a channel path that really connects the
      link's source FPGA to its destination ([Hop_misordered],
      [Path_broken]).
    - {b Functional Axiom 2} (causality of multi-domain transports): all
      constituent-domain transports of one MTS crossing exist
      ([Missing_fork_transport]) and are delay-equalized so the MERGE at the
      destination regenerates a causally correct value ([Fork_skew]).
    - {b Observation 2} (hold-time safety of MTS latches): every latch and
      net-triggered flip-flop/RAM carries a data hold-off record whose data
      slot lies strictly after its gate slot ([Missing_holdoff],
      [Holdoff_misordered]) and after every link-fed same-domain gate
      arrival, so Gate information is presented no later than Data
      ([Gate_after_data]).
    - {b Physical resources}: time-multiplexed wire occupancy never exceeds
      a channel's non-dedicated width ([Channel_overbooked]), the recorded
      peak usage is not understated ([Peak_understated]), peak plus
      dedicated wires fit the channel ([Channel_overflow]) and the per-FPGA
      pin budget ([Pin_budget_exceeded]), and hard-routed MTS transports
      have genuinely dedicated wires on every channel they traverse
      ([Hard_not_dedicated]).
    - {b Completeness}: every partition-crossing net is delivered to every
      foreign consumer block ([Missing_link]).

    The verifier is deliberately {e conservative the sound way}: its derived
    bounds (settle times, gate arrivals) are lower bounds of what the
    schedulers enforce, so a TIERS- or forward-compiled schedule is always
    clean, while a corrupted or naively scheduled one is flagged. *)

open Msched_netlist
module Link := Msched_route.Link
module Schedule := Msched_route.Schedule

type violation =
  | Transport_overrun of {
      link : Link.t;
      domain : Ids.Dom.t option;
      dep : int;
      arr : int;
      length : int;
    }  (** Departure/arrival outside [0, length] or arrival before departure. *)
  | Hop_misordered of {
      link : Link.t;
      domain : Ids.Dom.t option;
      channel : int;
      slot : int;
      dep : int;
      arr : int;
    }
      (** A hop slot outside the transport's [dep, arr] window, or not
          strictly after the previous hop's slot. *)
  | Path_broken of {
      link : Link.t;
      domain : Ids.Dom.t option;
      detail : string;
    }
      (** The hop channels do not form a connected source-to-destination
          channel path of the emulation system. *)
  | Departure_too_early of {
      link : Link.t;
      domain : Ids.Dom.t option;
      dep : int;
      required : int;
    }
      (** The transport samples its source terminal before the source net
          can have settled (local frame-start paths or upstream link
          arrivals plus combinational delay). *)
  | Fork_skew of { link : Link.t; deps : int list; arrs : int list }
      (** Constituent-domain transports of one MTS crossing with unequal
          departures or arrivals (the MERGE would reassemble values sampled
          at different instants — paper Figure 2's clobbering). *)
  | Missing_link of { net : Ids.Net.t; dst_block : Ids.Block.t }
      (** A partition-crossing net with no transport at all to one of its
          foreign consumer blocks. *)
  | Missing_fork_transport of {
      net : Ids.Net.t;
      dst_block : Ids.Block.t;
      domain : Ids.Dom.t;
    }
      (** A multi-transition net delivered without one of its constituent
          domains (an incomplete FORK — paper Figure 5). *)
  | Channel_overbooked of {
      channel : int;
      slot : int;
      used : int;
      capacity : int;
    }
      (** More concurrent multiplexed transports on a channel slot than the
          channel has non-dedicated wires. *)
  | Peak_understated of { channel : int; recorded : int; actual : int }
      (** [peak_channel_usage] claims fewer wires than the hop schedule
          actually uses (pin accounting would be wrong). *)
  | Channel_overflow of { channel : int; committed : int; width : int }
      (** Peak multiplexed usage plus dedicated wires exceed the channel's
          physical width. *)
  | Pin_budget_exceeded of { fpga : Ids.Fpga.t; used : int; budget : int }
      (** Wires incident to an FPGA exceed its user-IO pin budget. *)
  | Hard_not_dedicated of {
      channel : int;
      hard_transports : int;
      dedicated : int;
    }
      (** More hard transports traverse a channel than it has dedicated
          wires — the "hard" wires would actually be shared. *)
  | Missing_holdoff of { cell : Ids.Cell.t }
      (** A latch or net-triggered flip-flop/RAM without a data hold-off
          record: nothing stops Data from outrunning Gate. *)
  | Holdoff_misordered of { cell : Ids.Cell.t; gate : int; data : int }
      (** A hold-off whose data slot is not strictly after its gate slot
          (simultaneous arrival must latch the old value — paper
          Figure 4a). *)
  | Holdoff_out_of_frame of {
      cell : Ids.Cell.t;
      gate : int;
      data : int;
      length : int;
    }  (** Hold-off slots outside [0, length]. *)
  | Gate_after_data of {
      cell : Ids.Cell.t;
      data_holdoff : int;
      required : int;
    }
      (** Observation 2 violated: a link-fed same-domain gate arrival lands
          after the cell's data hold-off expires, so new Data can be
          evaluated against stale Gate information. *)

val kind_name : violation -> string
(** Stable snake-case tag of the violation's constructor, for tests and
    machine consumption (e.g. ["fork-skew"], ["gate-after-data"]). *)

type report = {
  violations : violation list;  (** In deterministic discovery order. *)
  length : int;  (** Frame length of the schedule checked. *)
  links_checked : int;
  transports_checked : int;
  holdoffs_checked : int;
  blocks_checked : int;
}

val is_clean : report -> bool

val count_kind : report -> string -> int
(** Number of violations whose {!kind_name} equals the tag. *)

val hold_safety_cells : report -> Ids.Cell.Set.t
(** Cells with at least one hold-safety violation ([Missing_holdoff],
    [Holdoff_misordered], [Holdoff_out_of_frame] or [Gate_after_data]) —
    the static counterpart of the emulator's hold-hazard accounting. *)

val pp_report : Format.formatter -> report -> unit

val verify :
  ?obs:Msched_obs.Sink.t ->
  Msched_place.Placement.t ->
  Msched_mts.Domain_analysis.t ->
  Schedule.t ->
  report
(** [verify placement analysis schedule] checks every axiom above.  The
    placement and domain analysis must be the ones the schedule was
    compiled from.  Never raises on malformed schedules: structural damage
    surfaces as violations. *)
