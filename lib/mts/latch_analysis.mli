(** Per-block latch terminal sets, delay tables and latch groups
    (paper Section 7: "MTS Latch Ordering" and "Latch Groups").

    For each partition block we compute, once, everything the static
    scheduler needs when it reaches that block:

    - {b origin nets}: the block's input nets (crossings entering it) and the
      outputs of latches inside it — the places where values appear during a
      frame.  For each origin we tabulate min/max combinational delays to the
      block's output nets (used for ReadyTime propagation), the worst delay
      to any frame-end sink (flip-flop data, RAM write, primary output), and
      the delays to every latch data/gate pin it reaches.

    - {b latch groups}: latches whose evaluation must be coordinated.
      D-type sibling latches (sharing a data-reaching input terminal) are
      merged; G-type relations (an input reaching one latch's data and
      another's gate) order groups parent-before-child; G-cycles are merged
      into a single group (evaluated simultaneously), implemented as SCC
      condensation.  The [groups] array is in processing order: parents
      first, and consumers (via local latch-to-latch paths) before
      producers. *)

open Msched_netlist

type pin_delay = {
  to_data : Traverse.delay option;
  to_gate : Traverse.delay option;
}
(** Combinational delays from an origin net to a latch's data and gate pins
    ([None] when unreachable).  An origin with both is the paper's "GD"
    terminal. *)

type dep = { dep_origin : Ids.Net.t; dep_latch : Ids.Cell.t; dep_pd : pin_delay }

type group = {
  gid : int;
  latches : Ids.Cell.t list;
  input_deps : dep list;  (** Origins that are block input nets. *)
  local_deps : dep list;  (** Origins that are latch outputs of this block. *)
}

type origin_info = {
  to_outputs : (Ids.Net.t * Traverse.delay) list;
      (** Block output nets reachable from this origin. *)
  deadline_delay : int option;
      (** Max delay to any frame-end sink pin (FF data, RAM write pins,
          primary output) reachable from this origin. *)
  to_latch_pins : (Ids.Cell.t * pin_delay) list;
}

type t = {
  block : Ids.Block.t;
  input_nets : Ids.Net.t list;
  output_nets : Ids.Net.t list;
  latch_output_origins : Ids.Net.t list;
  origins : origin_info Ids.Net.Tbl.t;
  groups : group array;  (** In processing order (see above). *)
  local_max_settle : int Ids.Net.Tbl.t;
      (** For each block output net and latch pin net: the max combinational
          delay from frame-start origins (FF/RAM outputs, inputs, clock
          sources) local to the block, [0] if none reaches it. *)
}

val analyze_block : Msched_partition.Partition.t -> Ids.Block.t -> t

val analyze : ?obs:Msched_obs.Sink.t -> Msched_partition.Partition.t -> t array
(** One entry per block, indexed by [Ids.Block.to_int]. *)

