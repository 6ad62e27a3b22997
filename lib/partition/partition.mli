(** Partitioning a netlist into FPGA-sized blocks.

    One block maps to one FPGA (the VirtuaLogic flow).  The partitioner is a
    seeded BFS clustering pass, a greedy merge of under-filled blocks and
    Fiduccia–Mattheyses-style boundary refinement, all run on a flat cell
    graph built once per {!make}; it is deterministic for a fixed seed.

    A net {e crosses} the partition when some consumer terminal lives in a
    different block than the net's driver.  Root-clock trigger connections
    ([Dom_clock]) are excluded: emulators distribute root clocks on dedicated
    global lines, so they consume neither pins nor schedule slots.  Gated or
    derived clock nets ([Net_trigger]) are ordinary data crossings. *)

open Msched_netlist

type t

val make :
  ?obs:Msched_obs.Sink.t ->
  Netlist.t ->
  max_weight:int ->
  ?seed:int ->
  unit ->
  t
(** Cluster into blocks of weight at most [max_weight].
    @raise Invalid_argument if some single cell outweighs [max_weight]. *)

val of_assignment : Netlist.t -> Ids.Block.t array -> t
(** Adopt an explicit cell-to-block map (indexed by [Ids.Cell.to_int]);
    block ids must be dense from 0. Used by tests and tiny examples. *)

val netlist : t -> Netlist.t
val num_blocks : t -> int
val blocks : t -> Ids.Block.t list
val block_of_cell : t -> Ids.Cell.t -> Ids.Block.t
val cells_of_block : t -> Ids.Block.t -> Ids.Cell.t list
val weight_of_block : t -> Ids.Block.t -> int

val is_global_term : Netlist.t -> Netlist.term -> bool
(** True for [Dom_clock] trigger terminals (globally distributed). *)

val crossing_nets : t -> Ids.Net.t list
(** Nets with at least one non-global consumer outside the driver's block. *)

val input_nets : t -> Ids.Block.t -> Ids.Net.t list
(** Crossing nets entering the block (consumed there, driven elsewhere). *)

val output_nets : t -> Ids.Block.t -> Ids.Net.t list
(** Crossing nets leaving the block (driven there, consumed elsewhere). *)

val foreign_consumers : t -> Ids.Net.t -> (Ids.Block.t * Netlist.term list) list
(** Non-global consumer terminals of a net grouped by foreign block
    (excluding the driver's own block): blocks in ascending order, each
    block's terminals in fanout order; [[]] for a net that does not cross.
    The lists are computed for every net at once, on the first call to
    this function or to {!crossing_nets}, {!input_nets} or
    {!output_nets}, and stored with the partition; later calls return the
    stored list without regrouping. *)

val naive_pin_count : t -> Ids.Block.t -> int
(** Pins this block would need if every crossing net used a dedicated pin:
    distinct nets leaving the block plus distinct nets entering it. This is
    the all-hard-wired baseline of the Figure 8 discussion. *)

val validate : t -> (unit, string) result
(** Every cell assigned exactly once, dense block ids, no empty block. *)

val pp_summary : Format.formatter -> t -> unit
