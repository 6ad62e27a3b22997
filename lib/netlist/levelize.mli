(** Combinational levelization of a netlist.

    Combinational propagation goes through [Gate] cells (all data inputs) and
    through the asynchronous read path of [Ram] cells (read-address inputs to
    the read-data output).  Latch, flip-flop and RAM-write inputs are timing
    endpoints; latch/flip-flop/RAM outputs, primary inputs and clock sources
    are timing start points with level 0.

    Latches are treated as cut points here even though they are transparent
    when open; their in-frame evaluation order is handled separately by the
    MTS latch scheduler. *)

type t

val compute : Netlist.t -> (t, Ids.Cell.t list) result
(** Levelize the whole netlist.  [Error cycle] reports a purely combinational
    cycle (a loop through gates and RAM read paths with no sequential
    element), listing the cells on it. *)

val compute_exn : Netlist.t -> t
(** @raise Combinational_cycle on a gate-level loop. *)

exception Combinational_cycle of Ids.Cell.t list

val net_level : t -> Ids.Net.t -> int
(** Combinational depth of a net: 0 for start points, [1 + max input level]
    for gate outputs. *)

val topo_cells : t -> Ids.Cell.t array
(** Combinational cells ([Gate] and [Ram] read paths) in topological order. *)

val max_level : t -> int

val comb_inputs : Netlist.t -> Cell.t -> Ids.Net.t list
(** The nets a cell's output depends on combinationally: all data inputs for
    gates, the read-address nets for RAMs, nothing for sequential/source
    cells. *)

val comb_lo : Cell.t -> int
val comb_hi : Cell.t -> int
(** [comb_inputs] without the list: the combinational inputs of [c] are
    [c.data_inputs.(i)] for [comb_lo c <= i < comb_hi c]. *)

val is_comb_through : Cell.t -> bool
(** Whether the cell propagates values combinationally from (some of) its
    inputs to its output: gates and RAM read paths. *)

val is_comb_pin : Cell.t -> Netlist.pin -> bool
(** Whether an individual input pin participates in combinational propagation
    through the cell. *)
