(** MTS flip-flop transformation (paper Section 5, "Transforming MTS
    flip-flops").

    Edge-triggered flip-flops whose clock can fire in more than one domain
    are not covered by the latch hold-time machinery (Observation 2), so they
    are rewritten into master/slave latch pairs: an active-low master latch
    followed by an active-high slave latch sharing the original clock net.
    The rewritten netlist preserves all net ids of the original; one fresh
    net per rewritten flip-flop is appended for the master's output.  A
    design without MTS flip-flops is returned as is. *)

open Msched_netlist

type rewrite = {
  old_ff : Ids.Cell.t;  (** Cell id in the {e original} netlist. *)
  master : Ids.Cell.t;  (** Master latch in the {e new} netlist. *)
  slave : Ids.Cell.t;  (** Slave latch in the {e new} netlist. *)
}

type rewritten = { netlist : Netlist.t; rewrites : rewrite list }

val master_slave :
  ?obs:Msched_obs.Sink.t -> Netlist.t -> Domain_analysis.t -> rewritten
(** When no flip-flop's trigger fires in two or more domains, [netlist] is
    the input netlist itself (physically equal) and [rewrites] is empty;
    the [mts.ff_rewrites] and [mts.cells_out] counters are recorded either
    way. *)

val check_supported : Netlist.t -> Domain_analysis.t -> (unit, string) result
(** Reports constructs the compiler cannot schedule.  Currently everything
    the netlist layer can express is supported: RAMs with multi-domain write
    clocks — the paper's "memories under test" future work — are handled by
    treating the write port like an MTS latch (write clock = gate, write
    pins = data). *)
