(** Transition- and sample-domain analysis (paper Section 4).

    For every net we compute:
    - its {e transition domains}: the clock domains whose edges can cause the
      net's value to change;
    - its {e sample domains}: the domains whose state elements read the net
      (directly or through combinational logic).

    Both are monotone least fixed points over the netlist graph, computed
    by worklist (an item is evaluated again only when a set it reads grew),
    so combinational loops through latches converge.  A net is {e multi-transition} when it
    transitions in two or more domains; an MTS net additionally is sampled by
    more than one domain. *)

open Msched_netlist

type t

val compute : ?obs:Msched_obs.Sink.t -> Netlist.t -> t
(** [obs] records [domain.*] counters (net, domain and multi-transition
    counts). *)

val transitions : t -> Ids.Net.t -> Ids.Dom.Set.t
val samples : t -> Ids.Net.t -> Ids.Dom.Set.t

val trigger_domains : t -> Cell.trigger -> Ids.Dom.Set.t
(** Domains in which a trigger can fire: the domain itself for [Dom_clock],
    the transition domains of the trigger net for [Net_trigger]. *)

val is_multi_transition : t -> Ids.Net.t -> bool
(** Two or more transition domains — the property that forces FORK/MERGE
    decomposition of inter-FPGA transport. *)

val is_mts_net : t -> Ids.Net.t -> bool
(** The paper's MTS net: transitions in more than one domain {e and} is
    sampled by more than one domain. *)

val is_mts_gate : t -> Netlist.t -> Cell.t -> bool
(** A combinational gate whose output is an MTS net. *)

val is_mts_state : t -> Cell.t -> bool
(** A latch or flip-flop whose gate/clock input can fire in more than one
    domain (paper: "sourced by a multi transition net"). *)

val pp_net : t -> Format.formatter -> Ids.Net.t -> unit
