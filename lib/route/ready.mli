(** The paper's Section 7 ReadyTime pass, in reverse time: the one
    implementation behind {!Tiers.schedule} and the critical-chain
    explainer.

    A requirement [r] on (block, net) means the net must be settled [r]
    slots before the frame end.  {!seed} puts in the frame-end deadlines
    (every origin that reaches a flip-flop data pin, RAM write pin or
    primary output).  {!propagate} walks a {!Sched_graph.order}
    consumers-first: at a link it asks the caller for the link's reverse
    departure given the requirement at its destination, and raises every
    origin feeding the link's source terminal to departure + MaxDelay; at
    a latch group it raises the origins of the members' data pins, and of
    their gate pins, to the group's requirement + MaxDelay + 1.  Every
    raise keeps its provenance ({!why}).  {!frame} then applies the
    frame-length rule.

    Because the order is consumers-first, a requirement is final before
    the link that reads it is taken, so a caller that answers with the
    departures of a finished schedule sees the table the scheduler saw. *)

open Msched_netlist

type why =
  | Deadline
      (** Reaches a frame-end sink at a combinational depth equal to the
          requirement. *)
  | Via_link of { link : int; dmax : int }
      (** Feeds the source terminal of link [link] (an index into the
          link array) at depth [dmax]. *)
  | Via_group of {
      latch : Ids.Cell.t;
      gate : bool;  (** The gate pin, not the data pin. *)
      dmax : int;
      out : Ids.Net.t option;
          (** The group output whose requirement the group took: the
              first latch output carrying the group's maximum. *)
    }
(** The raise that set a requirement to its current value. *)

type binding =
  | Floor  (** The one-slot minimum frame. *)
  | Transport of { link : int; settle : int }
      (** Frame-start settle of the link's source terminal plus its
          reverse departure. *)
  | Congestion  (** The latest reserved reverse slot of any wire. *)
  | Sink of { block : Ids.Block.t; cell : Ids.Cell.t; net : Ids.Net.t }
      (** A local frame-start chain into a frame-end sink pin. *)
  | Latch_eval of {
      block : Ids.Block.t;
      cell : Ids.Cell.t;
      out : Ids.Net.t option;
      r : int;  (** The requirement on the cell's output. *)
      pin_settle : int;  (** Frame-start settle of its data/gate pins. *)
    }
      (** A latch, or a net-triggered flip-flop or RAM port: pin settle,
          one slot of evaluation, then its output requirement. *)
(** The constraint that sets the frame length. *)

type t

val seed :
  Msched_partition.Partition.t ->
  Msched_mts.Latch_analysis.t array ->
  Link.t array ->
  t
(** A table holding the frame-end deadlines. *)

val propagate :
  t ->
  latch_ordering:bool ->
  depart:(int -> int -> int) ->
  Sched_graph.node list ->
  unit
(** Walk [order] once.  [depart i r] is link [i]'s reverse departure
    (the latest over its transports) when its destination requires it
    [r] slots before the frame end; {!Tiers.schedule} routes the link
    there.  The gate-pin origins of link-fed latch dependencies are
    raised only under [latch_ordering]; those of local dependencies
    always are. *)

val provenance : t -> Ids.Block.t -> Ids.Net.t -> (int * why) option
(** The requirement on (block, net) with the raise that set it; [None]
    when nothing raised it above [0]. *)

type frame = {
  length : int;
  binding : binding;
  driver : string;  (** The schedule's [length_driver] text. *)
}

val frame : t -> congestion:int -> frame
(** The frame-length rule over the propagated table: the longest of the
    one-slot floor, every link's settle + departure, the latest reserved
    reverse slot [congestion], every local chain into a frame-end sink
    and every latch evaluation.  Candidates are taken in that order
    (links in processing order, then block by block and cell by cell,
    a cell's sink pins before its evaluation), and only a strictly
    longer one moves the binding. *)
