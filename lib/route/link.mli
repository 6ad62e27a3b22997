(** Route-links: logical inter-FPGA connections to be scheduled.

    One link carries one crossing net to one foreign block.  A link whose net
    is multi-transition is a {e fork group}: it decomposes into one transport
    per constituent domain (paper Figure 5), all of which the scheduler
    routes together. *)

open Msched_netlist

type t = {
  id : Ids.Link.t;
  net : Ids.Net.t;
  src_block : Ids.Block.t;
  dst_block : Ids.Block.t;
  src_fpga : Ids.Fpga.t;
  dst_fpga : Ids.Fpga.t;
  domains : Ids.Dom.t list;
      (** Constituent transition domains; [[]] for single/zero-domain nets,
          which travel as one untagged transport. *)
  hard : bool;  (** Pre-routed on dedicated wires (hard-routing baseline). *)
}

val build :
  Msched_place.Placement.t ->
  Msched_mts.Domain_analysis.t ->
  decompose_mts:bool ->
  hard_mts:bool ->
  t list
(** One link per (crossing net, foreign block).  [decompose_mts] controls
    whether multi-transition nets are split into per-domain transports;
    [hard_mts] marks multi-transition links for dedicated-wire routing. *)

val pp : Format.formatter -> t -> unit
