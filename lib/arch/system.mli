(** Emulation-system descriptor: topology + pin budget + virtual clock,
    with the channel adjacency and hop-distance table every consumer
    shares.

    Each directed neighbor pair of FPGAs is joined by a {e channel} holding a
    fixed number of physical wires; a wire carries one bit per virtual clock.
    Channel widths are derived from the per-FPGA user-IO pin budget: an
    FPGA's pins are split evenly over its incident directed channels (in and
    out), and a channel's width is the minimum of what its two endpoints can
    afford.  This matches the paper's Xilinx XC4062XL setting (240 user-IO
    pins, 34 MHz virtual clock).

    {!make} also builds, once, the two CSR adjacencies the pathfinder
    walks and the [num_fpgas × num_fpgas] hop table ({!hops}) that the
    placer's cost, the pathfinder's distance bound and TIERS' residue
    estimate read; no other part of the compiler calls
    {!Topology.distance}. *)

open Msched_netlist

type channel = {
  channel_index : int;
  src : Ids.Fpga.t;
  dst : Ids.Fpga.t;
  width : int;  (** Number of physical wires in this directed channel. *)
}

type t

val make :
  ?vclock_hz:float -> Topology.t -> pins_per_fpga:int -> t
(** Default virtual clock: 34 MHz.
    @raise Invalid_argument if the pin budget gives some channel zero
    wires. *)

val topology : t -> Topology.t
val pins_per_fpga : t -> int
val vclock_hz : t -> float
val num_fpgas : t -> int
val channels : t -> channel array
val channel : t -> int -> channel
val channel_between : t -> src:Ids.Fpga.t -> dst:Ids.Fpga.t -> channel option
val out_channels : t -> Ids.Fpga.t -> channel list
(** In channel-index order, like {!out_csr}. *)

type csr = private {
  offsets : int array;  (** Length [num_fpgas + 1]. *)
  ids : int array;  (** Channel indices. *)
  ends : int array;  (** The FPGA at each channel's far end. *)
}
(** Compressed adjacency: FPGA [f]'s channels are entries
    [offsets.(f)] to [offsets.(f+1) - 1] of [ids] and [ends], in
    channel-index order.  Built once by {!make}. *)

val out_csr : t -> csr
(** Out-channels; [ends] holds each channel's destination. *)

val in_csr : t -> csr
(** In-channels; [ends] holds each channel's source. *)

val hops : t -> int array
(** Minimal hop counts, row-major: entry [(f * num_fpgas t) + g] is the
    number of channels on a shortest [f] → [g] path over the out-channels
    ({!Topology.distance}; [0] iff [f = g]).  Its length is exactly
    [num_fpgas t * num_fpgas t].  Built once by {!make} and shared: read
    it, never write it. *)

val distance : t -> Ids.Fpga.t -> Ids.Fpga.t -> int
(** [distance t f g] is the {!hops} entry for [f] → [g]. *)

val pins_used_per_fpga : t -> Ids.Fpga.t -> int
(** Pins consumed by the derived channel widths at an FPGA (each wire costs
    one pin at each endpoint). *)

val xilinx_4062_pins : int
(** User-IO pin count of the paper's XC4062XL FPGAs (240). *)

val default_vclock_hz : float
(** 34 MHz, the VStation-5M virtual clock used for speed estimates. *)

val pp : Format.formatter -> t -> unit
