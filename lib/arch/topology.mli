(** FPGA-array topologies of the emulation system.

    The VirtuaLogic boards the paper targets are fixed arrays of FPGAs joined
    by point-to-point wires.  We model three interconnect shapes; the
    scheduler only depends on the neighbor relation and hop distances. *)

open Msched_netlist

type kind =
  | Mesh  (** 2-D grid, 4-neighbor. *)
  | Torus  (** 2-D grid with wraparound links. *)
  | Crossbar  (** Every FPGA directly wired to every other. *)

val pp_kind : Format.formatter -> kind -> unit

type t

val make : kind -> nx:int -> ny:int -> t
(** An [nx * ny] array. For [Crossbar] the shape is only used for the FPGA
    count. @raise Invalid_argument on non-positive dimensions. *)

val make_for_count : kind -> int -> t
(** The most square [nx * ny] array with at least the given FPGA count. *)

val kind : t -> kind
val num_fpgas : t -> int
val fpgas : t -> Ids.Fpga.t list
val fpga_at : t -> x:int -> y:int -> Ids.Fpga.t
val neighbors : t -> Ids.Fpga.t -> Ids.Fpga.t list
(** Deterministic order; does not include the FPGA itself. *)

val degree : t -> Ids.Fpga.t -> int
val distance : t -> Ids.Fpga.t -> Ids.Fpga.t -> int
(** Minimal hop count between two FPGAs.  {!System.make} tabulates it
    once per system ({!System.hops}); the compiler reads that table. *)

val pp : Format.formatter -> t -> unit
