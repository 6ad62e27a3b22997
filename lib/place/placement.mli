(** Block-to-FPGA placement.

    Blocks produced by the partitioner are mapped one-to-one onto FPGAs of
    the emulation system.  The placer minimizes total weighted hop distance
    over inter-block connections (a proxy for route-link path length) with a
    greedy constructive pass followed by seeded simulated annealing. *)

open Msched_netlist

type t

val place :
  Msched_partition.Partition.t ->
  Msched_arch.System.t ->
  ?seed:int ->
  ?effort:int ->
  ?pinned:(Ids.Block.t * Ids.Fpga.t) list ->
  ?obs:Msched_obs.Sink.t ->
  unit ->
  t
(** [effort] scales the annealing move budget (default 4; 0 disables
    annealing and keeps the constructive placement).  [pinned] blocks are
    fixed to the given FPGAs and never moved — the hook for hard-wired
    cores, whose heterogeneous placement the paper lists as future work.

    Annealing draws are counter-based (a pure function of seed and move
    index), so the trajectory is a function of [seed] alone.
    @raise Invalid_argument if there are more blocks than FPGAs, or if
    pinned entries conflict. *)

val of_assignment :
  Msched_partition.Partition.t ->
  Msched_arch.System.t ->
  Ids.Fpga.t array ->
  t
(** Adopt an explicit block-to-FPGA map (indexed by [Ids.Block.to_int]).
    @raise Invalid_argument on duplicate FPGAs. *)

val partition : t -> Msched_partition.Partition.t
val system : t -> Msched_arch.System.t
val fpga_of_block : t -> Ids.Block.t -> Ids.Fpga.t
val block_of_fpga : t -> Ids.Fpga.t -> Ids.Block.t option
val fpga_of_cell : t -> Ids.Cell.t -> Ids.Fpga.t

val wirelength : t -> int
(** Total weighted hop distance over inter-block connections (the annealing
    objective). *)

val pp_summary : Format.formatter -> t -> unit
