(** The delta diff engine: classify the blocks of an edited, prepared
    design against a base manifest and compute the {e dirty cone}.

    The diff only explains an edit: which blocks it touched, which
    blocks moved, which boundary nets changed.  It decides nothing about
    the compile, which is always cold, so the schedule is byte-identical
    to a cold compile however the classification turns out.  The cone
    holds the dirty and moved blocks, both ends of every changed
    boundary net, and the MTS closure over them (one crossing's
    per-domain transports are latency-equalized as a group). *)

open Msched_netlist

type t = {
  d_clean : int list;  (** Block indices whose fingerprints match. *)
  d_dirty : int list;
  d_moved : int list;  (** Blocks whose FPGA assignment drifted. *)
  d_changed_boundary : string list;  (** Crossing-net names. *)
  d_cone : Ids.Block.Set.t;
}

val clean_count : t -> int
val dirty_count : t -> int
val cone_size : t -> int

val between :
  base:Manifest.t ->
  edited:Manifest.t ->
  Msched_place.Placement.t ->
  analysis:Msched_mts.Domain_analysis.t ->
  t option
(** Classify the blocks of [edited], the manifest {!Manifest.build} made
    of this placement, against [base].  [None] when the two partition
    into different numbers of blocks: the topology changed and no block
    is comparable. *)

val compute :
  manifest:Manifest.t ->
  Msched_place.Placement.t ->
  analysis:Msched_mts.Domain_analysis.t ->
  t option
(** {!between} [manifest] and a manifest built here from the placement,
    for callers that hold no manifest of the edited design. *)

val pp : Format.formatter -> t -> unit

val to_json_string : t -> string
(** Schema ["msched-delta-diff-1"] (the [msched delta diff] output). *)
