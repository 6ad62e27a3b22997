(** Content-addressing for delta compilation.

    Two layers of identity:

    - the {e design fingerprint} hashes the canonical serial text of a
      netlist, so "did anything change at all" is one string compare;
    - {e block fingerprints} hash an id-free rendering of one
      post-partition block — its cells (by name, with kinds, triggers and
      the {e names} of their input/output nets) plus the signatures of the
      nets crossing its boundary.  Because no internal id appears in the
      rendering, an edit elsewhere in the design that shifts ids leaves
      untouched blocks' fingerprints intact — the property the diff engine
      builds its clean/dirty classification on. *)

open Msched_netlist

val design : Netlist.t -> string
(** {!design_of_canonical} of {!Serial.to_string}:
    whitespace/comment/file-numbering insensitive, id-order sensitive (id
    order is semantic identity for the seeded partitioner and placer). *)

val design_of_canonical : string -> string
(** The design fingerprint of a netlist whose canonical serial text is
    given: {!Msched_diag.Diag.Json.hash_hex} of it.  A caller that already
    rendered the text (the server keys its cache on it) passes this
    instead of rendering again. *)

val boundary_signature :
  Netlist.t -> Msched_mts.Domain_analysis.t -> Ids.Net.t -> string
(** What the scheduler observes about a net at a block boundary:
    transition domains, sample domains, multi-transition and MTS flags
    (all by domain {e name}).  A signature change reshapes the route-links
    of every block the net touches. *)

type blocks = {
  block_fps : string array;
      (** Per block: the hash of its sorted lines — one per cell, then
          ["in <net> <signature>"] per entering net and
          ["out <net> <signature>"] per leaving net — joined by
          newlines. *)
  crossing : (Ids.Net.t * string) list;
      (** Every crossing net with its {!boundary_signature}, in
          {!Msched_partition.Partition.crossing_nets} order. *)
}

val blocks :
  Msched_partition.Partition.t ->
  analysis:Msched_mts.Domain_analysis.t ->
  blocks
(** Every block fingerprint in one pass.  Each crossing net's signature is
    rendered once and shared by the boundary list and every block that
    lists the net. *)
