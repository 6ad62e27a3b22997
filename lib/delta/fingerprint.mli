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
(** {!Msched_diag.Diag.Json.hash_hex} of {!Serial.to_string}:
    whitespace/comment/file-numbering insensitive, id-order sensitive (id
    order is semantic identity for the seeded partitioner and placer). *)

val boundary_signature :
  Netlist.t -> Msched_mts.Domain_analysis.t -> Ids.Net.t -> string
(** What the scheduler observes about a net at a block boundary:
    transition domains, sample domains, multi-transition and MTS flags
    (all by domain {e name}).  A signature change reshapes the route-links
    of every block the net touches. *)

val block :
  Msched_partition.Partition.t ->
  analysis:Msched_mts.Domain_analysis.t ->
  Ids.Block.t ->
  string

val block_text :
  Msched_partition.Partition.t ->
  analysis:Msched_mts.Domain_analysis.t ->
  Ids.Block.t ->
  string
(** The sorted-line rendering {!block} hashes (exposed for tests and
    [msched delta diff] explanations). *)
