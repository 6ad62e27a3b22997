(** The delta-compilation manifest (schema ["msched-delta-manifest-1"]):
    the shape of one compiled design, enough to explain what a later edit
    changed.

    A manifest records the options and design fingerprints, the placement
    assignment, one fingerprint per block and the boundary signature of
    every uniquely named crossing net.  It carries no routing: every
    delta compile is a cold compile, and the manifest only feeds the
    block diff ({!Diff}) that says which blocks the edit touched.
    Boundary signatures are keyed by net {e names}, because ids shift
    under edits. *)

type t = {
  options_fp : string;
      (** {!Msched.Compile.options_fingerprint} of the producing compile;
          a mismatch makes the diff meaningless ([Diff] is skipped). *)
  design_fp : string;  (** {!Fingerprint.design} of the original netlist. *)
  num_blocks : int;
  assignment : int array;  (** Block index -> FPGA index. *)
  block_fps : string array;
      (** Per block, {!Fingerprint.blocks}' fingerprint. *)
  boundary : (string * string) list;
      (** Crossing-net name -> {!Fingerprint.boundary_signature}, sorted;
          nets with ambiguous names omitted. *)
  entries : unit list;
      (** Always [[]].  Manifests once carried a route ledger here; the
          field stays only so the frozen end-to-end benchmark under
          [perfbench/] keeps compiling. *)
}

val schema : string

val build :
  options_fp:string ->
  design_fp:string ->
  Msched_place.Placement.t ->
  analysis:Msched_mts.Domain_analysis.t ->
  t
(** The manifest of a prepared design: block fingerprints, boundary
    signatures and the placement assignment. *)

val to_json_string : t -> string
(** Canonical, checksummed single document: the CLI's [--emit-manifest]
    file and the server cache's [manifest-<key>.json] alike.  It is
    [header p ^ p ^ "}"] for [p = payload t]. *)

val payload : t -> string
(** The [payload] member the checksum covers. *)

val header : string -> string
(** [{"schema":...,"checksum":...,"payload":] for the given payload: what
    precedes it in {!to_json_string}, so a writer can emit the document
    as three slices without joining them. *)

val of_json_string : string -> (t, string) result
(** Never raises; checksum and schema failures land in [Error].  A
    document that still carries the route ledger older versions wrote
    fails its checksum: the ledger is not read back, so the re-rendered
    payload differs from the one that was hashed. *)
