(** Table 1 reproduction: "MTS Virtual Routing vs. Hard Routing".

    One row set per design, matching the paper's eleven rows: module counts,
    MTS statistics, FPGA counts, critical path lengths (virtual clocks) for
    hard- and virtual-routed MTS, and estimated maximum emulation speeds. *)

type t = {
  label : string;
  num_modules : int;  (** Row 1 (from the generator metadata). *)
  num_mts_modules : int;  (** Row 2. *)
  num_domains : int;  (** Row 3. *)
  num_mts_paths : int;  (** Row 4. *)
  num_mts_fpgas : int;  (** Row 5. *)
  num_non_mts_fpgas : int;  (** Row 7 (row 6 names the domains). *)
  domain_names : string list;  (** Row 6. *)
  critical_path_hard : int;  (** Row 8 (virtual clocks). *)
  critical_path_virtual : int;  (** Row 9. *)
  speed_hard_hz : float;  (** Row 10. *)
  speed_virtual_hz : float;  (** Row 11. *)
  total_fpgas : int;
  holdoff_slots : int;  (** Injected delay-compensation slots (virtual). *)
}

val of_design :
  ?options:Compile.options ->
  Msched_gen.Design_gen.design ->
  t
(** Prepares the design once and routes it twice (hard, then virtual). *)

val pp_table : Format.formatter -> t list -> unit
(** The full Table 1 layout, designs as columns. *)
