(** Gate-level netlists: a frozen, validated design graph plus a mutable
    builder used by front-ends and generators.

    Invariants of a frozen netlist:
    - every net has exactly one driver cell;
    - cell and net ids are dense indices into the respective arrays;
    - fanout (consumer terminal) lists are precomputed for every net;
    - trigger nets of sequential cells appear in the fanout of their source
      nets as {!Trigger_pin} terminals. *)

type pin =
  | Data_pin of int  (** Index into [Cell.data_inputs]. *)
  | Trigger_pin  (** The gate/clock input of a sequential cell. *)

type term = { term_cell : Ids.Cell.t; term_pin : pin }
(** A consumer terminal: one input pin of one cell. *)

type net_info = {
  net_name : string;
  driver : Ids.Cell.t;
  fanouts : term array;
}

type t

(** {1 Accessors} *)

val design_name : t -> string
val num_domains : t -> int
val num_cells : t -> int
val num_nets : t -> int
val domain_name : t -> Ids.Dom.t -> string
val domains : t -> Ids.Dom.t list
val cell : t -> Ids.Cell.t -> Cell.t
val net : t -> Ids.Net.t -> net_info
val driver : t -> Ids.Net.t -> Cell.t
val fanouts : t -> Ids.Net.t -> term array
val iter_cells : t -> (Cell.t -> unit) -> unit
val fold_cells : t -> init:'a -> f:('a -> Cell.t -> 'a) -> 'a
val iter_nets : t -> (Ids.Net.t -> net_info -> unit) -> unit
val cells : t -> Cell.t array
(** The underlying cell array, indexed by [Ids.Cell.to_int]. Do not mutate. *)

val clock_source_net : t -> Ids.Dom.t -> Ids.Net.t option
(** The net driven by the domain's [Clock_source] cell, if one was created. *)

val term_input_net : t -> term -> Ids.Net.t
(** The net connected to a consumer terminal. *)

val pp_summary : Format.formatter -> t -> unit

(** {1 Validation} *)

type validation_error =
  | Undriven_net of Ids.Net.t
  | Multiple_drivers of Ids.Net.t * Ids.Cell.t * Ids.Cell.t
  | Bad_arity of Ids.Cell.t * string
  | Missing_trigger of Ids.Cell.t
  | Unknown_domain of Ids.Dom.t

val pp_validation_error : Format.formatter -> validation_error -> unit

exception Invalid of validation_error

(** {1 Builder} *)

module Builder : sig
  type netlist := t
  type t

  val create : ?design_name:string -> unit -> t

  val add_domain : t -> string -> Ids.Dom.t
  (** Declare a clock domain. Domains are the unit of asynchrony. *)

  val fresh_net : t -> ?name:string -> unit -> Ids.Net.t
  (** Allocate an undriven net, to be driven later with one of the [_to]
      constructors (needed for feedback loops). *)

  val add_cell :
    t ->
    ?name:string ->
    Cell.kind ->
    Ids.Net.t array ->
    trigger:Cell.trigger option ->
    output:Ids.Net.t option ->
    Ids.Cell.t
  (** The one cell constructor, which the typed constructors below wrap: a
      cell of [kind] reading [data_inputs] (kept as the cell's array, not
      copied) and driving [output], named after its id unless [name] is
      given.  It checks nothing about the kind: {!finalize_result} reports
      a wrong arity, a missing trigger or an unknown domain.
      @raise Invalid if [output] already has a driver. *)

  val add_input : t -> ?name:string -> ?domain:Ids.Dom.t -> unit -> Ids.Net.t
  (** Primary input; returns the net it drives. *)

  val add_input_to :
    t -> ?name:string -> ?domain:Ids.Dom.t -> output:Ids.Net.t -> unit -> unit
  (** Like {!add_input} but drives a pre-allocated net (used by netlist
      rewrites that must preserve net ids). *)

  val add_clock_source : t -> Ids.Dom.t -> Ids.Net.t
  (** The domain's root clock as a net (idempotent per domain). *)

  val add_clock_source_to : t -> Ids.Dom.t -> output:Ids.Net.t -> unit
  (** Like {!add_clock_source} but drives a pre-allocated net.
      @raise Invalid_argument if the domain already has a clock source. *)

  val add_output : t -> ?name:string -> Ids.Net.t -> Ids.Cell.t

  val add_gate : t -> ?name:string -> Cell.gate -> Ids.Net.t list -> Ids.Net.t
  (** Create a gate driving a fresh net; returns that net. *)

  val add_gate_to :
    t -> ?name:string -> Cell.gate -> Ids.Net.t list -> output:Ids.Net.t -> unit
  (** Like {!add_gate} but drives a pre-allocated (so far undriven) net. *)

  val add_latch :
    t ->
    ?name:string ->
    ?active_high:bool ->
    data:Ids.Net.t ->
    gate:Cell.trigger ->
    unit ->
    Ids.Net.t

  val add_latch_to :
    t ->
    ?name:string ->
    ?active_high:bool ->
    data:Ids.Net.t ->
    gate:Cell.trigger ->
    output:Ids.Net.t ->
    unit ->
    unit

  val add_flip_flop :
    t -> ?name:string -> data:Ids.Net.t -> clock:Cell.trigger -> unit -> Ids.Net.t

  val add_flip_flop_to :
    t ->
    ?name:string ->
    data:Ids.Net.t ->
    clock:Cell.trigger ->
    output:Ids.Net.t ->
    unit ->
    unit

  val add_ram :
    t ->
    ?name:string ->
    addr_bits:int ->
    write_enable:Ids.Net.t ->
    write_data:Ids.Net.t ->
    write_addr:Ids.Net.t list ->
    read_addr:Ids.Net.t list ->
    clock:Cell.trigger ->
    unit ->
    Ids.Net.t
  (** One-bit-wide synchronous-write, asynchronous-read RAM; returns the read
      data net. [write_addr] and [read_addr] must each have [addr_bits]
      nets. *)

  val add_ram_to :
    t ->
    ?name:string ->
    addr_bits:int ->
    write_enable:Ids.Net.t ->
    write_data:Ids.Net.t ->
    write_addr:Ids.Net.t list ->
    read_addr:Ids.Net.t list ->
    clock:Cell.trigger ->
    output:Ids.Net.t ->
    unit ->
    unit

  val finalize_result : t -> (netlist, validation_error list) result
  (** Validate and freeze.  [Error] carries every structural error of the
      builder graph (bad arities, missing triggers, unknown domains — at
      most one per cell — plus every undriven net), in deterministic id
      order. *)

  val finalize : t -> netlist
  (** Like {!finalize_result}, raising the first error.
      @raise Invalid on a malformed design. *)
end
