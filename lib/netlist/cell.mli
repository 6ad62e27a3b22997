(** Netlist primitives.

    The primitive set mirrors what an emulation compiler front-end produces
    after technology mapping: simple combinational gates, level-sensitive
    latches, edge-triggered flip-flops, small synchronous-write RAMs and
    primary ports.  All nets are single-bit; multi-bit structures (such as RAM
    address buses) are expressed as groups of nets. *)

type gate =
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Not
  | Buf
  | Mux  (** [data_inputs = [| sel; a; b |]]; output is [a] when [sel] is 0. *)

val gate_arity : gate -> int option
(** Fixed arity of a gate, or [None] for variadic gates (And/Or/Nand/Nor). *)

val eval_gate : gate -> bool array -> bool
(** [eval_gate g inputs] evaluates [g] on concrete input values.
    Raises [Invalid_argument] on an arity mismatch. *)

type trigger =
  | Dom_clock of Ids.Dom.t
      (** Directly clocked by a domain's root clock (the common case). *)
  | Net_trigger of Ids.Net.t
      (** Gated or derived clock/gate: the trigger is an ordinary net driven
          by logic.  This is where MTS latches and flip-flops come from. *)

type kind =
  | Gate of gate
  | Latch of { active_high : bool }
      (** Level-sensitive latch: transparent while its trigger is at the
          active level.  [data_inputs = [| d |]]. *)
  | Flip_flop  (** Rising-edge D flip-flop. [data_inputs = [| d |]]. *)
  | Ram of { addr_bits : int }
      (** [2^addr_bits] one-bit words, synchronous write / asynchronous read.
          [data_inputs = [| we; wdata; waddr_0 .. waddr_{a-1};
                            raddr_0 .. raddr_{a-1} |]]. *)
  | Input of { domain : Ids.Dom.t option }
      (** Primary input. [domain] is the clock domain in which the testbench
          changes it ([None] for quasi-static inputs). *)
  | Clock_source of Ids.Dom.t
      (** The root clock waveform of a domain exposed as a net, so that gated
          clocks and MTS gate logic can be built from it. *)
  | Output  (** Primary output. [data_inputs = [| d |]], no output net. *)

type t = {
  id : Ids.Cell.t;
  kind : kind;
  data_inputs : Ids.Net.t array;
  trigger : trigger option;  (** [Some _] iff the cell is sequential. *)
  output : Ids.Net.t option;  (** [None] only for [Output] cells. *)
  name : string;
}

val is_sequential : t -> bool
(** Latches, flip-flops and RAMs. *)

val is_combinational : t -> bool
(** Gates only (sources and sinks excluded). *)

val is_source : t -> bool
(** Inputs and clock sources: cells with an output but no data inputs. *)

val ram_words : addr_bits:int -> int
val pp_kind : Format.formatter -> kind -> unit
val pp : Format.formatter -> t -> unit
