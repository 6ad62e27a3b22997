(** Clock domain descriptors.

    A domain's root clock is a periodic waveform described by its period,
    initial phase and duty cycle, all in picoseconds.  Domains are
    {e asynchronous} when their period ratio is not a small rational — the
    generator in {!Async_gen} picks near-coprime periods so edge patterns
    never repeat within a simulation horizon. *)

open Msched_netlist

type t = {
  domain : Ids.Dom.t;
  name : string;
  period_ps : int;
  phase_ps : int;  (** Time of the first rising edge. *)
  duty_num : int;
  duty_den : int;  (** High time is [period_ps * duty_num / duty_den]. *)
}

val make :
  ?phase_ps:int -> ?duty:int * int -> Ids.Dom.t -> name:string -> period_ps:int -> t
(** @raise Invalid_argument on non-positive period or duty outside (0, 1). *)

val rising_edge_time : t -> int -> int
(** Time of the [k]-th (0-based) rising edge. *)

val falling_edge_time : t -> int -> int
(** Time of the [k]-th falling edge (follows the [k]-th rising edge). *)

val level_at : t -> int -> bool
(** Clock level at time [t] (picoseconds). Low before the first rising
    edge. *)

val rising_edges_before : t -> int -> int
(** Number of rising edges with time strictly less than the horizon. *)

val pp : Format.formatter -> t -> unit
