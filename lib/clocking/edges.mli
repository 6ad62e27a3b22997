(** Merged multi-domain edge streams.

    The testbench view of an asynchronous system is a single time-ordered
    stream of clock edges drawn from all domains.  Each edge carries its
    domain, polarity and per-domain edge index — the [k] in the paper's
    [V(Ai, Bk)] notation. *)

open Msched_netlist

type polarity = Rising | Falling

type edge = {
  domain : Ids.Dom.t;
  polarity : polarity;
  index : int;  (** 0-based index among edges of this polarity and domain. *)
  time_ps : int;
}

val stream : Clock.t list -> horizon_ps:int -> edge list
(** All edges of all clocks with [time_ps < horizon_ps], sorted by time;
    simultaneous edges are ordered by domain id (a deterministic tie-break —
    truly asynchronous clocks should not produce ties). *)

val rising_only : edge list -> edge list

val frames : edge list -> frame_ps:int -> edge list list
(** Group a time-sorted edge stream into consecutive frame windows of
    [frame_ps] picoseconds, as an emulator whose frame takes [frame_ps] of
    wall time would: all edges with [time_ps] in [[k*frame_ps,
    (k+1)*frame_ps)] form frame [k]; empty windows are dropped.  When a
    window contains two edges of the same domain and polarity, the design
    clock outruns the emulator — the caller should pick [frame_ps] at most
    half the fastest period.
    @raise Invalid_argument on a non-positive [frame_ps]. *)

val max_edges_per_domain_in_frame : edge list list -> int
(** Diagnostic for pick-the-frame-length: 1 means every domain edges at most
    once per frame window. *)

val count_by_domain : num_domains:int -> edge list -> int array
(** Rising-edge count per domain index. *)

val level_at : Clock.t list -> Ids.Dom.t -> int -> bool
(** Level of a domain's clock at a time, given the clock list.
    @raise Not_found if the domain has no clock. *)
