(** Seeded single-edit mutators for the delta differential suite: each
    [(kind, seed)] pair deterministically names one small, always-valid
    netlist edit — the kind of change an edit-compile-check loop makes
    between two compiles.

    Edits rebuild the netlist through {!Msched_netlist.Netlist.Builder}
    in the enumeration order of the original, so the ids of untouched
    nets and cells are preserved (the same property the serial format's
    round-trip relies on); the edit itself appends, drops or rewires at
    well-defined points. *)

open Msched_netlist

type kind =
  | Add_cell  (** New buffer + output port fed by a random net. *)
  | Remove_cell  (** Drop a sink or a fanout-free cell. *)
  | Retime_net
      (** Insert a flip-flop between a net's driver and its data
          consumers (clock domain drawn from the seed). *)
  | Flip_domain
      (** Move a domained input or a domain-clocked state element to the
          next clock domain. *)
  | Resize_fanout  (** Add an output port fanning out a random net. *)

val all_kinds : kind list
val kind_name : kind -> string

val apply : ?seed:int -> kind -> Netlist.t -> (Netlist.t * string, string) result
(** The edited netlist plus a human description of the edit, or [Error]
    when the kind does not apply to this design (single-domain designs
    cannot flip, sink-free designs cannot remove).  The result always
    validates ({!Netlist.Builder.finalize} succeeded). *)
