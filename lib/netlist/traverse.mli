(** The Min/MaxDelay kernel of the paper's Section 7.

    A {e region} is one partition block's cells.  Within a region, values
    flow combinationally through gates and RAM read paths; sequential pins,
    primary outputs and nets leaving the region are sinks.  Latch analysis
    and the static verifier both tabulate, per block, the min/max delays
    from each origin net to the nets it reaches, and the frame-start settle
    time of every net; both go through this kernel, each with its own
    scratch and regions, so the verifier shares the netlist-level code and
    none of the scheduler's tables.

    Costs: a {!scratch} is O(netlist), once per analysis; a {!region} is
    built from its own cells in O(block); a {!cone} walks only the cells a
    source reaches, in topological order, with no allocation per visited
    cell; {!settle} is one pass over the region. *)

type delay = { dmin : int; dmax : int }
(** Shortest and longest combinational path delay, counted in gate levels
    (one virtual clock per level by default). *)

type scratch
(** Dense per-net and per-cell working arrays for one netlist.  A scratch
    is owned by one analysis at a time: it is not shared between domains,
    and building a region on it invalidates the regions built on it
    before. *)

val scratch : Netlist.t -> scratch

type region
(** A block's member set, its combinational cells in topological order
    and their combinational fan-in. *)

val region : scratch -> Ids.Cell.t list -> region
(** [region s cells] prepares the region of [cells].  Kahn's algorithm
    seeds its queue in increasing cell id order, so the topological order
    does not depend on the order of [cells].
    @raise Levelize.Combinational_cycle with the member combinational cells
    left unsorted (in increasing id order) if the region's gates are
    cyclic. *)

val contains : region -> Ids.Cell.t -> bool
(** Whether a cell is a member of the region. *)

val cone : region -> Ids.Net.t -> (Ids.Net.t -> int -> int -> unit) -> unit
(** [cone r src f] calls [f net dmin dmax] for [src] (at delay 0/0) and
    then for every net combinationally reachable from [src] inside [r], in
    topological order, each net once.  Propagation crosses a cell only
    when both the cell and the specific input pin are combinational, and
    only when the cell is a member.  [f] may not walk [r]'s scratch. *)

val settle : region -> (Ids.Net.t -> int -> unit) -> unit
(** [settle r f] computes, in one pass, the max combinational delay from
    the region's frame-start outputs (primary inputs, clock sources, RAMs
    and dom-clocked flip-flops; net-triggered flip-flops update mid-frame,
    when their derived clock arrives) to every net they reach, and calls
    [f net delay]: first for each frame-start member's output in member
    order, then for each other reached output in topological order.  [f]
    may not walk [r]'s scratch. *)
