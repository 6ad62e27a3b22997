(** Reverse-time shortest-path search over the time-expanded wire graph
    (the "modified Dijkstra" of the paper's Section 6; with unit edge costs
    it degenerates to a layered BFS).

    Coordinates are {e reverse} virtual-clock slots: [r = 0] is the frame
    end, larger [r] is earlier in forward time.  A transport that must
    arrive at the destination FPGA at reverse time [r_arr] is searched
    backwards: a hop from FPGA [g] to [f] over channel [(g, f)] departs [g]
    at [r + 1], arrives [f] at [r], and occupies the channel at slot
    [r + 1]; waiting inside an FPGA (pipelining in flops) is free.

    The search state "value at FPGA [f], slot [r]" is the integer
    [(r - r_arr) * num_fpgas + f].  Visited marks, predecessors and hop
    channels are int arrays in the table's {!Resource.scratch}, stamped
    with a per-search epoch so the next search reuses them uncleared; the
    FIFO is an int array too, and channels come from the system's CSR
    adjacency ({!Msched_arch.System.in_csr}), probed in CSR order.  A
    search allocates per search and per returned hop, not per state.
    {!search_forward} runs the same kernel forward in time.

    Each pass is bounded by distance: with [h f] the hop count from [f]
    to the goal ({!Msched_arch.System.hops}), a state at layer [l] is
    kept only when [l + h f <= B].  The first pass takes [B = d], the
    congestion-free src → dst distance; a failed pass widens [B] to
    [d + 1], [d + 3], [d + 7], … capped at [d + max_extra], the last
    pass ([pathfind.widenings] counts the passes after the first).  [h]
    is consistent, so the bound keeps every predecessor of a kept state
    and each layer's queue in order: a search returns exactly the path
    of the unbounded layered BFS within [d + max_extra] slots, and at
    [max_extra = 0] it expands no more states than that search does.
    Widening stops early when a pass that let the start wait past the
    table's last reservation fails and no channels with a wire left join
    source and destination: no wider pass could succeed. *)

open Msched_netlist

type path = {
  p_len : int;  (** Transport latency in virtual clocks (departure − arrival). *)
  p_hops : (int * int) list;
      (** (channel index, reverse slot) per hop, source-side first. *)
}

val search :
  ?obs:Msched_obs.Sink.t ->
  ?ctx:Reroute.t ->
  Msched_arch.System.t ->
  Resource.t ->
  src:Ids.Fpga.t ->
  dst:Ids.Fpga.t ->
  r_arr:int ->
  max_extra:int ->
  path option
(** Minimal-latency path whose arrival is exactly [r_arr]; [None] if no path
    exists within [r_arr + distance + max_extra] reverse slots (pathological
    congestion or a disconnected wire pool).  Does not reserve slots.

    The path depends only on the reservation table: channels are probed
    in CSR order, and a probe of a full slot only counts toward
    [pathfind.congestion_blocked] (a probe toward a state outside the
    pass's bound is not made).  A reroute context [ctx] never changes
    the path; the search charges its expansion count to it and to the
    [reroute.expansions] counter. *)

val reserve_path : Resource.t -> path -> unit

val search_forward :
  ?obs:Msched_obs.Sink.t ->
  Msched_arch.System.t ->
  Resource.t ->
  src:Ids.Fpga.t ->
  dst:Ids.Fpga.t ->
  t_dep:int ->
  max_extra:int ->
  path option
(** Forward-time variant used by the list scheduler: the value leaves its
    source at [t_dep] (forward slot) and the search minimizes the arrival
    time at [dst]; [p_hops] carry {e forward} slots.  A hop departing an
    FPGA at slot [t] occupies its channel at slot [t + 1] and lands at
    [t + 1]. *)

val shortest_free_wire_path :
  ?obs:Msched_obs.Sink.t ->
  Msched_arch.System.t ->
  Resource.t ->
  src:Ids.Fpga.t ->
  dst:Ids.Fpga.t ->
  int list option
(** Spatial (time-free) shortest path using only channels that still have at
    least one multiplexable wire; used by the hard-routing baseline to pick
    wires to dedicate. Returns channel indices, source-side first. *)
