open Msched_netlist
module System = Msched_arch.System
module Sink = Msched_obs.Sink

type path = { p_len : int; p_hops : (int * int) list }

(* Make every per-state array of [sc] hold state [st]. *)
let grow (sc : Resource.scratch) st =
  let len = max (st + 1) (2 * Array.length sc.seen) in
  let extend a fill =
    let b = Array.make len fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  sc.seen <- extend sc.seen 0;
  sc.parent <- extend sc.parent 0;
  sc.via <- extend sc.via (-1);
  sc.queue <- extend sc.queue 0

let push (sc : Resource.scratch) ~tail st ~from ~via =
  if st >= Array.length sc.seen then grow sc st;
  if sc.seen.(st) <> sc.epoch then begin
    sc.seen.(st) <- sc.epoch;
    sc.parent.(st) <- from;
    sc.via.(st) <- via;
    sc.queue.(!tail) <- st;
    incr tail
  end

(* Layered BFS over the time-expanded graph, shared by both directions.
   State [(t - t0) * nf + f] stands for "the value is at FPGA [f] at slot
   [t]"; [t] counts reverse slots backward and forward slots forward.
   Both transitions — wait in [f], or hop over one of [f]'s channels in
   [csr] to its far end — go from [t] to [t + 1], so a FIFO explores slot
   by slot and the first pop of [goal] has minimal latency.  A hop probes
   its channel at [t + 1], channels in CSR order, so the path depends only
   on the reservation table.

   A state at layer [l] is pushed only when [l + h f <= bound], where
   [h f = hops.(hbase + (f * hstride))] is [f]'s hop distance to [goal]
   in the search's direction; a probe toward a state that fails the bound
   is not made.  [h] is consistent (one move changes it by at most one),
   so every predecessor of a kept state is kept: each layer's queue is a
   subsequence of the unbounded search's, and the goal, when it is within
   [bound], is popped at the same layer through the same parents.  No
   state past layer [bound] is pushed (a state other than the goal has
   [h >= 1]), so the bound also ends the search.  Returns the goal state,
   or [-1] when no state within [bound] reaches it. *)
let bfs res (csr : System.csr) ~nf ~hops ~hbase ~hstride ~from ~goal ~t0
    ~bound ~expanded ~blocked =
  let sc = Resource.scratch res in
  sc.epoch <- sc.epoch + 1;
  let tail = ref 0 in
  push sc ~tail from ~from ~via:(-1);
  let head = ref 0 in
  let found = ref (-1) in
  while !found < 0 && !head < !tail do
    let st = sc.queue.(!head) in
    incr head;
    incr expanded;
    let layer = st / nf in
    let f = st - (layer * nf) in
    if f = goal then found := st
    else begin
      (* A state at layer [layer + 1] is kept iff its [h] is at most
         [slack]. *)
      let slack = bound - layer - 1 in
      let next_layer = (layer + 1) * nf in
      let rslot = t0 + layer + 1 in
      if hops.(hbase + (f * hstride)) <= slack then
        push sc ~tail (next_layer + f) ~from:st ~via:(-1);
      for k = csr.System.offsets.(f) to csr.System.offsets.(f + 1) - 1 do
        let far = csr.System.ends.(k) in
        if hops.(hbase + (far * hstride)) <= slack then begin
          let channel = csr.System.ids.(k) in
          if Resource.free_at res ~channel ~rslot then
            push sc ~tail (next_layer + far) ~from:st ~via:channel
          else incr blocked
        end
      done
    end
  done;
  !found

(* Whether [goal] is reachable from [from] over channels in [csr] that
   still have a multiplexed wire.  Without such a chain no slot ever
   frees a hop toward [goal], so no bound finds a path. *)
let live_reachable res (csr : System.csr) ~nf ~from ~goal =
  let seen = Array.make nf false and queue = Array.make nf 0 in
  seen.(from) <- true;
  queue.(0) <- from;
  let head = ref 0 and tail = ref 1 in
  while (not seen.(goal)) && !head < !tail do
    let f = queue.(!head) in
    incr head;
    for k = csr.System.offsets.(f) to csr.System.offsets.(f + 1) - 1 do
      let g = csr.System.ends.(k) in
      if
        (not seen.(g))
        && Resource.effective_width res ~channel:csr.System.ids.(k) > 0
      then begin
        seen.(g) <- true;
        queue.(!tail) <- g;
        incr tail
      end
    done
  done;
  seen.(goal)

(* Hops on the predecessor chain from [st] back to the start state, the
   hop nearest the start first. *)
let unwind (sc : Resource.scratch) ~nf ~t0 st =
  let rec go st acc =
    let prev = sc.parent.(st) in
    if st = prev then acc
    else
      let via = sc.via.(st) in
      go prev (if via >= 0 then (via, t0 + (st / nf)) :: acc else acc)
  in
  go st []

(* A [src] → [dst] search with the accounting both directions share.
   [backward] (TIERS) starts from (dst, t0) and expands in-channels;
   otherwise the search starts from (src, t0) and expands out-channels.
   [h f] is then the hop count from [src] to [f] (backward) or from [f] to
   [dst] (forward), a row or a column of the system's hop table.

   The first pass bounds the search at [d], the congestion-free distance;
   each failed pass widens the bound to [d + 1], [d + 3], [d + 7], … up to
   [d + max_extra], and the pass at [d + max_extra] is the last.  A pass
   at a bound below the goal's first layer finds nothing, and one at or
   above it finds the unbounded search's path (see [bfs]), so the result
   is the unbounded search's within [d + max_extra] slots.

   One exit comes early.  No slot after the table's last reservation is
   reserved, so once a pass lets the start wait past it ([extra] at least
   [quiet]), every later hop over a channel with a wire left is free.  A
   pass that fails there, with no such channels joining the start to the
   goal ([live_reachable]), proves that no wider pass succeeds either, and
   the search ends with no path, as the unbounded search would. *)
let run ~obs ~ctx sys res ~backward ~src ~dst ~t0 ~max_extra =
  Sink.incr obs "pathfind.searches";
  if Ids.Fpga.equal src dst then Some { p_len = 0; p_hops = [] }
  else begin
    let nf = System.num_fpgas sys and hops = System.hops sys in
    let src = Ids.Fpga.to_int src and dst = Ids.Fpga.to_int dst in
    let dist = hops.((src * nf) + dst) in
    let csr, from, goal =
      if backward then (System.in_csr sys, dst, src)
      else (System.out_csr sys, src, dst)
    in
    let hbase = if backward then goal * nf else goal
    and hstride = if backward then 1 else nf in
    let quiet = max 0 (Resource.max_rslot res - t0) in
    let expanded = ref 0 and blocked = ref 0 in
    let extra = ref (min 0 max_extra) and widenings = ref 0 in
    let final = ref (-1) and more = ref true in
    while !more do
      final :=
        bfs res csr ~nf ~hops ~hbase ~hstride ~from ~goal ~t0
          ~bound:(dist + !extra) ~expanded ~blocked;
      if
        !final >= 0
        || !extra >= max_extra
        || (!extra >= quiet && not (live_reachable res csr ~nf ~from ~goal))
      then more := false
      else begin
        incr widenings;
        extra := min max_extra ((2 * !extra) + 1)
      end
    done;
    let final = !final in
    Sink.add obs "pathfind.states_expanded" !expanded;
    (match ctx with
    | Some c ->
        Reroute.note_expansions c !expanded;
        Sink.add obs "reroute.expansions" !expanded
    | None -> ());
    Sink.add obs "pathfind.congestion_blocked" !blocked;
    Sink.add obs "pathfind.widenings" !widenings;
    if final < 0 then begin
      Sink.incr obs "pathfind.failures";
      None
    end
    else begin
      let p_len = final / nf in
      Sink.observe obs "pathfind.path_len" p_len;
      Sink.observe obs "pathfind.extra_slots" (p_len - dist);
      (* The chain unwinds nearest-start first: destination side for a
         backward search, source side for a forward one.  Paths list the
         source-side hop first. *)
      let hops = unwind (Resource.scratch res) ~nf ~t0 final in
      Some { p_len; p_hops = (if backward then List.rev hops else hops) }
    end
  end

let search ?(obs = Sink.null) ?ctx sys res ~src ~dst ~r_arr ~max_extra =
  run ~obs ~ctx sys res ~backward:true ~src ~dst ~t0:r_arr ~max_extra

let search_forward ?(obs = Sink.null) sys res ~src ~dst ~t_dep ~max_extra =
  run ~obs ~ctx:None sys res ~backward:false ~src ~dst ~t0:t_dep ~max_extra

let reserve_path res path =
  List.iter
    (fun (channel, rslot) -> Resource.reserve res ~channel ~rslot)
    path.p_hops

let shortest_free_wire_path_keeping sys res ~src ~dst ~min_left =
  if Ids.Fpga.equal src dst then Some []
  else begin
    let parent : (int, int * int option) Hashtbl.t = Hashtbl.create 64 in
    let queue = Queue.create () in
    let s = Ids.Fpga.to_int src in
    Hashtbl.replace parent s (s, None);
    Queue.add s queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let f = Queue.pop queue in
      if f = Ids.Fpga.to_int dst then found := true
      else begin
        (* Prefer channels with the most wires left so dedication spreads
           instead of starving hot channels. *)
        let channels =
          List.sort
            (fun (a : System.channel) (b : System.channel) ->
              compare
                (Resource.effective_width res ~channel:b.System.channel_index)
                (Resource.effective_width res ~channel:a.System.channel_index))
            (System.out_channels sys (Ids.Fpga.of_int f))
        in
        List.iter
          (fun (c : System.channel) ->
            let g = Ids.Fpga.to_int c.System.dst in
            if
              Resource.effective_width res ~channel:c.System.channel_index
              > min_left
              && not (Hashtbl.mem parent g)
            then begin
              Hashtbl.replace parent g (f, Some c.System.channel_index);
              Queue.add g queue
            end)
          channels
      end
    done;
    if not !found then None
    else begin
      let rec unwind f acc =
        let prev, via = Hashtbl.find parent f in
        match via with
        | None -> acc
        | Some channel -> unwind prev (channel :: acc)
      in
      Some (unwind (Ids.Fpga.to_int dst) [])
    end
  end

(* Dedicating the last wire of a channel would disconnect the multiplexed
   network, so keep one wire in reserve and only fall back to draining a
   channel completely when no alternative exists. *)
let shortest_free_wire_path ?(obs = Sink.null) sys res ~src ~dst =
  Sink.incr obs "pathfind.hard_searches";
  let result =
    match shortest_free_wire_path_keeping sys res ~src ~dst ~min_left:1 with
    | Some p -> Some p
    | None ->
        Sink.incr obs "pathfind.hard_fallbacks";
        shortest_free_wire_path_keeping sys res ~src ~dst ~min_left:0
  in
  (match result with
  | Some p -> Sink.observe obs "pathfind.hard_path_len" (List.length p)
  | None -> Sink.incr obs "pathfind.failures");
  result
