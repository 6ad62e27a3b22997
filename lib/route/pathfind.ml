open Msched_netlist
module System = Msched_arch.System
module Topology = Msched_arch.Topology
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

(* Negotiated-congestion steering: with a reroute context carrying
   history, probe channels with the least accumulated congestion first.
   BFS still finds a minimal-latency path — the order only breaks ties
   between equal-length paths, away from historically contested wires.
   Fills [sc.order] with the CSR positions [lo, hi) in probe order: a
   stable insertion sort on the history current at this expansion, so
   blocks found earlier in the same search steer it. *)
let order_channels (sc : Resource.scratch) ctx (csr : System.csr) lo hi =
  let n = hi - lo in
  if Array.length sc.order < n then begin
    sc.order <- Array.make n 0;
    sc.keys <- Array.make n 0
  end;
  let order = sc.order and keys = sc.keys in
  for i = 0 to n - 1 do
    let key = Reroute.history ctx ~channel:csr.System.ids.(lo + i) in
    let j = ref i in
    while !j > 0 && keys.(!j - 1) > key do
      order.(!j) <- order.(!j - 1);
      keys.(!j) <- keys.(!j - 1);
      decr j
    done;
    order.(!j) <- lo + i;
    keys.(!j) <- key
  done

(* Layered BFS over the time-expanded graph, shared by both directions.
   State [(t - t0) * nf + f] stands for "the value is at FPGA [f] at slot
   [t]"; [t] counts reverse slots backward and forward slots forward.
   Both transitions — wait in [f], or hop over one of [f]'s channels in
   [csr] to its far end — go from [t] to [t + 1], so a FIFO explores slot
   by slot and the first pop of [goal] has minimal latency.  A hop probes
   its channel at [t + 1].  Returns the goal state, or [-1] when no state
   up to [t_limit] reaches it. *)
let bfs ~ctx sys res (csr : System.csr) ~from ~goal ~t0 ~t_limit
    ~expanded ~blocked =
  let nf = System.num_fpgas sys in
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
    else if t0 + layer < t_limit then begin
      let next_layer = (layer + 1) * nf in
      let rslot = t0 + layer + 1 in
      push sc ~tail (next_layer + f) ~from:st ~via:(-1);
      let lo = csr.System.offsets.(f) and hi = csr.System.offsets.(f + 1) in
      let steer =
        match ctx with
        | Some c when Reroute.history_total c > 0 ->
            order_channels sc c csr lo hi;
            true
        | Some _ | None -> false
      in
      for i = 0 to hi - lo - 1 do
        let k = if steer then sc.order.(i) else lo + i in
        let channel = csr.System.ids.(k) in
        if Resource.free_at res ~channel ~rslot then
          push sc ~tail (next_layer + csr.System.ends.(k)) ~from:st ~via:channel
        else begin
          incr blocked;
          match ctx with
          | Some c -> Reroute.bump_history c ~channel
          | None -> ()
        end
      done
    end
  done;
  !found

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
   otherwise the search starts from (src, t0) and expands out-channels. *)
let run ~obs ~ctx sys res ~backward ~src ~dst ~t0 ~max_extra =
  Sink.incr obs "pathfind.searches";
  if Ids.Fpga.equal src dst then Some { p_len = 0; p_hops = [] }
  else begin
    let dist = Topology.distance (System.topology sys) src dst in
    let csr, from, goal =
      if backward then (System.in_csr sys, dst, src)
      else (System.out_csr sys, src, dst)
    in
    let expanded = ref 0 and blocked = ref 0 in
    let final =
      bfs ~ctx sys res csr ~from:(Ids.Fpga.to_int from)
        ~goal:(Ids.Fpga.to_int goal) ~t0 ~t_limit:(t0 + dist + max_extra)
        ~expanded ~blocked
    in
    Sink.add obs "pathfind.states_expanded" !expanded;
    (match ctx with
    | Some c ->
        Reroute.note_expansions c !expanded;
        Sink.add obs "reroute.expansions" !expanded
    | None -> ());
    Sink.add obs "pathfind.congestion_blocked" !blocked;
    if final < 0 then begin
      Sink.incr obs "pathfind.failures";
      None
    end
    else begin
      let nf = System.num_fpgas sys in
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
