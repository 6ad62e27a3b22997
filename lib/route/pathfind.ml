open Msched_netlist
module System = Msched_arch.System
module Topology = Msched_arch.Topology
module Sink = Msched_obs.Sink

type path = { p_len : int; p_hops : (int * int) list }

(* Negotiated-congestion steering: with a reroute context carrying
   history, explore channels with the least accumulated congestion first.
   BFS still finds a minimal-latency path — the order only breaks ties
   between equal-length paths, away from historically contested wires. *)
let order_channels ctx channels =
  match ctx with
  | Some c when Reroute.history_total c > 0 ->
      List.stable_sort
        (fun (a : System.channel) (b : System.channel) ->
          compare
            (Reroute.history c ~channel:a.System.channel_index)
            (Reroute.history c ~channel:b.System.channel_index))
        channels
  | Some _ | None -> channels

(* Probe transcript of one search: every (channel, reverse slot) the BFS
   tested, split by outcome.  The exploration is a deterministic function
   of these results, so a later run in which every recorded probe resolves
   identically provably performs the byte-identical search — the validity
   condition for exact ledger replay in delta compilation. *)
type probe_log = {
  mutable pr_free : (int * int) list;
  mutable pr_blocked : (int * int) list;
}

let probe_log () = { pr_free = []; pr_blocked = [] }

(* Backward BFS from (dst, r_arr).  States are (fpga, r); both transitions
   (wait, hop) increase r by one, so a FIFO queue explores r layer by
   layer and the first time we reach [src] is with minimal latency. *)
let search ?(obs = Sink.null) ?ctx ?probe:plog sys res ~src ~dst ~r_arr
    ~max_extra =
  Sink.incr obs "pathfind.searches";
  if Ids.Fpga.equal src dst then Some { p_len = 0; p_hops = [] }
  else begin
    let dist = Topology.distance (System.topology sys) src dst in
    let r_limit = r_arr + dist + max_extra in
    let parent : (int * int, (int * int) * int option) Hashtbl.t =
      (* state -> (parent state, channel used to reach it, if a hop) *)
      Hashtbl.create 256
    in
    let queue = Queue.create () in
    let start = (Ids.Fpga.to_int dst, r_arr) in
    Hashtbl.replace parent start (start, None);
    Queue.add start queue;
    let expanded = ref 0 in
    let blocked = ref 0 in
    let probe ~channel ~rslot =
      let free = Resource.free_at res ~channel ~rslot in
      (match plog with
      | Some l ->
          if free then l.pr_free <- (channel, rslot) :: l.pr_free
          else l.pr_blocked <- (channel, rslot) :: l.pr_blocked
      | None -> ());
      if not free then begin
        incr blocked;
        Option.iter (fun c -> Reroute.bump_history c ~channel) ctx
      end;
      free
    in
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let (f, r) as state = Queue.pop queue in
      incr expanded;
      if Ids.Fpga.to_int src = f then found := Some state
      else if r < r_limit then begin
        let push next via =
          if not (Hashtbl.mem parent next) then begin
            Hashtbl.replace parent next (state, via);
            Queue.add next queue
          end
        in
        (* Wait: the value was already at [f] one slot earlier (forward). *)
        push (f, r + 1) None;
        (* Hop: the value came from a neighbor [g] over channel (g -> f),
           departing at r + 1. *)
        List.iter
          (fun (c : System.channel) ->
            if probe ~channel:c.System.channel_index ~rslot:(r + 1) then
              push
                (Ids.Fpga.to_int c.System.src, r + 1)
                (Some c.System.channel_index))
          (order_channels ctx (System.in_channels sys (Ids.Fpga.of_int f)))
      end
    done;
    Sink.add obs "pathfind.states_expanded" !expanded;
    (match ctx with
    | Some c ->
        Reroute.note_expansions c !expanded;
        Sink.add obs "reroute.expansions" !expanded
    | None -> ());
    Sink.add obs "pathfind.congestion_blocked" !blocked;
    match !found with
    | None ->
        Sink.incr obs "pathfind.failures";
        None
    | Some final ->
        let rec unwind state acc =
          let prev, via = Hashtbl.find parent state in
          let acc =
            match via with
            | Some channel -> (channel, snd state) :: acc
            | None -> acc
          in
          if prev = state then acc else unwind prev acc
        in
        (* Unwinding from the source state toward the destination yields
           hops in source-to-destination order already reversed; rebuild so
           the source-side hop (largest rslot) comes first. *)
        let hops = List.rev (unwind final []) in
        let p = { p_len = snd final - r_arr; p_hops = hops } in
        Sink.observe obs "pathfind.path_len" p.p_len;
        Sink.observe obs "pathfind.extra_slots" (p.p_len - dist);
        Some p
  end

let reserve_path res path =
  List.iter
    (fun (channel, rslot) -> Resource.reserve res ~channel ~rslot)
    path.p_hops

(* Mirror image of [search]: BFS forward in time from (src, t_dep). *)
let search_forward ?(obs = Sink.null) sys res ~src ~dst ~t_dep ~max_extra =
  Sink.incr obs "pathfind.searches";
  if Ids.Fpga.equal src dst then Some { p_len = 0; p_hops = [] }
  else begin
    let dist = Topology.distance (System.topology sys) src dst in
    let t_limit = t_dep + dist + max_extra in
    let parent : (int * int, (int * int) * int option) Hashtbl.t =
      Hashtbl.create 256
    in
    let queue = Queue.create () in
    let start = (Ids.Fpga.to_int src, t_dep) in
    Hashtbl.replace parent start (start, None);
    Queue.add start queue;
    let expanded = ref 0 in
    let blocked = ref 0 in
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let (f, t) as state = Queue.pop queue in
      incr expanded;
      if Ids.Fpga.to_int dst = f then found := Some state
      else if t < t_limit then begin
        let push next via =
          if not (Hashtbl.mem parent next) then begin
            Hashtbl.replace parent next (state, via);
            Queue.add next queue
          end
        in
        push (f, t + 1) None;
        List.iter
          (fun (c : System.channel) ->
            if Resource.free_at res ~channel:c.System.channel_index ~rslot:(t + 1)
            then
              push
                (Ids.Fpga.to_int c.System.dst, t + 1)
                (Some c.System.channel_index)
            else incr blocked)
          (System.out_channels sys (Ids.Fpga.of_int f))
      end
    done;
    Sink.add obs "pathfind.states_expanded" !expanded;
    Sink.add obs "pathfind.congestion_blocked" !blocked;
    match !found with
    | None ->
        Sink.incr obs "pathfind.failures";
        None
    | Some final ->
        Sink.observe obs "pathfind.path_len" (snd final - t_dep);
        Sink.observe obs "pathfind.extra_slots" (snd final - t_dep - dist);
        let rec unwind state acc =
          let prev, via = Hashtbl.find parent state in
          let acc =
            match via with
            | Some channel -> (channel, snd state) :: acc
            | None -> acc
          in
          if prev = state then acc else unwind prev acc
        in
        (* Unwinding from the destination prepends later hops first, so the
           accumulated list is already source-side first. *)
        let hops = unwind final [] in
        Some { p_len = snd final - t_dep; p_hops = hops }
  end

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
