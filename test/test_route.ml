open Msched_netlist
module Topology = Msched_arch.Topology
module System = Msched_arch.System
module Resource = Msched_route.Resource
module Pathfind = Msched_route.Pathfind
module Link = Msched_route.Link
module Partition = Msched_partition.Partition
module Placement = Msched_place.Placement
module DA = Msched_mts.Domain_analysis

let sys4 () =
  System.make (Topology.make Topology.Mesh ~nx:2 ~ny:2) ~pins_per_fpga:8

let test_resource_reserve () =
  let sys = sys4 () in
  let res = Resource.create sys in
  (* width = 8/(2*2) = 2 per channel *)
  Alcotest.(check int) "width" 2 (Resource.effective_width res ~channel:0);
  Alcotest.(check bool) "free" true (Resource.free_at res ~channel:0 ~rslot:3);
  Resource.reserve res ~channel:0 ~rslot:3;
  Resource.reserve res ~channel:0 ~rslot:3;
  Alcotest.(check bool) "full" false (Resource.free_at res ~channel:0 ~rslot:3);
  Alcotest.check_raises "over-reserve" (Invalid_argument "Resource.reserve: slot full")
    (fun () -> Resource.reserve res ~channel:0 ~rslot:3);
  Alcotest.(check int) "peak" 2 (Resource.peak_usage res).(0);
  Alcotest.(check int) "max rslot" 3 (Resource.max_rslot res)

let test_resource_dedicate () =
  let sys = sys4 () in
  let res = Resource.create sys in
  Resource.dedicate res ~channel:0;
  Alcotest.(check int) "width after dedicate" 1 (Resource.effective_width res ~channel:0);
  Resource.dedicate res ~channel:0;
  Alcotest.(check int) "exhausted" 0 (Resource.effective_width res ~channel:0);
  Alcotest.check_raises "no more" (Invalid_argument "Resource.dedicate: channel exhausted")
    (fun () -> Resource.dedicate res ~channel:0)

let test_search_basic () =
  let sys = sys4 () in
  let res = Resource.create sys in
  let src = Ids.Fpga.of_int 0 and dst = Ids.Fpga.of_int 3 in
  match Pathfind.search sys res ~src ~dst ~r_arr:0 ~max_extra:16 with
  | None -> Alcotest.fail "expected a path"
  | Some p ->
      Alcotest.(check int) "latency = distance" 2 p.Pathfind.p_len;
      Alcotest.(check int) "two hops" 2 (List.length p.Pathfind.p_hops)

let test_search_respects_congestion () =
  let sys = sys4 () in
  let res = Resource.create sys in
  let src = Ids.Fpga.of_int 0 and dst = Ids.Fpga.of_int 1 in
  (* Saturate the direct channel at the needed slot on both possible
     detours' first hops too, forcing waiting. *)
  let p1 = Option.get (Pathfind.search sys res ~src ~dst ~r_arr:0 ~max_extra:16) in
  Pathfind.reserve_path res p1;
  let p2 = Option.get (Pathfind.search sys res ~src ~dst ~r_arr:0 ~max_extra:16) in
  Pathfind.reserve_path res p2;
  let p3 = Option.get (Pathfind.search sys res ~src ~dst ~r_arr:0 ~max_extra:16) in
  (* The direct channel (width 2) is full at slot 1; the third transport is
     longer (waits or detours). *)
  Alcotest.(check bool) "third path is longer" true (p3.Pathfind.p_len > 1)

let test_search_arrival_exact () =
  let sys = sys4 () in
  let res = Resource.create sys in
  let src = Ids.Fpga.of_int 0 and dst = Ids.Fpga.of_int 3 in
  let p = Option.get (Pathfind.search sys res ~src ~dst ~r_arr:7 ~max_extra:16) in
  (* All hop slots lie in (r_arr, r_arr + latency]. *)
  List.iter
    (fun (_, rslot) ->
      Alcotest.(check bool) "slot in window" true (rslot > 7 && rslot <= 7 + p.Pathfind.p_len))
    p.Pathfind.p_hops

let test_hard_path () =
  let sys = sys4 () in
  let res = Resource.create sys in
  let src = Ids.Fpga.of_int 0 and dst = Ids.Fpga.of_int 3 in
  match Pathfind.shortest_free_wire_path sys res ~src ~dst with
  | None -> Alcotest.fail "expected wire path"
  | Some channels -> Alcotest.(check int) "two channels" 2 (List.length channels)

let test_hard_path_spares_last_wire () =
  let sys = System.make (Topology.make Topology.Mesh ~nx:2 ~ny:1) ~pins_per_fpga:4 in
  (* single channel pair, width 2 *)
  let res = Resource.create sys in
  let src = Ids.Fpga.of_int 0 and dst = Ids.Fpga.of_int 1 in
  let p1 = Option.get (Pathfind.shortest_free_wire_path sys res ~src ~dst) in
  List.iter (fun c -> Resource.dedicate res ~channel:c) p1;
  (* One wire left: the preferred search keeps it, the fallback drains it. *)
  let p2 = Pathfind.shortest_free_wire_path sys res ~src ~dst in
  Alcotest.(check bool) "fallback still routes" true (p2 <> None)

let test_link_build () =
  let d = Msched_gen.Design_gen.fig1 () in
  let nl = d.Msched_gen.Design_gen.netlist in
  let analysis = DA.compute nl in
  let part = Partition.make nl ~max_weight:4 () in
  let topo = Topology.make_for_count Topology.Mesh (Partition.num_blocks part) in
  let sys = System.make topo ~pins_per_fpga:16 in
  let placement = Placement.place part sys () in
  let links = Link.build placement analysis ~decompose_mts:true ~hard_mts:false in
  Alcotest.(check bool) "has links" true (links <> []);
  List.iter
    (fun (l : Link.t) ->
      Alcotest.(check bool) "src != dst block" false
        (Ids.Block.equal l.Link.src_block l.Link.dst_block);
      (* Multi-transition nets decompose into >= 2 domains. *)
      if DA.is_multi_transition analysis l.Link.net then
        Alcotest.(check bool) "decomposed" true (List.length l.Link.domains >= 2)
      else Alcotest.(check int) "single transport" 0 (List.length l.Link.domains))
    links

let test_link_hard_flag () =
  let d = Msched_gen.Design_gen.fig1 () in
  let nl = d.Msched_gen.Design_gen.netlist in
  let analysis = DA.compute nl in
  let part = Partition.make nl ~max_weight:4 () in
  let topo = Topology.make_for_count Topology.Mesh (Partition.num_blocks part) in
  let sys = System.make topo ~pins_per_fpga:16 in
  let placement = Placement.place part sys () in
  let links = Link.build placement analysis ~decompose_mts:false ~hard_mts:true in
  let mts_links =
    List.filter (fun (l : Link.t) -> DA.is_multi_transition analysis l.Link.net) links
  in
  Alcotest.(check bool) "some MTS links" true (mts_links <> []);
  List.iter
    (fun (l : Link.t) -> Alcotest.(check bool) "hard" true l.Link.hard)
    mts_links

(* ---- The distance-bounded search against the unbounded one ----

   The pathfinder bounds each pass by the hop distance to its goal and
   widens the bound after a failed pass.  The reference below is the
   layered BFS it replaced, kept here only as the oracle: every state it
   reaches is pushed again at every later slot up to
   [t0 + distance + max_extra].  The two must return the same path, hop
   for hop, on every table; at [max_extra 0] (one pass) the bounded
   search must also expand no more states. *)

(* The unbounded search: (path, states popped). *)
let reference_search sys res ~backward ~src ~dst ~t0 ~max_extra =
  if Ids.Fpga.equal src dst then (Some { Pathfind.p_len = 0; p_hops = [] }, 0)
  else begin
    let nf = System.num_fpgas sys in
    let dist = Topology.distance (System.topology sys) src dst in
    let csr, from, goal =
      if backward then (System.in_csr sys, dst, src)
      else (System.out_csr sys, src, dst)
    in
    let from = Ids.Fpga.to_int from and goal = Ids.Fpga.to_int goal in
    let t_limit = t0 + dist + max_extra in
    let parent = Hashtbl.create 64 in
    let queue = Queue.create () in
    let push st ~from ~via =
      if not (Hashtbl.mem parent st) then begin
        Hashtbl.replace parent st (from, via);
        Queue.add st queue
      end
    in
    push from ~from ~via:(-1);
    let expanded = ref 0 and found = ref (-1) in
    while !found < 0 && not (Queue.is_empty queue) do
      let st = Queue.pop queue in
      incr expanded;
      let layer = st / nf and f = st mod nf in
      if f = goal then found := st
      else if t0 + layer < t_limit then begin
        let next = (layer + 1) * nf and rslot = t0 + layer + 1 in
        push (next + f) ~from:st ~via:(-1);
        for k = csr.System.offsets.(f) to csr.System.offsets.(f + 1) - 1 do
          let channel = csr.System.ids.(k) in
          if Resource.free_at res ~channel ~rslot then
            push (next + csr.System.ends.(k)) ~from:st ~via:channel
        done
      end
    done;
    if !found < 0 then (None, !expanded)
    else begin
      let rec unwind st acc =
        let prev, via = Hashtbl.find parent st in
        if prev = st then acc
        else unwind prev (if via >= 0 then (via, t0 + (st / nf)) :: acc else acc)
      in
      let hops = unwind !found [] in
      ( Some
          {
            Pathfind.p_len = !found / nf;
            p_hops = (if backward then List.rev hops else hops);
          },
        !expanded )
    end
  end

let kinds = [| Topology.Mesh; Topology.Torus; Topology.Crossbar |]
let extras = [| 0; 1; 2; 5; 64; 4096 |]
let tables = 250
let queries_per_table = 8

(* One seeded system and reservation table: mesh, torus or crossbar from
   1x2 to 8x8 at 12-240 pins (raised where a crossbar needs more to give
   every channel a wire), [fill] of the (channel, slot) cells of the first
   [span] slots full, some others partly used, and sometimes channels
   fully dedicated.  [span] is mostly 64; shorter windows and more
   dedicated channels reach the search's early exit (a pass that lets the
   start wait past the last reservation, on a table whose live channels
   may not join source and goal, or join them only by a detour). *)
let random_table rng =
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let kind = kinds.(Random.State.int rng 3) in
  let rec shape () =
    let nx = int 1 8 and ny = int 1 8 in
    if nx * ny >= 2 then (nx, ny) else shape ()
  in
  let nx, ny = shape () in
  let topo = Topology.make kind ~nx ~ny in
  let max_degree =
    List.fold_left
      (fun acc f -> max acc (Topology.degree topo f))
      0 (Topology.fpgas topo)
  in
  let pins = max (int 12 240) (2 * max_degree) in
  let sys = System.make topo ~pins_per_fpga:pins in
  let res = Resource.create sys in
  let nch = Array.length (System.channels sys) in
  if Random.State.int rng 3 = 0 then
    for _ = 1 to int 1 (max 3 (nch / 4)) do
      let channel = Random.State.int rng nch in
      for _ = 1 to Resource.effective_width res ~channel do
        Resource.dedicate res ~channel
      done
    done;
  let fill = Random.State.float rng 0.95 in
  let span = [| 64; 64; 64; 16; 4; 0 |].(Random.State.int rng 6) in
  for channel = 0 to nch - 1 do
    let width = Resource.effective_width res ~channel in
    for rslot = 0 to span - 1 do
      let used =
        if Random.State.float rng 1.0 < fill then width
        else if Random.State.int rng 4 = 0 then Random.State.int rng (max 1 width)
        else 0
      in
      for _ = 1 to used do
        Resource.reserve res ~channel ~rslot
      done
    done
  done;
  ( Format.asprintf "%a, %d pins, fill %.2f of %d slots" Topology.pp topo pins
      fill span,
    sys,
    res )

let test_differential_search () =
  let cases = ref 0 in
  for table = 0 to tables - 1 do
    let rng = Random.State.make [| table; 0xb0d |] in
    let what, sys, res = random_table rng in
    let nf = System.num_fpgas sys in
    for _ = 1 to queries_per_table do
      let src = Ids.Fpga.of_int (Random.State.int rng nf) in
      let dst =
        if Random.State.int rng 8 = 0 then src
        else Ids.Fpga.of_int (Random.State.int rng nf)
      in
      let t0 = Random.State.int rng 33 in
      let max_extra = extras.(Random.State.int rng (Array.length extras)) in
      List.iter
        (fun backward ->
          incr cases;
          let obs = Msched_obs.Sink.create () in
          let got =
            if backward then
              Pathfind.search ~obs sys res ~src ~dst ~r_arr:t0 ~max_extra
            else Pathfind.search_forward ~obs sys res ~src ~dst ~t_dep:t0 ~max_extra
          in
          let want, ref_expanded =
            reference_search sys res ~backward ~src ~dst ~t0 ~max_extra
          in
          let label =
            Printf.sprintf "table %d (%s): %s %d -> %d at %d, max_extra %d"
              table what
              (if backward then "search" else "search_forward")
              (Ids.Fpga.to_int src) (Ids.Fpga.to_int dst) t0 max_extra
          in
          if got <> want then
            Alcotest.failf "%s: bounded search returned %s, unbounded %s" label
              (match got with
              | Some p -> Printf.sprintf "length %d" p.Pathfind.p_len
              | None -> "no path")
              (match want with
              | Some p -> Printf.sprintf "length %d" p.Pathfind.p_len
              | None -> "no path");
          let expanded =
            Msched_obs.Sink.counter obs "pathfind.states_expanded"
          in
          if max_extra = 0 && expanded > ref_expanded then
            Alcotest.failf "%s: expanded %d states, the unbounded search %d"
              label expanded ref_expanded;
          if max_extra = 0 then
            Alcotest.(check int) (label ^ ": widenings") 0
              (Msched_obs.Sink.counter obs "pathfind.widenings"))
        [ true; false ]
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d cases >= 2000" !cases)
    true (!cases >= 2000)

(* Work test: the bound keeps a search near the corridor between its two
   ends instead of every FPGA reached so far.  design1 at scale 0.4 routed
   without a context took 307 states per search with the unbounded
   search, 15.7 with the bound. *)
let test_states_per_search () =
  let module Compile = Msched.Compile in
  let module Sink = Msched_obs.Sink in
  let module Tiers = Msched_route.Tiers in
  let d = Msched_gen.Design_gen.design1_like ~seed:1 ~scale:0.4 () in
  let prepared =
    Compile.prepare
      ~options:
        {
          Compile.default_options with
          Compile.max_block_weight = 64;
          pins_per_fpga = 96;
        }
      d.Msched_gen.Design_gen.netlist
  in
  let obs = Sink.create () in
  ignore (Compile.route ~obs prepared Tiers.default_options);
  let states = Sink.counter obs "pathfind.states_expanded"
  and searches = Sink.counter obs "pathfind.searches" in
  let per_search = float_of_int states /. float_of_int searches in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f states per search (%d over %d searches) < 48"
       per_search states searches)
    true (per_search < 48.0)

(* A goal that no channel with a wire left reaches: the source of an 8x8
   mesh has all its out-channels dedicated.  No slot ever frees a hop out
   of it, so the first pass that lets the start wait past the last
   reservation (here the first pass: the table holds none) ends the
   search.  The unbounded search, and widening to [d + 4096], each expand
   hundreds of thousands of states here. *)
let test_cut_off_goal () =
  let module Sink = Msched_obs.Sink in
  let sys =
    System.make (Topology.make Topology.Mesh ~nx:8 ~ny:8) ~pins_per_fpga:96
  in
  let res = Resource.create sys in
  let src = Ids.Fpga.of_int 0 and dst = Ids.Fpga.of_int 63 in
  List.iter
    (fun (c : System.channel) ->
      for _ = 1 to c.System.width do
        Resource.dedicate res ~channel:c.System.channel_index
      done)
    (System.out_channels sys src);
  List.iter
    (fun (what, search) ->
      let obs = Sink.create () in
      Alcotest.(check bool) (what ^ ": no path") true (search obs = None);
      let states = Sink.counter obs "pathfind.states_expanded" in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d states <= 64" what states)
        true (states <= 64);
      Alcotest.(check int) (what ^ ": widenings") 0
        (Sink.counter obs "pathfind.widenings"))
    [
      ( "search",
        fun obs ->
          Pathfind.search ~obs sys res ~src ~dst ~r_arr:0 ~max_extra:4096 );
      ( "search_forward",
        fun obs ->
          Pathfind.search_forward ~obs sys res ~src ~dst ~t_dep:0
            ~max_extra:4096 );
    ]

(* The search reuses flat work arrays owned by the reservation table, so
   one search allocates per search and per returned hop, never per
   state.  The case: an 8x8 mesh whose source FPGA has every out-channel
   full for reverse slots 1-30, so a corner-to-corner search (14 hops)
   widens five times and its last pass expands every FPGA at each of 31
   slots.  A pathfinder that boxes one value per pushed state allocates
   thousands of words here; the bound does not grow with the states.
   Minor-word counts repeat exactly, so this pins the mechanism without
   timing noise. *)
let test_allocation_per_search () =
  let module Sink = Msched_obs.Sink in
  let sys =
    System.make (Topology.make Topology.Mesh ~nx:8 ~ny:8) ~pins_per_fpga:96
  in
  let res = Resource.create sys in
  let src = Ids.Fpga.of_int 0 and dst = Ids.Fpga.of_int 63 in
  List.iter
    (fun (c : System.channel) ->
      let channel = c.System.channel_index in
      for rslot = 1 to 30 do
        for _ = 1 to Resource.effective_width res ~channel do
          Resource.reserve res ~channel ~rslot
        done
      done)
    (System.out_channels sys src);
  let search obs = Pathfind.search ~obs sys res ~src ~dst ~r_arr:0 ~max_extra:64 in
  (* The first search grows the table's scratch arrays to fit. *)
  let obs = Sink.create () in
  let p = Option.get (search obs) in
  let states = Sink.counter obs "pathfind.states_expanded" in
  Alcotest.(check bool)
    (Printf.sprintf "%d states expanded >= 1000" states)
    true (states >= 1000);
  Alcotest.(check int) "path length" 31 p.Pathfind.p_len;
  let w0 = Gc.minor_words () in
  let again = search Sink.null in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "same path" true (again = Some p);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for one search of %d states < 512" words
       states)
    true (words < 512.0)

(* Slots outside the dense table's range (negative, or far beyond any
   frame) are never reached by a compile, but the table takes its slot
   numbers from its caller.  They must count like any other slot without
   sizing anything by the slot number. *)
let test_out_of_range_slots () =
  let sys = sys4 () in
  let res = Resource.create sys in
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  List.iter
    (fun rslot ->
      let what s = Printf.sprintf "rslot %d: %s" rslot s in
      Alcotest.(check bool) (what "free") true
        (Resource.free_at res ~channel:1 ~rslot);
      Resource.reserve res ~channel:1 ~rslot;
      Alcotest.(check int) (what "usage") 1
        (Resource.usage_at res ~channel:1 ~rslot);
      Alcotest.(check int) (what "other channel") 0
        (Resource.usage_at res ~channel:0 ~rslot);
      Resource.reserve res ~channel:1 ~rslot;
      Alcotest.(check bool) (what "full") false
        (Resource.free_at res ~channel:1 ~rslot);
      Alcotest.check_raises (what "over-reserve")
        (Invalid_argument "Resource.reserve: slot full") (fun () ->
          Resource.reserve res ~channel:1 ~rslot);
      Alcotest.(check int) (what "neighbour slot") 0
        (Resource.usage_at res ~channel:1 ~rslot:(rslot + 1)))
    [ -3; 1 lsl 40 ];
  Alcotest.(check int) "max rslot" (1 lsl 40) (Resource.max_rslot res);
  Alcotest.(check int) "peak" 2 (Resource.peak_usage res).(1);
  let grown = (Gc.quick_stat ()).Gc.heap_words - heap0 in
  Alcotest.(check bool)
    (Printf.sprintf "major heap grew %d words < 1 MiB" grown)
    true
    (grown * (Sys.word_size / 8) < 1 lsl 20);
  let nch = Array.length (System.channels sys) in
  List.iter
    (fun channel ->
      let raises what f =
        match f () with
        | _ -> Alcotest.failf "%s on channel %d did not raise" what channel
        | exception Invalid_argument _ -> ()
      in
      raises "free_at" (fun () -> Resource.free_at res ~channel ~rslot:0);
      raises "reserve" (fun () -> Resource.reserve res ~channel ~rslot:0))
    [ -1; nch; nch + 5 ]

let suite =
  [
    Alcotest.test_case "resource reserve" `Quick test_resource_reserve;
    Alcotest.test_case "resource dedicate" `Quick test_resource_dedicate;
    Alcotest.test_case "search basic" `Quick test_search_basic;
    Alcotest.test_case "search congestion" `Quick test_search_respects_congestion;
    Alcotest.test_case "search arrival exact" `Quick test_search_arrival_exact;
    Alcotest.test_case "hard path" `Quick test_hard_path;
    Alcotest.test_case "hard path spares last wire" `Quick test_hard_path_spares_last_wire;
    Alcotest.test_case "link build" `Quick test_link_build;
    Alcotest.test_case "link hard flag" `Quick test_link_hard_flag;
    Alcotest.test_case "differential: bounded == unbounded search" `Quick
      test_differential_search;
    Alcotest.test_case "states per search at scale 0.4" `Quick
      test_states_per_search;
    Alcotest.test_case "a cut-off goal ends the search" `Quick
      test_cut_off_goal;
    Alcotest.test_case "allocation per search" `Quick test_allocation_per_search;
    Alcotest.test_case "out-of-range slots" `Quick test_out_of_range_slots;
  ]
