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

(* The reverse search reuses flat work arrays owned by the reservation
   table, so a whole TIERS pass allocates little beyond its output: the
   per-link lists, the schedule and per-search set-up, a few tens of words
   per expanded state on design1.  A pathfinder that boxes its states,
   hashes them into a fresh table per search or sorts a channel list per
   expansion allocates over a hundred.  Minor-word counts repeat exactly,
   so this pins the mechanism without timing noise. *)
let test_allocation_per_state () =
  let module Compile = Msched.Compile in
  let module Reroute = Msched_route.Reroute in
  let module Sink = Msched_obs.Sink in
  let module Tiers = Msched_route.Tiers in
  let d = Msched_gen.Design_gen.design1_like ~seed:1 ~scale:0.05 () in
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
  ignore
    (Compile.route ~obs ~reroute:(Reroute.create ()) prepared
       Tiers.default_options);
  let states = Sink.counter obs "pathfind.states_expanded" in
  let w0 = Gc.minor_words () in
  ignore
    (Compile.route ~reroute:(Reroute.create ()) prepared Tiers.default_options);
  let per_state = (Gc.minor_words () -. w0) /. float_of_int states in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per expanded state (of %d) < 48"
       per_state states)
    true (per_state < 48.0)

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
    Alcotest.test_case "allocation per state" `Quick test_allocation_per_state;
    Alcotest.test_case "out-of-range slots" `Quick test_out_of_range_slots;
  ]
