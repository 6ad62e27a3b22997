open Msched_netlist
module Partition = Msched_partition.Partition
module Placement = Msched_place.Placement
module Topology = Msched_arch.Topology
module System = Msched_arch.System
module Design_gen = Msched_gen.Design_gen
module Sink = Msched_obs.Sink

let prepared () =
  let d =
    Design_gen.random_multidomain ~seed:7 ~domains:2 ~modules:15 ~mts_fraction:0.2 ()
  in
  let part = Partition.make d.Design_gen.netlist ~max_weight:24 () in
  let topo = Topology.make_for_count Topology.Mesh (Partition.num_blocks part) in
  let sys = System.make topo ~pins_per_fpga:80 in
  (part, sys)

let test_bijective () =
  let part, sys = prepared () in
  let pl = Placement.place part sys () in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let f = Ids.Fpga.to_int (Placement.fpga_of_block pl b) in
      Alcotest.(check bool) "unique fpga" false (Hashtbl.mem seen f);
      Hashtbl.replace seen f ())
    (Partition.blocks part)

let test_inverse_consistent () =
  let part, sys = prepared () in
  let pl = Placement.place part sys () in
  List.iter
    (fun b ->
      let f = Placement.fpga_of_block pl b in
      match Placement.block_of_fpga pl f with
      | Some b' -> Alcotest.(check int) "roundtrip" (Ids.Block.to_int b) (Ids.Block.to_int b')
      | None -> Alcotest.fail "fpga lost its block")
    (Partition.blocks part)

let test_annealing_not_worse () =
  let part, sys = prepared () in
  let constructive = Placement.place part sys ~effort:0 () in
  let annealed = Placement.place part sys ~effort:6 () in
  Alcotest.(check bool)
    (Printf.sprintf "annealed %d <= constructive %d" (Placement.wirelength annealed)
       (Placement.wirelength constructive))
    true
    (Placement.wirelength annealed <= Placement.wirelength constructive)

let test_fpga_of_cell () =
  let part, sys = prepared () in
  let pl = Placement.place part sys () in
  let nl = Partition.netlist part in
  Netlist.iter_cells nl (fun c ->
      let expected = Placement.fpga_of_block pl (Partition.block_of_cell part c.Cell.id) in
      Alcotest.(check int) "fpga_of_cell"
        (Ids.Fpga.to_int expected)
        (Ids.Fpga.to_int (Placement.fpga_of_cell pl c.Cell.id)))

let test_too_many_blocks_rejected () =
  let part, _ = prepared () in
  let tiny = System.make (Topology.make Topology.Mesh ~nx:1 ~ny:2) ~pins_per_fpga:8 in
  if Partition.num_blocks part > 2 then
    match Placement.place part tiny () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected too-many-blocks rejection"

let test_of_assignment_duplicate_rejected () =
  let part, sys = prepared () in
  let n = Partition.num_blocks part in
  if n >= 2 then begin
    let assignment = Array.make n (Ids.Fpga.of_int 0) in
    match Placement.of_assignment part sys assignment with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected duplicate-FPGA rejection"
  end

let test_pinned_blocks () =
  let part, sys = prepared () in
  if Partition.num_blocks part >= 2 then begin
    let b0 = Ids.Block.of_int 0 and b1 = Ids.Block.of_int 1 in
    let f0 = Ids.Fpga.of_int 3 and f1 = Ids.Fpga.of_int 0 in
    let pl = Placement.place part sys ~pinned:[ (b0, f0); (b1, f1) ] () in
    Alcotest.(check int) "b0 pinned" 3 (Ids.Fpga.to_int (Placement.fpga_of_block pl b0));
    Alcotest.(check int) "b1 pinned" 0 (Ids.Fpga.to_int (Placement.fpga_of_block pl b1))
  end

let test_pinned_conflicts_rejected () =
  let part, sys = prepared () in
  if Partition.num_blocks part >= 2 then begin
    let b0 = Ids.Block.of_int 0 and b1 = Ids.Block.of_int 1 in
    let f = Ids.Fpga.of_int 0 in
    match Placement.place part sys ~pinned:[ (b0, f); (b1, f) ] () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected conflicting-pin rejection"
  end

(* ---- Trajectory pins ----

   Assignment, move counters and wirelength of the seeded annealer,
   recorded from the list-based implementation the flat-array one
   replaced.  Any change to the move stream, the acceptance test or the
   cost delta shows up here, not just in a self-comparison. *)

let pin_design = function
  | "design1" -> Design_gen.design1_like ~seed:1 ~scale:0.05 ()
  | "design2" -> Design_gen.design2_like ~seed:2 ~scale:0.05 ()
  | "gals" -> Design_gen.gals_islands ~seed:3 ~islands:4 ()
  | "fabric" -> Design_gen.gated_memory_fabric ~seed:5 ~banks:4 ()
  | name -> invalid_arg name

(* A crossbar FPGA splits its pins over all [n - 1] peers, so it gets
   enough pins for every channel to have a wire. *)
let pin_system kind part =
  let topo = Topology.make_for_count kind (Partition.num_blocks part) in
  System.make topo
    ~pins_per_fpga:(if kind = Topology.Crossbar then 4096 else 96)

(* (design, max_weight, topology, place seed, pinned?,
   assignment by block, moves_tried, moves_accepted, wirelength) *)
let pin_cases =
  [
    ("design1", 64, Topology.Mesh, 7, false,
     [ 11; 27; 2; 8; 21; 24; 28; 29; 7; 18; 26; 16; 6; 3; 10; 14; 9; 23; 13; 15; 1; 4; 25; 12; 17; 20; 22; 19; 0; 5 ],
     23228, 10360, 2272);
    ("design1", 64, Topology.Torus, 11, false,
     [ 8; 22; 1; 6; 12; 28; 23; 21; 0; 27; 16; 2; 4; 26; 20; 18; 7; 14; 5; 24; 11; 25; 15; 29; 9; 17; 13; 10; 3; 19 ],
     23209, 11123, 1999);
    ("design1", 64, Topology.Crossbar, 7, false,
     [ 27; 15; 19; 18; 5; 10; 24; 28; 17; 11; 1; 9; 2; 20; 13; 6; 12; 25; 14; 29; 26; 0; 22; 7; 21; 23; 3; 4; 16; 8 ],
     23228, 23228, 995);
    ("design2", 64, Topology.Mesh, 11, false,
     [ 12; 21; 2; 9; 1; 4; 6; 16; 10; 7; 0; 3; 18; 13; 8; 5; 11; 14; 17; 23; 19; 22 ],
     16728, 6710, 1505);
    ("design2", 64, Topology.Torus, 7, false,
     [ 5; 10; 17; 3; 21; 2; 12; 15; 20; 6; 1; 22; 24; 9; 7; 0; 16; 8; 19; 23; 4; 14 ],
     16750, 7908, 1339);
    ("design2", 64, Topology.Crossbar, 11, false,
     [ 21; 22; 20; 17; 13; 7; 18; 10; 4; 23; 3; 12; 15; 16; 2; 24; 14; 11; 0; 19; 1; 5 ],
     16732, 16732, 775);
    ("gals", 16, Topology.Mesh, 7, false,
     [ 2; 14; 11; 13; 0; 10; 9; 5; 7; 15; 3; 1; 6 ],
     9473, 2677, 104);
    ("gals", 16, Topology.Torus, 11, false,
     [ 12; 6; 1; 3; 4; 2; 15; 14; 13; 5; 0; 8; 10 ],
     9512, 3035, 95);
    ("gals", 16, Topology.Mesh, 11, true,
     [ 5; 0; 2; 9; 11; 1; 13; 10; 6; 4; 3; 7; 8 ],
     7144, 2434, 120);
    ("fabric", 16, Topology.Crossbar, 7, false,
     [ 0; 2; 3; 1 ],
     2379, 2379, 41);
    ("fabric", 16, Topology.Mesh, 11, false,
     [ 3; 1; 2; 0 ],
     2391, 1522, 49);
  ]

let pinned_pair =
  [ (Ids.Block.of_int 0, Ids.Fpga.of_int 5); (Ids.Block.of_int 1, Ids.Fpga.of_int 0) ]

let test_trajectory_pins () =
  List.iter
    (fun (name, w, kind, seed, pin, assignment, tried, accepted, wl) ->
      let part =
        Partition.make (pin_design name).Design_gen.netlist ~max_weight:w ()
      in
      let obs = Sink.create () in
      let pl =
        Placement.place part (pin_system kind part) ~seed
          ~pinned:(if pin then pinned_pair else [])
          ~obs ()
      in
      let label what =
        Format.asprintf "%s/%a/seed %d%s: %s" name Topology.pp_kind kind seed
          (if pin then "/pinned" else "")
          what
      in
      Alcotest.(check (list int))
        (label "assignment") assignment
        (List.init (Partition.num_blocks part) (fun b ->
             Ids.Fpga.to_int (Placement.fpga_of_block pl (Ids.Block.of_int b))));
      Alcotest.(check int) (label "moves_tried") tried
        (Sink.counter obs "place.moves_tried");
      Alcotest.(check int) (label "moves_accepted") accepted
        (Sink.counter obs "place.moves_accepted");
      Alcotest.(check int) (label "wirelength") wl (Placement.wirelength pl))
    pin_cases

(* Move evaluation allocates nothing, so what [place] allocates is its
   per-call set-up, a few words per tried move on design1.  The bound
   sits well above that and far below the hundreds of words a move loop
   that boxes its Int64 draws or folds over lists allocates.  A
   minor-word count repeats exactly, so this pins the mechanism without
   timing noise. *)
let test_allocation_per_move () =
  let part =
    Partition.make (pin_design "design1").Design_gen.netlist ~max_weight:64 ()
  in
  let sys = pin_system Topology.Mesh part in
  let obs = Sink.create () in
  ignore (Placement.place part sys ~obs ());
  let tried = Sink.counter obs "place.moves_tried" in
  let w0 = Gc.minor_words () in
  ignore (Placement.place part sys ());
  let per_move = (Gc.minor_words () -. w0) /. float_of_int tried in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per move (of %d) < 32" per_move tried)
    true (per_move < 32.0)

let suite =
  [
    Alcotest.test_case "bijective" `Quick test_bijective;
    Alcotest.test_case "inverse consistent" `Quick test_inverse_consistent;
    Alcotest.test_case "annealing not worse" `Quick test_annealing_not_worse;
    Alcotest.test_case "fpga_of_cell" `Quick test_fpga_of_cell;
    Alcotest.test_case "too many blocks rejected" `Quick test_too_many_blocks_rejected;
    Alcotest.test_case "duplicate assignment rejected" `Quick
      test_of_assignment_duplicate_rejected;
    Alcotest.test_case "pinned blocks" `Quick test_pinned_blocks;
    Alcotest.test_case "pinned conflicts rejected" `Quick
      test_pinned_conflicts_rejected;
    Alcotest.test_case "trajectory pins" `Quick test_trajectory_pins;
    Alcotest.test_case "allocation per move" `Quick test_allocation_per_move;
  ]
