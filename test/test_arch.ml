open Msched_netlist
module Topology = Msched_arch.Topology
module System = Msched_arch.System

let test_mesh_neighbors () =
  let t = Topology.make Topology.Mesh ~nx:3 ~ny:3 in
  let center = Topology.fpga_at t ~x:1 ~y:1 in
  Alcotest.(check int) "center degree" 4 (Topology.degree t center);
  let corner = Topology.fpga_at t ~x:0 ~y:0 in
  Alcotest.(check int) "corner degree" 2 (Topology.degree t corner)

let test_mesh_distance () =
  let t = Topology.make Topology.Mesh ~nx:4 ~ny:4 in
  let a = Topology.fpga_at t ~x:0 ~y:0 in
  let b = Topology.fpga_at t ~x:3 ~y:2 in
  Alcotest.(check int) "manhattan" 5 (Topology.distance t a b);
  Alcotest.(check int) "self" 0 (Topology.distance t a a)

let test_torus_wraps () =
  let t = Topology.make Topology.Torus ~nx:4 ~ny:4 in
  let a = Topology.fpga_at t ~x:0 ~y:0 in
  let b = Topology.fpga_at t ~x:3 ~y:0 in
  Alcotest.(check int) "wrap distance" 1 (Topology.distance t a b);
  Alcotest.(check int) "torus degree" 4 (Topology.degree t a)

let test_crossbar () =
  let t = Topology.make Topology.Crossbar ~nx:3 ~ny:2 in
  let a = Ids.Fpga.of_int 0 and b = Ids.Fpga.of_int 5 in
  Alcotest.(check int) "distance 1" 1 (Topology.distance t a b);
  Alcotest.(check int) "degree n-1" 5 (Topology.degree t a)

let test_make_for_count () =
  let t = Topology.make_for_count Topology.Mesh 10 in
  Alcotest.(check bool) "fits" true (Topology.num_fpgas t >= 10)

let test_system_channels () =
  let t = Topology.make Topology.Mesh ~nx:2 ~ny:2 in
  let sys = System.make t ~pins_per_fpga:40 in
  (* Every FPGA has degree 2; width = 40 / (2*2) = 10. *)
  Array.iter
    (fun (c : System.channel) ->
      Alcotest.(check int) "width" 10 c.System.width)
    (System.channels sys);
  (* 4 FPGAs x 2 out channels = 8 directed channels. *)
  Alcotest.(check int) "channel count" 8 (Array.length (System.channels sys));
  let f0 = Ids.Fpga.of_int 0 in
  Alcotest.(check int) "out channels" 2 (List.length (System.out_channels sys f0));
  Alcotest.(check bool) "pins <= budget" true
    (System.pins_used_per_fpga sys f0 <= 40)

let test_channel_between () =
  let t = Topology.make Topology.Mesh ~nx:2 ~ny:1 in
  let sys = System.make t ~pins_per_fpga:8 in
  let a = Ids.Fpga.of_int 0 and b = Ids.Fpga.of_int 1 in
  (match System.channel_between sys ~src:a ~dst:b with
  | Some c ->
      Alcotest.(check int) "src" 0 (Ids.Fpga.to_int c.System.src);
      Alcotest.(check int) "dst" 1 (Ids.Fpga.to_int c.System.dst)
  | None -> Alcotest.fail "expected channel");
  Alcotest.(check bool) "no self channel" true
    (System.channel_between sys ~src:a ~dst:a = None)

let test_zero_width_rejected () =
  let t = Topology.make Topology.Mesh ~nx:3 ~ny:3 in
  match System.make t ~pins_per_fpga:4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected zero-width rejection"

(* The pathfinder's distance bound is exact only if the hop table is:
   an entry too small widens nothing it should not, but one too large
   prunes a state on the shortest path.  Every entry must equal the
   breadth-first hop count over the channels themselves, out-channels
   from the row's FPGA and in-channels into the column's, on every shape
   up to 7x5, including 1- and 2-wide tori whose wrap-around neighbours
   coincide. *)
let bfs_hops (csr : System.csr) nf s =
  let d = Array.make nf (-1) in
  let queue = Queue.create () in
  d.(s) <- 0;
  Queue.add s queue;
  while not (Queue.is_empty queue) do
    let f = Queue.pop queue in
    for k = csr.System.offsets.(f) to csr.System.offsets.(f + 1) - 1 do
      let g = csr.System.ends.(k) in
      if d.(g) < 0 then begin
        d.(g) <- d.(f) + 1;
        Queue.add g queue
      end
    done
  done;
  d

let test_hops_are_bfs_distances () =
  List.iter
    (fun kind ->
      for nx = 1 to 7 do
        for ny = 1 to 5 do
          let sys =
            System.make (Topology.make kind ~nx ~ny) ~pins_per_fpga:240
          in
          let nf = System.num_fpgas sys and hops = System.hops sys in
          let what =
            Format.asprintf "%a %dx%d" Topology.pp_kind kind nx ny
          in
          Alcotest.(check int) (what ^ ": table size") (nf * nf)
            (Array.length hops);
          for s = 0 to nf - 1 do
            let out = bfs_hops (System.out_csr sys) nf s
            and into = bfs_hops (System.in_csr sys) nf s in
            for g = 0 to nf - 1 do
              let entry a b = hops.((a * nf) + b) in
              let distance =
                System.distance sys (Ids.Fpga.of_int s) (Ids.Fpga.of_int g)
              in
              if
                entry s g <> out.(g)
                || entry g s <> into.(g)
                || distance <> entry s g
              then
                Alcotest.failf
                  "%s: %d -> %d: table %d, distance %d, out-channel BFS %d; \
                   %d -> %d: table %d, in-channel BFS %d"
                  what s g (entry s g) distance out.(g) g s (entry g s)
                  into.(g)
            done
          done
        done
      done)
    [ Topology.Mesh; Topology.Torus; Topology.Crossbar ]

let suite =
  [
    Alcotest.test_case "mesh neighbors" `Quick test_mesh_neighbors;
    Alcotest.test_case "mesh distance" `Quick test_mesh_distance;
    Alcotest.test_case "torus wraps" `Quick test_torus_wraps;
    Alcotest.test_case "crossbar" `Quick test_crossbar;
    Alcotest.test_case "make for count" `Quick test_make_for_count;
    Alcotest.test_case "system channels" `Quick test_system_channels;
    Alcotest.test_case "channel between" `Quick test_channel_between;
    Alcotest.test_case "zero width rejected" `Quick test_zero_width_rejected;
    Alcotest.test_case "hops are BFS distances" `Quick
      test_hops_are_bfs_distances;
  ]
