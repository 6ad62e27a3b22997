open Msched_netlist
module Partition = Msched_partition.Partition
module Capacity = Msched_partition.Capacity
module Design_gen = Msched_gen.Design_gen

let small_design () =
  (Design_gen.random_multidomain ~seed:3 ~domains:2 ~modules:12 ~mts_fraction:0.2 ())
    .Design_gen.netlist

let test_validates () =
  let nl = small_design () in
  let part = Partition.make nl ~max_weight:20 () in
  match Partition.validate part with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_weights_bounded () =
  let nl = small_design () in
  let part = Partition.make nl ~max_weight:20 () in
  List.iter
    (fun b ->
      Alcotest.(check bool) "weight within budget" true
        (Partition.weight_of_block part b <= 20))
    (Partition.blocks part)

let test_all_cells_assigned () =
  let nl = small_design () in
  let part = Partition.make nl ~max_weight:20 () in
  let total =
    List.fold_left
      (fun acc b -> acc + List.length (Partition.cells_of_block part b))
      0 (Partition.blocks part)
  in
  Alcotest.(check int) "all cells" (Netlist.num_cells nl) total

let test_packing_quality () =
  (* The merge pass must pack blocks: block count close to the lower bound. *)
  let nl = small_design () in
  let part = Partition.make nl ~max_weight:20 () in
  let lower = (Capacity.total_weight nl + 19) / 20 in
  Alcotest.(check bool)
    (Printf.sprintf "blocks %d within 2x of lower bound %d"
       (Partition.num_blocks part) lower)
    true
    (Partition.num_blocks part <= 2 * lower + 1)

let test_crossing_consistency () =
  let nl = small_design () in
  let part = Partition.make nl ~max_weight:20 () in
  List.iter
    (fun net ->
      let foreign = Partition.foreign_consumers part net in
      Alcotest.(check bool) "crossing has foreign" true (foreign <> []);
      let src = Partition.block_of_cell part (Netlist.driver nl net).Cell.id in
      List.iter
        (fun (b, terms) ->
          Alcotest.(check bool) "foreign differs from src" false
            (Ids.Block.equal b src);
          List.iter
            (fun (tm : Netlist.term) ->
              Alcotest.(check bool) "term really in block" true
                (Ids.Block.equal (Partition.block_of_cell part tm.Netlist.term_cell) b))
            terms)
        foreign)
    (Partition.crossing_nets part)

let test_input_output_nets () =
  let nl = small_design () in
  let part = Partition.make nl ~max_weight:20 () in
  List.iter
    (fun b ->
      List.iter
        (fun n ->
          let src = Partition.block_of_cell part (Netlist.driver nl n).Cell.id in
          Alcotest.(check bool) "input driven elsewhere" false (Ids.Block.equal src b))
        (Partition.input_nets part b);
      List.iter
        (fun n ->
          let src = Partition.block_of_cell part (Netlist.driver nl n).Cell.id in
          Alcotest.(check bool) "output driven here" true (Ids.Block.equal src b))
        (Partition.output_nets part b))
    (Partition.blocks part)

let test_global_clock_not_crossing () =
  (* Dom-clocked triggers never force their clock-source net to cross. *)
  let b = Netlist.Builder.create () in
  let d = Netlist.Builder.add_domain b "clk" in
  let (_ : Ids.Net.t) = Netlist.Builder.add_clock_source b d in
  let i = Netlist.Builder.add_input b ~domain:d () in
  let q1 = Netlist.Builder.add_flip_flop b ~data:i ~clock:(Cell.Dom_clock d) () in
  let q2 = Netlist.Builder.add_flip_flop b ~data:q1 ~clock:(Cell.Dom_clock d) () in
  let (_ : Ids.Cell.t) = Netlist.Builder.add_output b q2 in
  let nl = Netlist.Builder.finalize b in
  (* Force the two flip-flops into different blocks. *)
  let assignment =
    Array.init (Netlist.num_cells nl) (fun i ->
        Ids.Block.of_int (if i mod 2 = 0 then 0 else 1))
  in
  let part = Partition.of_assignment nl assignment in
  let crossing = Partition.crossing_nets part in
  let clock_net = Option.get (Netlist.clock_source_net nl d) in
  Alcotest.(check bool) "clock net does not cross" false
    (List.exists (Ids.Net.equal clock_net) crossing)

let test_deterministic () =
  let nl = small_design () in
  let p1 = Partition.make nl ~max_weight:20 ~seed:5 () in
  let p2 = Partition.make nl ~max_weight:20 ~seed:5 () in
  Alcotest.(check int) "same block count" (Partition.num_blocks p1)
    (Partition.num_blocks p2);
  Netlist.iter_cells nl (fun c ->
      Alcotest.(check int) "same assignment"
        (Ids.Block.to_int (Partition.block_of_cell p1 c.Cell.id))
        (Ids.Block.to_int (Partition.block_of_cell p2 c.Cell.id)))

let test_oversized_cell_rejected () =
  let b = Netlist.Builder.create () in
  let d = Netlist.Builder.add_domain b "clk" in
  let i = Netlist.Builder.add_input b ~domain:d () in
  let (_ : Ids.Net.t) =
    Netlist.Builder.add_ram b ~addr_bits:6 ~write_enable:i ~write_data:i
      ~write_addr:(List.init 6 (fun _ -> i))
      ~read_addr:(List.init 6 (fun _ -> i))
      ~clock:(Cell.Dom_clock d) ()
  in
  let nl = Netlist.Builder.finalize b in
  (* the 64-word RAM weighs 16 > max_weight 4 *)
  match Partition.make nl ~max_weight:4 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected oversized-cell rejection"

let prop_partition_valid =
  QCheck.Test.make ~name:"partition always valid and bounded" ~count:20
    QCheck.(pair (int_range 0 1000) (int_range 10 60))
    (fun (seed, max_weight) ->
      let d =
        Design_gen.random_multidomain ~seed ~domains:2 ~modules:10
          ~mts_fraction:0.2 ()
      in
      let part = Partition.make d.Design_gen.netlist ~max_weight ~seed () in
      Partition.validate part = Ok ()
      && List.for_all
           (fun b -> Partition.weight_of_block part b <= max_weight)
           (Partition.blocks part))

(* [make] clusters, merges and refines on a cell graph of flat int
   arrays built once per call, so what it allocates on the minor heap is
   the partition it returns and a little per-round set-up.  The list-based
   implementation allocated 3.09 M minor words here: per-cell neighbour
   lists and a hash-table bump per block-crossing endpoint.  A minor-word
   count repeats exactly, so this pins the mechanism without timing
   noise. *)
let test_allocation_per_make () =
  let nl =
    (Design_gen.design1_like ~seed:1 ~scale:0.2 ()).Design_gen.netlist
  in
  ignore (Partition.make nl ~max_weight:64 ());
  let w0 = Gc.minor_words () in
  ignore (Partition.make nl ~max_weight:64 ());
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for %d cells < 1.0 M" words
       (Netlist.num_cells nl))
    true (words < 1.0e6)

let suite =
  [
    Alcotest.test_case "validates" `Quick test_validates;
    Alcotest.test_case "weights bounded" `Quick test_weights_bounded;
    Alcotest.test_case "all cells assigned" `Quick test_all_cells_assigned;
    Alcotest.test_case "packing quality" `Quick test_packing_quality;
    Alcotest.test_case "crossing consistency" `Quick test_crossing_consistency;
    Alcotest.test_case "input/output nets" `Quick test_input_output_nets;
    Alcotest.test_case "global clock not crossing" `Quick test_global_clock_not_crossing;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "oversized cell rejected" `Quick test_oversized_cell_rejected;
    QCheck_alcotest.to_alcotest prop_partition_valid;
    Alcotest.test_case "allocation per make" `Quick test_allocation_per_make;
  ]
