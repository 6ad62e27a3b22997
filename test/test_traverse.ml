open Msched_netlist
module B = Netlist.Builder
module Partition = Msched_partition.Partition
module Design_gen = Msched_gen.Design_gen
module Compile = Msched.Compile

(* ---- Naive reference ----

   The region and delay code the kernel replaced: a netlist-sized member
   array, a Kahn sort over every cell of the netlist, and per source a walk
   over the region's whole topological order into a table.  The frame-start
   settle pass is the one latch analysis and the verifier each carried. *)
module Naive = struct
  type t = { nl : Netlist.t; member : bool array; topo : Ids.Cell.t list }

  let region_topo nl member =
    let ncells = Netlist.num_cells nl in
    let indeg = Array.make ncells 0 in
    let in_play i =
      member.(i)
      && Levelize.is_comb_through (Netlist.cell nl (Ids.Cell.of_int i))
    in
    for i = 0 to ncells - 1 do
      if in_play i then begin
        let c = Netlist.cell nl (Ids.Cell.of_int i) in
        indeg.(i) <-
          List.fold_left
            (fun acc n ->
              let d = Netlist.driver nl n in
              if in_play (Ids.Cell.to_int d.Cell.id) then acc + 1 else acc)
            0
            (Levelize.comb_inputs nl c)
      end
    done;
    let queue = Queue.create () in
    for i = 0 to ncells - 1 do
      if in_play i && indeg.(i) = 0 then Queue.add (Ids.Cell.of_int i) queue
    done;
    let order = ref [] in
    while not (Queue.is_empty queue) do
      let cid = Queue.pop queue in
      order := cid :: !order;
      match (Netlist.cell nl cid).Cell.output with
      | None -> ()
      | Some out ->
          Array.iter
            (fun (tm : Netlist.term) ->
              let consumer = Netlist.cell nl tm.Netlist.term_cell in
              let j = Ids.Cell.to_int consumer.Cell.id in
              if in_play j && Levelize.is_comb_pin consumer tm.Netlist.term_pin
              then begin
                indeg.(j) <- indeg.(j) - 1;
                if indeg.(j) = 0 then Queue.add consumer.Cell.id queue
              end)
            (Netlist.fanouts nl out)
    done;
    let stuck = ref [] in
    for i = ncells - 1 downto 0 do
      if in_play i && indeg.(i) > 0 then stuck := Ids.Cell.of_int i :: !stuck
    done;
    if !stuck <> [] then raise (Levelize.Combinational_cycle !stuck);
    List.rev !order

  let of_cells nl cells =
    let member = Array.make (Netlist.num_cells nl) false in
    List.iter (fun c -> member.(Ids.Cell.to_int c) <- true) cells;
    { nl; member; topo = region_topo nl member }

  let delays_from t src =
    let table = Ids.Net.Tbl.create 64 in
    Ids.Net.Tbl.replace table src { Traverse.dmin = 0; dmax = 0 };
    List.iter
      (fun cid ->
        let c = Netlist.cell t.nl cid in
        let reach =
          List.filter_map
            (fun n -> Ids.Net.Tbl.find_opt table n)
            (Levelize.comb_inputs t.nl c)
        in
        match reach, c.Cell.output with
        | [], _ | _, None -> ()
        | first :: rest, Some out ->
            let d =
              List.fold_left
                (fun (acc : Traverse.delay) (d : Traverse.delay) ->
                  {
                    Traverse.dmin = min acc.dmin d.dmin;
                    dmax = max acc.dmax d.dmax;
                  })
                first rest
            in
            Ids.Net.Tbl.replace table out
              { Traverse.dmin = d.dmin + 1; dmax = d.dmax + 1 })
      t.topo;
    table

  let local_settle t cells =
    let table = Ids.Net.Tbl.create 64 in
    List.iter
      (fun cid ->
        let c = Netlist.cell t.nl cid in
        match c.Cell.kind, c.Cell.trigger with
        | Cell.Flip_flop, Some (Cell.Net_trigger _) -> ()
        | (Cell.Flip_flop | Cell.Ram _ | Cell.Input _ | Cell.Clock_source _), _
          -> (
            match c.Cell.output with
            | Some out -> Ids.Net.Tbl.replace table out 0
            | None -> ())
        | (Cell.Latch _ | Cell.Gate _ | Cell.Output), _ -> ())
      cells;
    List.iter
      (fun cid ->
        let c = Netlist.cell t.nl cid in
        let reach =
          List.filter_map
            (fun n -> Ids.Net.Tbl.find_opt table n)
            (Levelize.comb_inputs t.nl c)
        in
        match reach, c.Cell.output with
        | [], _ | _, None -> ()
        | first :: rest, Some out ->
            Ids.Net.Tbl.replace table out (List.fold_left max first rest + 1))
      t.topo;
    table
end

let cone_list region src =
  let acc = ref [] in
  Traverse.cone region src (fun n dmin dmax -> acc := (n, dmin, dmax) :: !acc);
  List.rev !acc

let region_of nl cells = Traverse.region (Traverse.scratch nl) cells

let all_cells nl = List.init (Netlist.num_cells nl) Ids.Cell.of_int

(* ---- Kernel on hand-built regions ---- *)

(* i1 -> g1 -> g2 -> ff.d ; i1 -> g2 (reconvergent: min 1, max 2 to g2 out) *)
let diamond () =
  let b = B.create () in
  let d = B.add_domain b "clk" in
  let i1 = B.add_input b ~domain:d () in
  let g1 = B.add_gate b Cell.Not [ i1 ] in
  let g2 = B.add_gate b Cell.And [ g1; i1 ] in
  let q = B.add_flip_flop b ~data:g2 ~clock:(Cell.Dom_clock d) () in
  let (_ : Ids.Cell.t) = B.add_output b q in
  (B.finalize b, i1, g1, g2, q)

let reached region src = List.map (fun (n, _, _) -> n) (cone_list region src)

let reaches region a b = List.exists (Ids.Net.equal b) (reached region a)

let test_delays () =
  let nl, i1, g1, g2, _ = diamond () in
  let cone = cone_list (region_of nl (all_cells nl)) i1 in
  let d n =
    match List.find_opt (fun (m, _, _) -> Ids.Net.equal m n) cone with
    | Some (_, dmin, dmax) -> (dmin, dmax)
    | None -> Alcotest.fail "net not reached"
  in
  Alcotest.(check (pair int int)) "src" (0, 0) (d i1);
  Alcotest.(check (pair int int)) "g1" (1, 1) (d g1);
  Alcotest.(check (pair int int)) "g2: short and long side" (1, 2) (d g2);
  Alcotest.(check (list int))
    "visit order"
    (List.map Ids.Net.to_int [ i1; g1; g2 ])
    (List.map (fun (n, _, _) -> Ids.Net.to_int n) cone)

let test_reaches () =
  let nl, i1, g1, g2, q = diamond () in
  let region = region_of nl (all_cells nl) in
  Alcotest.(check bool) "i1 reaches g2" true (reaches region i1 g2);
  Alcotest.(check bool) "g1 reaches g2" true (reaches region g1 g2);
  Alcotest.(check bool) "i1 does not reach q (ff cut)" false
    (reaches region i1 q)

let test_region_restriction () =
  let nl, i1, g1, g2, _ = diamond () in
  (* Exclude g2's cell from the region: i1 only reaches g1. *)
  let g2_cell = (Netlist.driver nl g2).Cell.id in
  let region =
    region_of nl
      (List.filter (fun c -> not (Ids.Cell.equal c g2_cell)) (all_cells nl))
  in
  Alcotest.(check bool) "reaches g1" true (reaches region i1 g1);
  Alcotest.(check bool) "not g2" false (reaches region i1 g2);
  Alcotest.(check bool) "g2 is no member" false
    (Traverse.contains region g2_cell)

let settle_list region =
  let acc = ref [] in
  Traverse.settle region (fun n v -> acc := (Ids.Net.to_int n, v) :: !acc);
  List.rev !acc

(* A RAM propagates combinationally from its read address only; its
   write pins are sinks.  Its read data is a frame-start output too, so
   settle seeds it at 0 and a reached read address raises it. *)
let test_ram_pins () =
  let b = B.create () in
  let d = B.add_domain b "clk" in
  let w = B.add_input b ~domain:d () in
  let r = B.add_input b ~domain:d () in
  let wg = B.add_gate b Cell.Not [ w ] in
  let rg = B.add_gate b Cell.Not [ r ] in
  let rd =
    B.add_ram b ~addr_bits:1 ~write_enable:wg ~write_data:wg ~write_addr:[ wg ]
      ~read_addr:[ rg ] ~clock:(Cell.Dom_clock d) ()
  in
  let o = B.add_gate b Cell.Buf [ rd ] in
  let (_ : Ids.Cell.t) = B.add_output b o in
  let nl = B.finalize b in
  let region = region_of nl (all_cells nl) in
  Alcotest.(check bool) "write pins do not reach read data" false
    (reaches region w rd);
  Alcotest.(check (list (triple int int int)))
    "read address reaches read data and beyond"
    [ (Ids.Net.to_int r, 0, 0); (Ids.Net.to_int rg, 1, 1);
      (Ids.Net.to_int rd, 2, 2); (Ids.Net.to_int o, 3, 3) ]
    (List.map
       (fun (n, a, b) -> (Ids.Net.to_int n, a, b))
       (cone_list region r));
  let settle = settle_list region in
  Alcotest.(check (option int)) "read data settles behind its inputs"
    (Some 2) (List.assoc_opt (Ids.Net.to_int rd) settle);
  Alcotest.(check (option int)) "and so does its consumer" (Some 3)
    (List.assoc_opt (Ids.Net.to_int o) settle)

(* A net-triggered flip-flop is neither combinational nor a frame-start
   origin: cones stop at its pins and settle does not seed its output. *)
let test_net_triggered_flip_flop () =
  let b = B.create () in
  let d = B.add_domain b "clk" in
  let i = B.add_input b ~domain:d () in
  let en = B.add_gate b Cell.Not [ i ] in
  let q = B.add_flip_flop b ~data:i ~clock:(Cell.Net_trigger en) () in
  let g = B.add_gate b Cell.Buf [ q ] in
  let (_ : Ids.Cell.t) = B.add_output b g in
  let nl = B.finalize b in
  let region = region_of nl (all_cells nl) in
  Alcotest.(check bool) "trigger does not reach q" false (reaches region en q);
  Alcotest.(check bool) "data does not reach q" false (reaches region i q);
  let settle = settle_list region in
  Alcotest.(check (option int)) "q is not seeded" None
    (List.assoc_opt (Ids.Net.to_int q) settle);
  Alcotest.(check (option int)) "nor is what it feeds" None
    (List.assoc_opt (Ids.Net.to_int g) settle);
  Alcotest.(check (option int)) "the input is" (Some 0)
    (List.assoc_opt (Ids.Net.to_int i) settle)

(* g1 -> g2 -> g1 is a loop; g3 hangs off it and is stuck too.  Only the
   region holding the loop raises. *)
let test_combinational_cycle () =
  let b = B.create () in
  let d = B.add_domain b "clk" in
  let i = B.add_input b ~domain:d () in
  let loop = B.fresh_net b () in
  let g1 = B.add_gate b Cell.And [ i; loop ] in
  B.add_gate_to b Cell.Not [ g1 ] ~output:loop;
  let g3 = B.add_gate b Cell.Buf [ loop ] in
  let free = B.add_gate b Cell.Not [ i ] in
  let (_ : Ids.Cell.t) = B.add_output b g3 in
  let (_ : Ids.Cell.t) = B.add_output b free in
  let nl = B.finalize b in
  let cell n = (Netlist.driver nl n).Cell.id in
  let stuck = List.map cell [ g1; loop; g3 ] |> List.sort Ids.Cell.compare in
  let stuck_of f =
    match f () with
    | _ -> Alcotest.fail "no cycle reported"
    | exception Levelize.Combinational_cycle cells ->
        List.map Ids.Cell.to_int cells
  in
  Alcotest.(check (list int)) "stuck cells" (List.map Ids.Cell.to_int stuck)
    (stuck_of (fun () -> ignore (region_of nl (all_cells nl))));
  Alcotest.(check (list int)) "as the naive sort reports"
    (stuck_of (fun () -> ignore (Naive.of_cells nl (all_cells nl))))
    (stuck_of (fun () -> ignore (region_of nl (all_cells nl))));
  (* Cutting the loop open clears the region. *)
  let cut =
    List.filter (fun c -> not (Ids.Cell.equal c (cell loop))) (all_cells nl)
  in
  Alcotest.(check bool) "cut region sorts" true
    (reaches (region_of nl cut) i g1)

(* ---- Differential oracle ---- *)

let pp_cone l =
  String.concat " "
    (List.map
       (fun (n, a, b) -> Printf.sprintf "n%d[%d,%d]" (Ids.Net.to_int n) a b)
       l)

(* The kernel against the naive reference on one region: every source's
   reached set, dmin and dmax, visit order (the source, then the reached
   cells in the reference's topological order), and settle. *)
let check_region nl region naive cells sources =
  List.iter
    (fun src ->
      let got = cone_list region src in
      let table = Naive.delays_from naive src in
      let expected =
        (src, 0, 0)
        :: List.filter_map
             (fun cid ->
               match (Netlist.cell nl cid).Cell.output with
               | Some out when not (Ids.Net.equal out src) -> (
                   match Ids.Net.Tbl.find_opt table out with
                   | Some d -> Some (out, d.Traverse.dmin, d.Traverse.dmax)
                   | None -> None)
               | Some _ | None -> None)
             naive.Naive.topo
      in
      if got <> expected then
        Alcotest.failf "cone of n%d: kernel %s, reference %s"
          (Ids.Net.to_int src) (pp_cone got) (pp_cone expected))
    sources;
  let got = settle_list region in
  let expected =
    Ids.Net.Tbl.fold
      (fun n v acc -> (Ids.Net.to_int n, v) :: acc)
      (Naive.local_settle naive cells) []
  in
  Alcotest.(check (list (pair int int)))
    "settle" (List.sort compare expected) (List.sort compare got);
  Alcotest.(check int) "settle emits each net once" (List.length got)
    (List.length (List.sort_uniq compare (List.map fst got)))

(* Sources: every net feeding a member, and every member's output. *)
let region_sources nl cells =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let add n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      acc := n :: !acc
    end
  in
  List.iter
    (fun cid ->
      let c = Netlist.cell nl cid in
      Array.iter add c.Cell.data_inputs;
      Option.iter add c.Cell.output)
    cells;
  List.rev !acc

let family_specs seed =
  [
    Printf.sprintf "random:domains=3,modules=8,mts=0.30,seed=%d" seed;
    Printf.sprintf "gals:islands=3,size=2,seed=%d" seed;
    Printf.sprintf "dense:domains=6,density=0.30,seed=%d" seed;
    Printf.sprintf "fabric:banks=3,domains=3,seed=%d" seed;
    Printf.sprintf "design1:scale=0.01,seed=%d" seed;
    Printf.sprintf "design2:scale=0.01,seed=%d" seed;
    "fig1"; "fig3"; "handshake";
  ]

let netlist_of spec =
  match Design_gen.of_spec spec with
  | Ok d -> d.Design_gen.netlist
  | Error _ -> invalid_arg spec

(* Every block of the raw design's partition and of the compiled front
   end's (after the MTS transform), one scratch per partition as latch
   analysis and the verifier use it. *)
let test_oracle_blocks () =
  List.iter
    (fun seed ->
      List.iter
        (fun spec ->
          let raw = netlist_of spec in
          let prepared =
            Compile.prepare
              ~options:
                { Compile.default_options with Compile.max_block_weight = 16 }
              raw
          in
          List.iter
            (fun part ->
              let nl = Partition.netlist part in
              let scratch = Traverse.scratch nl in
              List.iter
                (fun block ->
                  let cells = Partition.cells_of_block part block in
                  check_region nl
                    (Traverse.region scratch cells)
                    (Naive.of_cells nl cells) cells (region_sources nl cells))
                (Partition.blocks part))
            [ Partition.make raw ~max_weight:16 ~seed ();
              prepared.Compile.partition ])
        (family_specs seed))
    [ 1; 2; 3 ]

(* Random cell subsets cut combinational paths in the middle: a gate
   whose driver is left out starts a path, one whose consumer is left out
   ends it.  Sources are sampled from the nets touching the subset, in
   shuffled member order. *)
let test_oracle_subsets () =
  let rng = Random.State.make [| 0x7a5e |] in
  List.iter
    (fun spec ->
      let nl = netlist_of spec in
      let scratch = Traverse.scratch nl in
      for _ = 1 to 4 do
        let cells =
          List.filter (fun _ -> Random.State.bool rng) (all_cells nl)
          |> List.map (fun c -> (Random.State.bits rng, c))
          |> List.sort compare |> List.map snd
        in
        let sources =
          List.filter
            (fun _ -> Random.State.int rng 4 = 0)
            (region_sources nl cells)
        in
        check_region nl (Traverse.region scratch cells)
          (Naive.of_cells nl cells) cells sources
      done)
    (family_specs 5)

(* ---- Allocation guards ---- *)

let words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let prepared_partition spec =
  (Compile.prepare
     ~options:
       {
         Compile.default_options with
         Compile.max_block_weight = 64;
         pins_per_fpga = 96;
       }
     (netlist_of spec))
    .Compile.partition

(* A cone allocates nothing per visited cell: minor words over every
   input-net cone of every block, per source, recorded at 0.19 (the
   window's own boxed floats).  The full-walk reference allocated 650-1000
   words per source here. *)
let test_cone_allocation () =
  let part = prepared_partition "design1:scale=0.1,seed=1" in
  let scratch = Traverse.scratch (Partition.netlist part) in
  let total = ref 0 in
  let f _ _ dmax = total := !total + dmax in
  let spent = ref 0.0 and sources = ref 0 in
  List.iter
    (fun block ->
      let region =
        Traverse.region scratch (Partition.cells_of_block part block)
      in
      let inputs = Partition.input_nets part block in
      let w0 = Gc.minor_words () in
      List.iter (fun m -> Traverse.cone region m f) inputs;
      spent := !spent +. (Gc.minor_words () -. w0);
      sources := !sources + List.length inputs)
    (Partition.blocks part);
  let per_source = !spent /. float_of_int !sources in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per cone (of %d) < 0.5" per_source !sources)
    true (per_source < 0.5)

(* Building every region of a partition costs O(block) per block: words
   per cell stay flat as the design grows (about 13 here; the scratch is
   allocated once per analysis, before).  The netlist-sized member array
   per block of the reference read 84, 142 and 258 words per cell at
   these scales. *)
let test_region_allocation () =
  let per_cell =
    List.map
      (fun scale ->
        let nl =
          netlist_of (Printf.sprintf "design1:scale=%g,seed=1" scale)
        in
        let part = Partition.make nl ~max_weight:64 ~seed:1 () in
        let blocks =
          List.map (Partition.cells_of_block part) (Partition.blocks part)
        in
        let scratch = Traverse.scratch nl in
        (* Settle the scratch's major-heap accounting before the window. *)
        Gc.full_major ();
        let w0 = words () in
        List.iter (fun cells -> ignore (Traverse.region scratch cells)) blocks;
        (scale, (words () -. w0) /. float_of_int (Netlist.num_cells nl)))
      [ 0.05; 0.1; 0.2 ]
  in
  let shown =
    String.concat ", "
      (List.map (fun (s, w) -> Printf.sprintf "%g: %.1f" s w) per_cell)
  in
  let ws = List.map snd per_cell in
  let lo = List.fold_left min infinity ws and hi = List.fold_left max 0.0 ws in
  Alcotest.(check bool)
    (Printf.sprintf "words per cell (%s) < 26" shown) true (hi < 26.0);
  Alcotest.(check bool)
    (Printf.sprintf "words per cell (%s) flat within 25%%" shown)
    true
    (hi <= 1.25 *. lo)

let suite =
  [
    Alcotest.test_case "min/max delays" `Quick test_delays;
    Alcotest.test_case "reaches" `Quick test_reaches;
    Alcotest.test_case "region restriction" `Quick test_region_restriction;
    Alcotest.test_case "RAM read and write pins" `Quick test_ram_pins;
    Alcotest.test_case "net-triggered flip-flop" `Quick
      test_net_triggered_flip_flop;
    Alcotest.test_case "combinational cycle" `Quick test_combinational_cycle;
    Alcotest.test_case "oracle: every block" `Quick test_oracle_blocks;
    Alcotest.test_case "oracle: random subsets" `Quick test_oracle_subsets;
    Alcotest.test_case "cone allocation" `Quick test_cone_allocation;
    Alcotest.test_case "region allocation" `Quick test_region_allocation;
  ]
