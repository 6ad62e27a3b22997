open Msched_netlist
module B = Netlist.Builder
module Partition = Msched_partition.Partition
module LA = Msched_mts.Latch_analysis

(* Two-block design: block 0 holds the sources, block 1 an MTS latch with
   distinct data and gate input terminals. *)
let split_latch_design () =
  let b = B.create () in
  let d0 = B.add_domain b "c0" and d1 = B.add_domain b "c1" in
  let i0 = B.add_input b ~domain:d0 () in
  let i1 = B.add_input b ~domain:d1 () in
  let fa = B.add_flip_flop b ~name:"fa" ~data:i0 ~clock:(Cell.Dom_clock d0) () in
  let fb = B.add_flip_flop b ~name:"fb" ~data:i1 ~clock:(Cell.Dom_clock d1) () in
  (* Block 1 contents: data logic (2 levels), gate logic (1 level), latch. *)
  let dmix = B.add_gate b ~name:"dmix" Cell.Xor [ fa; fb ] in
  let data = B.add_gate b ~name:"data" Cell.Buf [ dmix ] in
  let gate = B.add_gate b ~name:"gate" Cell.Or [ fa; fb ] in
  let q = B.add_latch b ~name:"mtsl" ~data ~gate:(Cell.Net_trigger gate) () in
  let s = B.add_flip_flop b ~name:"s" ~data:q ~clock:(Cell.Dom_clock d0) () in
  let (_ : Ids.Cell.t) = B.add_output b ~name:"o" s in
  let nl = B.finalize b in
  let block_of (c : Cell.t) =
    match c.Cell.name with
    | "dmix" | "data" | "gate" | "mtsl" | "s" | "o" -> 1
    | _ -> 0
  in
  let assignment =
    Array.init (Netlist.num_cells nl) (fun i ->
        Ids.Block.of_int (block_of (Netlist.cell nl (Ids.Cell.of_int i))))
  in
  let part = Partition.of_assignment nl assignment in
  (nl, part, fa, fb, q)

let find_cell nl name =
  Netlist.fold_cells nl ~init:None ~f:(fun acc c ->
      if c.Cell.name = name then Some c else acc)
  |> Option.get

let test_terminal_sets () =
  let nl, part, fa, fb, _ = split_latch_design () in
  let la = LA.analyze_block part (Ids.Block.of_int 1) in
  Alcotest.(check int) "two input nets" 2 (List.length la.LA.input_nets);
  Alcotest.(check int) "one group" 1 (Array.length la.LA.groups);
  let g = la.LA.groups.(0) in
  let latch = find_cell nl "mtsl" in
  Alcotest.(check int) "one latch" 1 (List.length g.LA.latches);
  Alcotest.(check bool) "the latch" true
    (List.exists (Ids.Cell.equal latch.Cell.id) g.LA.latches);
  (* fa and fb both reach data (through dmix/data: 2 levels) and gate
     (through gate: 1 level) — they are GD terminals. *)
  List.iter
    (fun src ->
      let dep =
        List.find
          (fun (d : LA.dep) -> Ids.Net.equal d.LA.dep_origin src)
          g.LA.input_deps
      in
      (match dep.LA.dep_pd.LA.to_data with
      | Some dd ->
          Alcotest.(check int) "data delay" 2 dd.Traverse.dmax
      | None -> Alcotest.fail "expected data path");
      match dep.LA.dep_pd.LA.to_gate with
      | Some gd -> Alcotest.(check int) "gate delay" 1 gd.Traverse.dmax
      | None -> Alcotest.fail "expected gate path")
    [ fa; fb ]

let test_origin_deadlines () =
  let nl, part, _, _, q = split_latch_design () in
  let la = LA.analyze_block part (Ids.Block.of_int 1) in
  (* The latch output is an origin with a frame-end deadline: it feeds the
     FF "s" directly (delay 0) and the primary output via s... only the FF
     data pin counts here, at delay 0. *)
  let info = Ids.Net.Tbl.find la.LA.origins q in
  Alcotest.(check (option int)) "deadline" (Some 0) info.LA.deadline_delay;
  ignore nl

let test_d_type_merge () =
  (* One input reaching the data pins of two latches merges them. *)
  let b = B.create () in
  let d0 = B.add_domain b "c0" and d1 = B.add_domain b "c1" in
  let i0 = B.add_input b ~domain:d0 () in
  let i1 = B.add_input b ~domain:d1 () in
  let g0 = B.add_flip_flop b ~name:"src" ~data:i0 ~clock:(Cell.Dom_clock d0) () in
  let gate_src = B.add_flip_flop b ~name:"gsrc" ~data:i1 ~clock:(Cell.Dom_clock d1) () in
  let shared = B.add_gate b ~name:"shared" Cell.Buf [ g0 ] in
  let gate = B.add_gate b ~name:"gate" Cell.Or [ gate_src; g0 ] in
  let q1 = B.add_latch b ~name:"l1" ~data:shared ~gate:(Cell.Net_trigger gate) () in
  let q2 = B.add_latch b ~name:"l2" ~data:shared ~gate:(Cell.Net_trigger gate) () in
  let s1 = B.add_flip_flop b ~data:q1 ~clock:(Cell.Dom_clock d0) () in
  let s2 = B.add_flip_flop b ~data:q2 ~clock:(Cell.Dom_clock d1) () in
  let (_ : Ids.Cell.t) = B.add_output b s1 in
  let (_ : Ids.Cell.t) = B.add_output b s2 in
  let nl = B.finalize b in
  let latch_block (c : Cell.t) =
    match c.Cell.name with
    | "shared" | "gate" | "l1" | "l2" -> 1
    | _ -> 0
  in
  let assignment =
    Array.init (Netlist.num_cells nl) (fun i ->
        Ids.Block.of_int (latch_block (Netlist.cell nl (Ids.Cell.of_int i))))
  in
  let part = Partition.of_assignment nl assignment in
  let la = LA.analyze_block part (Ids.Block.of_int 1) in
  Alcotest.(check int) "merged into one group" 1 (Array.length la.LA.groups);
  Alcotest.(check int) "two latches in it" 2
    (List.length la.LA.groups.(0).LA.latches)

let test_g_type_order () =
  (* i reaches gate of l_parent and data of l_child: the parent's group is
     processed first (appears earlier). *)
  let b = B.create () in
  let d0 = B.add_domain b "c0" and d1 = B.add_domain b "c1" in
  let i0 = B.add_input b ~domain:d0 () in
  let i1 = B.add_input b ~domain:d1 () in
  let i2 = B.add_input b ~domain:d1 () in
  let x = B.add_flip_flop b ~name:"x" ~data:i0 ~clock:(Cell.Dom_clock d0) () in
  let y = B.add_flip_flop b ~name:"y" ~data:i1 ~clock:(Cell.Dom_clock d1) () in
  let z = B.add_flip_flop b ~name:"z" ~data:i2 ~clock:(Cell.Dom_clock d1) () in
  (* x reaches: data of child, gate of parent — and nothing else, so the
     only G-type edge is parent-before-child. *)
  let child_gate = B.add_gate b ~name:"cg" Cell.Or [ z ] in
  let parent_gate = B.add_gate b ~name:"pg" Cell.Or [ x ] in
  let parent_data = B.add_gate b ~name:"pd" Cell.Buf [ y ] in
  let qp =
    B.add_latch b ~name:"parent" ~data:parent_data
      ~gate:(Cell.Net_trigger parent_gate) ()
  in
  let qc =
    B.add_latch b ~name:"child" ~data:x ~gate:(Cell.Net_trigger child_gate) ()
  in
  let s1 = B.add_flip_flop b ~data:qp ~clock:(Cell.Dom_clock d0) () in
  let s2 = B.add_flip_flop b ~data:qc ~clock:(Cell.Dom_clock d1) () in
  let (_ : Ids.Cell.t) = B.add_output b s1 in
  let (_ : Ids.Cell.t) = B.add_output b s2 in
  let nl = B.finalize b in
  let latch_block (c : Cell.t) =
    match c.Cell.name with
    | "cg" | "pg" | "pd" | "parent" | "child" -> 1
    | _ -> 0
  in
  let assignment =
    Array.init (Netlist.num_cells nl) (fun i ->
        Ids.Block.of_int (latch_block (Netlist.cell nl (Ids.Cell.of_int i))))
  in
  let part = Partition.of_assignment nl assignment in
  let la = LA.analyze_block part (Ids.Block.of_int 1) in
  Alcotest.(check int) "two groups" 2 (Array.length la.LA.groups);
  let parent = find_cell nl "parent" and child = find_cell nl "child" in
  let pos cell =
    let found = ref (-1) in
    Array.iteri
      (fun gi g ->
        if List.exists (Ids.Cell.equal cell) g.LA.latches then found := gi)
      la.LA.groups;
    !found
  in
  Alcotest.(check bool) "parent before child" true
    (pos parent.Cell.id < pos child.Cell.id)

let test_g_cycle_merged () =
  (* Mutual gate/data relationships force a single simultaneous group. *)
  let b = B.create () in
  let d0 = B.add_domain b "c0" and d1 = B.add_domain b "c1" in
  let i0 = B.add_input b ~domain:d0 () in
  let i1 = B.add_input b ~domain:d1 () in
  let x = B.add_flip_flop b ~name:"x" ~data:i0 ~clock:(Cell.Dom_clock d0) () in
  let y = B.add_flip_flop b ~name:"y" ~data:i1 ~clock:(Cell.Dom_clock d1) () in
  (* x: data of l1, gate of l2; y: data of l2, gate of l1. *)
  let g1 = B.add_gate b ~name:"g1" Cell.Or [ y ] in
  let g2 = B.add_gate b ~name:"g2" Cell.Or [ x ] in
  let q1 = B.add_latch b ~name:"l1" ~data:x ~gate:(Cell.Net_trigger g1) () in
  let q2 = B.add_latch b ~name:"l2" ~data:y ~gate:(Cell.Net_trigger g2) () in
  let s1 = B.add_flip_flop b ~data:q1 ~clock:(Cell.Dom_clock d0) () in
  let s2 = B.add_flip_flop b ~data:q2 ~clock:(Cell.Dom_clock d1) () in
  let (_ : Ids.Cell.t) = B.add_output b s1 in
  let (_ : Ids.Cell.t) = B.add_output b s2 in
  let nl = B.finalize b in
  let latch_block (c : Cell.t) =
    match c.Cell.name with "g1" | "g2" | "l1" | "l2" -> 1 | _ -> 0
  in
  let assignment =
    Array.init (Netlist.num_cells nl) (fun i ->
        Ids.Block.of_int (latch_block (Netlist.cell nl (Ids.Cell.of_int i))))
  in
  let part = Partition.of_assignment nl assignment in
  let la = LA.analyze_block part (Ids.Block.of_int 1) in
  Alcotest.(check int) "cycle merged to one group" 1 (Array.length la.LA.groups);
  Alcotest.(check int) "both latches" 2 (List.length la.LA.groups.(0).LA.latches)

let test_local_settle () =
  let nl, part, _, _, _ = split_latch_design () in
  ignore nl;
  let la = LA.analyze_block part (Ids.Block.of_int 0) in
  (* Block 0 has only sources; local settle exists for FF outputs. *)
  Alcotest.(check bool) "some local settle entries" true
    (Ids.Net.Tbl.length la.LA.local_max_settle > 0)

(* One gate latch ordered before eight data latches: block 1 holds an MTS
   latch [a] gated by the OR of eight inputs from block 0, and latches
   [l1] .. [l8], each reading one of those inputs as data.  The eight
   G-type edges leave one root, so the order of the groups after [a]'s is
   the order the edges are visited in: that of the [(int * int, unit)
   Hashtbl.t] they are kept in, neither insertion order nor its reverse.
   No kernel-pins grid design tells those orders apart. *)
let test_fan_out_group_order () =
  let b = B.create () in
  let d0 = B.add_domain b "c0" in
  let clk = Cell.Dom_clock d0 in
  let src k =
    let i = B.add_input b ~domain:d0 () in
    B.add_flip_flop b ~name:(Printf.sprintf "f%d" k) ~data:i ~clock:clk ()
  in
  let fa = src 0 in
  let fs = List.init 8 (fun k -> src (k + 1)) in
  let gate = B.add_gate b ~name:"gate" Cell.Or fs in
  let qa = B.add_latch b ~name:"a" ~data:fa ~gate:(Cell.Net_trigger gate) () in
  let qs =
    List.mapi
      (fun k f ->
        B.add_latch b ~name:(Printf.sprintf "l%d" (k + 1)) ~data:f ~gate:clk ())
      fs
  in
  List.iteri
    (fun k q ->
      let (_ : Ids.Cell.t) = B.add_output b ~name:(Printf.sprintf "o%d" k) q in
      ())
    (qa :: qs);
  let nl = B.finalize b in
  (* Block 1: "a", "gate", the "l" latches and the "o" outputs. *)
  let block_of (c : Cell.t) =
    match c.Cell.name.[0] with 'a' | 'g' | 'l' | 'o' -> 1 | _ -> 0
  in
  let assignment =
    Array.init (Netlist.num_cells nl) (fun i ->
        Ids.Block.of_int (block_of (Netlist.cell nl (Ids.Cell.of_int i))))
  in
  let part = Partition.of_assignment nl assignment in
  let la = LA.analyze_block part (Ids.Block.of_int 1) in
  let names =
    Array.to_list la.LA.groups
    |> List.map (fun (g : LA.group) ->
           String.concat "+"
             (List.map (fun l -> (Netlist.cell nl l).Cell.name) g.LA.latches))
  in
  Alcotest.(check (list string))
    "group order"
    [ "a"; "l1"; "l4"; "l5"; "l3"; "l7"; "l2"; "l8"; "l6" ]
    names

let suite =
  [
    Alcotest.test_case "terminal sets + delays" `Quick test_terminal_sets;
    Alcotest.test_case "origin deadlines" `Quick test_origin_deadlines;
    Alcotest.test_case "d-type merge" `Quick test_d_type_merge;
    Alcotest.test_case "g-type order" `Quick test_g_type_order;
    Alcotest.test_case "g-cycle merged" `Quick test_g_cycle_merged;
    Alcotest.test_case "local settle" `Quick test_local_settle;
    Alcotest.test_case "fan-out group order" `Quick test_fan_out_group_order;
  ]
