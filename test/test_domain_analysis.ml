open Msched_netlist
module B = Netlist.Builder
module DA = Msched_mts.Domain_analysis
module Design_gen = Msched_gen.Design_gen

let doms_testable = Alcotest.testable (fun ppf s ->
    Ids.Dom.Set.iter (fun d -> Format.fprintf ppf "%a " Ids.Dom.pp d) s)
    Ids.Dom.Set.equal

let set l = Ids.Dom.Set.of_list (List.map Ids.Dom.of_int l)

let test_fig1_transitions () =
  let d = Design_gen.fig1 () in
  let nl = d.Design_gen.netlist in
  let da = DA.compute nl in
  (* net named "Q" must transition in both domains *)
  let find name =
    let found = ref None in
    Netlist.iter_nets nl (fun n ni ->
        if ni.Netlist.net_name = name then found := Some n);
    Option.get !found
  in
  Alcotest.(check doms_testable) "Q trans" (set [ 0; 1 ]) (DA.transitions da (find "Q"));
  Alcotest.(check doms_testable) "Q samples" (set [ 0; 1 ]) (DA.samples da (find "Q"));
  Alcotest.(check bool) "Q is MTS" true (DA.is_mts_net da (find "Q"));
  Alcotest.(check doms_testable) "N3 trans" (set [ 0 ]) (DA.transitions da (find "N3"));
  Alcotest.(check bool) "N3 not MTS" false (DA.is_mts_net da (find "N3"))

let test_ff_output_single_domain () =
  let b = B.create () in
  let d0 = B.add_domain b "c0" and d1 = B.add_domain b "c1" in
  let i0 = B.add_input b ~domain:d0 () in
  let i1 = B.add_input b ~domain:d1 () in
  let mix = B.add_gate b Cell.Xor [ i0; i1 ] in
  (* Even though the data mixes domains, a dom-clocked FF output only
     transitions in its own clock domain. *)
  let q = B.add_flip_flop b ~data:mix ~clock:(Cell.Dom_clock d0) () in
  let (_ : Ids.Cell.t) = B.add_output b q in
  let nl = B.finalize b in
  let da = DA.compute nl in
  Alcotest.(check doms_testable) "mix both" (set [ 0; 1 ]) (DA.transitions da mix);
  Alcotest.(check doms_testable) "q single" (set [ 0 ]) (DA.transitions da q)

let test_latch_passes_data_domains () =
  let b = B.create () in
  let d0 = B.add_domain b "c0" and d1 = B.add_domain b "c1" in
  let data = B.add_input b ~domain:d0 () in
  let gate = B.add_input b ~domain:d1 () in
  let q = B.add_latch b ~data ~gate:(Cell.Net_trigger gate) () in
  let s = B.add_flip_flop b ~data:q ~clock:(Cell.Dom_clock d0) () in
  let (_ : Ids.Cell.t) = B.add_output b s in
  let nl = B.finalize b in
  let da = DA.compute nl in
  (* Transparent latches pass data transitions and add gate domains. *)
  Alcotest.(check doms_testable) "latch out both" (set [ 0; 1 ]) (DA.transitions da q)

let test_latch_feedback_converges () =
  let b = B.create () in
  let d0 = B.add_domain b "c0" in
  let gate = B.add_input b ~domain:d0 () in
  let loop = B.fresh_net b () in
  let g = B.add_gate b Cell.Not [ loop ] in
  B.add_latch_to b ~data:g ~gate:(Cell.Net_trigger gate) ~output:loop ();
  let nl = B.finalize b in
  let da = DA.compute nl in
  Alcotest.(check doms_testable) "loop converges" (set [ 0 ]) (DA.transitions da loop)

let test_mts_state_detection () =
  let d = Design_gen.fig3_latch () in
  let nl = d.Design_gen.netlist in
  let da = DA.compute nl in
  let mts_states =
    Netlist.fold_cells nl ~init:0 ~f:(fun acc c ->
        if DA.is_mts_state da c then acc + 1 else acc)
  in
  Alcotest.(check int) "one MTS latch" 1 mts_states

let test_ram_domains () =
  let b = B.create () in
  let d0 = B.add_domain b "c0" and d1 = B.add_domain b "c1" in
  let wa = B.add_input b ~domain:d0 () in
  let ra = B.add_input b ~domain:d1 () in
  let rdata =
    B.add_ram b ~addr_bits:1 ~write_enable:wa ~write_data:wa ~write_addr:[ wa ]
      ~read_addr:[ ra ] ~clock:(Cell.Dom_clock d0) ()
  in
  let s = B.add_flip_flop b ~data:rdata ~clock:(Cell.Dom_clock d1) () in
  let (_ : Ids.Cell.t) = B.add_output b s in
  let nl = B.finalize b in
  let da = DA.compute nl in
  (* Read data changes with the write clock and with the read address. *)
  Alcotest.(check doms_testable) "rdata both" (set [ 0; 1 ]) (DA.transitions da rdata);
  Alcotest.(check bool) "rdata multi-transition" true (DA.is_multi_transition da rdata)

let test_static_input_no_domains () =
  let b = B.create () in
  let d0 = B.add_domain b "c0" in
  let i = B.add_input b () in
  let q = B.add_flip_flop b ~data:i ~clock:(Cell.Dom_clock d0) () in
  let (_ : Ids.Cell.t) = B.add_output b q in
  let nl = B.finalize b in
  let da = DA.compute nl in
  Alcotest.(check doms_testable) "static input" (set []) (DA.transitions da i);
  Alcotest.(check doms_testable) "sampled by d0" (set [ 0 ]) (DA.samples da i)

(* A cell that reads a net driven by a later cell sees that net's sets
   only when it is evaluated again: the buffer [early] reads [late]
   before [late]'s driver is reached, and the input [i0] feeds the
   flip-flop's sampler only through both buffers, backwards. *)
let test_back_edges_reevaluated () =
  let b = B.create () in
  let d0 = B.add_domain b "c0" and d1 = B.add_domain b "c1" in
  let late = B.fresh_net b () in
  let early = B.add_gate b Cell.Buf [ late ] in
  let q = B.add_flip_flop b ~data:early ~clock:(Cell.Dom_clock d1) () in
  let i0 = B.add_input b ~domain:d0 () in
  B.add_gate_to b Cell.Buf [ i0 ] ~output:late;
  let (_ : Ids.Cell.t) = B.add_output b q in
  let da = DA.compute (B.finalize b) in
  Alcotest.(check doms_testable) "early transitions" (set [ 0 ]) (DA.transitions da early);
  Alcotest.(check doms_testable) "i0 samples" (set [ 1 ]) (DA.samples da i0)

(* Every net's transition and sample sets over generator designs, as one
   hash per design of [pp_net] over all nets, recorded from the analysis
   that swept the whole netlist until nothing changed. *)
let pinned_designs =
  [
    ("design1", fun () -> Design_gen.design1_like ~scale:0.05 ());
    ("design2", fun () -> Design_gen.design2_like ~scale:0.05 ());
    ("fabric", fun () -> Design_gen.gated_memory_fabric ~seed:3 ~banks:8 ~domains:4 ());
    ("dense", fun () -> Design_gen.dense_crossing ~seed:5 ~domains:12 ~density:0.6 ());
    ("gals", fun () -> Design_gen.gals_islands ~seed:2 ~islands:6 ());
    ( "random",
      fun () ->
        Design_gen.random_multidomain ~seed:19 ~domains:4 ~modules:20
          ~mts_fraction:0.3 ~mts_ffs:3 ~xwrite_rams:2 () );
    ("fig3", Design_gen.fig3_latch);
    ("handshake", Design_gen.handshake);
  ]

let sets_digest nl =
  let da = DA.compute nl in
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  Netlist.iter_nets nl (fun n _ -> Format.fprintf ppf "%a\n" (DA.pp_net da) n);
  Format.pp_print_flush ppf ();
  Msched_diag.Diag.Json.hash_hex (Buffer.contents b)

let sets_pin =
  {|design1 a15ee9efcbca9aae
design2 321d0926527f67a6
fabric b4bc4dd4470738c6
dense ccbf1dc29297176c
gals 984fb396b89a5e52
random 5cdfdd0874f773c7
fig3 8fef3be35d030a82
handshake c954b38e1db9a6d3|}

let test_sets_pinned () =
  Alcotest.(check (list string))
    "per-design set hashes"
    (String.split_on_char '\n' sets_pin)
    (List.map
       (fun (name, make) -> name ^ " " ^ sets_digest (make ()).Design_gen.netlist)
       pinned_designs)

let suite =
  [
    Alcotest.test_case "fig1 transitions/samples" `Quick test_fig1_transitions;
    Alcotest.test_case "ff output single domain" `Quick test_ff_output_single_domain;
    Alcotest.test_case "latch passes data domains" `Quick test_latch_passes_data_domains;
    Alcotest.test_case "latch feedback converges" `Quick test_latch_feedback_converges;
    Alcotest.test_case "mts state detection" `Quick test_mts_state_detection;
    Alcotest.test_case "ram domains" `Quick test_ram_domains;
    Alcotest.test_case "static input" `Quick test_static_input_no_domains;
    Alcotest.test_case "back edges re-evaluated" `Quick test_back_edges_reevaluated;
    Alcotest.test_case "sets pinned" `Quick test_sets_pinned;
  ]
