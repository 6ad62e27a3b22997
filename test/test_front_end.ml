(* ---- Front end: each job runs once ----

   [Compile.prepare] analyses domains, applies the MTS flip-flop
   transform (paper Section 5) and analyses the rewritten netlist again
   only when the transform rewrote something.  A design without MTS
   flip-flops keeps its netlist and its first analysis.  The rewritten
   netlist of a design with MTS flip-flops is pinned by the hash of its
   canonical text, recorded from the transform that rebuilt every
   netlist. *)

open Msched_netlist
module Compile = Msched.Compile
module Sink = Msched_obs.Sink
module Design_gen = Msched_gen.Design_gen
module Diag = Msched_diag.Diag

let prepare_traced nl =
  let obs = Sink.create () in
  let prepared = Compile.prepare ~options:{ Compile.default_options with Compile.obs } nl in
  let analyses =
    List.length
      (List.filter
         (fun sp -> sp.Sink.sp_name = "domain-analysis")
         (Sink.spans obs))
  in
  (prepared, obs, analyses)

let mts_ff_design () =
  Design_gen.random_multidomain ~seed:11 ~domains:3 ~modules:12
    ~mts_fraction:0.25 ~mts_ffs:3 ()

let test_one_analysis_without_mts_ffs () =
  let nl = (Design_gen.design1_like ~scale:0.05 ()).Design_gen.netlist in
  let prepared, obs, analyses = prepare_traced nl in
  Alcotest.(check int) "domain-analysis spans" 1 analyses;
  Alcotest.(check bool) "netlist is the original" true
    (prepared.Compile.netlist == prepared.Compile.original);
  Alcotest.(check int) "no rewrites" 0 (List.length prepared.Compile.rewrites);
  Alcotest.(check int) "mts.ff_rewrites" 0 (Sink.counter obs "mts.ff_rewrites");
  Alcotest.(check int) "mts.cells_out" (Netlist.num_cells nl)
    (Sink.counter obs "mts.cells_out");
  Alcotest.(check bool) "mts-transform span" true
    (List.exists (fun sp -> sp.Sink.sp_name = "mts-transform") (Sink.spans obs))

let rewritten_hash = "a7a5b36eb7b919ae"

let test_two_analyses_after_rewrite () =
  let nl = (mts_ff_design ()).Design_gen.netlist in
  let prepared, obs, analyses = prepare_traced nl in
  Alcotest.(check int) "domain-analysis spans" 2 analyses;
  Alcotest.(check bool) "ff rewrites" true (Sink.counter obs "mts.ff_rewrites" > 0);
  Alcotest.(check bool) "netlist rewritten" true
    (prepared.Compile.netlist != prepared.Compile.original);
  Alcotest.(check string) "rewritten netlist" rewritten_hash
    (Diag.Json.hash_hex (Serial.to_string prepared.Compile.netlist))

let suite =
  [
    Alcotest.test_case "prepare: one domain analysis without MTS flip-flops"
      `Quick test_one_analysis_without_mts_ffs;
    Alcotest.test_case "prepare: a rewrite is analysed again" `Quick
      test_two_analyses_after_rewrite;
  ]
