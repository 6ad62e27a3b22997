let () =
  Alcotest.run "msched"
    [
      ("ids", Test_ids.suite);
      ("cell", Test_cell.suite);
      ("netlist", Test_netlist.suite);
      ("levelize", Test_levelize.suite);
      ("traverse", Test_traverse.suite);
      ("clocking", Test_clocking.suite);
      ("arch", Test_arch.suite);
      ("partition", Test_partition.suite);
      ("place", Test_place.suite);
      ("domain-analysis", Test_domain_analysis.suite);
      ("transform", Test_transform.suite);
      ("latch-analysis", Test_latch_analysis.suite);
      ("route", Test_route.suite);
      ("tiers", Test_tiers.suite);
      ("sim", Test_sim.suite);
      ("fidelity", Test_fidelity.suite);
      ("gen", Test_gen.suite);
      ("serial", Test_serial.suite);
      ("vcd", Test_vcd.suite);
      ("frames", Test_frames.suite);
      ("injection", Test_injection.suite);
      ("diag", Test_diag.suite);
      ("reroute", Test_reroute.suite);
      ("verify", Test_verify.suite);
      ("forward", Test_forward.suite);
      ("compile", Test_compile.suite);
      ("obs", Test_obs.suite);
      ("workloads", Test_workloads.suite);
      ("server", Test_server.suite);
      ("serve-net", Test_serve_net.suite);
      ("explain", Test_explain.suite);
      ("delta", Test_delta.suite);
      ("kernel-pins", Test_kernel_pins.suite);
      ("quality-pins", Test_quality_pins.suite);
    ]
