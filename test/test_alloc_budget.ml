(* ---- Allocation budget ----

   Every compile and every [{"op":"delta"}] request runs the netlist
   reader and the verifier, and every compile lints its design first.
   These work tests count every word each of them allocates (minor +
   major - promoted after [Gc.minor ()], as the guards in
   test_traverse.ml do).  The reader and verify run on the delta_edit
   benchmark's base design, design1 at scale 0.025 (964 cells, a 35.5 KB
   text), compiled at weight 64 with 96 pins.  Recorded on OCaml 5.1.1:

   - the reader: 99.9 k words (2.81 per input byte) with a per-line
     [Some] from the line scan, a hashtable entry per net id, a list and
     its reverse per gate's inputs and per builder cell, and closures per
     validated cell; 50.7 k (1.43 per byte) with the dense id table,
     array inputs and the closure-free validation.  The netlist it
     returns holds 34.8 k words (0.98 per byte).  Bound: 1.75 per byte.
   - [Verify.verify]: 56.0 k words with (int * int)-keyed occupancy,
     arrival and delivery tables and a closure per transport; 25.5 k
     with dense tallies, 15.6 k of them the delay kernel's.  Bound: 60%
     of the first.
   - [Lint.check] on a cold_compile design, design1 at scale 0.05
     (seed 1, 696 dangling nets): 114.1 k words with one diagnostic per
     dangling net and a levelization that built two lists per cell and
     a [Queue] cell per member; 18.9 k with one grouped warning and
     levelization over pin ranges into its own topological array.
     Bound: 25% of the first. *)

open Msched_netlist
module Compile = Msched.Compile
module Verify = Msched_check.Verify
module Design_gen = Msched_gen.Design_gen

let words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let spent f =
  let w0 = words () in
  ignore (Sys.opaque_identity (f ()));
  words () -. w0

let design =
  lazy
    (match Design_gen.of_spec "design1:scale=0.025,seed=1" with
    | Ok d -> d.Design_gen.netlist
    | Error _ -> Alcotest.fail "design1 spec")

let compiled =
  lazy
    (Compile.compile
       ~options:
         {
           Compile.default_options with
           Compile.max_block_weight = 64;
           pins_per_fpga = 96;
         }
       (Lazy.force design))

let lint_design =
  lazy
    (match Design_gen.of_spec "design1:scale=0.05,seed=1" with
    | Ok d -> d.Design_gen.netlist
    | Error _ -> Alcotest.fail "design1 spec")

let check_bound what words bound =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f words <= %.0f" what words bound)
    true (words <= bound)

let test_reader_words () =
  let text = Serial.to_string (Lazy.force design) in
  let w = spent (fun () -> Serial.of_string_diag text) in
  let per_byte = w /. float_of_int (String.length text) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per input byte (%.0f for %d bytes) <= 1.75"
       per_byte w (String.length text))
    true (per_byte <= 1.75)

let test_verify_words () =
  let c = Lazy.force compiled in
  let p = c.Compile.prepared in
  check_bound "Verify.verify"
    (spent (fun () ->
         Verify.verify p.Compile.placement p.Compile.analysis
           c.Compile.schedule))
    (0.6 *. 55_981.)

let test_lint_words () =
  let nl = Lazy.force lint_design in
  check_bound "Lint.check" (spent (fun () -> Lint.check nl)) (0.25 *. 114_081.)

let suite =
  [
    Alcotest.test_case "work: reader words per byte" `Quick test_reader_words;
    Alcotest.test_case "work: verify words" `Quick test_verify_words;
    Alcotest.test_case "work: lint words" `Quick test_lint_words;
  ]
