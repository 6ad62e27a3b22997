open Msched_netlist
module Design_gen = Msched_gen.Design_gen

let roundtrip nl =
  match Serial.of_string (Serial.to_string nl) with
  | Ok nl' -> nl'
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg)

let structurally_equal a b =
  Netlist.num_cells a = Netlist.num_cells b
  && Netlist.num_nets a = Netlist.num_nets b
  && Netlist.num_domains a = Netlist.num_domains b
  && List.for_all
       (fun i ->
         let ca = Netlist.cell a (Ids.Cell.of_int i) in
         let cb = Netlist.cell b (Ids.Cell.of_int i) in
         ca.Cell.kind = cb.Cell.kind
         && ca.Cell.data_inputs = cb.Cell.data_inputs
         && ca.Cell.trigger = cb.Cell.trigger
         && ca.Cell.output = cb.Cell.output)
       (List.init (Netlist.num_cells a) Fun.id)

let test_roundtrip_fig_designs () =
  List.iter
    (fun (d : Design_gen.design) ->
      let nl = d.Design_gen.netlist in
      Alcotest.(check bool)
        (d.Design_gen.design_label ^ " roundtrips")
        true
        (structurally_equal nl (roundtrip nl)))
    [ Design_gen.fig1 (); Design_gen.fig3_latch (); Design_gen.handshake () ]

let test_roundtrip_with_ram () =
  let d = Design_gen.design2_like ~scale:0.02 () in
  let nl = d.Design_gen.netlist in
  Alcotest.(check bool) "ram design roundtrips" true
    (structurally_equal nl (roundtrip nl))

let test_roundtrip_behavior () =
  (* The reparsed netlist must simulate identically. *)
  let d = Design_gen.fig3_latch () in
  let nl = d.Design_gen.netlist in
  let nl' = roundtrip nl in
  let stim = Msched_sim.Stimulus.make ~seed:7 nl in
  let g1 = Msched_sim.Ref_sim.create nl stim in
  let g2 = Msched_sim.Ref_sim.create nl' stim in
  let clocks = Msched_clocking.Async_gen.clocks (Netlist.domains nl) in
  let edges = Msched_clocking.Edges.stream clocks ~horizon_ps:200_000 in
  Msched_sim.Ref_sim.run g1 edges;
  Msched_sim.Ref_sim.run g2 edges;
  List.iter2
    (fun (ca, va) (cb, vb) ->
      Alcotest.(check int) "cell order" (Ids.Cell.to_int ca) (Ids.Cell.to_int cb);
      Alcotest.(check bool) "state equal" va vb)
    (Msched_sim.Ref_sim.state_snapshot g1)
    (Msched_sim.Ref_sim.state_snapshot g2)

let test_parse_errors () =
  let check_err text =
    match Serial.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("expected parse failure for: " ^ text)
  in
  check_err "bogus directive";
  check_err "net 0";
  check_err "gate frobnicate g 0 1";
  check_err "net 0 a\ninput i 0 domain notanint"

let test_comments_and_blank_lines () =
  let text =
    "design t\n# a comment\ndomain clk\n\nnet 0 i\nnet 1 q\ninput i 0 domain \
     0\nff f 1 0 dom 0\noutput o 1\n"
  in
  match Serial.of_string text with
  | Ok nl ->
      Alcotest.(check int) "cells" 3 (Netlist.num_cells nl);
      Alcotest.(check int) "nets" 2 (Netlist.num_nets nl)
  | Error msg -> Alcotest.fail msg

let prop_roundtrip_random =
  QCheck.Test.make ~name:"serialization roundtrips random designs" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let d =
        Design_gen.random_multidomain ~seed ~domains:2 ~modules:8
          ~mts_fraction:0.25 ()
      in
      let nl = d.Design_gen.netlist in
      match Serial.of_string (Serial.to_string nl) with
      | Ok nl' -> structurally_equal nl nl'
      | Error _ -> false)

let test_dot_contains_structure () =
  let d = Design_gen.fig1 () in
  let nl = d.Design_gen.netlist in
  let dot = Dot.to_string nl in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec scan i = i + n <= h && (String.sub dot i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "has FF1" true (contains "FF1");
  Alcotest.(check bool) "has edges" true (contains "->");
  Alcotest.(check bool) "dashed trigger edges absent (dom clocks only)" true
    (not (contains "style=dashed") || contains "clksrc")

let test_dot_clusters () =
  let d = Design_gen.fig1 () in
  let nl = d.Design_gen.netlist in
  let part = Msched_partition.Partition.make nl ~max_weight:4 () in
  let dot =
    Dot.to_string
      ~cluster:(fun c ->
        Some (Ids.Block.to_int (Msched_partition.Partition.block_of_cell part c)))
      nl
  in
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec scan i = i + n <= h && (String.sub dot i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "has clusters" true (contains "subgraph cluster_")

(* A second [design] line starts a new design: net ids of the first are
   unknown after it, so later uses answer E_PARSE with their line instead
   of resolving nets of the discarded builder. *)
let test_design_line_resets_net_ids () =
  let cases =
    [
      ( "design a\ndomain c\nnet 0 x\ndesign b\ndomain c\ninput i 0 domain 0\n\
         output o 0\n",
        [ "line 6: unknown net 0"; "line 7: unknown net 0" ] );
      ( "design a\ndomain c\nnet 0 x\nnet 1 y\ndesign b\ndomain c\nnet 0 z\n\
         input i 0 domain 0\noutput o 1\n",
        [ "line 9: unknown net 1" ] );
    ]
  in
  List.iter
    (fun (text, messages) ->
      (match Serial.of_string_diag text with
      | Ok _ -> Alcotest.fail "expected E_PARSE"
      | Error ds ->
          Alcotest.(check (list string)) "codes"
            (List.map (fun _ -> "E_PARSE") messages)
            (List.map
               (fun d -> Msched_diag.Diag.code_name d.Msched_diag.Diag.code)
               ds);
          Alcotest.(check (list string)) "messages" messages
            (List.map (fun d -> d.Msched_diag.Diag.message) ds));
      Alcotest.(check (result reject string)) "of_string"
        (Error (List.hd messages))
        (Result.map ignore (Serial.of_string text)))
    cases

(* Past 100 diagnostics the reader stops collecting, and says so last. *)
let test_suppressed_notice () =
  let text =
    String.concat "\n" (List.init 150 (fun i -> Printf.sprintf "bogus %d" i))
  in
  match Serial.of_string_diag text with
  | Ok _ -> Alcotest.fail "expected E_PARSE"
  | Error ds ->
      Alcotest.(check int) "100 line diagnostics, then the notice" 101
        (List.length ds);
      let last = List.nth ds 100 in
      Alcotest.(check string) "notice code" "E_PARSE"
        (Msched_diag.Diag.code_name last.Msched_diag.Diag.code);
      Alcotest.(check string) "notice"
        "more than 100 parse errors; rest suppressed"
        last.Msched_diag.Diag.message

(* A line the netlist builder rejects is named in every reader's error. *)
let test_builder_failures_name_the_line () =
  List.iter
    (fun (text, expected) ->
      Alcotest.(check (result reject string)) "of_string" (Error expected)
        (Result.map ignore (Serial.of_string text));
      Alcotest.(check (result reject string)) "canonical" (Error expected)
        (Result.map ignore (Serial.canonical text));
      (match Serial.of_string_exn text with
      | _ -> Alcotest.fail "of_string_exn accepted a bad line"
      | exception Failure m -> Alcotest.(check string) "of_string_exn" expected m);
      match Serial.of_string_diag text with
      | Ok _ -> Alcotest.fail "of_string_diag accepted a bad line"
      | Error ds ->
          Alcotest.(check string) "of_string_diag" expected
            (List.hd ds).Msched_diag.Diag.message)
    [
      ( "design t\ndomain c\nnet 0 a\ninput a 0 domain -1\noutput o 0\n",
        "line 4: d id must be non-negative" );
      ( "design t\ndomain c\nnet 0 a\nnet 1 b\nclocksource 0 0\n\
         clocksource 0 1\n",
        "line 6: add_clock_source_to: domain already has a clock source" );
    ]

let suite =
  [
    Alcotest.test_case "roundtrip fig designs" `Quick test_roundtrip_fig_designs;
    Alcotest.test_case "roundtrip with ram" `Quick test_roundtrip_with_ram;
    Alcotest.test_case "roundtrip behavior" `Quick test_roundtrip_behavior;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "comments and blank lines" `Quick test_comments_and_blank_lines;
    Alcotest.test_case "a design line resets net ids" `Quick
      test_design_line_resets_net_ids;
    Alcotest.test_case "more than 100 errors ends on the notice" `Quick
      test_suppressed_notice;
    Alcotest.test_case "builder failures name the line" `Quick
      test_builder_failures_name_the_line;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    Alcotest.test_case "dot structure" `Quick test_dot_contains_structure;
    Alcotest.test_case "dot clusters" `Quick test_dot_clusters;
  ]
