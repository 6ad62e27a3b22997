(* Observability layer: span nesting, sink metrics, exporter
   well-formedness (checked with a tiny hand-rolled JSON parser — the repo
   deliberately has no JSON dependency), and pipeline integration. *)

module Sink = Msched_obs.Sink
module Export = Msched_obs.Export
module Tiers = Msched_route.Tiers
module Design_gen = Msched_gen.Design_gen

(* ------------------------------------------------------------------ *)
(* Minimal recursive-descent JSON parser, enough for our own exporters. *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let next () =
    match peek () with
    | Some c ->
        incr pos;
        c
    | None -> fail "unexpected end"
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c = if next () <> c then fail (Printf.sprintf "expected %C" c) in
  let literal word value =
    String.iter expect word;
    value
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next () with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
              let hex = really_sub 4 in
              Buffer.add_string b
                (Printf.sprintf "\\u%s" hex) (* kept escaped; ASCII input *)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    and really_sub k =
      if !pos + k > n then fail "truncated escape";
      let s = String.sub text !pos k in
      pos := !pos + k;
      s
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      incr pos
    done;
    if start = !pos then fail "empty number";
    J_num (float_of_string (String.sub text start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then (
          incr pos;
          J_obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> members ((k, v) :: acc)
            | '}' -> J_obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then (
          incr pos;
          J_list [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> elems (v :: acc)
            | ']' -> J_list (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member name = function
  | J_obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> raise (Bad_json ("missing member " ^ name)))
  | _ -> raise (Bad_json "not an object")

let to_list = function
  | J_list l -> l
  | _ -> raise (Bad_json "not a list")

let to_str = function
  | J_str s -> s
  | _ -> raise (Bad_json "not a string")

let to_num = function
  | J_num f -> f
  | _ -> raise (Bad_json "not a number")

(* ------------------------------------------------------------------ *)

(* Deterministic sink driven by a settable fake clock. *)
let fake_sink () =
  let t = ref 0.0 in
  (Sink.create ~clock:(fun () -> !t) (), t)

let test_span_nesting () =
  let obs, t = fake_sink () in
  Sink.span obs "outer" (fun () ->
      t := 0.001;
      Sink.span obs "inner" ~args:[ ("k", "v") ] (fun () -> t := 0.003);
      t := 0.004);
  Alcotest.(check (list string)) "all closed" [] (Sink.open_spans obs);
  match Sink.spans obs with
  | [ outer; inner ] ->
      Alcotest.(check string) "outer name" "outer" outer.Sink.sp_name;
      Alcotest.(check string) "inner name" "inner" inner.Sink.sp_name;
      Alcotest.(check (option int)) "outer is root" None outer.Sink.sp_parent;
      Alcotest.(check (option int))
        "inner nested in outer" (Some outer.Sink.sp_id) inner.Sink.sp_parent;
      Alcotest.(check int) "outer depth" 0 outer.Sink.sp_depth;
      Alcotest.(check int) "inner depth" 1 inner.Sink.sp_depth;
      Alcotest.(check int) "outer begin" 0 outer.Sink.sp_begin_us;
      Alcotest.(check int) "outer dur" 4000 outer.Sink.sp_dur_us;
      Alcotest.(check int) "inner begin" 1000 inner.Sink.sp_begin_us;
      Alcotest.(check int) "inner dur" 2000 inner.Sink.sp_dur_us;
      Alcotest.(check (list (pair string string)))
        "inner args" [ ("k", "v") ] inner.Sink.sp_args
  | spans ->
      Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_closed_on_raise () =
  let obs, _ = fake_sink () in
  (try Sink.span obs "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  Alcotest.(check (list string)) "closed after raise" [] (Sink.open_spans obs);
  Alcotest.(check int) "span recorded" 1 (List.length (Sink.spans obs))

let test_null_sink_noop () =
  Alcotest.(check bool) "null disabled" false (Sink.enabled Sink.null);
  let r = Sink.span Sink.null "x" (fun () -> 42) in
  Alcotest.(check int) "span passes value through" 42 r;
  Sink.add Sink.null "c" 3;
  Sink.gauge Sink.null "g" 1.0;
  Sink.observe Sink.null "h" 7;
  Alcotest.(check int) "no counter" 0 (Sink.counter Sink.null "c");
  Alcotest.(check (list (pair string int))) "no counters" [] (Sink.counters Sink.null);
  Alcotest.(check int) "no spans" 0 (List.length (Sink.spans Sink.null));
  Alcotest.(check (list int)) "no hist" [] (Sink.hist_values Sink.null "h")

let test_metrics () =
  let obs, _ = fake_sink () in
  Sink.add obs "c" 2;
  Sink.incr obs "c";
  Sink.gauge obs "g" 1.5;
  Sink.gauge obs "g" 2.5;
  List.iter (Sink.observe obs "h") [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  Alcotest.(check int) "counter" 3 (Sink.counter obs "c");
  Alcotest.(check (list (pair string int)))
    "counters sorted" [ ("c", 3) ] (Sink.counters obs);
  (match Sink.gauges obs with
  | [ ("g", v) ] -> Alcotest.(check (float 1e-9)) "gauge latest" 2.5 v
  | _ -> Alcotest.fail "gauges");
  match Sink.histograms obs with
  | [ ("h", h) ] ->
      Alcotest.(check int) "count" 10 h.Sink.hs_count;
      Alcotest.(check int) "sum" 55 h.Sink.hs_sum;
      Alcotest.(check int) "min" 1 h.Sink.hs_min;
      Alcotest.(check int) "max" 10 h.Sink.hs_max;
      Alcotest.(check int) "p50" 6 h.Sink.hs_p50;
      Alcotest.(check int) "p90" 10 h.Sink.hs_p90;
      Alcotest.(check (float 1e-9)) "mean" 5.5 h.Sink.hs_mean
  | _ -> Alcotest.fail "histograms"

(* perfbench folds one forked sink per replayed request into its global
   sink; nothing in the compiler forks one.  Counters add, gauges take the
   child's value, histograms append, and the child's spans graft under
   the parent span open at merge time. *)
let test_fork_merge () =
  let obs, _ = fake_sink () in
  Sink.add obs "c" 2;
  Sink.gauge obs "g" 1.0;
  Sink.observe obs "h" 1;
  Sink.span obs "outer" (fun () ->
      let child = Sink.fork obs in
      Sink.span child "work" (fun () -> Sink.add child "c" 3);
      Sink.gauge child "g" 4.0;
      Sink.observe child "h" 7;
      Sink.merge obs child);
  Alcotest.(check int) "counters add" 5 (Sink.counter obs "c");
  Alcotest.(check (list (pair string (float 1e-9))))
    "gauge overwritten" [ ("g", 4.0) ] (Sink.gauges obs);
  Alcotest.(check (list int)) "histogram appended" [ 1; 7 ]
    (Sink.hist_values obs "h");
  let find name =
    List.find (fun sp -> sp.Sink.sp_name = name) (Sink.spans obs)
  in
  let outer = find "outer" and work = find "work" in
  Alcotest.(check (option int)) "grafted under the open span"
    (Some outer.Sink.sp_id) work.Sink.sp_parent;
  Alcotest.(check int) "depth below it" 1 work.Sink.sp_depth;
  Alcotest.(check bool) "fork of null is null" false
    (Sink.enabled (Sink.fork Sink.null))

let test_json_round_trip () =
  let obs, t = fake_sink () in
  Sink.span obs "a \"quoted\"\nname" (fun () ->
      t := 0.002;
      Sink.span obs "b" (fun () -> ()));
  Sink.add obs "cnt" 5;
  Sink.gauge obs "gau" 1.25;
  List.iter (Sink.observe obs "his") [ 3; 4 ];
  let doc = parse_json (Export.json_string obs) in
  Alcotest.(check string)
    "schema" "msched-obs-1"
    (to_str (member "schema" doc));
  let spans = to_list (member "spans" doc) in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let s0 = List.nth spans 0 in
  Alcotest.(check string)
    "escaped name survives" "a \"quoted\"\nname"
    (to_str (member "name" s0));
  Alcotest.(check (float 1e-9)) "root id" 0.0 (to_num (member "id" s0));
  Alcotest.(check bool) "root parent null" true (member "parent" s0 = J_null);
  Alcotest.(check (float 1e-9))
    "counter value" 5.0
    (to_num (member "cnt" (member "counters" doc)));
  Alcotest.(check (float 1e-9))
    "gauge value" 1.25
    (to_num (member "gau" (member "gauges" doc)));
  let h = member "his" (member "histograms" doc) in
  Alcotest.(check (float 1e-9)) "hist count" 2.0 (to_num (member "count" h));
  Alcotest.(check (float 1e-9)) "hist sum" 7.0 (to_num (member "sum" h))

let test_chrome_trace_well_formed () =
  let obs, t = fake_sink () in
  Sink.span obs "root" (fun () -> t := 0.005);
  Sink.add obs "cnt" 9;
  let doc = parse_json (Export.chrome_trace_string obs) in
  let events = to_list (member "traceEvents" doc) in
  Alcotest.(check bool) "non-empty" true (List.length events >= 3);
  let ph e = to_str (member "ph" e) in
  Alcotest.(check string) "metadata first" "M" (ph (List.hd events));
  let xs = List.filter (fun e -> ph e = "X") events in
  Alcotest.(check int) "one complete event" 1 (List.length xs);
  let x = List.hd xs in
  Alcotest.(check string) "span name" "root" (to_str (member "name" x));
  Alcotest.(check (float 1e-9)) "dur" 5000.0 (to_num (member "dur" x));
  let cs = List.filter (fun e -> ph e = "C") events in
  Alcotest.(check int) "one counter event" 1 (List.length cs);
  Alcotest.(check (float 1e-9))
    "counter value" 9.0
    (to_num (member "value" (member "args" (List.hd cs))))

let test_null_sink_exports_empty () =
  let doc = parse_json (Export.json_string Sink.null) in
  Alcotest.(check int) "no spans" 0 (List.length (to_list (member "spans" doc)));
  let trace = parse_json (Export.chrome_trace_string Sink.null) in
  Alcotest.(check int)
    "metadata only" 1
    (List.length (to_list (member "traceEvents" trace)))

(* ------------------------------------------------------------------ *)
(* Pipeline integration. *)

let compile_design ~seed obs =
  let d =
    Design_gen.random_multidomain ~seed ~domains:3 ~modules:25
      ~mts_fraction:0.25 ()
  in
  let options =
    {
      Msched.Compile.default_options with
      Msched.Compile.max_block_weight = 16;
      obs;
    }
  in
  Msched.Compile.compile ~options d.Design_gen.netlist

let documented_phases =
  [
    "compile";
    "prepare";
    "domain-analysis";
    "mts-transform";
    "partition";
    "placement";
    "latch-analysis";
    "classification";
    "tiers";
    "verify";
  ]

let test_compile_records_phases () =
  let obs = Sink.create () in
  let (_ : Msched.Compile.compiled) = compile_design ~seed:7 obs in
  Alcotest.(check (list string)) "all spans closed" [] (Sink.open_spans obs);
  let names = List.map (fun s -> s.Sink.sp_name) (Sink.spans obs) in
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Printf.sprintf "span %S recorded" phase)
        true (List.mem phase names))
    documented_phases;
  (* Scheduler sub-stages nest under "tiers". *)
  let spans = Sink.spans obs in
  let tiers =
    List.find (fun s -> s.Sink.sp_name = "tiers") spans
  in
  let reverse =
    List.find (fun s -> s.Sink.sp_name = "tiers.reverse-pass") spans
  in
  Alcotest.(check (option int))
    "reverse pass nested in tiers" (Some tiers.Sink.sp_id)
    reverse.Sink.sp_parent;
  Alcotest.(check bool)
    "verifier counted checks" true
    (Sink.counter obs "verify.links_checked" > 0);
  Alcotest.(check bool)
    "schedule length gauge set" true
    (List.mem_assoc "schedule.length" (Sink.gauges obs))

let test_forward_records_span () =
  let obs = Sink.create () in
  let d = Design_gen.fig1 () in
  let options =
    { Msched.Compile.default_options with Msched.Compile.max_block_weight = 8 }
  in
  let prepared = Msched.Compile.prepare ~options d.Design_gen.netlist in
  let (_ : Msched_route.Schedule.t) =
    Msched.Compile.route_forward ~obs prepared Tiers.default_options
  in
  let names = List.map (fun s -> s.Sink.sp_name) (Sink.spans obs) in
  Alcotest.(check bool) "forward span" true (List.mem "forward" names);
  Alcotest.(check bool)
    "forward pass span" true
    (List.mem "forward.forward-pass" names)

let test_counters_monotone_across_compiles () =
  let obs = Sink.create () in
  let snapshot = Hashtbl.create 64 in
  for seed = 1 to 10 do
    let (_ : Msched.Compile.compiled) = compile_design ~seed obs in
    List.iter
      (fun (name, v) ->
        let prev =
          Option.value ~default:0 (Hashtbl.find_opt snapshot name)
        in
        if v < prev then
          Alcotest.failf "counter %s went backwards after seed %d: %d < %d"
            name seed v prev;
        Hashtbl.replace snapshot name v)
      (Sink.counters obs)
  done;
  Alcotest.(check bool)
    "accumulated pathfinder searches" true
    (Sink.counter obs "pathfind.searches" > 0);
  Alcotest.(check bool)
    "accumulated transports" true
    (Sink.counter obs "sched.transports" > 0)

let suite =
  [
    Alcotest.test_case "span nesting with fake clock" `Quick test_span_nesting;
    Alcotest.test_case "span closed on raise" `Quick test_span_closed_on_raise;
    Alcotest.test_case "null sink is a no-op" `Quick test_null_sink_noop;
    Alcotest.test_case "counters, gauges, histograms" `Quick test_metrics;
    Alcotest.test_case "JSON round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "chrome trace well-formed" `Quick
      test_chrome_trace_well_formed;
    Alcotest.test_case "null sink exports empty docs" `Quick
      test_null_sink_exports_empty;
    Alcotest.test_case "compile records documented phases" `Quick
      test_compile_records_phases;
    Alcotest.test_case "forward scheduler records spans" `Quick
      test_forward_records_span;
    Alcotest.test_case "counters monotone across 10 compiles" `Quick
      test_counters_monotone_across_compiles;
    Alcotest.test_case "fork/merge folds a child sink" `Quick test_fork_merge;
  ]
