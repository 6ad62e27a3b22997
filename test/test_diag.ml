(* The structured-diagnostics layer (Msched_diag), the netlist lint, the
   lint-grade parser and the resilient compilation driver. *)

module Diag = Msched_diag.Diag
module Netlist = Msched_netlist.Netlist
module Serial = Msched_netlist.Serial
module Lint = Msched_netlist.Lint
module Ids = Msched_netlist.Ids
module Cell = Msched_netlist.Cell
module Tiers = Msched_route.Tiers
module Design_gen = Msched_gen.Design_gen
module Sink = Msched_obs.Sink
module Compile = Msched.Compile

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---- Diag core. ---- *)

let test_code_roundtrip () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Diag.code_name c ^ " roundtrips")
        true
        (Diag.code_of_name (Diag.code_name c) = Some c))
    Diag.all_codes;
  Alcotest.(check bool) "unknown name" true (Diag.code_of_name "E_NOPE" = None)

let test_exit_codes () =
  (* The documented classes: 2 verification, 3 malformed input, 4
     infeasible, 5 unsupported, 6 internal, 7 timeout, 8 overload. *)
  Alcotest.(check int) "verify" 2 (Diag.exit_code Diag.E_VERIFY);
  Alcotest.(check int) "hold" 2 (Diag.exit_code Diag.E_HOLD_VIOLATION);
  Alcotest.(check int) "parse" 3 (Diag.exit_code Diag.E_PARSE);
  Alcotest.(check int) "undriven" 3 (Diag.exit_code Diag.E_UNDRIVEN);
  Alcotest.(check int) "unroutable" 4 (Diag.exit_code Diag.E_UNROUTABLE);
  Alcotest.(check int) "capacity" 4 (Diag.exit_code Diag.E_CAPACITY);
  Alcotest.(check int) "unsupported" 5 (Diag.exit_code Diag.E_UNSUPPORTED);
  Alcotest.(check int) "internal" 6 (Diag.exit_code Diag.E_INTERNAL);
  Alcotest.(check int) "timeout" 7 (Diag.exit_code Diag.E_TIMEOUT);
  Alcotest.(check int) "overload" 8 (Diag.exit_code Diag.E_OVERLOAD);
  List.iter
    (fun c ->
      let e = Diag.exit_code c in
      Alcotest.(check bool)
        (Diag.code_name c ^ " exit in 2..8")
        true
        (e >= 2 && e <= 8))
    Diag.all_codes

let test_report_accumulates () =
  let rep = Diag.Report.create () in
  Alcotest.(check bool) "fresh report empty" true (Diag.Report.is_empty rep);
  Diag.Report.add rep (Diag.warning Diag.E_DANGLING ~net:3 "w");
  Diag.Report.add rep (Diag.error Diag.E_UNROUTABLE ~net:7 ~slack:2 "e1");
  Diag.Report.add rep (Diag.error Diag.E_PARSE "e2");
  Alcotest.(check int) "count" 3 (Diag.Report.count rep);
  Alcotest.(check int) "errors" 2 (List.length (Diag.Report.errors rep));
  Alcotest.(check int) "warnings" 1 (List.length (Diag.Report.warnings rep));
  (* Exit class of the FIRST error. *)
  Alcotest.(check int) "report exit code" 4 (Diag.Report.exit_code rep)

let test_json_shape () =
  let d =
    Diag.error Diag.E_UNROUTABLE ~net:42 ~fpga:3 ~block:9 ~slack:5
      ~culprit:"nfoo" "no path for %s" "nfoo"
  in
  let j = Diag.to_json d in
  List.iter
    (fun frag ->
      Alcotest.(check bool)
        (Printf.sprintf "json has %s in %s" frag j)
        true (contains j frag))
    [
      {|"code":"E_UNROUTABLE"|};
      {|"severity":"error"|};
      {|"exit_code":4|};
      {|"net":42|};
      {|"slack":5|};
      {|"culprit":"nfoo"|};
    ]

(* ---- Lint. ---- *)

let netlist_of_string_exn s =
  match Serial.of_string s with
  | Ok nl -> nl
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_lint_clean_design () =
  let d = Design_gen.fig1 () in
  let diags = Lint.check d.Design_gen.netlist in
  Alcotest.(check bool)
    (Format.asprintf "fig1 lints clean, got %d diags" (List.length diags))
    true (diags = [])

let test_lint_dangling () =
  let nl =
    netlist_of_string_exn
      "design d\n\
       domain clk\n\
       net 0 A\n\
       net 1 X\n\
       net 2 F\n\
       input A 0 domain 0\n\
       gate buf X 1 0\n\
       ff F 2 0 dom 0\n\
       output O 2\n"
  in
  let diags = Lint.check nl in
  Alcotest.(check bool) "dangling flagged" true
    (List.exists (fun d -> d.Diag.code = Diag.E_DANGLING) diags);
  Alcotest.(check bool) "dangling is a warning" false (Lint.has_errors diags)

(* A buffered input sampled by one flip-flop, plus [k] more buffers of
   the sampled net that nothing reads: nets n2 .. n(k+1), driven by
   c2 .. c(k+1), are the design's only dangling nets. *)
let dangling_design k =
  let module B = Netlist.Builder in
  let b = B.create () in
  let d = B.add_domain b "clk" in
  let a = B.add_input b ~domain:d () in
  let g = B.add_gate b Cell.Buf [ a ] in
  let dangling = List.init k (fun _ -> B.add_gate b Cell.Buf [ g ]) in
  let q = B.add_flip_flop b ~data:g ~clock:(Cell.Dom_clock d) () in
  ignore (B.add_output b q : Ids.Cell.t);
  (B.finalize b, dangling)

(* All of a design's dangling nets make one warning: it names the
   lowest one, counts them and lists at most eight.  One dangling net
   keeps the single-net wording. *)
let test_lint_dangling_grouped () =
  List.iter
    (fun k ->
      let nl, dangling = dangling_design k in
      let what = Printf.sprintf "%d dangling nets" k in
      let ds =
        List.filter (fun d -> d.Diag.code = Diag.E_DANGLING) (Lint.check nl)
      in
      Alcotest.(check int) (what ^ ": warnings") (min k 1) (List.length ds);
      match (ds, dangling) with
      | [], _ -> ()
      | [ d ], first :: _ ->
          let ni = Netlist.net nl first in
          Alcotest.(check (option int)) (what ^ ": net")
            (Some (Ids.Net.to_int first))
            d.Diag.ctx.Diag.net;
          Alcotest.(check (option int)) (what ^ ": cell")
            (Some (Ids.Cell.to_int ni.Netlist.driver))
            d.Diag.ctx.Diag.cell;
          Alcotest.(check (option string)) (what ^ ": culprit")
            (Some ni.Netlist.net_name) d.Diag.ctx.Diag.culprit;
          let driven n =
            Printf.sprintf "%s (driven by %s)"
              (Netlist.net nl n).Netlist.net_name
              (Netlist.driver nl n).Cell.name
          in
          let expected =
            if k = 1 then "net n2 (driven by c2) has no consumer"
            else
              Printf.sprintf "%d nets have no consumer: %s%s" k
                (String.concat ", "
                   (List.map driven (List.filteri (fun i _ -> i < 8) dangling)))
                (if k > 8 then Printf.sprintf " and %d more" (k - 8) else "")
          in
          Alcotest.(check string) (what ^ ": message") expected d.Diag.message;
          let listed =
            List.length (String.split_on_char '(' d.Diag.message) - 1
          in
          Alcotest.(check int) (what ^ ": nets listed") (min k 8) listed
      | _ -> Alcotest.fail (what ^ ": more than one warning"))
    [ 0; 1; 2; 8; 9; 600 ]

let test_lint_comb_cycle () =
  let nl =
    netlist_of_string_exn
      "design d\n\
       domain clk\n\
       net 0 A\n\
       net 1 X\n\
       net 2 Y\n\
       net 3 F\n\
       input A 0 domain 0\n\
       gate and X 1 0 2\n\
       gate buf Y 2 1\n\
       ff F 3 1 dom 0\n\
       output O 3\n"
  in
  let diags = Lint.check nl in
  Alcotest.(check bool) "cycle flagged as error" true
    (List.exists
       (fun d -> d.Diag.code = Diag.E_COMB_CYCLE && Diag.is_error d)
       diags)

(* One net sampled through a buffer by flip-flops of [domains] distinct
   domains, every FF output consumed so the only possible warning is the
   fanin one. *)
let fanin_design ~domains =
  let b = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "design fanin\n";
  for d = 0 to domains - 1 do
    pr "domain d%d\n" d
  done;
  pr "net 0 A\nnet 1 X\n";
  for d = 0 to domains - 1 do
    pr "net %d F%d\n" (2 + d) d
  done;
  pr "input A 0 domain 0\ngate buf X 1 0\n";
  for d = 0 to domains - 1 do
    pr "ff F%d %d 1 dom %d\n" d (2 + d) d
  done;
  for d = 0 to domains - 1 do
    pr "output O%d %d\n" d (2 + d)
  done;
  netlist_of_string_exn (Buffer.contents b)

let test_lint_xdomain_fanin () =
  let diags = Lint.check (fanin_design ~domains:Lint.xdomain_fanin_limit) in
  Alcotest.(check bool)
    (Format.asprintf "%d sampling domains lint clean, got %d diags"
       Lint.xdomain_fanin_limit (List.length diags))
    true (diags = []);
  let diags =
    Lint.check (fanin_design ~domains:(Lint.xdomain_fanin_limit + 2))
  in
  let fanin = List.filter (fun d -> d.Diag.code = Diag.E_XDOMAIN_FANIN) diags in
  Alcotest.(check bool) "over-limit fanin flagged" true (fanin <> []);
  Alcotest.(check bool) "fanin is a warning" false (Lint.has_errors diags);
  Alcotest.(check bool) "fanin names the hot net" true
    (List.exists (fun d -> d.Diag.ctx.Diag.culprit = Some "X") fanin);
  (* The sampling set propagates backward through the buffer, so the
     primary-input net is flagged too. *)
  Alcotest.(check bool) "fanin reaches the backward cone" true
    (List.exists (fun d -> d.Diag.ctx.Diag.culprit = Some "A") fanin);
  Alcotest.(check int) "warning exit class is 3" 3
    (Diag.exit_code Diag.E_XDOMAIN_FANIN)

let test_parser_recovers () =
  (* Multiple independent problems, all reported in one pass. *)
  let r =
    Serial.of_string_diag
      "design d\n\
       domain clk\n\
       net 0 A\n\
       net zero B\n\
       input A 0 domain 0\n\
       wire Q 7 0\n\
       gate buf Q 99 0\n\
       output O 0\n"
  in
  match r with
  | Ok _ -> Alcotest.fail "expected parse diagnostics"
  | Error diags ->
      Alcotest.(check bool)
        (Format.asprintf "collected several problems, got %d" (List.length diags))
        true
        (List.length diags >= 3);
      List.iter
        (fun d ->
          Alcotest.(check bool) "all parse-class" true
            (Diag.exit_code d.Diag.code = 3))
        diags

let test_parser_diag_ok_on_good_input () =
  let d = Design_gen.fig3_latch () in
  let text = Serial.to_string d.Design_gen.netlist in
  match Serial.of_string_diag text with
  | Ok nl ->
      Alcotest.(check int) "same cells"
        (Netlist.num_cells d.Design_gen.netlist)
        (Netlist.num_cells nl)
  | Error diags ->
      Alcotest.failf "good input rejected: %d diags" (List.length diags)

(* ---- Resilient driver. ---- *)

let test_resilient_clean_design () =
  let d = Design_gen.fig1 () in
  let r = Compile.compile_resilient d.Design_gen.netlist in
  Alcotest.(check bool) "succeeded" true (Compile.succeeded r);
  Alcotest.(check bool) "not degraded" false (Compile.degraded r);
  Alcotest.(check int) "one attempt" 1 (List.length r.Compile.attempts);
  Alcotest.(check int) "exit 0" 0 (Compile.resilient_exit_code r)

let tight_options =
  (* Few pins per FPGA (narrow channels) plus max_extra_slots = 0 starves
     the router so the baseline attempt fails on congestion. *)
  {
    Compile.default_options with
    Compile.max_block_weight = 32;
    pins_per_fpga = 24;
    route = { Tiers.default_options with Tiers.max_extra_slots = 0 };
  }

let congested_netlist () =
  (Design_gen.random_multidomain ~seed:517 ~domains:3 ~modules:30
     ~mts_fraction:0.3 ())
    .Design_gen.netlist

let test_resilient_retries_recover () =
  let nl = congested_netlist () in
  (* Baseline must fail for the scenario to be meaningful. *)
  let r0 = Compile.compile_resilient ~options:tight_options ~max_retries:0 nl in
  Alcotest.(check bool) "baseline fails" false (Compile.succeeded r0);
  Alcotest.(check int) "unroutable exit class" 4 (Compile.resilient_exit_code r0);
  Alcotest.(check bool) "failure diagnosed" true
    (List.exists
       (fun d -> d.Diag.code = Diag.E_UNROUTABLE || d.Diag.code = Diag.E_CAPACITY)
       r0.Compile.diagnostics);
  (* With retries, slack relaxation recovers. *)
  let obs = Sink.create () in
  let options = { tight_options with Compile.obs } in
  let r = Compile.compile_resilient ~options ~max_retries:3 nl in
  Alcotest.(check bool) "retries recover" true (Compile.succeeded r);
  Alcotest.(check bool) "degraded" true (Compile.degraded r);
  Alcotest.(check bool) "retries counted" true (r.Compile.degradation.Compile.retries >= 1);
  Alcotest.(check bool) "achieved speed reported" true
    (r.Compile.degradation.Compile.achieved_hz <> None);
  Alcotest.(check bool) "driver.retries counter" true
    (Sink.counter obs "driver.retries" >= 1);
  Alcotest.(check bool) "driver.attempts counter" true
    (Sink.counter obs "driver.attempts" >= 2);
  Alcotest.(check bool) "driver span recorded" true
    (List.exists (fun s -> s.Sink.sp_name = "driver") (Sink.spans obs))

let test_resilient_hard_fallback () =
  let nl = congested_netlist () in
  let r =
    Compile.compile_resilient ~options:tight_options ~max_retries:0
      ~fallback_hard:true nl
  in
  Alcotest.(check bool) "fallback succeeds" true (Compile.succeeded r);
  (* Per-net fallback: only the unroutable residue moves to dedicated
     wires, so the achieved mode stays the requested (virtual) one unless
     the whole-schedule hard rung had to run. *)
  Alcotest.(check bool) "achieved mode reported" true
    (r.Compile.degradation.Compile.achieved_mode <> None);
  Alcotest.(check bool) "fallback rung ran" true
    (List.exists
       (fun a ->
         String.length a.Compile.attempt_label >= 13
         && String.sub a.Compile.attempt_label 0 13 = "fallback-hard")
       r.Compile.attempts);
  Alcotest.(check bool) "fallback transports counted" true
    (r.Compile.degradation.Compile.fallback_nets > 0);
  Alcotest.(check int) "exit 0 when degraded" 0 (Compile.resilient_exit_code r)

let test_resilient_per_net_fallback_stays_virtual () =
  (* The per-net rung should succeed while keeping the schedule in the
     requested virtual mode: hard-wire the residue, not the design. *)
  let nl = congested_netlist () in
  let r =
    Compile.compile_resilient ~options:tight_options ~max_retries:0
      ~fallback_hard:true nl
  in
  match r.Compile.degradation.Compile.achieved_mode with
  | Some Tiers.Mts_virtual ->
      let c = Option.get r.Compile.compiled in
      let total =
        List.fold_left
          (fun acc ls ->
            acc + List.length ls.Msched_route.Schedule.ls_transports)
          0 c.Compile.schedule.Msched_route.Schedule.link_scheds
      in
      Alcotest.(check bool) "residue smaller than schedule" true
        (r.Compile.degradation.Compile.fallback_nets < total)
  | Some m ->
      Alcotest.failf "expected virtual mode after per-net fallback, got %s"
        (Tiers.mode_name m)
  | None -> Alcotest.fail "per-net fallback did not succeed"

(* ---- Simulation-fidelity failures flow through Msched_diag. ---- *)

let test_fidelity_diag_exit_class () =
  let module Fidelity = Msched_sim.Fidelity in
  let module Emu_sim = Msched_sim.Emu_sim in
  let clean_violations =
    {
      Emu_sim.hold_hazards = 0;
      causality_inversions = 0;
      late_events = 0;
      event_overflows = 0;
    }
  in
  let base =
    {
      Fidelity.frames = 100;
      mismatch_frames = 0;
      state_mismatches = 0;
      ram_mismatches = 0;
      first_mismatch_frame = None;
      violations = clean_violations;
      settle_warnings = 0;
    }
  in
  Alcotest.(check int) "perfect run has no diags" 0
    (List.length (Fidelity.diags_of_report base));
  (* Golden-model divergence and hold hazards are verification failures:
     every error diag must carry exit class 2. *)
  let bad =
    {
      base with
      Fidelity.mismatch_frames = 3;
      state_mismatches = 7;
      first_mismatch_frame = Some 12;
      violations = { clean_violations with Emu_sim.hold_hazards = 2 };
    }
  in
  let diags = Fidelity.diags_of_report bad in
  Alcotest.(check bool) "divergence diagnosed" true (List.length diags >= 2);
  List.iter
    (fun d ->
      if Diag.is_error d then
        Alcotest.(check int)
          ("exit class of " ^ Diag.code_name d.Diag.code)
          2 (Diag.exit_code d.Diag.code))
    diags;
  Alcotest.(check bool) "hold hazard coded" true
    (List.exists (fun d -> d.Diag.code = Diag.E_HOLD_VIOLATION) diags);
  (* Schedule overruns are internal errors (class 6). *)
  let overrun =
    { base with Fidelity.violations = { clean_violations with Emu_sim.late_events = 1 } }
  in
  (match Fidelity.diags_of_report overrun with
  | [ d ] ->
      Alcotest.(check int) "overrun class" 6 (Diag.exit_code d.Diag.code)
  | ds -> Alcotest.failf "expected one overrun diag, got %d" (List.length ds))

let test_stimulus_misuse_is_structured () =
  (* The simulator's precondition failures raise structured diagnostics,
     not bare [Invalid_argument] — so the driver-side classifier keeps
     them in the internal class. *)
  let nl =
    netlist_of_string_exn
      "design d\n\
       domain clk\n\
       net 0 A\n\
       net 1 F\n\
       input A 0 domain 0\n\
       ff F 1 0 dom 0\n\
       output O 1\n"
  in
  let stim = Msched_sim.Stimulus.make nl in
  let ff =
    let found = ref None in
    Netlist.iter_cells nl (fun c ->
        if c.Msched_netlist.Cell.kind = Msched_netlist.Cell.Flip_flop then
          found := Some c);
    Option.get !found
  in
  match Msched_sim.Stimulus.value stim ff ~edge_index:0 with
  | _ -> Alcotest.fail "expected a structured failure"
  | exception Diag.Fail d ->
      Alcotest.(check bool) "internal code" true (d.Diag.code = Diag.E_INTERNAL);
      Alcotest.(check int) "internal exit class" 6
        (Diag.exit_code (Compile.diag_of_exn (Diag.Fail d)).Diag.code)

let test_resilient_lint_stops () =
  (* A combinational cycle is a lint error: no attempt should run. *)
  let nl =
    netlist_of_string_exn
      "design d\n\
       domain clk\n\
       net 0 A\n\
       net 1 X\n\
       net 2 Y\n\
       net 3 F\n\
       input A 0 domain 0\n\
       gate and X 1 0 2\n\
       gate buf Y 2 1\n\
       ff F 3 1 dom 0\n\
       output O 3\n"
  in
  let r = Compile.compile_resilient nl in
  Alcotest.(check bool) "failed" false (Compile.succeeded r);
  Alcotest.(check int) "no attempts" 0 (List.length r.Compile.attempts);
  Alcotest.(check int) "malformed-input exit class" 3
    (Compile.resilient_exit_code r)

let test_resilient_json () =
  let nl = congested_netlist () in
  let r =
    Compile.compile_resilient ~options:tight_options ~max_retries:1 nl
  in
  let j = Compile.resilient_to_json r in
  List.iter
    (fun frag ->
      Alcotest.(check bool)
        (Printf.sprintf "driver json has %s" frag)
        true (contains j frag))
    [ {|"schema":"msched-driver-2"|}; {|"attempts":[|}; {|"degradation":{|} ];
  List.iter
    (fun frag ->
      Alcotest.(check bool)
        (Printf.sprintf "driver json has no %s" frag)
        false (contains j frag))
    [ {|"reused"|}; {|"ripped"|}; {|"reused_transports"|}; {|"ripped_transports"|} ]

(* ---- JSON string reader. ---- *)

(* Byte strings the reader must round-trip: quotes, backslashes, control
   characters, bytes >= 0x80, and long runs with no escape at all.  The
   server suite sends them as [{"text": s}] frames too. *)
let json_bytes =
  let open QCheck.Gen in
  let special =
    oneofl
      [
        '"'; '\\'; '\n'; '\r'; '\t'; '\b'; '\000'; '\031'; '\127'; '\128';
        '\255'; 'u';
      ]
  in
  let piece =
    oneof
      [
        map (String.make 1) special;
        string_size ~gen:char (0 -- 24);
        map (fun n -> String.make n 'r') (0 -- 5000);
      ]
  in
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    (map (String.concat "") (list_size (0 -- 8) piece))

let prop_json_string_roundtrip =
  QCheck.Test.make ~name:"Json.parse (Json.string s) = Str s" ~count:500
    json_bytes (fun s ->
      Diag.Json.parse (Diag.Json.string s) = Ok (Diag.Json.Str s))

(* Every strict prefix of an encoded string lacks its closing quote (or
   cuts an escape): an [Error], never an exception. *)
let prop_json_truncated_string =
  QCheck.Test.make ~name:"truncated strings are errors, never exceptions"
    ~count:500
    QCheck.(pair json_bytes (int_bound 1_000_000))
    (fun (s, cut) ->
      let enc = Diag.Json.string s in
      let cut = cut mod String.length enc in
      match Diag.Json.parse (String.sub enc 0 cut) with
      | Error _ -> true
      | Ok _ -> false
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* Arbitrary bytes after an opening quote: a value or an [Error], never
   an exception. *)
let prop_json_garbled_string =
  QCheck.Test.make ~name:"garbled strings never raise" ~count:500 json_bytes
    (fun s ->
      match Diag.Json.parse ("\"" ^ s) with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* [Json.escape] one byte at a time, as the emitter first wrote it: the
   differential below holds the run-copying emitter to these bytes. *)
let reference_escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let all_bytes = String.init 256 Char.chr

let prop_json_escape_reference =
  QCheck.Test.make ~name:"Json.escape = the per-byte reference" ~count:1000
    QCheck.(
      oneof
        [
          json_bytes;
          string_gen QCheck.Gen.char;
          map (fun s -> s ^ all_bytes ^ s) (string_gen QCheck.Gen.char);
        ])
    (fun s ->
      let b = Buffer.create 16 in
      (* Escaping appends: what the buffer already holds stays. *)
      Buffer.add_string b "prefix";
      Diag.Json.escape b s;
      Buffer.contents b = "prefix" ^ reference_escape s
      && Diag.Json.string s = reference_escape s)

let test_json_bad_strings () =
  List.iter
    (fun text ->
      match Diag.Json.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S parsed" text
      | exception e ->
          Alcotest.failf "%S raised %s" text (Printexc.to_string e))
    [
      {|"abc|};
      {|"\|};
      {|"\u12|};
      {|"\uzzzz"|};
      {|{"text":"abc|};
      {|{"text":"\u00|};
    ]

(* JSON defines eight one-character escapes and [\u] with exactly four hex
   digits; anything else is an [Error], not a guess. *)
let test_json_escapes () =
  List.iter
    (fun text ->
      match Diag.Json.parse text with
      | Error _ -> ()
      | Ok v ->
          Alcotest.failf "%S parsed as %S" text
            (Option.value ~default:"(not a string)" (Diag.Json.str v))
      | exception e ->
          Alcotest.failf "%S raised %s" text (Printexc.to_string e))
    [ {|"\u0_41"|}; {|"\u004_"|}; {|"\q"|}; {|"\u+041"|}; {|"\u 041"|}; {|"\x41"|} ];
  let u hex = "\\" ^ "u" ^ hex in
  Alcotest.(check (result (option string) string))
    "every defined escape"
    (Ok (Some "\"\\/\b\012\n\r\tAJ\\u00e9"))
    (Result.map Diag.Json.str
       (Diag.Json.parse ({|"\"\\\/\b\f\n\r\t|} ^ u "0041" ^ u "004A" ^ u "00e9" ^ {|"|})))

let suite =
  [
    Alcotest.test_case "code names roundtrip" `Quick test_code_roundtrip;
    Alcotest.test_case "exit-code classes" `Quick test_exit_codes;
    Alcotest.test_case "report accumulates" `Quick test_report_accumulates;
    Alcotest.test_case "diagnostic JSON shape" `Quick test_json_shape;
    Alcotest.test_case "lint: clean design" `Quick test_lint_clean_design;
    Alcotest.test_case "lint: dangling net" `Quick test_lint_dangling;
    Alcotest.test_case "lint: one warning for all dangling nets" `Quick
      test_lint_dangling_grouped;
    Alcotest.test_case "lint: combinational cycle" `Quick test_lint_comb_cycle;
    Alcotest.test_case "lint: cross-domain fanin" `Quick
      test_lint_xdomain_fanin;
    Alcotest.test_case "parser recovers per line" `Quick test_parser_recovers;
    Alcotest.test_case "parser diag accepts good input" `Quick
      test_parser_diag_ok_on_good_input;
    Alcotest.test_case "resilient: clean design" `Quick
      test_resilient_clean_design;
    Alcotest.test_case "resilient: retries recover" `Quick
      test_resilient_retries_recover;
    Alcotest.test_case "resilient: per-net fallback stays virtual" `Quick
      test_resilient_per_net_fallback_stays_virtual;
    Alcotest.test_case "resilient: hard fallback" `Quick
      test_resilient_hard_fallback;
    Alcotest.test_case "fidelity diags carry exit classes" `Quick
      test_fidelity_diag_exit_class;
    Alcotest.test_case "stimulus misuse is structured" `Quick
      test_stimulus_misuse_is_structured;
    Alcotest.test_case "resilient: lint stops attempts" `Quick
      test_resilient_lint_stops;
    Alcotest.test_case "resilient: driver JSON" `Quick test_resilient_json;
    QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_truncated_string;
    QCheck_alcotest.to_alcotest prop_json_garbled_string;
    QCheck_alcotest.to_alcotest prop_json_escape_reference;
    Alcotest.test_case "json: truncated and garbled strings are errors" `Quick
      test_json_bad_strings;
    Alcotest.test_case "json: only JSON's escapes are accepted" `Quick
      test_json_escapes;
  ]
