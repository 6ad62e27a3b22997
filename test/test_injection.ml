(* Failure injection: corrupt a known-good schedule and check the detectors
   actually notice.  This guards against vacuous oracles — if a broken
   schedule still "passes", the zero-mismatch results elsewhere would mean
   nothing.  Two detectors are exercised on each corruption: the dynamic
   fidelity harness (lock-step differential simulation) and the static
   verifier (Msched_check.Verify), which must name the specific violation
   kind.  Some corruptions are dynamically invisible by construction
   (dropping a redundant equalized fork transport, double-booking a wire the
   emulator does not model) — those demonstrate that the static verifier is
   strictly stronger than the finite-stimulus harness. *)

module Tiers = Msched_route.Tiers
module Schedule = Msched_route.Schedule
module Netlist = Msched_netlist.Netlist
module Async_gen = Msched_clocking.Async_gen
module Fidelity = Msched_sim.Fidelity
module Design_gen = Msched_gen.Design_gen
module Verify = Msched_check.Verify
module System = Msched_arch.System

let prepared_and_sched seed =
  let d =
    Design_gen.random_multidomain ~seed ~domains:3 ~modules:30 ~mts_fraction:0.3 ()
  in
  let copts =
    { Msched.Compile.default_options with Msched.Compile.max_block_weight = 32 }
  in
  let prepared = Msched.Compile.prepare ~options:copts d.Design_gen.netlist in
  (prepared, Msched.Compile.route prepared Tiers.default_options)

let fidelity prepared sched ~seed =
  let clocks =
    Async_gen.clocks ~seed (Netlist.domains prepared.Msched.Compile.netlist)
  in
  Fidelity.compare_run prepared.Msched.Compile.placement sched ~clocks
    ~horizon_ps:250_000 ~seed ()

let verify prepared sched = Msched.Compile.verify_schedule prepared sched

let check_kind_flagged name prepared broken kind =
  let r = verify prepared broken in
  Alcotest.(check bool)
    (Format.asprintf "%s flags %s: %a" name kind Verify.pp_report r)
    true
    (Verify.count_kind r kind >= 1)

let test_baseline_perfect () =
  let prepared, sched = prepared_and_sched 71 in
  Alcotest.(check bool) "baseline perfect" true
    (Fidelity.perfect (fidelity prepared sched ~seed:71));
  let r = verify prepared sched in
  Alcotest.(check bool)
    (Format.asprintf "baseline verifier-clean: %a" Verify.pp_report r)
    true (Verify.is_clean r)

let test_dropped_holdoffs_detected () =
  let prepared, sched = prepared_and_sched 71 in
  Alcotest.(check bool) "design has hold-offs" true (sched.Schedule.holdoffs <> []);
  let broken = { sched with Schedule.holdoffs = [] } in
  let r = fidelity prepared broken ~seed:71 in
  Alcotest.(check bool)
    (Format.asprintf "dropping hold-offs detected: %a" Fidelity.pp_report r)
    false (Fidelity.perfect r);
  check_kind_flagged "dropped hold-offs" prepared broken "missing-holdoff"

let test_stale_departure_detected () =
  (* Sample every transport one slot after its scheduled departure: sources
     on tight paths are then read before... after their settle window moved;
     concretely, push all departures to the frame end so transports sample
     pre-settle values. *)
  let prepared, sched = prepared_and_sched 72 in
  let broken =
    {
      sched with
      Schedule.link_scheds =
        List.map
          (fun ls ->
            {
              ls with
              Schedule.ls_transports =
                List.map
                  (fun tr ->
                    if tr.Schedule.tr_hard then tr
                    else { tr with Schedule.tr_fwd_dep = 0 })
                  ls.Schedule.ls_transports;
            })
          sched.Schedule.link_scheds;
    }
  in
  let r = fidelity prepared broken ~seed:72 in
  Alcotest.(check bool)
    (Format.asprintf "early sampling detected: %a" Fidelity.pp_report r)
    false (Fidelity.perfect r);
  check_kind_flagged "early sampling" prepared broken "departure-too-early"

let test_truncated_frame_detected () =
  (* Halving the frame makes in-flight values late. *)
  let prepared, sched = prepared_and_sched 73 in
  let broken = { sched with Schedule.length = max 1 (sched.Schedule.length / 2) } in
  let r = fidelity prepared broken ~seed:73 in
  Alcotest.(check bool)
    (Format.asprintf "short frame detected: %a" Fidelity.pp_report r)
    true
    ((not (Fidelity.perfect r)) || r.Fidelity.violations.Msched_sim.Emu_sim.late_events > 0);
  check_kind_flagged "short frame" prepared broken "transport-overrun"

let test_dropped_transport_detected () =
  (* Remove all transports of one multi-fanout link: its destination never
     hears about the net again. *)
  let prepared, sched = prepared_and_sched 74 in
  let dropped = ref false in
  let broken =
    {
      sched with
      Schedule.link_scheds =
        List.filter
          (fun (_ : Schedule.link_sched) ->
            if !dropped then true
            else begin
              dropped := true;
              false
            end)
          sched.Schedule.link_scheds;
    }
  in
  Alcotest.(check bool) "a link was dropped" true !dropped;
  let r = fidelity prepared broken ~seed:74 in
  Alcotest.(check bool)
    (Format.asprintf "dropped transport detected: %a" Fidelity.pp_report r)
    false (Fidelity.perfect r);
  check_kind_flagged "dropped link" prepared broken "missing-link"

(* ---- Corruption matrix: four targeted schedule mutations, each named by
   the static verifier with its specific violation kind. ---- *)

(* Replace the transports of the first link satisfying [pred] using [f]. *)
let mutate_first_link sched ~pred ~f =
  let hit = ref false in
  let link_scheds =
    List.map
      (fun (ls : Schedule.link_sched) ->
        if (not !hit) && pred ls then begin
          hit := true;
          { ls with Schedule.ls_transports = f ls.Schedule.ls_transports }
        end
        else ls)
      sched.Schedule.link_scheds
  in
  Alcotest.(check bool) "a link was mutated" true !hit;
  { sched with Schedule.link_scheds }

let is_fork (ls : Schedule.link_sched) =
  List.length
    (List.filter (fun tr -> not tr.Schedule.tr_hard) ls.Schedule.ls_transports)
  >= 2

let test_matrix_skewed_arrival () =
  (* Skew one constituent-domain transport's arrival: the FORK is no longer
     delay-equalized, so the MERGE could reassemble values sampled at
     different instants (paper Figure 2). *)
  let prepared, sched = prepared_and_sched 76 in
  let broken =
    mutate_first_link sched ~pred:is_fork ~f:(fun transports ->
        match transports with
        | first :: rest ->
            {
              first with
              Schedule.tr_fwd_arr =
                (if first.Schedule.tr_fwd_arr < sched.Schedule.length then
                   first.Schedule.tr_fwd_arr + 1
                 else first.Schedule.tr_fwd_arr - 1);
            }
            :: rest
        | [] -> [])
  in
  check_kind_flagged "skewed arrival" prepared broken "fork-skew"

let test_matrix_swapped_holdoff () =
  (* Swap a hold-off's gate/data slots: data is released while the gate is
     still being held back — exactly the Figure 4a clobbering order. *)
  let prepared, sched = prepared_and_sched 76 in
  Alcotest.(check bool) "design has hold-offs" true (sched.Schedule.holdoffs <> []);
  let broken =
    {
      sched with
      Schedule.holdoffs =
        (match sched.Schedule.holdoffs with
        | h :: rest ->
            { h with Schedule.ho_gate = h.Schedule.ho_data; ho_data = h.Schedule.ho_gate }
            :: rest
        | [] -> []);
    }
  in
  check_kind_flagged "swapped hold-off" prepared broken "holdoff-misordered"

let test_matrix_dropped_fork_transport () =
  (* Drop one constituent-domain transport of a FORK.  Because TIERS
     equalizes fork transports, the survivors deliver identical samples at
     identical slots — the corruption is invisible to the finite-stimulus
     harness, and only the static completeness check catches it. *)
  let prepared, sched = prepared_and_sched 76 in
  let broken =
    mutate_first_link sched ~pred:is_fork ~f:(function
      | _ :: rest -> rest
      | [] -> [])
  in
  check_kind_flagged "dropped fork transport" prepared broken
    "missing-fork-transport";
  let r = fidelity prepared broken ~seed:76 in
  Alcotest.(check bool)
    (Format.asprintf
       "dropped fork transport is dynamically invisible (verifier is \
        strictly stronger): %a"
       Fidelity.pp_report r)
    true (Fidelity.perfect r)

let test_matrix_double_booked_slot () =
  (* Duplicate one multiplexed transport enough times to exceed its first
     hop channel's wire pool: more values in flight on one (channel, slot)
     than physical wires.  The emulator has no wire-contention model, so
     only the static occupancy check can see this. *)
  let prepared, sched = prepared_and_sched 76 in
  let channels = System.channels prepared.Msched.Compile.system in
  let broken =
    mutate_first_link sched
      ~pred:(fun ls ->
        List.exists
          (fun tr -> (not tr.Schedule.tr_hard) && tr.Schedule.tr_hops <> [])
          ls.Schedule.ls_transports)
      ~f:(fun transports ->
        let tr =
          List.find
            (fun tr -> (not tr.Schedule.tr_hard) && tr.Schedule.tr_hops <> [])
            transports
        in
        let c, _ = List.hd tr.Schedule.tr_hops in
        let width = channels.(c).System.width in
        List.init width (fun _ -> tr) @ transports)
  in
  check_kind_flagged "double-booked slot" prepared broken "channel-overbooked"

(* ---- Front-end fuzz: corrupted serialized netlists must surface as
   structured diagnostics, never as an unstructured exception.  This is the
   no-escape guarantee of the resilient driver: whatever garbage the parser
   lets through, [compile_resilient] returns a report. ---- *)

let corrupt_text rng text =
  let lines = String.split_on_char '\n' text in
  let n = List.length lines in
  let pick m = Random.State.int rng (max 1 m) in
  match Random.State.int rng 4 with
  | 0 ->
      (* Truncate: keep a prefix of the file. *)
      let keep = pick n in
      String.concat "\n" (List.filteri (fun i _ -> i < keep) lines)
  | 1 ->
      (* Drop a random line (e.g. a driver or a net declaration). *)
      let victim = pick n in
      String.concat "\n" (List.filteri (fun i _ -> i <> victim) lines)
  | 2 ->
      (* Mutate one line into junk tokens. *)
      let victim = pick n in
      String.concat "\n"
        (List.mapi
           (fun i l -> if i = victim then "bogus directive " ^ l else l)
           lines)
  | _ ->
      (* Scramble an integer token to a huge out-of-range id. *)
      let victim = pick n in
      String.concat "\n"
        (List.mapi
           (fun i l ->
             if i <> victim then l
             else
               String.concat " "
                 (List.map
                    (fun tok ->
                      match int_of_string_opt tok with
                      | Some k -> string_of_int ((k * 7919) + 1_000_003)
                      | None -> tok)
                    (String.split_on_char ' ' l)))
           lines)

let prop_corrupted_netlists_never_escape =
  QCheck.Test.make
    ~name:"compile_resilient never lets corrupted input escape unstructured"
    ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      (* Base designs span all workload families, so corruption is injected
         into GALS handshake wrappers, dense-crossing matrices, and gated
         memory fabrics as well as the classic random shape. *)
      let d =
        match seed mod 4 with
        | 0 ->
            Design_gen.gals_islands ~seed:(seed mod 97) ~islands:3
              ~island_size:1 ()
        | 1 ->
            Design_gen.dense_crossing ~seed:(seed mod 97) ~domains:5
              ~density:0.3 ~module_gates:2 ()
        | 2 ->
            Design_gen.gated_memory_fabric ~seed:(seed mod 97) ~banks:2
              ~addr_bits:2 ()
        | _ ->
            Design_gen.random_multidomain ~seed:(seed mod 97) ~domains:3
              ~modules:6 ~mts_fraction:0.3 ()
      in
      let text =
        corrupt_text rng (Msched_netlist.Serial.to_string d.Design_gen.netlist)
      in
      match Msched_netlist.Serial.of_string_diag text with
      | Error diags ->
          (* Structured rejection at parse time is a pass — but it must
             carry at least one error diagnostic. *)
          diags <> [] && Msched_netlist.Lint.has_errors diags
      | Ok nl -> (
          let options =
            {
              Msched.Compile.default_options with
              Msched.Compile.max_block_weight = 32;
            }
          in
          match Msched.Compile.compile_resilient ~options ~max_retries:1 nl with
          | r ->
              (* Either a schedule or error diagnostics explaining why not. *)
              Msched.Compile.succeeded r
              || List.exists Msched_diag.Diag.is_error r.Msched.Compile.diagnostics
          | exception e ->
              QCheck.Test.fail_reportf "escaped exception: %s"
                (Printexc.to_string e)))

let test_split_fork_transports () =
  (* Completeness is judged on the union of every link entry that
     delivers one (net, destination block): a fork whose constituent
     transports sit in two entries, far apart in the list, is still
     complete.  Dropping either entry loses constituent domains, and that
     is the only thing wrong with the result. *)
  let prepared, sched = prepared_and_sched 76 in
  let fork =
    match List.find_opt is_fork sched.Schedule.link_scheds with
    | Some ls -> ls
    | None -> Alcotest.fail "design has no fork"
  in
  let first, rest =
    match fork.Schedule.ls_transports with
    | t :: rest -> ([ t ], rest)
    | [] -> assert false
  in
  let head = { fork with Schedule.ls_transports = first } in
  let tail = { fork with Schedule.ls_transports = rest } in
  let others = List.filter (fun ls -> ls != fork) sched.Schedule.link_scheds in
  let with_entries entries = { sched with Schedule.link_scheds = entries } in
  let split = with_entries ((head :: others) @ [ tail ]) in
  let r = verify prepared split in
  Alcotest.(check bool)
    (Format.asprintf "split fork verifies clean: %a" Verify.pp_report r)
    true (Verify.is_clean r);
  List.iter
    (fun (what, entries) ->
      let r = verify prepared (with_entries entries) in
      let kinds =
        List.sort_uniq compare (List.map Verify.kind_name r.Verify.violations)
      in
      Alcotest.(check (list string))
        (Format.asprintf "%s: %a" what Verify.pp_report r)
        [ "missing-fork-transport" ] kinds)
    [ ("without the first entry", others @ [ tail ]);
      ("without the second entry", head :: others) ]

let test_emulator_deterministic () =
  let prepared, sched = prepared_and_sched 75 in
  let r1 = fidelity prepared sched ~seed:75 in
  let r2 = fidelity prepared sched ~seed:75 in
  Alcotest.(check int) "same mismatches" r1.Fidelity.state_mismatches
    r2.Fidelity.state_mismatches;
  Alcotest.(check int) "same frames" r1.Fidelity.frames r2.Fidelity.frames

let suite =
  [
    Alcotest.test_case "baseline perfect" `Quick test_baseline_perfect;
    Alcotest.test_case "dropped holdoffs detected" `Quick test_dropped_holdoffs_detected;
    Alcotest.test_case "stale departure detected" `Quick test_stale_departure_detected;
    Alcotest.test_case "truncated frame detected" `Quick test_truncated_frame_detected;
    Alcotest.test_case "dropped transport detected" `Quick test_dropped_transport_detected;
    Alcotest.test_case "matrix: skewed arrival" `Quick test_matrix_skewed_arrival;
    Alcotest.test_case "matrix: swapped holdoff" `Quick test_matrix_swapped_holdoff;
    Alcotest.test_case "matrix: dropped fork transport" `Quick
      test_matrix_dropped_fork_transport;
    Alcotest.test_case "matrix: double-booked slot" `Quick
      test_matrix_double_booked_slot;
    Alcotest.test_case "emulator deterministic" `Quick test_emulator_deterministic;
    QCheck_alcotest.to_alcotest prop_corrupted_netlists_never_escape;
    Alcotest.test_case "split fork transports" `Quick test_split_fork_transports;
  ]
