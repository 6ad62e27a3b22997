(* ---- Delay-kernel pins ----

   The Min/MaxDelay tables of the paper's Section 7 feed three outputs:
   the latch analysis the schedulers read, the static verifier's
   [required] values, and through both, the schedule bytes.  These pins
   hash all three over the end-to-end benchmark's designs, recorded from
   the implementation whose region builds swept the whole netlist and
   whose delay walks covered a block's whole topological order, so a
   cheaper traversal has to reproduce them exactly.

   Grid: the 24 cold_compile designs of seed 1 (weight 64, 96 pins, no
   retries), the six serve_mix generator families (weight 32, 24 pins,
   max-extra 0, two retries with hard fallback), the injection suite's
   design, and fig3 at weight 4.

   The explain pins hash the msched-explain-1 document of every grid
   point in virtual and in hard mode, recorded from the explainer that
   replayed the ReadyTime propagation with a requirement table of its
   own: the critical chain, its driver and the occupancy tables must
   come out the same when the chain is read from the scheduler's pass.

   Every point compiles through the resilient driver, as the server
   does.  The verify-report, schedule and explain literals were
   re-recorded once, when searches stopped reading the reroute context:
   each point whose ladder ends on its baseline rung (all but
   design1:scale=0.02 and design2:scale=0.02, which end on relax-slack)
   now pins what [Compile.compile] gave before that change. *)

open Msched_netlist
module Compile = Msched.Compile
module Tiers = Msched_route.Tiers
module Schedule = Msched_route.Schedule
module Reroute = Msched_route.Reroute
module LA = Msched_mts.Latch_analysis
module Verify = Msched_check.Verify
module Design_gen = Msched_gen.Design_gen
module System = Msched_arch.System
module Json = Msched_diag.Diag.Json
module Explain = Msched_explain.Explain
module Sink = Msched_obs.Sink
module Cache = Msched_server.Cache

type setting = {
  weight : int;
  pins : int option;
  max_extra : int option;
  retries : int;
  fallback : bool;
}

let cold =
  {
    weight = 64;
    pins = Some 96;
    max_extra = None;
    retries = 0;
    fallback = false;
  }

let mix =
  {
    weight = 32;
    pins = Some 24;
    max_extra = Some 0;
    retries = 2;
    fallback = true;
  }

let grid =
  List.concat
    (List.init 8 (fun k ->
         [
           (Printf.sprintf "design1:scale=0.05,seed=%d" (1 + (2 * k)), cold);
           (Printf.sprintf "design1:scale=0.05,seed=%d" (2 + (2 * k)), cold);
           (Printf.sprintf "design2:scale=0.05,seed=%d" (1 + k), cold);
         ]))
  @ [
      ("random:domains=3,modules=10,mts=0.20,seed=11", mix);
      ("gals:islands=4,size=3,seed=12", mix);
      ("dense:domains=8,density=0.20,seed=13", mix);
      ("fabric:banks=4,domains=3,seed=14", mix);
      ("design1:scale=0.02,seed=15", mix);
      ("design2:scale=0.02,seed=16", mix);
      ( "random:domains=3,modules=30,mts=0.30,seed=76",
        { cold with weight = 32; pins = None } );
      ("fig3", { cold with weight = 4; pins = None });
    ]

let netlist_of spec =
  if spec = "fig3" then (Design_gen.fig3_latch ()).Design_gen.netlist
  else
    match Design_gen.of_spec spec with
    | Ok d -> d.Design_gen.netlist
    | Error _ -> invalid_arg spec

let options_of s =
  let d = Compile.default_options in
  {
    d with
    Compile.max_block_weight = s.weight;
    pins_per_fpga = Option.value ~default:d.Compile.pins_per_fpga s.pins;
    route =
      (match s.max_extra with
      | None -> Tiers.default_options
      | Some n -> { Tiers.default_options with Tiers.max_extra_slots = n });
  }

(* ---- Canonical latch analysis: origins sorted by net, each origin's
   [to_outputs] sorted by net, groups and their lists as they are,
   [local_max_settle] sorted by net. ---- *)

let pp_delay b (d : Traverse.delay) =
  Printf.bprintf b "[%d,%d]" d.Traverse.dmin d.Traverse.dmax

let pp_opt b = function None -> Buffer.add_char b '-' | Some d -> pp_delay b d

let pp_nets b ns =
  List.iter (fun n -> Printf.bprintf b " %d" (Ids.Net.to_int n)) ns

let pp_pd b (pd : LA.pin_delay) =
  Buffer.add_char b 'd';
  pp_opt b pd.LA.to_data;
  Buffer.add_char b 'g';
  pp_opt b pd.LA.to_gate

let pp_deps b deps =
  List.iter
    (fun (d : LA.dep) ->
      Printf.bprintf b " %d>%d:"
        (Ids.Net.to_int d.LA.dep_origin)
        (Ids.Cell.to_int d.LA.dep_latch);
      pp_pd b d.LA.dep_pd)
    deps

let by_net l = List.sort (fun (a, _) (b, _) -> Ids.Net.compare a b) l

let sorted_bindings tbl =
  by_net (Ids.Net.Tbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let canonical_latch_analysis (la : LA.t array) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (t : LA.t) ->
      Printf.bprintf b "block %d\n in" (Ids.Block.to_int t.LA.block);
      pp_nets b t.LA.input_nets;
      Buffer.add_string b "\n out";
      pp_nets b t.LA.output_nets;
      Buffer.add_string b "\n latch-origins";
      pp_nets b t.LA.latch_output_origins;
      Buffer.add_char b '\n';
      List.iter
        (fun (m, (o : LA.origin_info)) ->
          Printf.bprintf b " origin %d deadline %s outs" (Ids.Net.to_int m)
            (match o.LA.deadline_delay with
            | None -> "-"
            | Some d -> string_of_int d);
          List.iter
            (fun (n, d) ->
              Printf.bprintf b " %d" (Ids.Net.to_int n);
              pp_delay b d)
            (by_net o.LA.to_outputs);
          Buffer.add_string b " pins";
          List.iter
            (fun (l, pd) ->
              Printf.bprintf b " %d:" (Ids.Cell.to_int l);
              pp_pd b pd)
            o.LA.to_latch_pins;
          Buffer.add_char b '\n')
        (sorted_bindings t.LA.origins);
      Array.iter
        (fun (g : LA.group) ->
          Printf.bprintf b " group %d latches" g.LA.gid;
          List.iter
            (fun l -> Printf.bprintf b " %d" (Ids.Cell.to_int l))
            g.LA.latches;
          Buffer.add_string b " inputs";
          pp_deps b g.LA.input_deps;
          Buffer.add_string b " locals";
          pp_deps b g.LA.local_deps;
          Buffer.add_char b '\n')
        t.LA.groups;
      Buffer.add_string b " settle";
      List.iter
        (fun (n, v) -> Printf.bprintf b " %d=%d" (Ids.Net.to_int n) v)
        (sorted_bindings t.LA.local_max_settle);
      Buffer.add_char b '\n')
    la;
  Buffer.contents b

(* ---- Schedule corruptions: the injection suite's, plus every hold-off
   releasing data one slot after a gate at slot 0, which the Gate<=Data
   check names ---- *)

let virtual_transports (ls : Schedule.link_sched) =
  List.filter (fun tr -> not tr.Schedule.tr_hard) ls.Schedule.ls_transports

let is_fork ls = List.length (virtual_transports ls) >= 2
let multiplexed tr = (not tr.Schedule.tr_hard) && tr.Schedule.tr_hops <> []

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
  { sched with Schedule.link_scheds }

let map_transports sched f =
  {
    sched with
    Schedule.link_scheds =
      List.map
        (fun (ls : Schedule.link_sched) ->
          {
            ls with
            Schedule.ls_transports = List.map f ls.Schedule.ls_transports;
          })
        sched.Schedule.link_scheds;
  }

let corruptions system =
  let length s = s.Schedule.length in
  [
    ("dropped-holdoffs", fun s -> { s with Schedule.holdoffs = [] });
    ( "early-sampling",
      fun s ->
        map_transports s (fun tr ->
            if tr.Schedule.tr_hard then tr
            else { tr with Schedule.tr_fwd_dep = 0 }) );
    ( "truncated-frame",
      fun s -> { s with Schedule.length = max 1 (length s / 2) } );
    ( "dropped-link",
      fun s ->
        match s.Schedule.link_scheds with
        | _ :: rest -> { s with Schedule.link_scheds = rest }
        | [] -> s );
    ( "skewed-arrival",
      fun s ->
        mutate_first_link s ~pred:is_fork ~f:(function
          | first :: rest ->
              let arr = first.Schedule.tr_fwd_arr in
              {
                first with
                Schedule.tr_fwd_arr =
                  (if arr < length s then arr + 1 else arr - 1);
              }
              :: rest
          | [] -> []) );
    ( "swapped-holdoff",
      fun s ->
        match s.Schedule.holdoffs with
        | h :: rest ->
            let swapped =
              {
                h with
                Schedule.ho_gate = h.Schedule.ho_data;
                ho_data = h.Schedule.ho_gate;
              }
            in
            { s with Schedule.holdoffs = swapped :: rest }
        | [] -> s );
    ( "dropped-fork-transport",
      fun s ->
        mutate_first_link s ~pred:is_fork ~f:(function
          | _ :: rest -> rest
          | [] -> []) );
    ( "double-booked-slot",
      fun s ->
        mutate_first_link s
          ~pred:(fun ls -> List.exists multiplexed ls.Schedule.ls_transports)
          ~f:(fun transports ->
            let tr = List.find multiplexed transports in
            let c, _ = List.hd tr.Schedule.tr_hops in
            let width = (System.channels system).(c).System.width in
            List.init width (fun _ -> tr) @ transports) );
    ( "early-release",
      fun s ->
        {
          s with
          Schedule.holdoffs =
            List.map
              (fun h -> { h with Schedule.ho_gate = 0; ho_data = 1 })
              s.Schedule.holdoffs;
        } );
  ]

let report prepared sched =
  Format.asprintf "%a" Verify.pp_report (Compile.verify_schedule prepared sched)

(* The schedules of a grid point whose streamed fingerprint differs from
   the hash of their JSON text. *)
let fingerprint_mismatches = ref []
let fingerprints_checked = ref 0

let check_fingerprint spec name sched =
  incr fingerprints_checked;
  if
    Schedule.json_hash_hex sched
    <> Cache.hash_hex (Schedule.to_json_string sched)
  then fingerprint_mismatches := (spec ^ " " ^ name) :: !fingerprint_mismatches

(* What one grid point produces: the latch-analysis hash, the verify
   report text and the schedule hash.  The verify text covers the clean
   schedule, a naive-mode schedule of the same front end and every
   corruption of the clean schedule; each of those schedules also has its
   streamed fingerprint checked. *)
let run_point (spec, s) =
  let r =
    Compile.compile_resilient ~options:(options_of s) ~max_retries:s.retries
      ~fallback_hard:s.fallback ~reroute:(Reroute.create ()) (netlist_of spec)
  in
  match r.Compile.compiled with
  | None -> Alcotest.failf "%s: unroutable" spec
  | Some c ->
      let prepared = c.Compile.prepared and sched = c.Compile.schedule in
      let b = Buffer.create 1024 in
      Printf.bprintf b "clean: %s\n" (report prepared sched);
      check_fingerprint spec "clean" sched;
      (match Compile.route prepared Tiers.naive_options with
      | naive ->
          Printf.bprintf b "naive: %s\n" (report prepared naive);
          check_fingerprint spec "naive" naive
      | exception Tiers.Unroutable _ ->
          Buffer.add_string b "naive: unroutable\n");
      List.iter
        (fun (name, corrupt) ->
          let corrupted = corrupt sched in
          Printf.bprintf b "%s: %s\n" name (report prepared corrupted);
          check_fingerprint spec name corrupted)
        (corruptions prepared.Compile.system);
      let la = prepared.Compile.latch_analysis in
      ( Json.hash_hex (canonical_latch_analysis la),
        Buffer.contents b,
        Json.hash_hex (Schedule.to_json_string sched) )

let results = lazy (List.map (fun p -> (fst p, run_point p)) grid)

(* (spec, latch-analysis hash, verify-report hash, schedule hash) *)
let pins =
  [
    ( "design1:scale=0.05,seed=1",
      "773b83a29bbdcd3e", "5f021c2a0d2edce9", "ac995464f9ca9865" );
    ( "design1:scale=0.05,seed=2",
      "c68d86cafa2449bc", "5ea5e5dbb180d927", "ae737b806d31dccd" );
    ( "design2:scale=0.05,seed=1",
      "923d2207561cb828", "9e550c6f0c6c096e", "e7d96dfdd298d6d8" );
    ( "design1:scale=0.05,seed=3",
      "3d0d95d0c76761b0", "f39263566f9b3363", "1385e75185fc7d99" );
    ( "design1:scale=0.05,seed=4",
      "efeb59f4c30647d7", "a77141de5856163c", "184bd4b1890dfece" );
    ( "design2:scale=0.05,seed=2",
      "14349e51c7f01d89", "697a6f7c880a4f31", "c104132e0697240d" );
    ( "design1:scale=0.05,seed=5",
      "959896b5b35d2be5", "7a8b7038580a03db", "b9dff5300515220a" );
    ( "design1:scale=0.05,seed=6",
      "d8a9302e4205507e", "bc31995545d4efe0", "6c3163787e5d0cbc" );
    ( "design2:scale=0.05,seed=3",
      "15e84b6f266dcff8", "a1fff2eb3580a1e2", "98246def005cb7cc" );
    ( "design1:scale=0.05,seed=7",
      "e85059632fd24e5d", "d50da4d20a724464", "c71b7b23703ef47a" );
    ( "design1:scale=0.05,seed=8",
      "81e65b3a8eb2fb15", "d1e4ade3fd87070e", "a20f42b94b1b1548" );
    ( "design2:scale=0.05,seed=4",
      "2602251322e6d8c9", "8c172268606bf158", "9d3187db41ddf042" );
    ( "design1:scale=0.05,seed=9",
      "be8f69fe6d2ef30e", "d867121038e7ea0d", "6e52d2d91fa1162d" );
    ( "design1:scale=0.05,seed=10",
      "adc393390f7d17b9", "f9478c96f7e9f17f", "8fb27d275c023739" );
    ( "design2:scale=0.05,seed=5",
      "a820cf14946d0a75", "caf1e511d6c4e1b4", "15c596c9a257225b" );
    ( "design1:scale=0.05,seed=11",
      "6487e2140ff96c54", "51e04601f6021a12", "a496aa1ea2ea359a" );
    ( "design1:scale=0.05,seed=12",
      "fd499caa9ae6af35", "071f4a6ffca3f28e", "87d21fd7db4b2d90" );
    ( "design2:scale=0.05,seed=6",
      "f3e71bfd1706f73b", "793a4a316d230930", "1e5a7b0121824151" );
    ( "design1:scale=0.05,seed=13",
      "fd07aa18737f0b05", "97abc142432c677c", "8913c6eacc57630a" );
    ( "design1:scale=0.05,seed=14",
      "e90f7d6e2d326ad9", "9b524b3066777503", "0d34e84fbc3e8f84" );
    ( "design2:scale=0.05,seed=7",
      "106d7c73ffbed582", "3e81b721d84294d5", "737be50d55160182" );
    ( "design1:scale=0.05,seed=15",
      "fc09115b511180f1", "c7a065f99ae20dd5", "8adb37d7841f40db" );
    ( "design1:scale=0.05,seed=16",
      "1ce254b7698bd7f5", "dbc4cd7840c7e069", "e315fec24ed70fb7" );
    ( "design2:scale=0.05,seed=8",
      "1fe013a5f05f92e3", "91a84088cc5520a4", "c9d932632a079cde" );
    ( "random:domains=3,modules=10,mts=0.20,seed=11",
      "a71ff834e0ec2149", "ecac5e147e0ae24f", "00c40a4cc35ffa03" );
    ( "gals:islands=4,size=3,seed=12",
      "39c056fbbf0ded00", "49bdc72a84f5c522", "93fbac2e137e32f5" );
    ( "dense:domains=8,density=0.20,seed=13",
      "f81a4fe367ad6baa", "eab4214c5d07e627", "d01c4a7a75347b15" );
    ( "fabric:banks=4,domains=3,seed=14",
      "1f0e50480b87cd4c", "06cb637110f1edb3", "32327e318a495886" );
    ( "design1:scale=0.02,seed=15",
      "3a65e750e4b2c962", "55671287a42a686f", "59ff1757b384d849" );
    ( "design2:scale=0.02,seed=16",
      "85b643743ebdf8f5", "5edcf6e96531118d", "493a6006b81f9510" );
    ( "random:domains=3,modules=30,mts=0.30,seed=76",
      "6be2d5f7bfa72260", "ef93aea174e0bd9f", "5aa988073602beec" );
    ( "fig3",
      "9871fb0a2b6e26a5", "b0c05f08eeacac18", "fcc6900e1daf18bc" );
  ]

let check_pin what pick =
  let got = Lazy.force results in
  Alcotest.(check int) "grid size" (List.length pins) (List.length got);
  List.iter2
    (fun (spec, la, v, s) (spec', r) ->
      Alcotest.(check string) "grid order" spec spec';
      let expected, actual = pick (la, v, s) r in
      Alcotest.(check string) (spec ^ ": " ^ what) expected actual)
    pins got

let test_latch_analysis_pin () =
  check_pin "latch analysis" (fun (la, _, _) (la', _, _) -> (la, la'))

let test_verify_report_pin () =
  check_pin "verify reports" (fun (_, v, _) (_, text, _) ->
      (v, Json.hash_hex text));
  (* The hashes cover delay-derived verdicts, not only clean reports. *)
  let lines =
    List.concat_map
      (fun (_, (_, text, _)) -> String.split_on_char '\n' text)
      (Lazy.force results)
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool) ("grid reports name " ^ kind) true
        (List.exists (String.starts_with ~prefix:("  " ^ kind ^ ":")) lines))
    [ "missing-holdoff"; "departure-too-early"; "gate-after-data" ]

let test_schedule_pins () =
  check_pin "schedule" (fun (_, _, s) (_, _, s') -> (s, s'))

(* A delta request's [schedule_fp] is hashed while the schedule writer
   runs; it must equal the hash of the written text on every grid
   schedule, clean, naive and corrupted. *)
let test_streamed_fingerprint () =
  ignore (Lazy.force results);
  Alcotest.(check bool)
    (Printf.sprintf "%d schedules checked" !fingerprints_checked)
    true
    (!fingerprints_checked >= 10 * List.length grid);
  Alcotest.(check (list string)) "streamed fingerprint = text hash" []
    (List.rev !fingerprint_mismatches)

(* ---- Explain pins ---- *)

(* The grid point compiled as [run_point] does, with routing mode [mode];
   the report is analyzed under the mode the driver achieved, so a
   whole-schedule hard fallback reads as hard. *)
let explain_hash (spec, s) mode =
  let options = options_of s in
  let options =
    { options with Compile.route = { options.Compile.route with Tiers.mode } }
  in
  let r =
    Compile.compile_resilient ~options ~max_retries:s.retries
      ~fallback_hard:s.fallback ~reroute:(Reroute.create ()) (netlist_of spec)
  in
  match r.Compile.compiled with
  | None -> "unroutable"
  | Some c ->
      let achieved =
        Option.value ~default:mode r.Compile.degradation.Compile.achieved_mode
      in
      let route = { options.Compile.route with Tiers.mode = achieved } in
      Json.hash_hex
        (Explain.to_json
           (Explain.analyze ~route ~obs:Sink.null ~design:spec
              c.Compile.prepared c.Compile.schedule))

(* (spec, virtual-mode hash, hard-mode hash), in grid order *)
let explain_pins =
  [
    ( "design1:scale=0.05,seed=1",
      "f3b09ffe0675350f", "952a68b520055921" );
    ( "design1:scale=0.05,seed=2",
      "424270915b1f5004", "6228651869ce5cfb" );
    ( "design2:scale=0.05,seed=1",
      "cb8d5390a8563d37", "27ac523bc48a5bd8" );
    ( "design1:scale=0.05,seed=3",
      "b524f78f049b7caf", "0f818fc49967aa9d" );
    ( "design1:scale=0.05,seed=4",
      "2f6187fd023aa418", "20f7a792f05edeab" );
    ( "design2:scale=0.05,seed=2",
      "9db45028ef554905", "2508c957a7b62bc4" );
    ( "design1:scale=0.05,seed=5",
      "612a5a287c91ac5f", "54a1c790492463b3" );
    ( "design1:scale=0.05,seed=6",
      "7aa985b47f0d4c5a", "ec1332038f5e51fd" );
    ( "design2:scale=0.05,seed=3",
      "fafa9de3d6838ee9", "b14a0816483dca28" );
    ( "design1:scale=0.05,seed=7",
      "16106208e95a4323", "addde73c2e2f5c38" );
    ( "design1:scale=0.05,seed=8",
      "f370dc459d4f0151", "67d545c3f9b8de9d" );
    ( "design2:scale=0.05,seed=4",
      "539daf21d353a622", "84957f7c2bab4bfa" );
    ( "design1:scale=0.05,seed=9",
      "2ec6dd132583edd3", "cd5a43c9500e7c1a" );
    ( "design1:scale=0.05,seed=10",
      "8aec48c62f2baee1", "7a6b1f586c628a99" );
    ( "design2:scale=0.05,seed=5",
      "d69401ace6570883", "12a53fbe05195b8b" );
    ( "design1:scale=0.05,seed=11",
      "265f7409c50dc195", "b2fa81ad13d8cb79" );
    ( "design1:scale=0.05,seed=12",
      "4e6a506386db02b3", "7e117becded42d72" );
    ( "design2:scale=0.05,seed=6",
      "6e197d1d0b8f2247", "679585485f6e13e8" );
    ( "design1:scale=0.05,seed=13",
      "386c24323ff34b62", "084654f5dfc4d018" );
    ( "design1:scale=0.05,seed=14",
      "a5a51b2e50cb8927", "176ff3bed5e5e571" );
    ( "design2:scale=0.05,seed=7",
      "bf479baa41ef1a03", "8b846f53f080b188" );
    ( "design1:scale=0.05,seed=15",
      "053ac9a82615aa00", "2e93b51aa8bab063" );
    ( "design1:scale=0.05,seed=16",
      "08bbf18eed19ed78", "2529a96a3fbe1978" );
    ( "design2:scale=0.05,seed=8",
      "f7f5feb443544444", "072b20797eed2854" );
    ( "random:domains=3,modules=10,mts=0.20,seed=11",
      "3e11d50b7a4f44e0", "ee15d0ef4d4d3a26" );
    ( "gals:islands=4,size=3,seed=12",
      "0411ecafabb0ca16", "7c1286ef99623e38" );
    ( "dense:domains=8,density=0.20,seed=13",
      "cb74fca3c2d22485", "457ea7b67d9bbc61" );
    ( "fabric:banks=4,domains=3,seed=14",
      "48377783e83e43b7", "1817916dd54018c3" );
    ( "design1:scale=0.02,seed=15",
      "76a386608cfae829", "d80b9c787b46f291" );
    ( "design2:scale=0.02,seed=16",
      "3318323c59b15c66", "15046d6a3feab1ca" );
    ( "random:domains=3,modules=30,mts=0.30,seed=76",
      "2f5af9f0c30dfe77", "8007250fd1a7417b" );
    ( "fig3",
      "9dd7f124511fdf4e", "d1c62afe0f8a4415" );
  ]

let test_explain_pins () =
  Alcotest.(check int) "grid size" (List.length grid)
    (List.length explain_pins);
  List.iter2
    (fun ((spec, _) as point) (spec', virt, hard) ->
      Alcotest.(check string) "grid order" spec spec';
      Alcotest.(check string) (spec ^ ": virtual explain") virt
        (explain_hash point Tiers.Mts_virtual);
      Alcotest.(check string) (spec ^ ": hard explain") hard
        (explain_hash point Tiers.Mts_hard))
    grid explain_pins

let suite =
  [
    Alcotest.test_case "latch-analysis pin" `Quick test_latch_analysis_pin;
    Alcotest.test_case "verify-report pin" `Quick test_verify_report_pin;
    Alcotest.test_case "schedule pins" `Quick test_schedule_pins;
    Alcotest.test_case "explain pins" `Quick test_explain_pins;
    Alcotest.test_case "streamed schedule fingerprint" `Quick
      test_streamed_fingerprint;
  ]
