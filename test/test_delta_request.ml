(* What one [{"op":"delta"}] request pays for besides its compile: the
   canonical render behind its key and design fingerprint, the manifest's
   block fingerprints and JSON, the schedule JSON behind [schedule_fp],
   and the manifest store and load.  The writers are pinned byte for byte
   on edge inputs the design-level pins never reach (the literals below
   were recorded from the Printf-based writers they replaced), the
   manifests of six generator designs are pinned by hash, a manifest that
   vanishes under its load is a miss, and one warm delta request on the
   benchmark's base design stays under an allocation bound. *)

module Compile = Msched.Compile
module Schedule = Msched_route.Schedule
module Link = Msched_route.Link
module Ids = Msched_netlist.Ids
module Serial = Msched_netlist.Serial
module Design_gen = Msched_gen.Design_gen
module Manifest = Msched_delta.Manifest
module Fingerprint = Msched_delta.Fingerprint
module Edit = Msched_delta.Edit
module Cache = Msched_server.Cache
module Server = Msched_server.Server
module Diag = Msched_diag.Diag

(* A string every writer must escape: a quote, a backslash, a newline, a
   tab, control bytes, DEL and bytes >= 0x80. *)
let awkward = "say \"hi\"\\ back\nthen\ttab\001bell\031\127\200\255end"

let link ?(hard = false) ~net ~blocks:(src, dst) ~fpgas:(sf, df) () =
  {
    Link.id = Ids.Link.of_int 0;
    net = Ids.Net.of_int net;
    src_block = Ids.Block.of_int src;
    dst_block = Ids.Block.of_int dst;
    src_fpga = Ids.Fpga.of_int sf;
    dst_fpga = Ids.Fpga.of_int df;
    domains = [];
    hard;
  }

let transport ?dom ?(hard = false) dep arr hops =
  {
    Schedule.tr_domain = Option.map Ids.Dom.of_int dom;
    tr_fwd_dep = dep;
    tr_fwd_arr = arr;
    tr_hops = hops;
    tr_hard = hard;
  }

let empty_schedule =
  {
    Schedule.length = 0;
    length_driver = "";
    vclock_hz = 34e6;
    link_scheds = [];
    holdoffs = [];
    peak_channel_usage = [||];
    dedicated_per_channel = [||];
    warnings = [];
  }

let edge_schedules =
  [
    ( "empty",
      empty_schedule,
      "{\"schema\":\"msched-schedule-1\",\"length\":0,\"length_driver\":\"\",\"vclock_hz\":34000000,\"est_speed_hz\":34000000,\"links\":[],\"holdoffs\":[],\"peak_channel_usage\":[],\"dedicated_per_channel\":[],\"warnings\":[]}"
    );
    ( "no links, awkward driver and warnings",
      {
        empty_schedule with
        Schedule.length = 7;
        length_driver = awkward;
        vclock_hz = 1.0 /. 3.0;
        peak_channel_usage = [| 0; 3 |];
        dedicated_per_channel = [| 1; 0 |];
        warnings = [ awkward; ""; "plain" ];
      },
      "{\"schema\":\"msched-schedule-1\",\"length\":7,\"length_driver\":\"say \\\"hi\\\"\\\\ back\\nthen\\ttab\\u0001bell\\u001f\127\200\255end\",\"vclock_hz\":0.33333333333333331,\"est_speed_hz\":0.047619047619047616,\"links\":[],\"holdoffs\":[],\"peak_channel_usage\":[0,3],\"dedicated_per_channel\":[1,0],\"warnings\":[\"say \\\"hi\\\"\\\\ back\\nthen\\ttab\\u0001bell\\u001f\127\200\255end\",\"\",\"plain\"]}"
    );
    ( "hard, untagged and hop-less transports",
      {
        Schedule.length = 12;
        length_driver = "transport chain n5 -> b2";
        vclock_hz = 33e6;
        link_scheds =
          [
            {
              Schedule.ls_link = link ~net:5 ~blocks:(0, 1) ~fpgas:(0, 1) ();
              ls_transports = [];
            };
            {
              Schedule.ls_link =
                link ~hard:true ~net:6 ~blocks:(1, 2) ~fpgas:(1, 3) ();
              ls_transports = [ transport ~hard:true 0 3 [] ];
            };
            {
              Schedule.ls_link =
                link ~net:1234567 ~blocks:(2, 0) ~fpgas:(3, 0) ();
              ls_transports =
                [
                  transport ~dom:0 1 4 [ (0, 1); (2, 3) ];
                  transport ~dom:2 1 5 [ (1, 2) ];
                  transport 0 0 [];
                ];
            };
          ];
        holdoffs =
          [
            { Schedule.ho_cell = Ids.Cell.of_int 9; ho_gate = 2; ho_data = 3 };
            { Schedule.ho_cell = Ids.Cell.of_int 0; ho_gate = 0; ho_data = 11 };
          ];
        peak_channel_usage = [| 2; 0; 1 |];
        dedicated_per_channel = [| 0; 4; 0 |];
        warnings = [ "wire congestion on channel 1" ];
      },
      "{\"schema\":\"msched-schedule-1\",\"length\":12,\"length_driver\":\"transport chain n5 -> b2\",\"vclock_hz\":33000000,\"est_speed_hz\":2750000,\"links\":[{\"net\":5,\"src_block\":0,\"dst_block\":1,\"src_fpga\":0,\"dst_fpga\":1,\"hard\":false,\"transports\":[]},{\"net\":6,\"src_block\":1,\"dst_block\":2,\"src_fpga\":1,\"dst_fpga\":3,\"hard\":true,\"transports\":[{\"domain\":-1,\"dep\":0,\"arr\":3,\"hard\":true,\"hops\":[]}]},{\"net\":1234567,\"src_block\":2,\"dst_block\":0,\"src_fpga\":3,\"dst_fpga\":0,\"hard\":false,\"transports\":[{\"domain\":0,\"dep\":1,\"arr\":4,\"hard\":false,\"hops\":[[0,1],[2,3]]},{\"domain\":2,\"dep\":1,\"arr\":5,\"hard\":false,\"hops\":[[1,2]]},{\"domain\":-1,\"dep\":0,\"arr\":0,\"hard\":false,\"hops\":[]}]}],\"holdoffs\":[{\"cell\":9,\"gate\":2,\"data\":3},{\"cell\":0,\"gate\":0,\"data\":11}],\"peak_channel_usage\":[2,0,1],\"dedicated_per_channel\":[0,4,0],\"warnings\":[\"wire congestion on channel 1\"]}"
    );
    ( "negative slots and extreme values",
      {
        empty_schedule with
        Schedule.length = max_int;
        vclock_hz = 1e-300;
        link_scheds =
          [
            {
              Schedule.ls_link = link ~net:0 ~blocks:(0, 0) ~fpgas:(0, 0) ();
              ls_transports = [ transport ~dom:7 (-1) min_int [ (-3, -4) ] ];
            };
          ];
        holdoffs =
          [
            {
              Schedule.ho_cell = Ids.Cell.of_int 1;
              ho_gate = -2;
              ho_data = max_int;
            };
          ];
        peak_channel_usage = [| min_int |];
        dedicated_per_channel = [| max_int |];
      },
      "{\"schema\":\"msched-schedule-1\",\"length\":4611686018427387903,\"length_driver\":\"\",\"vclock_hz\":1e-300,\"est_speed_hz\":2.168404713032647e-319,\"links\":[{\"net\":0,\"src_block\":0,\"dst_block\":0,\"src_fpga\":0,\"dst_fpga\":0,\"hard\":false,\"transports\":[{\"domain\":7,\"dep\":-1,\"arr\":-4611686018427387904,\"hard\":false,\"hops\":[[-3,-4]]}]}],\"holdoffs\":[{\"cell\":1,\"gate\":-2,\"data\":4611686018427387903}],\"peak_channel_usage\":[-4611686018427387904],\"dedicated_per_channel\":[4611686018427387903],\"warnings\":[]}"
    );
  ]

let test_schedule_pins () =
  List.iter
    (fun (what, sched, want) ->
      Alcotest.(check string) what want (Schedule.to_json_string sched))
    edge_schedules

let edge_manifests =
  [
    ( "empty",
      {
        Manifest.options_fp = "";
        design_fp = "";
        num_blocks = 0;
        assignment = [||];
        block_fps = [||];
        boundary = [];
        entries = [];
      },
      "{\"schema\":\"msched-delta-manifest-1\",\"checksum\":\"39eab8bfbebf0427\",\"payload\":{\"options_fp\":\"\",\"design_fp\":\"\",\"num_blocks\":0,\"assignment\":[],\"blocks\":[],\"boundary\":[]}}"
    );
    ( "awkward names",
      {
        Manifest.options_fp = awkward;
        design_fp = "0123456789abcdef";
        num_blocks = 3;
        assignment = [| 2; 0; 11 |];
        block_fps = [| "9ebbb29455bdd846"; awkward; "" |];
        boundary =
          [
            ("", "");
            ("DATA", "t=clk1,clk2;s=clk1;mt=true;mts=false");
            (awkward, awkward);
          ];
        entries = [];
      },
      "{\"schema\":\"msched-delta-manifest-1\",\"checksum\":\"6cf5f2f74fb63711\",\"payload\":{\"options_fp\":\"say \\\"hi\\\"\\\\ back\\nthen\\ttab\\u0001bell\\u001f\127\200\255end\",\"design_fp\":\"0123456789abcdef\",\"num_blocks\":3,\"assignment\":[2,0,11],\"blocks\":[\"9ebbb29455bdd846\",\"say \\\"hi\\\"\\\\ back\\nthen\\ttab\\u0001bell\\u001f\127\200\255end\",\"\"],\"boundary\":[[\"\",\"\"],[\"DATA\",\"t=clk1,clk2;s=clk1;mt=true;mts=false\"],[\"say \\\"hi\\\"\\\\ back\\nthen\\ttab\\u0001bell\\u001f\127\200\255end\",\"say \\\"hi\\\"\\\\ back\\nthen\\ttab\\u0001bell\\u001f\127\200\255end\"]]}}"
    );
  ]

let test_manifest_pins () =
  List.iter
    (fun (what, m, want) ->
      Alcotest.(check string) what want (Manifest.to_json_string m);
      match Manifest.of_json_string want with
      | Error e -> Alcotest.failf "%s: did not reload: %s" what e
      | Ok m' ->
          Alcotest.(check string) (what ^ ": reloads") want
            (Manifest.to_json_string m'))
    edge_manifests

let edge_diags =
  [
    ( "no context",
      {
        Diag.code = Diag.E_CACHE;
        severity = Diag.Warning;
        message = awkward;
        ctx = Diag.no_context;
      },
      "{\"code\":\"E_CACHE\",\"severity\":\"warning\",\"message\":\"say \\\"hi\\\"\\\\ back\\nthen\\ttab\\u0001bell\\u001f\127\200\255end\",\"exit_code\":3}"
    );
    ( "every context field",
      {
        Diag.code = Diag.E_UNROUTABLE;
        severity = Diag.Error;
        message = "";
        ctx =
          {
            Diag.net = Some 0;
            cell = Some 1;
            domain = Some 2;
            fpga = Some 3;
            block = Some 4;
            slack = Some (-5);
            culprit = Some awkward;
          };
      },
      "{\"code\":\"E_UNROUTABLE\",\"severity\":\"error\",\"message\":\"\",\"exit_code\":4,\"net\":0,\"cell\":1,\"domain\":2,\"fpga\":3,\"block\":4,\"slack\":-5,\"culprit\":\"say \\\"hi\\\"\\\\ back\\nthen\\ttab\\u0001bell\\u001f\127\200\255end\"}"
    );
  ]

let test_diag_pins () =
  List.iter
    (fun (what, d, want) -> Alcotest.(check string) what want (Diag.to_json d))
    edge_diags;
  (* Every code, both severities: the code, severity and exit-code fields
     are written as constants now, so each must still read as before. *)
  List.iter
    (fun code ->
      List.iter
        (fun severity ->
          let d = { Diag.code; severity; message = "m"; ctx = Diag.no_context } in
          Alcotest.(check string)
            (Diag.code_name code)
            (Printf.sprintf
               "{\"code\":\"%s\",\"severity\":\"%s\",\"message\":\"m\",\"exit_code\":%d}"
               (Diag.code_name code)
               (Diag.severity_name severity)
               (Diag.exit_code code))
            (Diag.to_json d))
        [ Diag.Error; Diag.Warning ])
    Diag.all_codes

(* ---- Manifests of generator designs, pinned by hash. ---- *)

let spec_netlist spec =
  match Design_gen.of_spec spec with
  | Ok d -> d.Design_gen.netlist
  | Error d -> Alcotest.failf "bad spec %s: %a" spec Diag.pp d

(* Block count and [Manifest.to_json_string] hash per design at weight 16:
   every block fingerprint, boundary signature and the assignment. *)
let manifest_pins =
  [
    ("random:domains=3,modules=8,mts=0.20,seed=11", 6, "2a1d9770344742d1");
    ("gals:islands=4,size=3,seed=12", 11, "04539003529aedf7");
    ("dense:domains=8,density=0.20,seed=13", 8, "2b120e9859088fd3");
    ("fabric:banks=4,domains=3,seed=14", 4, "76aad4f2178bdf3b");
    ("design1:scale=0.025,seed=1", 60, "a57afebcdf489226");
    ("design2:scale=0.02,seed=16", 34, "eac9862766f414c1");
  ]

let pin_options =
  {
    Compile.default_options with
    Compile.max_block_weight = 16;
    pins_per_fpga = 96;
    verify = false;
  }

let test_design_manifest_pins () =
  List.iter
    (fun (spec, blocks, want) ->
      let nl = spec_netlist spec in
      let m =
        (Compile.compile_base ~options:pin_options nl).Compile.base_manifest
      in
      Alcotest.(check int) (spec ^ ": blocks") blocks m.Manifest.num_blocks;
      Alcotest.(check string) (spec ^ ": manifest hash") want
        (Diag.Json.hash_hex (Manifest.to_json_string m));
      (* A caller that already holds the canonical text passes its
         fingerprint in; the manifest is the same. *)
      let design_fp = Fingerprint.design_of_canonical (Serial.to_string nl) in
      Alcotest.(check string) (spec ^ ": design_fp from the text")
        (Fingerprint.design nl) design_fp;
      let m' =
        (Compile.compile_base ~options:pin_options ~design_fp nl)
          .Compile.base_manifest
      in
      Alcotest.(check string) (spec ^ ": same manifest")
        (Manifest.to_json_string m) (Manifest.to_json_string m'))
    manifest_pins

(* ---- The manifest cache under a concurrent janitor. ---- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "msched-delta-request-%d-%d" (Unix.getpid ()) !n)
    in
    Cache.ensure_dir dir;
    dir

(* [--cache-max-bytes] evicts from another thread, so a manifest can vanish
   between a request's lookup and its read: that is a miss, not a corrupt
   entry.  Something that cannot be read as a file still is corrupt. *)
let test_manifest_vanishes () =
  let nl = spec_netlist "fig3" in
  let m = (Compile.compile_base ~options:pin_options nl).Compile.base_manifest in
  let dir = fresh_dir () in
  let key = "0123456789abcdef" in
  (match Cache.store_manifest ~dir ~key m with
  | Ok () -> ()
  | Error d -> Alcotest.failf "store failed: %a" Diag.pp d);
  (match Cache.load_manifest ~dir ~key with
  | Cache.M_hit (m', 0) ->
      Alcotest.(check string) "stored manifest loads"
        (Manifest.to_json_string m) (Manifest.to_json_string m')
  | _ -> Alcotest.fail "stored manifest did not load");
  let path = Cache.manifest_file ~dir ~key in
  Sys.remove path;
  (match Cache.load_manifest ~dir ~key with
  | Cache.M_miss -> ()
  | Cache.M_hit _ -> Alcotest.fail "a removed manifest loaded"
  | Cache.M_corrupt d ->
      Alcotest.failf "a removed manifest is corrupt: %a" Diag.pp d);
  Unix.mkdir path 0o755;
  (match Cache.load_manifest ~dir ~key with
  | Cache.M_corrupt d ->
      Alcotest.(check string) "E_CACHE" "E_CACHE" (Diag.code_name d.Diag.code)
  | Cache.M_miss -> Alcotest.fail "a directory in the manifest's place missed"
  | Cache.M_hit _ -> Alcotest.fail "a directory loaded as a manifest");
  Unix.rmdir path;
  Unix.rmdir dir

(* ---- Work: one warm delta request. ---- *)

(* The benchmark's delta_edit request: design1 at scale 0.025 against its
   stored manifest, a domain flip that leaves most blocks clean.  With the
   canonical text rendered twice, every crossing net's signature rendered
   once per listing and Printf per link, transport and hop, it allocated
   0.77 M minor words; with one render of each it takes about 0.43 M, of
   which the compile itself is 0.26 M. *)
let request_word_bound = 600_000.0

let test_delta_request_words () =
  let dir = fresh_dir () in
  let settings =
    {
      Server.default_settings with
      Server.s_options =
        {
          Compile.default_options with
          Compile.max_block_weight = 64;
          pins_per_fpga = 96;
        };
      s_cache_dir = Some dir;
    }
  in
  let nl = spec_netlist "design1:scale=0.025,seed=1" in
  let run text base =
    Server.run_delta settings
      { Server.dq_path = "w"; dq_text = text; dq_base = base }
  in
  let base = run (Serial.to_string nl) None in
  let edited =
    match Edit.apply ~seed:1 Edit.Flip_domain nl with
    | Ok (e, _) -> Serial.to_string e
    | Error e -> Alcotest.failf "flip edit: %s" e
  in
  let request () = run edited (Some base.Server.dr_key) in
  ignore (request ());
  let before = Gc.minor_words () in
  let r = request () in
  let words = Gc.minor_words () -. before in
  (match (r.Server.dr_base, r.Server.dr_outcome) with
  | Server.Base_warm 0, Some o ->
      Alcotest.(check int) "exit 0" 0 r.Server.dr_exit;
      Alcotest.(check bool) "the diff ran" false o.Server.do_cold_fallback;
      Alcotest.(check bool) "some blocks clean" true
        (o.Server.do_blocks_clean > 0)
  | _ -> Alcotest.fail "the edit did not run warm against its base");
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Unix.rmdir dir;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per delta request (bound %.0f)" words
       request_word_bound)
    true
    (words < request_word_bound)

let suite =
  [
    Alcotest.test_case "schedule JSON: edge pins" `Quick test_schedule_pins;
    Alcotest.test_case "manifest JSON: edge pins" `Quick test_manifest_pins;
    Alcotest.test_case "diagnostic JSON: edge pins" `Quick test_diag_pins;
    Alcotest.test_case "manifests of generator designs" `Quick
      test_design_manifest_pins;
    Alcotest.test_case "a vanished manifest is a miss" `Quick
      test_manifest_vanishes;
    Alcotest.test_case "work: one warm delta request" `Quick
      test_delta_request_words;
  ]
