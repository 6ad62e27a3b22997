(* The delta-compilation subsystem.  A delta compile is a cold compile
   plus a block diff, so the first obligation is differential: for every
   generator family, both MTS routing modes and every applicable
   single-edit mutator, the delta compile against the base manifest must
   produce a schedule byte-identical to a cold compile of the edited
   design ([Schedule.to_json_string] equality) — and do the same search
   work.  On top of that: manifests are one small checksummed file whose
   size grows linearly with the design, doctored manifests fail closed,
   gc sweeps what older versions left behind, and the canonical serial
   form the cache keys on is a byte fixpoint. *)

module Compile = Msched.Compile
module Tiers = Msched_route.Tiers
module Schedule = Msched_route.Schedule
module Verify = Msched_check.Verify
module Serial = Msched_netlist.Serial
module Design_gen = Msched_gen.Design_gen
module Manifest = Msched_delta.Manifest
module Diff = Msched_delta.Diff
module Edit = Msched_delta.Edit
module Fingerprint = Msched_delta.Fingerprint
module Cache = Msched_server.Cache
module Diag = Msched_diag.Diag
module Sink = Msched_obs.Sink
module Netlist = Msched_netlist.Netlist

let options mode =
  {
    Compile.default_options with
    Compile.route = { Tiers.default_options with Tiers.mode };
    verify = false (* The verifier gets its own dedicated test below. *);
  }

(* The nine generator families, sized for test speed; every family the
   bench and verifier exercise is represented. *)
let families () =
  [
    ("fig1", (Design_gen.fig1 ()).Design_gen.netlist);
    ("fig3_latch", (Design_gen.fig3_latch ()).Design_gen.netlist);
    ("handshake", (Design_gen.handshake ()).Design_gen.netlist);
    ( "random_multidomain",
      (Design_gen.random_multidomain ~seed:11 ~domains:3 ~modules:6
         ~mts_fraction:0.3 ())
        .Design_gen.netlist );
    ( "design1_like",
      (Design_gen.design1_like ~seed:1 ~scale:0.02 ()).Design_gen.netlist );
    ( "design2_like",
      (Design_gen.design2_like ~seed:2 ~scale:0.02 ()).Design_gen.netlist );
    ( "gals_islands",
      (Design_gen.gals_islands ~seed:3 ~islands:4 ()).Design_gen.netlist );
    ( "dense_crossing",
      (Design_gen.dense_crossing ~seed:4 ~domains:8 ~density:0.2 ())
        .Design_gen.netlist );
    ( "gated_memory_fabric",
      (Design_gen.gated_memory_fabric ~seed:5 ~banks:4 ()).Design_gen.netlist );
  ]

(* First seed under which this edit kind applies to this design. *)
let find_edit kind nl =
  let rec go seed =
    if seed > 8 then None
    else
      match Edit.apply ~seed kind nl with
      | Ok (nl', desc) -> Some (nl', desc)
      | Error _ -> go (seed + 1)
  in
  go 0

let schedule_json sched = Schedule.to_json_string sched

(* ---- The differential suite: warm ≡ cold, byte for byte. ---- *)

let test_differential () =
  let comparisons = ref 0 in
  List.iter
    (fun (label, nl) ->
      List.iter
        (fun mode ->
          let options = options mode in
          let base = Compile.compile_base ~options nl in
          List.iter
            (fun kind ->
              match find_edit kind nl with
              | None -> () (* Kind inapplicable to this design: fine. *)
              | Some (edited, desc) -> (
                  let what =
                    Printf.sprintf "%s/%s/%s (%s)" label (Tiers.mode_name mode)
                      (Edit.kind_name kind) desc
                  in
                  match Compile.compile_base ~options edited with
                  | cold ->
                      let delta =
                        Compile.compile_delta ~options
                          ~manifest:base.Compile.base_manifest edited
                      in
                      Alcotest.(check string)
                        (what ^ ": delta schedule == cold schedule")
                        (schedule_json cold.Compile.base_compiled.Compile.schedule)
                        (schedule_json
                           delta.Compile.delta_compiled.Compile.schedule);
                      (* The updated manifest describes the edited design
                         exactly as a cold harvest would. *)
                      Alcotest.(check string)
                        (what ^ ": manifest design fingerprint")
                        cold.Compile.base_manifest.Manifest.design_fp
                        delta.Compile.delta_manifest.Manifest.design_fp;
                      Alcotest.(check (array string))
                        (what ^ ": manifest block fingerprints")
                        cold.Compile.base_manifest.Manifest.block_fps
                        delta.Compile.delta_manifest.Manifest.block_fps;
                      incr comparisons
                  | exception _ -> (
                      (* Cold compile of the edited design fails; the delta
                         compile must fail too, never hand back a schedule
                         a cold compile would refuse. *)
                      match
                        Compile.compile_delta ~options
                          ~manifest:base.Compile.base_manifest edited
                      with
                      | _ ->
                          Alcotest.failf "%s: cold compile failed but delta \
                                          compile succeeded"
                            what
                      | exception _ -> ())))
            Edit.all_kinds)
        [ Tiers.Mts_virtual; Tiers.Mts_hard ])
    (families ());
  Alcotest.(check bool)
    (Printf.sprintf "at least 50 differential comparisons ran (got %d)"
       !comparisons)
    true (!comparisons >= 50)

(* ---- Delta is cold: the same bytes from the same search. ---- *)

(* The settings of the end-to-end benchmark's delta_edit workload. *)
let delta_edit_options obs =
  {
    Compile.default_options with
    Compile.max_block_weight = 64;
    pins_per_fpga = 96;
    obs;
  }

let spec_netlist spec =
  match Design_gen.of_spec spec with
  | Ok d -> d.Design_gen.netlist
  | Error d -> Alcotest.failf "bad spec %s: %a" spec Diag.pp d

(* One edit of each kind, chained as the benchmark chains them: each edit
   applies to the previous edited design and compiles against the
   previous manifest.  Every delta must compile exactly what a plain
   compile of the same text compiles — same schedule bytes, same number
   of pathfinder states — whatever the diff says. *)
let test_delta_is_cold () =
  let nl0 = spec_netlist "design1:scale=0.025,seed=1" in
  let base = Compile.compile_base ~options:(delta_edit_options Sink.null) nl0 in
  (* The identity delta: nothing dirty, nothing moved, an empty cone. *)
  let ident =
    Compile.compile_delta ~options:(delta_edit_options Sink.null)
      ~manifest:base.Compile.base_manifest nl0
  in
  (match ident.Compile.delta_diff with
  | None -> Alcotest.fail "identity delta is not comparable"
  | Some d ->
      Alcotest.(check (list int)) "identity: no dirty blocks" [] d.Diff.d_dirty;
      Alcotest.(check (list int)) "identity: no moved blocks" [] d.Diff.d_moved;
      Alcotest.(check int) "identity: empty cone" 0 (Diff.cone_size d));
  Alcotest.(check string) "identity: schedule bytes"
    (schedule_json base.Compile.base_compiled.Compile.schedule)
    (schedule_json ident.Compile.delta_compiled.Compile.schedule);
  ignore
    (List.fold_left
       (fun (nl, manifest) kind ->
         let edited, desc =
           match find_edit kind nl with
           | Some e -> e
           | None -> Alcotest.failf "no %s edit applies" (Edit.kind_name kind)
         in
         let what = Printf.sprintf "%s (%s)" (Edit.kind_name kind) desc in
         let cold_obs = Sink.create () and delta_obs = Sink.create () in
         let cold =
           Compile.compile ~options:(delta_edit_options cold_obs) edited
         in
         let delta =
           Compile.compile_delta ~options:(delta_edit_options delta_obs)
             ~manifest edited
         in
         Alcotest.(check string)
           (what ^ ": schedule bytes")
           (schedule_json cold.Compile.schedule)
           (schedule_json delta.Compile.delta_compiled.Compile.schedule);
         let states obs = Sink.counter obs "pathfind.states_expanded" in
         Alcotest.(check bool) (what ^ ": the cold compile searched") true
           (states cold_obs > 0);
         Alcotest.(check int)
           (what ^ ": pathfind.states_expanded")
           (states cold_obs) (states delta_obs);
         (edited, delta.Compile.delta_manifest))
       (nl0, base.Compile.base_manifest)
       Edit.all_kinds)

(* ---- The independent verifier accepts delta schedules. ---- *)

let test_delta_schedule_verifies () =
  let nl =
    (Design_gen.random_multidomain ~seed:21 ~domains:3 ~modules:8
       ~mts_fraction:0.3 ())
      .Design_gen.netlist
  in
  let options = options Tiers.Mts_virtual in
  let base = Compile.compile_base ~options nl in
  List.iter
    (fun kind ->
      match find_edit kind nl with
      | None -> ()
      | Some (edited, desc) ->
          let delta =
            Compile.compile_delta ~options ~manifest:base.Compile.base_manifest
              edited
          in
          let p = delta.Compile.delta_compiled.Compile.prepared in
          let report =
            Verify.verify p.Compile.placement p.Compile.analysis
              delta.Compile.delta_compiled.Compile.schedule
          in
          if not (Verify.is_clean report) then
            Alcotest.failf "%s (%s): delta schedule rejected: %a"
              (Edit.kind_name kind) desc Verify.pp_report report)
    Edit.all_kinds

(* ---- Manifest persistence: roundtrip, checksum, foreign options. ---- *)

let small_manifest () =
  let nl =
    (Design_gen.random_multidomain ~seed:31 ~domains:3 ~modules:6
       ~mts_fraction:0.3 ())
      .Design_gen.netlist
  in
  let options = options Tiers.Mts_virtual in
  (nl, options, Compile.compile_base ~options nl)

let test_manifest_roundtrip () =
  let _, _, base = small_manifest () in
  let m = base.Compile.base_manifest in
  let text = Manifest.to_json_string m in
  match Manifest.of_json_string text with
  | Error e -> Alcotest.failf "manifest did not reload: %s" e
  | Ok m' ->
      Alcotest.(check string) "roundtrip is byte-stable" text
        (Manifest.to_json_string m')

let test_manifest_doctored_fails () =
  let _, _, base = small_manifest () in
  let m = base.Compile.base_manifest in
  let text = Manifest.to_json_string m in
  (* Flip one character of the embedded design fingerprint: the document
     still parses as JSON, but the checksum must catch the tamper. *)
  let find_sub hay needle =
    let n = String.length needle and h = String.length hay in
    let rec scan i =
      if i + n > h then None
      else if String.sub hay i n = needle then Some i
      else scan (i + 1)
    in
    scan 0
  in
  let i =
    match find_sub text m.Manifest.design_fp with
    | Some i -> i
    | None -> Alcotest.fail "design_fp not embedded in manifest JSON"
  in
  let doctored = Bytes.of_string text in
  Bytes.set doctored i (if Bytes.get doctored i = '0' then '1' else '0');
  (match Manifest.of_json_string (Bytes.to_string doctored) with
  | Ok _ -> Alcotest.fail "doctored manifest was accepted"
  | Error _ -> ());
  (* Truncation must also fail closed. *)
  match Manifest.of_json_string (String.sub text 0 (String.length text / 2)) with
  | Ok _ -> Alcotest.fail "truncated manifest was accepted"
  | Error _ -> ()

let test_foreign_options_fall_cold () =
  let nl, options, base = small_manifest () in
  let foreign =
    { base.Compile.base_manifest with Manifest.options_fp = "deadbeefdeadbeef" }
  in
  match find_edit Edit.Flip_domain nl with
  | None -> Alcotest.fail "no applicable flip edit"
  | Some (edited, _) ->
      let cold = Compile.compile_base ~options edited in
      let delta = Compile.compile_delta ~options ~manifest:foreign edited in
      Alcotest.(check bool) "fell back cold" true
        (delta.Compile.delta_diff = None);
      Alcotest.(check int) "nothing reused" 0 delta.Compile.delta_reused;
      Alcotest.(check string) "schedule still identical to cold"
        (schedule_json cold.Compile.base_compiled.Compile.schedule)
        (schedule_json delta.Compile.delta_compiled.Compile.schedule)

(* ---- Cache entries: one file per manifest. ---- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "msched-delta-test-%d-%d" (Unix.getpid ()) !n)
    in
    Cache.ensure_dir dir;
    dir

(* The stored manifest of a 3 736-cell design is one file that grows with
   the cell count, not with the routing: no ledger, no probe
   transcripts, no per-block slices. *)
let test_manifest_linear () =
  let nl = spec_netlist "design1:scale=0.1,seed=1" in
  let options = delta_edit_options Sink.null in
  let m = (Compile.compile_base ~options nl).Compile.base_manifest in
  let dir = fresh_dir () in
  let key = Cache.key ~text:(Serial.to_string nl) ~options in
  (match Cache.store_manifest ~dir ~key m with
  | Ok () -> ()
  | Error d -> Alcotest.failf "store failed: %a" Diag.pp d);
  Alcotest.(check (list string)) "one file"
    [ "manifest-" ^ key ^ ".json" ]
    (Array.to_list (Sys.readdir dir));
  let bytes = (Unix.stat (Cache.manifest_file ~dir ~key)).Unix.st_size in
  let cells = Netlist.num_cells nl in
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes for %d cells: at most 16 per cell" bytes cells)
    true
    (bytes <= 16 * cells);
  (match Cache.load_manifest ~dir ~key with
  | Cache.M_hit (m', 0) ->
      Alcotest.(check string) "reloads byte-identically"
        (Manifest.to_json_string m)
        (Manifest.to_json_string m')
  | Cache.M_hit (_, n) -> Alcotest.failf "%d missing blocks reported" n
  | Cache.M_miss -> Alcotest.fail "stored manifest missed"
  | Cache.M_corrupt _ -> Alcotest.fail "stored manifest corrupt");
  (* A corrupt header is a full, diagnosed miss. *)
  let oc = open_out (Cache.manifest_file ~dir ~key) in
  output_string oc "{\"schema\": \"garbage\"}";
  close_out oc;
  (match Cache.load_manifest ~dir ~key with
  | Cache.M_corrupt d ->
      Alcotest.(check string) "E_CACHE" "E_CACHE" (Diag.code_name d.Diag.code)
  | _ -> Alcotest.fail "corrupt header must be reported corrupt");
  match Cache.load_manifest ~dir ~key:"0123456789abcdef" with
  | Cache.M_miss -> ()
  | _ -> Alcotest.fail "unknown key must miss"

(* A manifest header as the server stored it before manifests lost their
   ledger: fig3 at weight 4, default options otherwise. *)
let stored_header =
  {|{"schema":"msched-delta-manifest-1","checksum":"7d166ce265d956c6","payload":{"options_fp":"mode=virtual;extra=4096;pins=240;weight=4;pseed=1;plseed=7;effort=4;vhz=3.4e+07;topo=mesh;verify=true","design_fp":"8422783c82ca38e6","num_blocks":3,"assignment":[1,0,2],"blocks":["9ebbb29455bdd846","d7f7ae62e6be974e","2d088e009acc8cac"],"boundary":[["DATA","t=clk1,clk2;s=clk1,clk2;mt=true;mts=true"],["FA","t=clk1;s=clk1,clk2;mt=false;mts=false"],["FA2","t=clk1;s=clk1,clk2;mt=false;mts=false"],["FB","t=clk2;s=clk1,clk2;mt=false;mts=false"],["MTSL","t=clk1,clk2;s=clk1,clk2;mt=true;mts=true"]]}}|}

let test_stored_headers_load () =
  (match Manifest.of_json_string stored_header with
  | Error m -> Alcotest.failf "stored header refused: %s" m
  | Ok m ->
      Alcotest.(check string) "re-renders byte-identically" stored_header
        (Manifest.to_json_string m));
  let options = { Compile.default_options with Compile.max_block_weight = 4 } in
  let fig3 = (Design_gen.fig3_latch ()).Design_gen.netlist in
  Alcotest.(check string) "today's manifest of the same design"
    stored_header
    (Manifest.to_json_string
       (Compile.compile_base ~options fig3).Compile.base_manifest);
  (* The same manifest as the CLI wrote it with a ledger spliced into the
     payload, checksummed over the ledger: refused, not half-read. *)
  let open_payload = {|"payload":|} in
  let i =
    let rec find i =
      if String.sub stored_header i (String.length open_payload) = open_payload
      then i + String.length open_payload
      else find (i + 1)
    in
    find 0
  in
  let payload =
    String.sub stored_header i (String.length stored_header - i - 2)
    ^ {|,"ledger":[]}|}
  in
  let with_ledger =
    Printf.sprintf
      {|{"schema":"msched-delta-manifest-1","checksum":"%s","payload":%s}|}
      (Diag.Json.hash_hex payload) payload
  in
  match Manifest.of_json_string with_ledger with
  | Ok _ -> Alcotest.fail "a manifest with a ledger must not load"
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "the ledger fails the checksum (%s)" m)
        true
        (String.starts_with ~prefix:"checksum mismatch" m)

let test_cache_gc_never_strands () =
  let _, _, base = small_manifest () in
  let m = base.Compile.base_manifest in
  let dir = fresh_dir () in
  let keys = [ "1111aaaa1111aaaa"; "2222bbbb2222bbbb"; "3333cccc3333cccc" ] in
  List.iter
    (fun key ->
      match Cache.store_manifest ~dir ~key m with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "store failed")
    keys;
  let st = Cache.stats ~dir in
  Alcotest.(check int) "manifests counted" 3 st.Cache.st_manifests;
  Alcotest.(check int) "one file per manifest" 3 st.Cache.st_entries;
  (* Evict down to roughly a third: some entries must go, and whatever
     survives must still load, never corrupt. *)
  let r = Cache.gc ~dir ~max_bytes:(st.Cache.st_bytes / 3) in
  Alcotest.(check bool) "something was evicted" true (r.Cache.gc_evicted > 0);
  Alcotest.(check bool) "cap respected" true
    (r.Cache.gc_bytes_after <= st.Cache.st_bytes / 3);
  List.iter
    (fun key ->
      match Cache.load_manifest ~dir ~key with
      | Cache.M_miss -> ()
      | Cache.M_hit (m', missing) ->
          Alcotest.(check bool) "surviving manifest is whole" true
            (m'.Manifest.num_blocks = m.Manifest.num_blocks && missing = 0)
      | Cache.M_corrupt _ ->
          Alcotest.fail "gc stranded a manifest in a corrupt state")
    keys;
  (* Per-block ledger files older versions wrote are dead whether or not
     their manifest survives: gc sweeps every one and keeps the live
     manifest. *)
  let dir2 = fresh_dir () in
  let live = List.hd keys in
  (match Cache.store_manifest ~dir:dir2 ~key:live m with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "store failed");
  List.iter
    (fun name ->
      let oc = open_out (Filename.concat dir2 name) in
      output_string oc "{}\n";
      close_out oc)
    [
      Printf.sprintf "block-%s-0.json" live;
      Printf.sprintf "block-%s-3.json" (List.nth keys 1);
    ];
  Alcotest.(check int) "leftover block files counted" 2
    (Cache.stats ~dir:dir2).Cache.st_blocks;
  let r2 = Cache.gc ~dir:dir2 ~max_bytes:max_int in
  Alcotest.(check int) "every leftover block file swept" 2 r2.Cache.gc_orphans;
  Alcotest.(check int) "live manifest kept" 0 r2.Cache.gc_evicted;
  Alcotest.(check int) "only the manifest is left" 1
    (Cache.stats ~dir:dir2).Cache.st_entries;
  match Cache.load_manifest ~dir:dir2 ~key:live with
  | Cache.M_hit _ -> ()
  | _ -> Alcotest.fail "the live manifest must still load"

(* ---- Canonical serial form: the cache-key preimage is a fixpoint. ---- *)

let prop_canonical_fixpoint =
  QCheck.Test.make ~name:"canonical serial text is a byte fixpoint" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let nl =
        (Design_gen.random_multidomain ~seed ~domains:3 ~modules:6
           ~mts_fraction:0.3 ())
          .Design_gen.netlist
      in
      let text = Serial.to_string nl in
      (* Print -> parse -> print is byte-stable... *)
      (match Serial.of_string text with
      | Error _ -> QCheck.Test.fail_report "emitted text did not parse"
      | Ok nl' ->
          if Serial.to_string nl' <> text then
            QCheck.Test.fail_report "print/parse/print not byte-stable");
      (* ...and canonicalization absorbs comments, blank lines and
         renumbering, then reaches its fixpoint in one step. *)
      let noisy = "# a comment\n\n" ^ text ^ "\n# trailing\n\n" in
      match Serial.canonical noisy with
      | Error _ -> QCheck.Test.fail_report "noisy text did not canonicalize"
      | Ok c -> (
          match Serial.canonical c with
          | Error _ -> QCheck.Test.fail_report "canonical text did not reparse"
          | Ok c' -> c = c'))

let prop_cache_key_canonical =
  QCheck.Test.make
    ~name:"cache keys ignore whitespace, comments and net numbering" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let nl =
        (Design_gen.random_multidomain ~seed ~domains:2 ~modules:5
           ~mts_fraction:0.25 ())
          .Design_gen.netlist
      in
      let text = Serial.to_string nl in
      let noisy = "# edited in some IDE\n\n" ^ text ^ "\n\n# eof\n" in
      let options = Compile.default_options in
      Cache.key ~text ~options = Cache.key ~text:noisy ~options)

(* A delta request parses its text once, renders the parse once and keys
   on that rendering ([Cache.key_of_canonical], the raw bytes when the
   text does not parse); the key must be the one [Cache.key] computes
   from the text, byte for byte, on every serve_mix generator family, a
   reformatted copy, and texts that do not parse. *)
let test_key_of_canonical () =
  let options = Compile.default_options in
  let reformat text =
    String.split_on_char '\n' text
    |> List.map (fun l -> if l = "" then l else "  " ^ l ^ "   ")
    |> String.concat "\n\n"
    |> fun t -> "# reformatted\n" ^ t ^ "\n# eof\n"
  in
  let parsed =
    List.concat_map
      (fun spec ->
        let text = Serial.to_string (spec_netlist spec) in
        [ (spec, text); (spec ^ " (reformatted)", reformat text) ])
      [
        "random:domains=3,modules=8,mts=0.20,seed=11";
        "gals:islands=4,size=3,seed=12";
        "dense:domains=8,density=0.20,seed=13";
        "fabric:banks=4,domains=3,seed=14";
        "design1:scale=0.02,seed=15";
        "design2:scale=0.02,seed=16";
      ]
  in
  let multi_driver =
    (* examples/broken/multi_driver.mnl: net 1 driven twice. *)
    "design multi_driver\ndomain clk0\nnet 0 IN\nnet 1 X\nnet 2 Q\n\
     input IN 0 domain 0\ngate buf G1 1 0\ngate not G2 1 0\n\
     ff F0 2 1 dom 0\noutput Q 2\n"
  in
  let unparseable =
    [
      ("undeclared net", "design broken\nnet x\n");
      ("multi-driver", multi_driver);
    ]
  in
  List.iter
    (fun (what, text) ->
      Alcotest.(check string) (what ^ ": key of the parse")
        (Cache.key ~text ~options)
        (Cache.key_of_canonical ~options
           (match Serial.of_string_diag text with
           | Ok nl -> Serial.to_string nl
           | Error _ -> text)))
    (parsed @ unparseable);
  List.iter
    (fun (what, text) ->
      Alcotest.(check string) (what ^ ": keys on the raw bytes")
        (Cache.hash_hex (Cache.fingerprint options ^ "\n" ^ text))
        (Cache.key ~text ~options))
    unparseable;
  match parsed with
  | (_, text) :: (_, reformatted) :: _ ->
      Alcotest.(check string) "reformatting keeps the key"
        (Cache.key ~text ~options)
        (Cache.key ~text:reformatted ~options)
  | _ -> assert false

let suite =
  [
    Alcotest.test_case "differential: delta == cold across families, modes, \
                        edits"
      `Slow test_differential;
    Alcotest.test_case "delta is cold: bytes and search" `Quick
      test_delta_is_cold;
    Alcotest.test_case "verifier accepts delta schedules" `Quick
      test_delta_schedule_verifies;
    Alcotest.test_case "manifest JSON roundtrip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "doctored manifest fails closed" `Quick
      test_manifest_doctored_fails;
    Alcotest.test_case "foreign options fingerprint falls cold" `Quick
      test_foreign_options_fall_cold;
    Alcotest.test_case "manifests are linear, one file" `Quick
      test_manifest_linear;
    Alcotest.test_case "stored headers still load" `Quick
      test_stored_headers_load;
    Alcotest.test_case "cache: gc never strands a manifest" `Quick
      test_cache_gc_never_strands;
    QCheck_alcotest.to_alcotest prop_canonical_fixpoint;
    QCheck_alcotest.to_alcotest prop_cache_key_canonical;
    Alcotest.test_case "key of one parse == Cache.key" `Quick
      test_key_of_canonical;
  ]
