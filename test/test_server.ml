(* Batch-compile server: the domain pool batches run on must keep its
   contract (every index once, lowest failing task re-raised with its
   backtrace), batch output must be deterministic (jobs=4 byte-identical
   to jobs=1 over a seeded corpus), and the process-spanning warm-route
   cache must round-trip exactly, replay equivalently to an in-process
   warm context, and degrade to cold (with the documented E_CACHE
   warning) on corrupt files. *)

module Ids = Msched_netlist.Ids
module Serial = Msched_netlist.Serial
module Tiers = Msched_route.Tiers
module Reroute = Msched_route.Reroute
module Design_gen = Msched_gen.Design_gen
module Verify = Msched_check.Verify
module Compile = Msched.Compile
module Diag = Msched_diag.Diag
module Pool = Msched_par.Pool
module Cache = Msched_server.Cache
module Manifest = Msched_server.Manifest
module Server = Msched_server.Server

let design ~seed ~modules ~domains =
  (Design_gen.random_multidomain ~seed ~domains ~modules ~mts_fraction:0.25 ())
    .Design_gen.netlist

let design_text ~seed ~modules ~domains =
  Serial.to_string (design ~seed ~modules ~domains)

(* A throwaway directory per test; the suite runs in dune's sandbox. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "msched-server-test-%d-%d" (Unix.getpid ()) !n)
    in
    Cache.ensure_dir dir;
    dir

(* Same congestion point as test_reroute: tight enough that the baseline
   rung fails and the ladder (and hence the reroute ledger) does real
   work. *)
let tight_options =
  {
    Compile.default_options with
    Compile.max_block_weight = 32;
    pins_per_fpga = 24;
    route = { Tiers.default_options with Tiers.max_extra_slots = 0 };
  }

(* ---- Worker pool: the Msched_par.Pool contract run_batch relies on. ---- *)

(* A map over [tasks] on [pool], results in task order; also counts how
   often each index ran. *)
let pool_map pool f tasks =
  let n = Array.length tasks in
  let out = Array.make n None in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  Pool.run pool ~n (fun ~worker i ->
      if worker < 0 || worker >= Pool.jobs pool then
        failwith (Printf.sprintf "worker id %d outside the pool" worker);
      Atomic.incr runs.(i);
      out.(i) <- Some (f tasks.(i)));
  (Array.map Option.get out, Array.map Atomic.get runs)

let test_pool_deterministic_map () =
  let tasks = Array.init 100 (fun i -> i) in
  let f x = (x * 37) mod 101 in
  let seq, seq_runs = Pool.with_pool ~jobs:1 (fun p -> pool_map p f tasks) in
  let par, par_runs = Pool.with_pool ~jobs:4 (fun p -> pool_map p f tasks) in
  Alcotest.(check (array int)) "parallel map equals sequential" seq par;
  Alcotest.(check (array int)) "jobs=1 ran every task once"
    (Array.make 100 1) seq_runs;
  Alcotest.(check (array int)) "jobs=4 ran every task once"
    (Array.make 100 1) par_runs

let test_pool_propagates_exceptions () =
  let tasks = Array.init 8 (fun i -> i) in
  Pool.with_pool ~jobs:3 (fun pool ->
      match
        pool_map pool (fun i -> if i = 5 then failwith "boom" else i) tasks
      with
      | _ -> Alcotest.fail "expected the worker exception to re-raise"
      | exception Failure m ->
          Alcotest.(check string) "exception carried" "boom" m)

let test_pool_first_exception_wins () =
  (* Several tasks fail; the caller must always see the exception of the
     LOWEST task index, independent of which domain ran it or in what
     order the domains finished — and with the worker's backtrace, not
     the re-raise site's.  One pool serves all rounds, so a failed batch
     must also leave it usable.  Repeat to stress interleavings. *)
  Printexc.record_backtrace true;
  let tasks = Array.init 32 (fun i -> i) in
  Pool.with_pool ~jobs:4 (fun pool ->
      for round = 0 to 19 do
        match
          pool_map pool
            (fun i ->
              (* Backtrace recording is per-domain in OCaml 5: enable it in
                 the worker so the pool captures a non-empty trace to
                 re-install. *)
              Printexc.record_backtrace true;
              if i mod 7 = 3 then failwith (Printf.sprintf "task-%d" i) else i)
            tasks
        with
        | _ -> Alcotest.fail "expected a worker exception"
        | exception Failure m ->
            (* Read the backtrace before any other call can clobber the
               per-domain buffer. *)
            let bt = String.trim (Printexc.get_backtrace ()) in
            Alcotest.(check string)
              (Printf.sprintf "round %d: first failing task (index 3) wins"
                 round)
              "task-3" m;
            Alcotest.(check bool)
              (Printf.sprintf "round %d: worker backtrace preserved" round)
              true (bt <> "")
      done)

(* ---- Determinism: jobs=4 byte-identical to jobs=1 over >= 30 designs. ---- *)

let corpus () =
  (* 3 size classes x 11 seeds = 33 designs. *)
  let specs = [ (6, 2); (10, 3); (14, 4) ] in
  List.concat_map
    (fun (modules, domains) ->
      List.init 11 (fun i ->
          let seed = 300 + (13 * modules) + i in
          let path = Printf.sprintf "corpus/m%d-d%d-s%d.mnl" modules domains seed in
          (path, design_text ~seed ~modules ~domains)))
    specs

let jobs_of corpus =
  List.mapi (fun index (path, text) -> Server.job_of_text ~index ~path text) corpus

let records batch =
  Array.to_list (Array.map Server.record_json batch.Server.b_results)

let test_batch_determinism () =
  let corpus = corpus () in
  Alcotest.(check bool) "corpus is >= 30 designs" true (List.length corpus >= 30);
  let b1 = Server.run_batch ~jobs:1 Server.default_settings (jobs_of corpus) in
  let b4 = Server.run_batch ~jobs:4 Server.default_settings (jobs_of corpus) in
  (* Byte-identical per-design records: same schedules, lengths, Hz,
     attempt ladders and diagnostics — the whole msched-driver-1 document
     (options.verify is on, so success also means verifier-clean). *)
  List.iteri
    (fun i (r1, r4) ->
      Alcotest.(check string)
        (Printf.sprintf "record %d identical across worker counts" i)
        r1 r4)
    (List.combine (records b1) (records b4));
  (* The corpus must actually compile (not vacuous identical failures). *)
  let compiled =
    Array.fold_left
      (fun n r -> if r.Server.r_exit = 0 then n + 1 else n)
      0 b4.Server.b_results
  in
  Alcotest.(check bool)
    (Printf.sprintf "most designs compiled (%d/%d)" compiled
       (List.length corpus))
    true
    (compiled > List.length corpus / 2);
  Alcotest.(check int) "exit code identical" (Server.exit_code b1)
    (Server.exit_code b4)

(* ---- Reroute cache: round-trip, warm-from-disk, corruption. ---- *)

let test_reroute_round_trip () =
  let nl = design ~seed:517 ~modules:30 ~domains:3 in
  let ctx = Reroute.create () in
  let r =
    Compile.compile_resilient ~options:tight_options ~max_retries:2
      ~fallback_hard:true ~reroute:ctx nl
  in
  Alcotest.(check bool) "congested design recovered" true (Compile.succeeded r);
  Alcotest.(check bool) "ledger non-trivial" true (Reroute.ledger_size ctx > 0);
  let s1 = Reroute.to_json_string ctx in
  match Reroute.of_json_string s1 with
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
  | Ok ctx2 ->
      Alcotest.(check string) "canonical re-serialization byte-identical" s1
        (Reroute.to_json_string ctx2);
      Alcotest.(check int) "ledger size preserved" (Reroute.ledger_size ctx)
        (Reroute.ledger_size ctx2);
      Alcotest.(check int) "history total preserved"
        (Reroute.history_total ctx)
        (Reroute.history_total ctx2);
      Alcotest.(check int) "forced-hard set preserved"
        (Reroute.forced_hard_count ctx)
        (Reroute.forced_hard_count ctx2);
      (* Stats are per-run state: a deserialized context starts clean. *)
      Alcotest.(check int) "stats reset on load" 0 (Reroute.reused ctx2)

let labels r = List.map (fun a -> a.Compile.attempt_label) r.Compile.attempts

let hz r =
  match r.Compile.degradation.Compile.achieved_hz with
  | None -> 0.0
  | Some hz -> hz

let check_clean name r =
  match r.Compile.compiled with
  | None -> ()
  | Some c ->
      Alcotest.(check bool) (name ^ ": verifier clean") true
        (Verify.is_clean
           (Compile.verify_schedule c.Compile.prepared c.Compile.schedule))

let test_warm_from_disk_equivalent () =
  let nl = design ~seed:517 ~modules:30 ~domains:3 in
  let run ctx =
    Compile.compile_resilient ~options:tight_options ~max_retries:2
      ~fallback_hard:true ~reroute:ctx nl
  in
  (* First run learns; its context is both kept in-process and persisted. *)
  let c_mem = Reroute.create () in
  let r0 = run c_mem in
  Alcotest.(check bool) "first run succeeded" true (Compile.succeeded r0);
  let serialized = Reroute.to_json_string c_mem in
  let c_disk =
    match Reroute.of_json_string serialized with
    | Ok c -> c
    | Error msg -> Alcotest.failf "deserialize failed: %s" msg
  in
  (* Re-run warm twice: once against the in-process context, once against
     the disk round-tripped one.  Outcomes must match exactly. *)
  let r_mem = run c_mem in
  let r_disk = run c_disk in
  Alcotest.(check (list string)) "same attempt ladder" (labels r_mem)
    (labels r_disk);
  Alcotest.(check (float 0.0)) "same emulation frequency" (hz r_mem) (hz r_disk);
  Alcotest.(check bool) "disk-warm replayed the ledger" true
    (r_disk.Compile.degradation.Compile.reused_transports > 0);
  check_clean "disk-warm" r_disk;
  check_clean "in-process warm" r_mem

let test_corrupt_cache_degrades_cold () =
  let dir = fresh_dir () in
  let text = design_text ~seed:611 ~modules:10 ~domains:2 in
  let options = Server.default_settings.Server.s_options in
  let key = Cache.key ~text ~options in
  (* A truncated document: parseable prefix, invalid JSON overall. *)
  let nl = design ~seed:611 ~modules:10 ~domains:2 in
  let ctx = Reroute.create () in
  ignore (Compile.compile_resilient ~reroute:ctx nl);
  let whole = Reroute.to_json_string ctx in
  let oc = open_out (Cache.file ~dir ~key) in
  output_string oc (String.sub whole 0 (String.length whole / 2));
  close_out oc;
  (match Cache.load ~dir ~key with
  | Cache.Corrupt d ->
      Alcotest.(check string) "corruption carries E_CACHE" "E_CACHE"
        (Diag.code_name d.Diag.code);
      Alcotest.(check bool) "warning, not error" false (Diag.is_error d)
  | Cache.Hit _ -> Alcotest.fail "truncated cache file accepted"
  | Cache.Miss -> Alcotest.fail "truncated cache file invisible");
  (* End to end: the job still compiles, reports cache=corrupt, and
     surfaces the warning in its record. *)
  let settings =
    { Server.default_settings with Server.s_cache_dir = Some dir }
  in
  let job = Server.job_of_text ~index:0 ~path:"corrupt-test.mnl" text in
  let batch = Server.run_batch ~jobs:1 settings [ job ] in
  let r = batch.Server.b_results.(0) in
  Alcotest.(check string) "status corrupt" "corrupt"
    (Server.cache_status_name r.Server.r_cache);
  Alcotest.(check int) "job still compiled" 0 r.Server.r_exit;
  Alcotest.(check bool) "E_CACHE diagnostic surfaced" true
    (List.exists (fun d -> d.Diag.code = Diag.E_CACHE) r.Server.r_diags);
  Alcotest.(check bool) "record mentions corrupt cache" true
    (let json = Server.record_json r in
     let needle = "\"cache\":\"corrupt\"" in
     let n = String.length json and m = String.length needle in
     let rec find i = i + m <= n && (String.sub json i m = needle || find (i + 1)) in
     find 0);
  (* The corrupt entry was overwritten by the successful run: next load is
     a hit. *)
  match Cache.load ~dir ~key with
  | Cache.Hit _ -> ()
  | _ -> Alcotest.fail "cache not repaired after successful compile"

let test_cache_spans_processes_effort () =
  (* Warm-from-cache must not change results but must skip search work:
     strictly fewer pathfinder expansions than the cold run of the same
     congested design (the per-process analogue of test_reroute's
     warm-vs-cold differential). *)
  let dir = fresh_dir () in
  let text = Serial.to_string (design ~seed:517 ~modules:30 ~domains:3) in
  let settings =
    {
      Server.default_settings with
      Server.s_options = tight_options;
      s_max_retries = 2;
      s_fallback_hard = true;
      s_cache_dir = Some dir;
    }
  in
  let job = Server.job_of_text ~index:0 ~path:"congested.mnl" text in
  let run () = Server.run_batch ~jobs:1 settings [ job ] in
  let cold = (run ()).Server.b_results.(0) in
  let warm = (run ()).Server.b_results.(0) in
  Alcotest.(check string) "cold then warm"
    "cold/warm"
    (Server.cache_status_name cold.Server.r_cache
    ^ "/"
    ^ Server.cache_status_name warm.Server.r_cache);
  let resilient r =
    match r.Server.r_resilient with
    | Some res -> res
    | None -> Alcotest.fail "job did not reach the driver"
  in
  let total_expansions r =
    List.fold_left
      (fun acc a -> acc + a.Compile.attempt_expansions)
      0 (resilient r).Compile.attempts
  in
  Alcotest.(check (float 0.0)) "same Hz from disk-warm start"
    (hz (resilient cold))
    (hz (resilient warm));
  Alcotest.(check bool) "disk-warm run searches strictly less" true
    (total_expansions warm < total_expansions cold);
  Alcotest.(check bool) "disk-warm run replays the ledger" true
    ((resilient warm).Compile.degradation.Compile.reused_transports > 0)

let test_cache_truncation_sweep () =
  (* Exhaustive torn-write simulation: for EVERY strict prefix of a small
     entry, a load must degrade (Corrupt, with the E_CACHE warning) — never
     accept the prefix as a Hit, never raise.  The fsync-before-rename in
     [store] is what keeps real crashes from publishing such prefixes; this
     sweep proves the reader is safe even if one appears. *)
  let dir = fresh_dir () in
  let key = Cache.hash_hex "truncation-sweep" in
  let whole = Reroute.to_json_string (Reroute.create ()) in
  let path = Cache.file ~dir ~key in
  for len = 0 to String.length whole - 1 do
    let oc = open_out_bin path in
    output_string oc (String.sub whole 0 len);
    close_out oc;
    match Cache.load ~dir ~key with
    | Cache.Corrupt d ->
        Alcotest.(check string)
          (Printf.sprintf "prefix %d/%d carries E_CACHE" len
             (String.length whole))
          "E_CACHE"
          (Diag.code_name d.Diag.code)
    | Cache.Hit _ ->
        Alcotest.failf "truncated prefix %d/%d accepted as a hit" len
          (String.length whole)
    | Cache.Miss ->
        Alcotest.failf "truncated prefix %d/%d invisible" len
          (String.length whole)
  done;
  (* The full document (as [store] writes it) still loads. *)
  (match Cache.store ~dir ~key (Reroute.create ()) with
  | Ok () -> ()
  | Error d -> Alcotest.failf "store failed: %s" d.Diag.message);
  match Cache.load ~dir ~key with
  | Cache.Hit _ -> ()
  | _ -> Alcotest.fail "full entry no longer loads"

let test_cache_stats_and_gc () =
  let dir = fresh_dir () in
  let ctx = Reroute.create () in
  let keys = List.map Cache.hash_hex [ "gc-a"; "gc-b"; "gc-c" ] in
  List.iter
    (fun key ->
      match Cache.store ~dir ~key ctx with
      | Ok () -> ()
      | Error d -> Alcotest.failf "store failed: %s" d.Diag.message)
    keys;
  let k1, k2, k3 =
    match keys with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  let size = (Unix.stat (Cache.file ~dir ~key:k1)).Unix.st_size in
  let stats = Cache.stats ~dir in
  Alcotest.(check int) "stats counts entries" 3 stats.Cache.st_entries;
  Alcotest.(check int) "stats sums bytes" (3 * size) stats.Cache.st_bytes;
  (* Age the entries: k1 oldest, then k2, then k3. *)
  let now = Unix.gettimeofday () in
  let age key secs =
    let p = Cache.file ~dir ~key in
    Unix.utimes p (now -. secs) (now -. secs)
  in
  age k1 300.0;
  age k2 200.0;
  age k3 100.0;
  (* A load refreshes k1's mtime — it is now the MOST recently used, so a
     gc to two entries must evict k2 (the oldest remaining), proving that
     entries in active use survive the cap. *)
  (match Cache.load ~dir ~key:k1 with
  | Cache.Hit _ -> ()
  | _ -> Alcotest.fail "expected a hit on k1");
  let r = Cache.gc ~dir ~max_bytes:(2 * size) in
  Alcotest.(check int) "gc scanned all entries" 3 r.Cache.gc_scanned;
  Alcotest.(check int) "gc evicted exactly one" 1 r.Cache.gc_evicted;
  Alcotest.(check int) "gc bytes settle at the cap" (2 * size)
    r.Cache.gc_bytes_after;
  Alcotest.(check bool) "recently-loaded k1 survives" true
    (Sys.file_exists (Cache.file ~dir ~key:k1));
  Alcotest.(check bool) "LRU k2 evicted" false
    (Sys.file_exists (Cache.file ~dir ~key:k2));
  Alcotest.(check bool) "newer k3 survives" true
    (Sys.file_exists (Cache.file ~dir ~key:k3));
  (* Idempotent under the cap; cap 0 clears everything but the lock. *)
  let r2 = Cache.gc ~dir ~max_bytes:(2 * size) in
  Alcotest.(check int) "gc under cap evicts nothing" 0 r2.Cache.gc_evicted;
  let r3 = Cache.gc ~dir ~max_bytes:0 in
  Alcotest.(check int) "cap 0 clears the cache" 2 r3.Cache.gc_evicted;
  Alcotest.(check int) "cache empty after cap 0"
    0 (Cache.stats ~dir).Cache.st_entries

(* ---- Manifest sources. ---- *)

let test_manifest_sources () =
  let dir = fresh_dir () in
  let sub = Filename.concat dir "sub" in
  Cache.ensure_dir sub;
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  write (Filename.concat dir "b.mnl") "design b\n";
  write (Filename.concat dir "a.mnl") "design a\n";
  write (Filename.concat sub "c.mnl") "design c\n";
  write (Filename.concat dir "ignored.txt") "not a netlist\n";
  (match Manifest.load dir with
  | Error _ -> Alcotest.fail "directory scan failed"
  | Ok entries ->
      Alcotest.(check (list string))
        "recursive *.mnl scan, sorted"
        [
          Filename.concat dir "a.mnl";
          Filename.concat dir "b.mnl";
          Filename.concat sub "c.mnl";
        ]
        (List.map (fun e -> e.Manifest.e_path) entries));
  let manifest = Filename.concat dir "jobs.txt" in
  write manifest "# comment\na.mnl\n{\"path\":\"sub/c.mnl\"}\n\n";
  (match Manifest.load manifest with
  | Error _ -> Alcotest.fail "manifest parse failed"
  | Ok entries ->
      Alcotest.(check (list string))
        "paths resolve against the manifest directory"
        [ Filename.concat dir "a.mnl"; Filename.concat dir "sub/c.mnl" ]
        (List.map (fun e -> e.Manifest.e_path) entries));
  let bad = Filename.concat dir "bad.txt" in
  write bad "{\"nope\":1}\n{not json\n";
  match Manifest.load bad with
  | Ok _ -> Alcotest.fail "bad manifest accepted"
  | Error diags ->
      Alcotest.(check int) "one diagnostic per bad line" 2 (List.length diags);
      List.iter
        (fun d ->
          Alcotest.(check string) "manifest errors are E_PARSE" "E_PARSE"
            (Diag.code_name d.Diag.code))
        diags

let test_manifest_crlf_and_no_final_newline () =
  (* NDJSON manifests written on Windows (CRLF) or by tools that do not
     terminate the last line must parse identically to the canonical
     form.  [String.trim] strips the [\r] before both the comment check
     and the JSON parse; [input_line] yields the unterminated last line. *)
  let dir = fresh_dir () in
  let manifest = Filename.concat dir "jobs-crlf.txt" in
  let oc = open_out_bin manifest in
  (* CRLF throughout, comment and blank lines included, and NO newline
     after the final entry. *)
  output_string oc
    "# comment\r\na.mnl\r\n\r\n{\"path\":\"sub/c.mnl\"}\r\nlast.mnl";
  close_out oc;
  (match Manifest.load manifest with
  | Error diags ->
      Alcotest.failf "CRLF manifest rejected: %d diagnostics"
        (List.length diags)
  | Ok entries ->
      Alcotest.(check (list string))
        "CRLF + missing final newline parse to clean resolved paths"
        [
          Filename.concat dir "a.mnl";
          Filename.concat dir "sub/c.mnl";
          Filename.concat dir "last.mnl";
        ]
        (List.map (fun e -> e.Manifest.e_path) entries);
      (* No stray [\r] may survive into any resolved path. *)
      List.iter
        (fun e ->
          Alcotest.(check bool) "path free of carriage returns" false
            (String.contains e.Manifest.e_path '\r'))
        entries);
  (* A JSON line whose closing brace is followed only by [\r] must not
     trip the strict parser. *)
  let manifest2 = Filename.concat dir "jobs-crlf2.txt" in
  let oc = open_out_bin manifest2 in
  output_string oc "{\"path\":\"x.mnl\"}\r";
  close_out oc;
  match Manifest.load manifest2 with
  | Ok [ e ] ->
      Alcotest.(check string) "lone CR-terminated JSON line parses"
        (Filename.concat dir "x.mnl")
        e.Manifest.e_path
  | Ok _ -> Alcotest.fail "wrong entry count"
  | Error _ -> Alcotest.fail "CR-terminated JSON line rejected"

(* ---- Exit classes surface per job. ---- *)

let test_batch_exit_classes () =
  let jobs =
    [
      Server.job_of_text ~index:0 ~path:"good.mnl"
        (design_text ~seed:801 ~modules:6 ~domains:2);
      Server.job_of_text ~index:1 ~path:"broken.mnl" "design broken\nnet x\n";
    ]
  in
  let batch = Server.run_batch ~jobs:2 Server.default_settings jobs in
  Alcotest.(check int) "good job exit 0" 0 batch.Server.b_results.(0).Server.r_exit;
  Alcotest.(check int) "parse failure exit 3" 3
    batch.Server.b_results.(1).Server.r_exit;
  Alcotest.(check bool) "parse failure has no driver result" true
    (batch.Server.b_results.(1).Server.r_resilient = None);
  Alcotest.(check int) "batch exit is first failing class" 3
    (Server.exit_code batch)

(* ---- Mixed GALS corpus (ISSUE 6): workload families through the batch
   server at jobs=2, deterministic vs jobs=1, with per-job exit classes. ---- *)

let test_batch_gals_corpus () =
  let family_text seed =
    let d : Design_gen.design =
      match seed mod 3 with
      | 0 -> Design_gen.gals_islands ~seed ~islands:3 ~island_size:1 ()
      | 1 -> Design_gen.dense_crossing ~seed ~domains:5 ~density:0.3 ()
      | _ -> Design_gen.gated_memory_fabric ~seed ~banks:3 ~addr_bits:2 ()
    in
    (Printf.sprintf "corpus/%s-s%d.mnl" d.Design_gen.design_label seed,
     Serial.to_string d.Design_gen.netlist)
  in
  let corpus =
    List.init 9 (fun i -> family_text (700 + i))
    @ [ ("corpus/broken.mnl", "design broken\nnet x\n") ]
  in
  let jobs =
    List.mapi (fun index (path, text) -> Server.job_of_text ~index ~path text)
      corpus
  in
  let b1 = Server.run_batch ~jobs:1 Server.default_settings jobs in
  let b2 = Server.run_batch ~jobs:2 Server.default_settings jobs in
  List.iteri
    (fun i (r1, r2) ->
      Alcotest.(check string)
        (Printf.sprintf "family record %d identical at jobs=2" i)
        r1 r2)
    (List.combine (records b1) (records b2));
  (* Every well-formed family design compiles (exit 0, verifier on); the
     seeded broken text fails in the malformed-input class (exit 3). *)
  Array.iteri
    (fun i r ->
      let expected = if i < 9 then 0 else 3 in
      Alcotest.(check int)
        (Printf.sprintf "job %d (%s) exit class" i r.Server.r_job.Server.j_path)
        expected r.Server.r_exit)
    b2.Server.b_results;
  Alcotest.(check int) "batch exit is the parse-failure class" 3
    (Server.exit_code b2)

let suite =
  [
    Alcotest.test_case "pool: parallel map deterministic" `Quick
      test_pool_deterministic_map;
    Alcotest.test_case "pool: worker exceptions re-raise" `Quick
      test_pool_propagates_exceptions;
    Alcotest.test_case "pool: first failing task wins, backtrace kept" `Quick
      test_pool_first_exception_wins;
    Alcotest.test_case "batch: jobs=4 byte-identical to jobs=1 (33 designs)"
      `Slow test_batch_determinism;
    Alcotest.test_case "reroute cache: serialize/deserialize round-trip"
      `Quick test_reroute_round_trip;
    Alcotest.test_case "reroute cache: disk-warm equivalent to in-process warm"
      `Quick test_warm_from_disk_equivalent;
    Alcotest.test_case "reroute cache: corrupt file degrades to cold" `Quick
      test_corrupt_cache_degrades_cold;
    Alcotest.test_case "reroute cache: warm spans processes, less search"
      `Quick test_cache_spans_processes_effort;
    Alcotest.test_case "cache: truncated-at-every-byte sweep" `Quick
      test_cache_truncation_sweep;
    Alcotest.test_case "cache: stats and LRU gc respect active use" `Quick
      test_cache_stats_and_gc;
    Alcotest.test_case "manifest: dir scan and file entries" `Quick
      test_manifest_sources;
    Alcotest.test_case "manifest: CRLF and missing final newline" `Quick
      test_manifest_crlf_and_no_final_newline;
    Alcotest.test_case "batch: per-job exit classes" `Quick
      test_batch_exit_classes;
    Alcotest.test_case "batch: mixed GALS corpus at jobs=2" `Slow
      test_batch_gals_corpus;
  ]
