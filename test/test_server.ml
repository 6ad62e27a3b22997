(* Batch-compile server: the domain pool batches run on must keep its
   contract (every index once, lowest failing task re-raised with its
   backtrace), batch output must be deterministic (jobs=4 byte-identical
   to jobs=1 over a seeded corpus) and must not depend on a cache
   directory beyond each record's cache member (a result-cache hit is
   the cold record's bytes), and the cache must refuse torn or colliding
   entries (with the documented E_CACHE warning), evict
   least-recently-used entries and sweep the files older versions left
   behind. *)

module Ids = Msched_netlist.Ids
module Serial = Msched_netlist.Serial
module Tiers = Msched_route.Tiers
module Design_gen = Msched_gen.Design_gen
module Compile = Msched.Compile
module Diag = Msched_diag.Diag
module Pool = Msched_par.Pool
module Cache = Msched_server.Cache
module Manifest = Msched_server.Manifest
module Server = Msched_server.Server
module Transport = Msched_server.Transport

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
   rung fails and the ladder does real work. *)
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

let record_of a = Lazy.force a.Server.a_record

let records batch =
  Array.to_list (Array.map record_of batch.Server.b_results)

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
      (fun n a -> if a.Server.a_exit = 0 then n + 1 else n)
      0 b4.Server.b_results
  in
  Alcotest.(check bool)
    (Printf.sprintf "most designs compiled (%d/%d)" compiled
       (List.length corpus))
    true
    (compiled > List.length corpus / 2);
  Alcotest.(check int) "exit code identical" (Server.exit_code b1)
    (Server.exit_code b4)

(* ---- Result cache: a hit answers with the cold record's bytes. ---- *)

let index_of needle s =
  let n = String.length s and m = String.length needle in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = needle then Some i
    else go (i + 1)
  in
  go 0

(* A record's "cache" member, and the record without it. *)
let split_cache record =
  let cache =
    match Diag.Json.parse record with
    | Ok doc -> Option.bind (Diag.Json.mem "cache" doc) Diag.Json.str
    | Error m -> Alcotest.failf "unparseable record (%s): %s" m record
  in
  match cache with
  | None -> Alcotest.failf "record without a cache member: %s" record
  | Some c -> (
      let member = Printf.sprintf {|"cache":"%s",|} c in
      match index_of member record with
      | Some i ->
          ( c,
            String.sub record 0 i
            ^ String.sub record
                (i + String.length member)
                (String.length record - i - String.length member) )
      | None -> Alcotest.failf "cache member not found: %s" record)

(* serve_mix's settings: the congested ladder of [tight_options], two
   retries, fallback to hard mode. *)
let mix_settings cache_dir =
  {
    Server.default_settings with
    Server.s_options = tight_options;
    s_max_retries = 2;
    s_fallback_hard = true;
    s_cache_dir = cache_dir;
  }

let spec_text spec =
  match Design_gen.of_spec spec with
  | Ok d -> Serial.to_string d.Design_gen.netlist
  | Error d -> Alcotest.failf "bad spec %s: %s" spec d.Diag.message

let result_entries dir =
  List.filter
    (fun f -> String.length f > 7 && String.sub f 0 7 = "result-")
    (Array.to_list (Sys.readdir dir))

let test_batch_ignores_cache_dir () =
  (* Two runs over one directory and one without: the first stores, the
     second is answered from the entries, and all three agree byte for
     byte once the cache member is set aside.  The congested design
     stays degraded: under the deleted reroute cache, its second run
     replayed a relaxed schedule and flipped to ok.  One design per
     serve_mix family, at serve_mix settings, and a design that fails:
     failures are never stored, so it compiles cold both times. *)
  let corpus =
    [
      ( "design1.mnl",
        Serial.to_string
          (Design_gen.design1_like ~seed:101 ~scale:0.02 ()).Design_gen.netlist
      );
      ( "design2.mnl",
        Serial.to_string
          (Design_gen.design2_like ~seed:202 ~scale:0.02 ()).Design_gen.netlist
      );
      ("congested.mnl", design_text ~seed:517 ~modules:30 ~domains:3);
      ("random.mnl", spec_text "random:domains=3,modules=10,mts=0.20,seed=11");
      ("gals.mnl", spec_text "gals:islands=4,size=3,seed=12");
      ("dense.mnl", spec_text "dense:domains=8,density=0.20,seed=13");
      ("fabric.mnl", spec_text "fabric:banks=4,domains=3,seed=14");
      ("broken.mnl", "design broken\nnet x\n");
    ]
  in
  let jobs =
    List.mapi (fun index (path, text) -> Server.job_of_text ~index ~path text)
      corpus
  in
  let dir = fresh_dir () in
  let run ~jobs:n cache_dir =
    Server.run_batch ~jobs:n (mix_settings cache_dir) jobs
  in
  let first = run ~jobs:2 (Some dir) in
  let second = run ~jobs:2 (Some dir) in
  let uncached = run ~jobs:1 None in
  List.iteri
    (fun i ((a, b), c) ->
      let name = fst (List.nth corpus i) in
      let ca, ra = split_cache a and cb, rb = split_cache b
      and cc, rc = split_cache c in
      let stored = first.Server.b_results.(i).Server.a_exit = 0 in
      Alcotest.(check bool) (name ^ ": only the broken design fails")
        (name <> "broken.mnl") stored;
      Alcotest.(check string) (name ^ ": first run compiles") "cold" ca;
      Alcotest.(check string)
        (name ^ ": second run hits what was stored")
        (if stored then "warm" else "cold")
        cb;
      Alcotest.(check string) (name ^ ": no cache dir") "off" cc;
      Alcotest.(check string) (name ^ ": warm == cold") ra rb;
      Alcotest.(check string) (name ^ ": cold == uncached") ra rc)
    (List.combine
       (List.combine (records first) (records second))
       (records uncached));
  List.iter
    (fun b ->
      Alcotest.(check bool) "the congested record stays degraded" true
        (b.Server.b_results.(2).Server.a_status = `Degraded))
    [ first; second; uncached ];
  Alcotest.(check bool) "the summaries agree on ok/degraded/failed" true
    (List.map
       (fun a -> a.Server.a_status)
       (Array.to_list second.Server.b_results)
    = List.map
        (fun a -> a.Server.a_status)
        (Array.to_list first.Server.b_results));
  let compiled = List.length corpus - 1 in
  Alcotest.(check int) "one result entry per compiled design" compiled
    (List.length (result_entries dir));
  Alcotest.(check int) "no manifest or leftover written" compiled
    (Cache.stats ~dir).Cache.st_entries

(* The key covers the retry policy as well as the options: the same text
   under five policies in one directory never hits another's entry, and
   each policy's record equals its uncached one. *)
let test_result_policies_never_cross () =
  let dir = fresh_dir () in
  let job =
    Server.job_of_text ~index:0 ~path:"congested.mnl"
      (design_text ~seed:517 ~modules:30 ~domains:3)
  in
  let base = mix_settings None in
  let policies =
    [
      ("--retries 0", { base with Server.s_max_retries = 0 });
      ("--retries 2", { base with Server.s_fallback_hard = false });
      ("--retries 2 --fallback-hard --pins 24", base);
      ("--cold", { base with Server.s_reuse = false });
      ( "--pins 96",
        {
          base with
          Server.s_options = { tight_options with Compile.pins_per_fpga = 96 };
        } );
    ]
  in
  let answer s =
    Server.answer { s with Server.s_cache_dir = Some dir } ~epoch:0.0
      (Server.Compile job)
  in
  let uncached s =
    snd
      (split_cache
         (record_of (Server.answer s ~epoch:0.0 (Server.Compile job))))
  in
  let firsts =
    List.map
      (fun (name, s) ->
        let a = answer s in
        let c, r = split_cache (record_of a) in
        Alcotest.(check string) (name ^ ": no hit across policies") "cold" c;
        Alcotest.(check string) (name ^ ": the uncached record") (uncached s) r;
        a)
      policies
  in
  List.iter2
    (fun (name, s) first ->
      let c, r = split_cache (record_of (answer s)) in
      let expect = if first.Server.a_exit = 0 then "warm" else "cold" in
      Alcotest.(check string) (name ^ ": its own entry") expect c;
      Alcotest.(check string) (name ^ ": the same record")
        (snd (split_cache (record_of first)))
        r)
    policies firsts;
  Alcotest.(check int) "one entry per stored policy"
    (List.length (List.filter (fun a -> a.Server.a_exit = 0) firsts))
    (List.length (result_entries dir))

(* ---- Manifest cache: torn files, LRU eviction, leftover sweep. ---- *)

(* fig3 at weight 4: three blocks, a manifest of a few hundred bytes. *)
let small_manifest () =
  let options = { Compile.default_options with Compile.max_block_weight = 4 } in
  (Compile.compile_base ~options (Design_gen.fig3_latch ()).Design_gen.netlist)
    .Compile.base_manifest

let store_manifest ~dir ~key m =
  match Cache.store_manifest ~dir ~key m with
  | Ok () -> ()
  | Error d -> Alcotest.failf "store failed: %s" d.Diag.message

(* The smallest design that compiles: a result entry of under 1 KiB, so
   the sweep below can answer every prefix of it. *)
let tiny_text =
  "design tiny\ndomain clk0\nnet 0 a\nnet 1 q\ninput in0 0 domain 0\n\
   ff f0 1 0 dom 0\noutput o0 1\n"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* A record's members, parsed. *)
let members record =
  match Diag.Json.parse record with
  | Ok (Diag.Json.Obj m) -> m
  | _ -> Alcotest.failf "not a JSON object: %s" record

let test_cache_truncation_sweep () =
  (* Exhaustive torn-write simulation: for EVERY strict prefix of a
     manifest, a load must be reported corrupt (with the E_CACHE warning)
     — never accepted as a hit, never raise.  The fsync-before-rename in
     [store_manifest] is what keeps real crashes from publishing such
     prefixes; this sweep proves the reader is safe even if one appears. *)
  let dir = fresh_dir () in
  let key = Cache.hash_hex "truncation-sweep" in
  let m = small_manifest () in
  let whole = Msched_delta.Manifest.to_json_string m in
  let path = Cache.manifest_file ~dir ~key in
  for len = 0 to String.length whole - 1 do
    let oc = open_out_bin path in
    output_string oc (String.sub whole 0 len);
    close_out oc;
    match Cache.load_manifest ~dir ~key with
    | Cache.M_corrupt d ->
        Alcotest.(check string)
          (Printf.sprintf "prefix %d/%d carries E_CACHE" len
             (String.length whole))
          "E_CACHE"
          (Diag.code_name d.Diag.code)
    | Cache.M_hit _ ->
        Alcotest.failf "truncated prefix %d/%d accepted as a hit" len
          (String.length whole)
    | Cache.M_miss ->
        Alcotest.failf "truncated prefix %d/%d invisible" len
          (String.length whole)
  done;
  (* The full file (as [store_manifest] writes it) still loads. *)
  store_manifest ~dir ~key m;
  (match Cache.load_manifest ~dir ~key with
  | Cache.M_hit _ -> ()
  | _ -> Alcotest.fail "full manifest no longer loads");
  (* Result entries: every strict prefix, and one flipped byte in each
     region, answers "corrupt" with E_CACHE first in its diagnostics and
     otherwise the cold record; that answer's store repairs the entry,
     so the next identical request reads warm. *)
  let settings =
    { Server.default_settings with Server.s_cache_dir = Some dir }
  in
  let job = Server.job_of_text ~index:0 ~path:"tiny.mnl" tiny_text in
  let answer () = Server.answer settings ~epoch:0.0 (Server.Compile job) in
  let cold = answer () in
  let c, cold_rest = split_cache (record_of cold) in
  Alcotest.(check string) "first answer compiles" "cold" c;
  let path =
    Cache.result_file ~dir
      ~key:(Cache.result_key ~policy:(Server.policy settings) ~text:tiny_text)
  in
  let whole = read_file path in
  let cold_members = members cold_rest in
  let check_corrupt what bytes =
    write_file path bytes;
    let c, rest = split_cache (record_of (answer ())) in
    Alcotest.(check string) (what ^ ": corrupt") "corrupt" c;
    let m = members rest in
    (match
       (List.assoc "diagnostics" m, List.assoc "diagnostics" cold_members)
     with
    | Diag.Json.Arr (d :: ds), Diag.Json.Arr cold_ds ->
        Alcotest.(check (option string)) (what ^ ": E_CACHE first")
          (Some "E_CACHE")
          (Option.bind (Diag.Json.mem "code" d) Diag.Json.str);
        Alcotest.(check bool) (what ^ ": then the cold diagnostics") true
          (ds = cold_ds)
    | _ -> Alcotest.failf "%s: no E_CACHE diagnostic" what);
    Alcotest.(check bool) (what ^ ": otherwise the cold record") true
      (List.remove_assoc "diagnostics" m
      = List.remove_assoc "diagnostics" cold_members);
    let c, rest = split_cache (record_of (answer ())) in
    Alcotest.(check string) (what ^ ": repaired, then warm") "warm" c;
    Alcotest.(check string) (what ^ ": warm == cold") cold_rest rest
  in
  for len = 0 to String.length whole - 1 do
    check_corrupt
      (Printf.sprintf "result prefix %d/%d" len (String.length whole))
      (String.sub whole 0 len)
  done;
  let line_after i = String.index_from whole i '\n' + 1 in
  let policy_pos = line_after (line_after 0) in
  let text_pos = policy_pos + String.length (Server.policy settings) + 1 in
  let tail_pos = text_pos + String.length tiny_text + 1 in
  List.iter
    (fun (region, i) ->
      let b = Bytes.of_string whole in
      Bytes.set b i (Char.chr (Char.code whole.[i] lxor 1));
      check_corrupt ("flipped byte in the " ^ region) (Bytes.to_string b))
    [
      ("header checksum", String.length "msched-result-1 " + 3);
      ("policy", policy_pos + 2);
      ("text", text_pos + 3);
      ("record", tail_pos + 4);
    ];
  (* A valid entry under this request's key that holds another text (an
     FNV collision) or another policy is never served: a plain miss,
     whose store replaces it. *)
  let policy = Server.policy settings in
  let key = Cache.result_key ~policy ~text:tiny_text in
  let bogus_tail = {|"exit_code":0,"diagnostics":[],"result":null|} in
  List.iter
    (fun (what, policy', text') ->
      (match
         Cache.store_result ~dir ~key ~policy:policy' ~text:text' ~status:`Ok
           ~tail:(bogus_tail, 0, String.length bogus_tail)
       with
      | Ok () -> ()
      | Error d -> Alcotest.failf "store failed: %s" d.Diag.message);
      let a = answer () in
      let c, rest = split_cache (record_of a) in
      Alcotest.(check string) (what ^ ": a plain miss") "cold" c;
      Alcotest.(check string) (what ^ ": the cold record") cold_rest rest;
      Alcotest.(check string) (what ^ ": replaced, then warm") "warm"
        (fst (split_cache (record_of (answer ())))))
    [
      ("another text under the key", policy, tiny_text ^ "# collision\n");
      ("another policy under the key", policy ^ ";other", tiny_text);
    ]

let test_cache_stats_and_gc () =
  let dir = fresh_dir () in
  let m = small_manifest () in
  let keys = List.map Cache.hash_hex [ "gc-a"; "gc-b"; "gc-c" ] in
  List.iter (fun key -> store_manifest ~dir ~key m) keys;
  let k1, k2, k3 =
    match keys with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  let size = (Unix.stat (Cache.manifest_file ~dir ~key:k1)).Unix.st_size in
  let stats = Cache.stats ~dir in
  Alcotest.(check int) "stats counts entries" 3 stats.Cache.st_entries;
  Alcotest.(check int) "stats sums bytes" (3 * size) stats.Cache.st_bytes;
  (* Age the entries: k1 oldest, then k2, then k3. *)
  let now = Unix.gettimeofday () in
  let age key secs =
    let p = Cache.manifest_file ~dir ~key in
    Unix.utimes p (now -. secs) (now -. secs)
  in
  age k1 300.0;
  age k2 200.0;
  age k3 100.0;
  (* A load refreshes k1's mtime — it is now the MOST recently used, so a
     gc to two entries must evict k2 (the oldest remaining), proving that
     entries in active use survive the cap. *)
  (match Cache.load_manifest ~dir ~key:k1 with
  | Cache.M_hit _ -> ()
  | _ -> Alcotest.fail "expected a hit on k1");
  let r = Cache.gc ~dir ~max_bytes:(2 * size) in
  Alcotest.(check int) "gc scanned all entries" 3 r.Cache.gc_scanned;
  Alcotest.(check int) "gc evicted exactly one" 1 r.Cache.gc_evicted;
  Alcotest.(check int) "gc bytes settle at the cap" (2 * size)
    r.Cache.gc_bytes_after;
  let exists key = Sys.file_exists (Cache.manifest_file ~dir ~key) in
  Alcotest.(check bool) "recently-loaded k1 survives" true (exists k1);
  Alcotest.(check bool) "LRU k2 evicted" false (exists k2);
  Alcotest.(check bool) "newer k3 survives" true (exists k3);
  (* Idempotent under the cap; cap 0 clears everything but the lock. *)
  let r2 = Cache.gc ~dir ~max_bytes:(2 * size) in
  Alcotest.(check int) "gc under cap evicts nothing" 0 r2.Cache.gc_evicted;
  let r3 = Cache.gc ~dir ~max_bytes:0 in
  Alcotest.(check int) "cap 0 clears the cache" 2 r3.Cache.gc_evicted;
  Alcotest.(check int) "cache empty after cap 0"
    0 (Cache.stats ~dir).Cache.st_entries;
  (* Result entries share one LRU with manifests, and a hit refreshes
     its entry: with a manifest older than two results, the oldest result
     hit, a cap of two results evicts the manifest, and a cap of one
     evicts the result that was not hit. *)
  let policy = "policy" in
  let tail = {|"exit_code":0,"diagnostics":[],"result":null|} in
  let tail = (tail, 0, String.length tail) in
  let result_path text =
    Cache.result_file ~dir ~key:(Cache.result_key ~policy ~text)
  in
  List.iter
    (fun text ->
      match
        Cache.store_result ~dir ~key:(Cache.result_key ~policy ~text) ~policy
          ~text ~status:`Ok ~tail
      with
      | Ok () -> ()
      | Error d -> Alcotest.failf "store failed: %s" d.Diag.message)
    [ "text-a"; "text-b" ];
  store_manifest ~dir ~key:k1 m;
  let { Cache.st_entries; st_results; st_manifests; _ } = Cache.stats ~dir in
  Alcotest.(check (list int)) "stats: entries, results, manifests"
    [ 3; 2; 1 ]
    [ st_entries; st_results; st_manifests ];
  let rsize = (Unix.stat (result_path "text-a")).Unix.st_size in
  let age_path p secs = Unix.utimes p (now -. secs) (now -. secs) in
  age_path (Cache.manifest_file ~dir ~key:k1) 500.0;
  age_path (result_path "text-a") 400.0;
  age_path (result_path "text-b") 300.0;
  (match
     Cache.load_result ~dir ~key:(Cache.result_key ~policy ~text:"text-a")
       ~policy ~text:"text-a"
   with
  | Cache.R_hit _ -> ()
  | _ -> Alcotest.fail "expected a result hit on text-a");
  let r4 = Cache.gc ~dir ~max_bytes:(2 * rsize) in
  Alcotest.(check int) "the older manifest goes first" 1 r4.Cache.gc_evicted;
  Alcotest.(check bool) "manifest evicted" false (exists k1);
  let r5 = Cache.gc ~dir ~max_bytes:rsize in
  Alcotest.(check int) "then the result that was not hit" 1 r5.Cache.gc_evicted;
  Alcotest.(check bool) "the hit result survives" true
    (Sys.file_exists (result_path "text-a"));
  Alcotest.(check bool) "the other result evicted" false
    (Sys.file_exists (result_path "text-b"))

(* An msched-reroute-1 document as the deleted reroute cache stored it:
   one ledger entry, congestion history and a forced-hard link. *)
let reroute_doc =
  {|{"schema":"msched-reroute-1","checksum":"c193f395971f18bf","payload":{"ledger":[{"dir":"rev","net":3,"src":0,"dst":1,"dom":-1,"anchor":2,"len":3,"hops":[[4,5],[1,4]]}],"history":[[2,2],[5,1]],"forced":[[9,2,0]]}}|}

let test_gc_sweeps_leftovers () =
  (* Nothing reads reroute contexts or per-block ledger slices any more:
     gc deletes both, whatever their age, and keeps the live manifest. *)
  let dir = fresh_dir () in
  let live = Cache.hash_hex "live" and old = Cache.hash_hex "old" in
  store_manifest ~dir ~key:live (small_manifest ());
  let plant name text =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc text;
    close_out oc
  in
  plant ("reroute-" ^ old ^ ".json") (reroute_doc ^ "\n");
  plant (Printf.sprintf "block-%s-0.json" old) "{}\n";
  Alcotest.(check int) "three entries before gc" 3
    (Cache.stats ~dir).Cache.st_entries;
  let r = Cache.gc ~dir ~max_bytes:max_int in
  Alcotest.(check int) "both leftovers swept" 2 r.Cache.gc_orphans;
  Alcotest.(check int) "live manifest not evicted" 0 r.Cache.gc_evicted;
  Alcotest.(check (list string)) "only the manifest is left"
    [ Filename.basename (Cache.manifest_file ~dir ~key:live) ]
    (List.filter
       (fun f -> f <> ".msched-cache.lock")
       (Array.to_list (Sys.readdir dir)));
  match Cache.load_manifest ~dir ~key:live with
  | Cache.M_hit _ -> ()
  | _ -> Alcotest.fail "the live manifest must still load"

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
  Alcotest.(check int) "good job exit 0" 0
    batch.Server.b_results.(0).Server.a_exit;
  Alcotest.(check int) "parse failure exit 3" 3
    batch.Server.b_results.(1).Server.a_exit;
  Alcotest.(check bool) "parse failure has no driver result" true
    (match Diag.Json.parse (record_of batch.Server.b_results.(1)) with
    | Ok doc -> Diag.Json.mem "result" doc = Some Diag.Json.Null
    | Error _ -> false);
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
    (fun i a ->
      let expected = if i < 9 then 0 else 3 in
      Alcotest.(check int)
        (Printf.sprintf "job %d (%s) exit class" i (fst (List.nth corpus i)))
        expected a.Server.a_exit)
    b2.Server.b_results;
  Alcotest.(check int) "batch exit is the parse-failure class" 3
    (Server.exit_code b2)

(* design1 at scale 0.05, seed 1, answered with cold_compile's settings
   (weight 64, 96 pins, no retries), has 696 dangling nets.  Lint reports
   them as one warning, so its record stays under 2 KiB (885 bytes); one
   warning per net made it 106 126 bytes. *)
let test_record_one_dangling_warning () =
  let text =
    match Design_gen.of_spec "design1:scale=0.05,seed=1" with
    | Ok d -> Serial.to_string d.Design_gen.netlist
    | Error _ -> Alcotest.fail "design1 spec"
  in
  let settings =
    {
      Server.default_settings with
      Server.s_options =
        {
          Compile.default_options with
          Compile.max_block_weight = 64;
          pins_per_fpga = 96;
        };
      s_max_retries = 0;
    }
  in
  let a =
    Server.answer settings ~epoch:0.0
      (Server.Compile (Server.job_of_text ~index:0 ~path:"design1.mnl" text))
  in
  let record = record_of a in
  Alcotest.(check int) "compiles" 0 a.Server.a_exit;
  Alcotest.(check bool)
    (Printf.sprintf "record of %d bytes < 2 KiB" (String.length record))
    true
    (String.length record < 2048);
  let code = {|"code":"E_DANGLING"|} in
  let rec count rest =
    match index_of code rest with
    | None -> 0
    | Some i ->
        let from = i + String.length code in
        1 + count (String.sub rest from (String.length rest - from))
  in
  Alcotest.(check int) "one E_DANGLING" 1 (count record)

(* A [{"text": s}] frame carries [s] to the compile request byte for
   byte, whatever bytes it holds. *)
let prop_text_frame_roundtrip =
  QCheck.Test.make ~name:"parse_request {\"text\": s} is `Text s" ~count:300
    Test_diag.json_bytes (fun s ->
      match
        Transport.parse_request ~inject_faults:false
          (Printf.sprintf {|{"text":%s}|} (Diag.Json.string s))
      with
      | Transport.Q_job { q_work = `Compile (`Text t); q_id = None; _ } ->
          t = s
      | _ -> false)

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
    Alcotest.test_case
      "batch: records do not depend on the cache dir, except their cache \
       member"
      `Slow test_batch_ignores_cache_dir;
    Alcotest.test_case "batch: result entries never hit across policies"
      `Slow test_result_policies_never_cross;
    Alcotest.test_case "cache: gc sweeps reroute and block leftovers" `Quick
      test_gc_sweeps_leftovers;
    Alcotest.test_case "record: one dangling-net warning per design" `Quick
      test_record_one_dangling_warning;
    QCheck_alcotest.to_alcotest prop_text_frame_roundtrip;
  ]
