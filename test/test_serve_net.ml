(* Chaos suite for the hardened concurrent serve: real sockets, real
   worker domains, injected faults.  Every scenario must end in a
   documented E_* diagnostic and exit class — never a hang, a lost
   response, or a dead server:

   - concurrent clients over Unix-domain and TCP sockets
   - slow / hung / crashing jobs (poison requests, --inject-faults only)
   - deadlines: cancelled-in-queue and abandoned-while-running (E_TIMEOUT)
   - backpressure: shed (E_OVERLOAD) and block policies on a full queue
   - worker crash recovery (domain reaped, replacement spawned)
   - hung-worker replacement after the grace period
   - malformed and oversized frames, mid-request client disconnects
   - graceful drain with zero lost in-flight responses; abort escalation
   - cache LRU eviction under a live server, result entries and
     manifests alike, and the summary's result-cache counts
   - server.* gauges sampled by the monitor, asserted against the faults
   - the stdio session behind `serve --stdin`, over pipes *)

module Diag = Msched_diag.Diag
module Sink = Msched_obs.Sink
module Serial = Msched_netlist.Serial
module Design_gen = Msched_gen.Design_gen
module Server = Msched_server.Server
module Cache = Msched_server.Cache
module Dispatch = Msched_server.Dispatch
module Transport = Msched_server.Transport

let good_text ?(seed = 901) () =
  Serial.to_string
    (Design_gen.random_multidomain ~seed ~domains:2 ~modules:6
       ~mts_fraction:0.25 ())
      .Design_gen.netlist

let broken_text = "design broken\nnet x\n"

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "msched-serve-net-%d-%d" (Unix.getpid ()) !n)
    in
    Cache.ensure_dir dir;
    dir

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* ---- Server / client helpers. ---- *)

let config ?(address = Transport.Tcp ("127.0.0.1", 0)) ?(workers = 2)
    ?(queue_max = 64) ?(overload = Dispatch.Shed) ?(grace = 0.3) ?cache_dir
    ?cache_max_bytes ?(inject = false) ?max_frame ?(gc_interval = 0.2) () =
  {
    Transport.t_address = address;
    t_dispatch =
      {
        Dispatch.default_config with
        Dispatch.d_workers = workers;
        d_queue_max = queue_max;
        d_overload = overload;
        d_grace_s = grace;
      };
    t_settings =
      (match cache_dir with
      | None -> Server.default_settings
      | Some dir ->
          { Server.default_settings with Server.s_cache_dir = Some dir });
    t_inject_faults = inject;
    t_max_frame =
      (match max_frame with
      | Some n -> n
      | None -> Transport.default_config.Transport.t_max_frame);
    t_cache_max_bytes = cache_max_bytes;
    t_gc_interval_s = gc_interval;
    t_drain_timeout_s = 10.0;
    t_abort_timeout_s = 3.0;
  }

type client = { c_fd : Unix.file_descr; mutable c_carry : string }

let connect srv =
  match Transport.bound_address srv with
  | Transport.Tcp (_, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      { c_fd = fd; c_carry = "" }
  | Transport.Unix_path path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      { c_fd = fd; c_carry = "" }
  | Transport.Stdio _ -> invalid_arg "connect: a stdio server has no socket"

let send_raw c s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring c.c_fd s off (n - off))
  in
  go 0

let send c line = send_raw c (line ^ "\n")

(* One response line, or [None] on clean EOF.  Raises on timeout so a
   lost response fails the test instead of hanging it. *)
let recv ?(timeout_s = 30.0) c =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let chunk = Bytes.create 8192 in
  let rec go () =
    match String.index_opt c.c_carry '\n' with
    | Some i ->
        let line = String.sub c.c_carry 0 i in
        c.c_carry <-
          String.sub c.c_carry (i + 1) (String.length c.c_carry - i - 1);
        Some line
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then
          Alcotest.failf "timed out waiting for a response (carry=%S)"
            c.c_carry
        else begin
          match Unix.select [ c.c_fd ] [] [] (Float.min left 0.2) with
          | [], _, _ -> go ()
          | _ -> (
              match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
              | 0 ->
                  if c.c_carry <> "" then begin
                    let line = c.c_carry in
                    c.c_carry <- "";
                    Some line
                  end
                  else None
              | n ->
                  c.c_carry <- c.c_carry ^ Bytes.sub_string chunk 0 n;
                  go ()
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None)
        end
  in
  go ()

let close c = try Unix.close c.c_fd with Unix.Unix_error _ -> ()

let recv_exn ?timeout_s c =
  match recv ?timeout_s c with
  | Some line -> line
  | None -> Alcotest.fail "connection closed while expecting a response"

(* ---- Response dissection. ---- *)

let json line =
  match Diag.Json.parse line with
  | Ok v -> v
  | Error m -> Alcotest.failf "unparseable response %S: %s" line m

let str_mem k line = Option.bind (Diag.Json.mem k (json line)) Diag.Json.str
let int_mem k line = Option.bind (Diag.Json.mem k (json line)) Diag.Json.int

let schema line =
  match str_mem "schema" line with
  | Some s -> s
  | None -> Alcotest.failf "response without schema: %S" line

let exit_code line =
  match int_mem "exit_code" line with
  | Some e -> e
  | None -> Alcotest.failf "response without exit_code: %S" line

let diag_codes line =
  match
    Option.bind (Diag.Json.mem "diagnostics" (json line)) Diag.Json.arr
  with
  | None -> []
  | Some ds ->
      List.filter_map
        (fun d -> Option.bind (Diag.Json.mem "code" d) Diag.Json.str)
        ds

let check_failure ~what ~code ~exit line =
  Alcotest.(check string) (what ^ ": schema") "msched-batch-1" (schema line);
  Alcotest.(check int) (what ^ ": exit class") exit (exit_code line);
  Alcotest.(check bool)
    (Printf.sprintf "%s: carries %s (got %s)" what code
       (String.concat "," (diag_codes line)))
    true
    (List.mem code (diag_codes line))

let drain_and_wait srv =
  Transport.request_shutdown srv `Drain;
  Transport.wait srv

let gauge_of sink name =
  match List.assoc_opt name (Sink.gauges sink) with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "gauge %s never sampled" name

(* ---- Scenarios. ---- *)

let test_roundtrip_unix () =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "serve.sock" in
  let mnl = Filename.concat dir "good.mnl" in
  write_file mnl (good_text ());
  let srv = Transport.start (config ~address:(Transport.Unix_path sock) ()) in
  let c = connect srv in
  (* JSON path form with id; bare path form; inline text form. *)
  send c (Printf.sprintf {|{"path":%s,"id":"req-1"}|} (Diag.Json.string mnl));
  let r1 = recv_exn c in
  Alcotest.(check (option string)) "id echoed" (Some "req-1") (str_mem "id" r1);
  Alcotest.(check int) "path request compiles" 0 (exit_code r1);
  send c mnl;
  Alcotest.(check int) "bare path compiles" 0 (exit_code (recv_exn c));
  send c (Printf.sprintf {|{"text":%s}|} (Diag.Json.string (good_text ())));
  Alcotest.(check int) "inline text compiles" 0 (exit_code (recv_exn c));
  (* Broken design: per-request failure, connection stays usable. *)
  send c
    (Printf.sprintf {|{"text":%s,"id":"bad"}|} (Diag.Json.string broken_text));
  let rb = recv_exn c in
  Alcotest.(check int) "broken design exits 3" 3 (exit_code rb);
  Alcotest.(check (option string)) "failure echoes id" (Some "bad")
    (str_mem "id" rb);
  (* Shutdown op acks, the drain flushes the connection summary. *)
  send c {|{"op":"shutdown"}|};
  let ack = recv_exn c in
  Alcotest.(check string) "ctl ack schema" "msched-serve-ctl-1" (schema ack);
  let s = Transport.wait srv in
  let summary = recv_exn c in
  Alcotest.(check string) "connection summary schema" "msched-serve-conn-1"
    (schema summary);
  Alcotest.(check (option int)) "connection counted requests" (Some 4)
    (int_mem "requests" summary);
  Alcotest.(check (option int)) "connection counted errors" (Some 1)
    (int_mem "errors" summary);
  close c;
  Alcotest.(check bool) "clean drain" true s.Transport.sm_clean;
  Alcotest.(check int) "all submitted completed" 4
    s.Transport.sm_counters.Dispatch.c_completed;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists sock);
  let sj = Transport.summary_json s in
  Alcotest.(check string) "server summary schema" "msched-serve-summary-1"
    (schema sj);
  Alcotest.(check (option string)) "server summary drain verdict"
    (Some "clean") (str_mem "drain" sj)

let test_concurrent_clients () =
  let srv = Transport.start (config ~workers:4 ()) in
  let text = good_text () in
  let per_client = 3 and clients = 5 in
  let errors = Atomic.make 0 in
  let run_client ci =
    let c = connect srv in
    for r = 0 to per_client - 1 do
      let id = Printf.sprintf "c%d-r%d" ci r in
      let body = if r = per_client - 1 then broken_text else text in
      send c
        (Printf.sprintf {|{"text":%s,"id":%s}|} (Diag.Json.string body)
           (Diag.Json.string id));
      let resp = recv_exn c in
      if str_mem "id" resp <> Some id then Atomic.incr errors;
      let expect = if r = per_client - 1 then 3 else 0 in
      if exit_code resp <> expect then Atomic.incr errors
    done;
    close c
  in
  let threads = List.init clients (Thread.create run_client) in
  List.iter Thread.join threads;
  let s = drain_and_wait srv in
  Alcotest.(check int) "every response matched its request id and class" 0
    (Atomic.get errors);
  Alcotest.(check int) "all requests completed" (clients * per_client)
    s.Transport.sm_counters.Dispatch.c_completed;
  Alcotest.(check int) "connections counted" clients s.Transport.sm_connections;
  Alcotest.(check bool) "clean drain" true s.Transport.sm_clean

let test_timeout_and_hung_replacement () =
  let sink = Sink.create () in
  let srv =
    Transport.start ~sink (config ~workers:1 ~grace:0.3 ~inject:true ())
  in
  let c = connect srv in
  (* A hung job with a deadline: E_TIMEOUT (exit 7) comes back promptly
     even though the worker never returns. *)
  let t0 = Unix.gettimeofday () in
  send c {|{"poison":"hang","deadline_s":0.3,"id":"h1"}|};
  let r = recv_exn c in
  check_failure ~what:"hung request" ~code:"E_TIMEOUT" ~exit:7 r;
  Alcotest.(check bool) "timeout honoured promptly" true
    (Unix.gettimeofday () -. t0 < 5.0);
  (* After the grace period the monitor writes the hung worker off and
     spawns a replacement — the single-worker server must serve again. *)
  Thread.delay 0.6;
  send c
    (Printf.sprintf {|{"text":%s,"id":"after"}|}
       (Diag.Json.string (good_text ())));
  Alcotest.(check int) "replacement worker serves" 0 (exit_code (recv_exn c));
  (* A deadline that expires while QUEUED: hold the only worker, then a
     second client's request cannot start before its deadline. *)
  send c {|{"poison":"sleep=0.8","id":"s1"}|};
  let c2 = connect srv in
  Thread.delay 0.1;
  send c2
    (Printf.sprintf {|{"text":%s,"deadline_s":0.2,"id":"q1"}|}
       (Diag.Json.string (good_text ())));
  check_failure ~what:"queued past deadline" ~code:"E_TIMEOUT" ~exit:7
    (recv_exn c2);
  Alcotest.(check int) "held request still finishes" 0 (exit_code (recv_exn c));
  close c;
  close c2;
  (* Abort releases the genuinely hung worker (it polls the stopping
     flag); its domain is joined as a zombie. *)
  Transport.request_shutdown srv `Abort;
  let s = Transport.wait srv in
  let cnt = s.Transport.sm_counters in
  Alcotest.(check bool) "timeouts counted" true (cnt.Dispatch.c_timed_out >= 2);
  Alcotest.(check bool) "hung worker replaced" true
    (cnt.Dispatch.c_replaced >= 1);
  Alcotest.(check bool) "gauge server.timeouts tracks the faults" true
    (gauge_of sink "server.timeouts" >= 2);
  Alcotest.(check bool) "gauge server.replaced tracks the hang" true
    (gauge_of sink "server.replaced" >= 1)

let test_crash_recovery () =
  let sink = Sink.create () in
  let srv = Transport.start ~sink (config ~workers:2 ~inject:true ()) in
  let c = connect srv in
  send c {|{"poison":"crash","id":"boom"}|};
  let r = recv_exn c in
  check_failure ~what:"crashing request" ~code:"E_INTERNAL" ~exit:6 r;
  Alcotest.(check (option string)) "crash response echoes id" (Some "boom")
    (str_mem "id" r);
  (* The dead domain is reaped and replaced; the server keeps serving at
     full capacity. *)
  Thread.delay 0.2;
  send c
    (Printf.sprintf {|{"text":%s,"id":"after"}|}
       (Diag.Json.string (good_text ())));
  Alcotest.(check int) "server survives the crash" 0 (exit_code (recv_exn c));
  close c;
  let s = drain_and_wait srv in
  let cnt = s.Transport.sm_counters in
  Alcotest.(check int) "crash counted" 1 cnt.Dispatch.c_crashed;
  Alcotest.(check int) "dead domain reaped" 1 cnt.Dispatch.c_reaped;
  Alcotest.(check bool) "clean drain after crash" true s.Transport.sm_clean;
  Alcotest.(check int) "gauge server.crashes sampled" 1
    (gauge_of sink "server.crashes");
  Alcotest.(check int) "gauge server.reaped sampled" 1
    (gauge_of sink "server.reaped");
  Alcotest.(check bool) "gauge server.connections sampled" true
    (gauge_of sink "server.connections" >= 1)

let test_overload_shed () =
  let srv =
    Transport.start (config ~workers:1 ~queue_max:1 ~inject:true ())
  in
  let c1 = connect srv and c2 = connect srv and c3 = connect srv in
  (* Fill the worker, then the queue, then overflow. *)
  send c1 {|{"poison":"sleep=0.8","id":"busy"}|};
  Thread.delay 0.2;
  send c2 {|{"poison":"sleep=0.1","id":"queued"}|};
  Thread.delay 0.1;
  send c3
    (Printf.sprintf {|{"text":%s,"id":"shed"}|}
       (Diag.Json.string (good_text ())));
  let r3 = recv_exn c3 in
  check_failure ~what:"overflow request" ~code:"E_OVERLOAD" ~exit:8 r3;
  Alcotest.(check (option string)) "shed response echoes id" (Some "shed")
    (str_mem "id" r3);
  (* The two admitted requests still complete. *)
  Alcotest.(check int) "busy request completes" 0 (exit_code (recv_exn c1));
  Alcotest.(check int) "queued request completes" 0 (exit_code (recv_exn c2));
  List.iter close [ c1; c2; c3 ];
  let s = drain_and_wait srv in
  Alcotest.(check bool) "shed counted" true
    (s.Transport.sm_counters.Dispatch.c_rejected >= 1);
  Alcotest.(check int) "admitted requests completed" 2
    s.Transport.sm_counters.Dispatch.c_completed

let test_overload_block_deadline () =
  let srv =
    Transport.start
      (config ~workers:1 ~queue_max:1 ~overload:Dispatch.Block ~inject:true ())
  in
  let c1 = connect srv and c2 = connect srv and c3 = connect srv in
  send c1 {|{"poison":"sleep=0.7","id":"busy"}|};
  Thread.delay 0.2;
  send c2 {|{"poison":"sleep=0.1","id":"queued"}|};
  Thread.delay 0.1;
  (* Block policy: the submitter waits for space, but its deadline expires
     first — E_TIMEOUT, not E_OVERLOAD. *)
  send c3
    (Printf.sprintf {|{"text":%s,"deadline_s":0.15,"id":"blocked"}|}
       (Diag.Json.string (good_text ())));
  check_failure ~what:"blocked past deadline" ~code:"E_TIMEOUT" ~exit:7
    (recv_exn c3);
  Alcotest.(check int) "busy request completes" 0 (exit_code (recv_exn c1));
  Alcotest.(check int) "queued request completes" 0 (exit_code (recv_exn c2));
  List.iter close [ c1; c2; c3 ];
  ignore (drain_and_wait srv)

let test_malformed_frames () =
  let srv = Transport.start (config ~max_frame:2048 ()) in
  let c = connect srv in
  let check_bad what line code exit =
    send c line;
    check_failure ~what ~code ~exit (recv_exn c)
  in
  check_bad "unparseable json" "{not json" "E_PARSE" 3;
  check_bad "unknown op" {|{"op":"bogus"}|} "E_PARSE" 3;
  check_bad "missing path/text" {|{"nope":1}|} "E_PARSE" 3;
  check_bad "both path and text" {|{"path":"a","text":"b"}|} "E_PARSE" 3;
  check_bad "bad poison spec" "poison:frobnicate" "E_PARSE" 3;
  (* Poison without --inject-faults: refused with its own class. *)
  check_bad "poison while injection disabled" "poison:crash" "E_UNSUPPORTED" 5;
  (* Oversized unterminated frame: answered, then the connection is
     closed on the server's terms. *)
  send_raw c (String.make 4096 'x');
  check_failure ~what:"oversized frame" ~code:"E_PARSE" ~exit:3 (recv_exn c);
  Alcotest.(check (option string)) "connection closed after frame error" None
    (recv c);
  close c;
  (* The server is still healthy for the next client. *)
  let c2 = connect srv in
  send c2 (Printf.sprintf {|{"text":%s}|} (Diag.Json.string (good_text ())));
  Alcotest.(check int) "server survives malformed traffic" 0
    (exit_code (recv_exn c2));
  close c2;
  let s = drain_and_wait srv in
  Alcotest.(check int) "frame error counted" 1 s.Transport.sm_frame_errors

let test_mid_request_disconnect () =
  let srv = Transport.start (config ~workers:1 ~inject:true ()) in
  (* Client vanishes while its request is in flight: the response write
     hits a dead socket; the server counts a disconnect and moves on. *)
  let c = connect srv in
  send c {|{"poison":"sleep=0.4","id":"gone"}|};
  close c;
  Thread.delay 0.8;
  let c2 = connect srv in
  send c2 (Printf.sprintf {|{"text":%s}|} (Diag.Json.string (good_text ())));
  Alcotest.(check int) "server unaffected by the disconnect" 0
    (exit_code (recv_exn c2));
  close c2;
  let s = drain_and_wait srv in
  Alcotest.(check bool) "disconnect counted" true (s.Transport.sm_disconnects >= 1);
  Alcotest.(check bool) "abandoned-by-client job still completed" true
    (s.Transport.sm_counters.Dispatch.c_completed >= 2)

let test_drain_zero_lost () =
  let srv = Transport.start (config ~workers:2 ()) in
  let text = good_text () in
  let clients = 4 and per_client = 2 in
  let completed = Atomic.make 0 and shed = Atomic.make 0 in
  let lost = Atomic.make 0 in
  let run_client ci =
    let c = connect srv in
    for r = 0 to per_client - 1 do
      send c
        (Printf.sprintf {|{"text":%s,"id":"c%d-%d"}|} (Diag.Json.string text)
           ci r)
    done;
    (* All requests are on the wire before the drain hits; every one must
       be answered — completed, or explicitly shed with E_OVERLOAD. *)
    for _ = 0 to per_client - 1 do
      match recv c with
      | None -> Atomic.incr lost
      | Some resp -> (
          match exit_code resp with
          | 0 -> Atomic.incr completed
          | 8 -> Atomic.incr shed
          | e -> Alcotest.failf "unexpected exit class %d during drain" e)
    done;
    (* The drain still flushes this connection's summary. *)
    (match recv c with
    | Some line ->
        if schema line <> "msched-serve-conn-1" then Atomic.incr lost
    | None -> Atomic.incr lost);
    close c
  in
  let threads = List.init clients (Thread.create run_client) in
  Thread.delay 0.05;
  let s = drain_and_wait srv in
  List.iter Thread.join threads;
  Alcotest.(check int) "zero lost responses" 0 (Atomic.get lost);
  Alcotest.(check int) "every request answered" (clients * per_client)
    (Atomic.get completed + Atomic.get shed);
  Alcotest.(check int) "server accounting matches the wire"
    (clients * per_client)
    (s.Transport.sm_counters.Dispatch.c_completed
    + s.Transport.sm_counters.Dispatch.c_rejected);
  Alcotest.(check bool) "clean drain" true s.Transport.sm_clean

let test_abort_during_drain () =
  let srv = Transport.start (config ~workers:1 ~inject:true ()) in
  let c = connect srv in
  (* A hung job with no deadline would hold a graceful drain open
     forever; escalating to abort must unstick it and still answer the
     client. *)
  send c {|{"poison":"hang","id":"stuck"}|};
  Thread.delay 0.2;
  Transport.request_shutdown srv `Drain;
  let waiter = Thread.create Transport.wait srv in
  Thread.delay 0.3;
  Transport.request_shutdown srv `Abort;
  (* The cooperative hang exits on the stopping flag and the request is
     answered (a compiled record or a structured failure — never
     silence). *)
  let r = recv_exn c in
  Alcotest.(check string) "stuck request answered" "msched-batch-1" (schema r);
  close c;
  Thread.join waiter

let test_cache_gc_under_serve () =
  let dir = fresh_dir () in
  (* Room for a couple of result entries (each about 7 KiB here) and
     manifests, far less than the eight designs store together
     (evictions > 0 below shows it). *)
  let cap = 16384 in
  let srv =
    Transport.start
      (config ~workers:2 ~cache_dir:dir ~cache_max_bytes:cap ~gc_interval:0.2 ())
  in
  let c = connect srv in
  (* Distinct designs, each storing a delta manifest and a compile
     result, the compile sent twice; the janitor must keep the directory
     under the cap while the server runs. *)
  List.iter
    (fun seed ->
      let text = Diag.Json.string (good_text ~seed ()) in
      List.iter
        (fun (what, request) ->
          send c request;
          Alcotest.(check int)
            (Printf.sprintf "design %d %s" seed what)
            0
            (exit_code (recv_exn c)))
        [
          ("delta compiles", Printf.sprintf {|{"op":"delta","text":%s}|} text);
          ("compiles", Printf.sprintf {|{"text":%s}|} text);
          ("repeat answers", Printf.sprintf {|{"text":%s}|} text);
        ])
    (List.init 8 (fun i -> 910 + i));
  Thread.delay 0.5;
  close c;
  let s = drain_and_wait srv in
  Alcotest.(check bool) "janitor evicted old entries" true
    (s.Transport.sm_evictions > 0);
  let stats = Cache.stats ~dir in
  Alcotest.(check bool)
    (Printf.sprintf "cache within cap after shutdown (%d bytes)"
       stats.Cache.st_bytes)
    true
    (stats.Cache.st_bytes <= cap);
  Alcotest.(check bool) "the newest result entries survive the cap" true
    (stats.Cache.st_results > 0)

(* The serve summary counts every msched-batch-1 response by its cache
   member, as the batch summary does: an identical repeat reads warm
   with the cold record's bytes, a refused frame reads off. *)
let test_summary_counts_cache () =
  let dir = fresh_dir () in
  let srv = Transport.start (config ~workers:2 ~cache_dir:dir ()) in
  let c = connect srv in
  let request =
    Printf.sprintf {|{"text":%s}|} (Diag.Json.string (good_text ()))
  in
  send c request;
  let first = recv_exn c in
  send c request;
  let second = recv_exn c in
  send c "{not json";
  check_failure ~what:"malformed line" ~code:"E_PARSE" ~exit:3 (recv_exn c);
  close c;
  let s = drain_and_wait srv in
  Alcotest.(check (option string)) "first compiles" (Some "cold")
    (str_mem "cache" first);
  Alcotest.(check (option string)) "repeat hits" (Some "warm")
    (str_mem "cache" second);
  let warm = {|"cache":"warm"|} in
  let at =
    let n = String.length warm in
    let rec find k =
      if k + n > String.length second then Alcotest.fail "no warm member"
      else if String.sub second k n = warm then k
      else find (k + 1)
    in
    find 0
  in
  Alcotest.(check string) "warm bytes == cold bytes, cache member aside"
    first
    (String.sub second 0 at ^ {|"cache":"cold"|}
    ^ String.sub second (at + String.length warm)
        (String.length second - at - String.length warm));
  Alcotest.(check (list (pair string int))) "summary cache counts"
    [ ("off", 1); ("cold", 1); ("warm", 1); ("corrupt", 0) ]
    (List.map
       (fun (st, n) -> (Server.cache_status_name st, n))
       s.Transport.sm_cache);
  let cache = Diag.Json.mem "cache" (json (Transport.summary_json s)) in
  Alcotest.(check (list (option int))) "summary line cache member"
    [ Some 1; Some 1; Some 1; Some 0 ]
    (List.map
       (fun k ->
         Option.bind (Option.bind cache (Diag.Json.mem k)) Diag.Json.int)
       [ "off"; "cold"; "warm"; "corrupt" ])

(* One worker, three clients with unequal backlogs: completion order must
   rotate the client lanes round-robin, not drain the flooder first.  A
   plug job holds the only worker while the lanes fill, so the enqueue
   order is fully deterministic. *)
let test_fairness_round_robin () =
  let released = Atomic.make false in
  let plug_running = Atomic.make false in
  let order_mu = Mutex.create () in
  let order = ref [] in
  let run ~stopping:_ = function
    | `Plug ->
        Atomic.set plug_running true;
        while not (Atomic.get released) do
          Thread.delay 0.002
        done
    | `Tag client ->
        Mutex.lock order_mu;
        order := client :: !order;
        Mutex.unlock order_mu
  in
  let disp =
    Dispatch.create { Dispatch.default_config with Dispatch.d_workers = 1 } run
  in
  let await cond what =
    let t_end = Unix.gettimeofday () +. 10.0 in
    while not (cond ()) do
      if Unix.gettimeofday () > t_end then
        Alcotest.failf "timed out waiting for %s" what;
      Thread.delay 0.002
    done
  in
  let submitters = ref [] in
  let submit_tagged client =
    let before = (Dispatch.counters disp).Dispatch.c_submitted in
    let th =
      Thread.create
        (fun () ->
          match Dispatch.submit ~client disp (`Tag client) with
          | Dispatch.Done () -> ()
          | _ -> ())
        ()
    in
    submitters := th :: !submitters;
    (* Serialize enqueue order: the next job is only submitted once this
       one is counted into its lane. *)
    await
      (fun () -> (Dispatch.counters disp).Dispatch.c_submitted > before)
      "submission"
  in
  let plug = Thread.create (fun () -> ignore (Dispatch.submit disp `Plug)) () in
  await (fun () -> Atomic.get plug_running) "the plug job to start";
  (* Client 1 floods; clients 2 and 3 trickle. *)
  List.iter submit_tagged [ 1; 1; 1; 1; 1; 1; 2; 2; 3; 3 ];
  Alcotest.(check bool) "three lanes seen at once" true
    ((Dispatch.counters disp).Dispatch.c_peak_lanes >= 3);
  Atomic.set released true;
  Thread.join plug;
  List.iter Thread.join !submitters;
  Alcotest.(check (list int))
    "lanes rotate: one job per client per round"
    [ 1; 2; 3; 1; 2; 3; 1; 1; 1; 1 ]
    (List.rev !order);
  ignore (Dispatch.drain disp)

(* The delta op over a real socket: a base compile announces its manifest
   key, a warm compile against that key reuses transports, and the
   schedule fingerprint equals the cold compile's — the warm≡cold witness
   asserted over the wire. *)
let test_delta_over_socket () =
  let dir = fresh_dir () in
  let srv = Transport.start (config ~workers:1 ~cache_dir:dir ()) in
  let c = connect srv in
  let base_text = good_text ~seed:931 () in
  let delta_field k line =
    Option.bind
      (Option.bind (Diag.Json.mem "delta" (json line)) (Diag.Json.mem k))
      Diag.Json.str
  in
  let delta_int k line =
    Option.bind
      (Option.bind (Diag.Json.mem "delta" (json line)) (Diag.Json.mem k))
      Diag.Json.int
  in
  send c
    (Printf.sprintf {|{"op":"delta","text":%s,"id":"base"}|}
       (Diag.Json.string base_text));
  let r0 = recv_exn c in
  Alcotest.(check string) "delta record schema" "msched-delta-1" (schema r0);
  Alcotest.(check int) "base compile succeeds" 0 (exit_code r0);
  Alcotest.(check (option string)) "no base requested" (Some "none")
    (str_mem "base" r0);
  let key =
    match str_mem "key" r0 with
    | Some k -> k
    | None -> Alcotest.fail "base compile announced no manifest key"
  in
  let edited =
    let nl =
      match Serial.of_string base_text with
      | Ok nl -> nl
      | Error m -> Alcotest.failf "base text does not parse: %s" m
    in
    let rec scan seed =
      if seed > 8 then Alcotest.fail "no applicable domain-flip edit"
      else
        match Msched_delta.Edit.apply ~seed Msched_delta.Edit.Flip_domain nl with
        | Ok (nl', _) -> Serial.to_string nl'
        | Error _ -> scan (seed + 1)
    in
    scan 0
  in
  send c
    (Printf.sprintf {|{"op":"delta","text":%s,"id":"cold"}|}
       (Diag.Json.string edited));
  let cold = recv_exn c in
  Alcotest.(check int) "cold compile succeeds" 0 (exit_code cold);
  send c
    (Printf.sprintf {|{"op":"delta","text":%s,"base":%s,"id":"warm"}|}
       (Diag.Json.string edited) (Diag.Json.string key));
  let warm = recv_exn c in
  Alcotest.(check int) "warm compile succeeds" 0 (exit_code warm);
  Alcotest.(check (option string)) "manifest loaded warm" (Some "warm")
    (str_mem "base" warm);
  Alcotest.(check (option string)) "warm schedule == cold schedule"
    (delta_field "schedule_fp" cold)
    (delta_field "schedule_fp" warm);
  Alcotest.(check bool) "cold request reused nothing" true
    (delta_int "reused" cold = Some 0);
  (* A bogus base key is a miss, not an error: the compile falls cold. *)
  send c
    (Printf.sprintf {|{"op":"delta","text":%s,"base":"no-such-key"}|}
       (Diag.Json.string edited));
  let missed = recv_exn c in
  Alcotest.(check (option string)) "unknown key misses" (Some "miss")
    (str_mem "base" missed);
  Alcotest.(check (option string)) "missed compile still matches cold"
    (delta_field "schedule_fp" cold)
    (delta_field "schedule_fp" missed);
  close c;
  let s = drain_and_wait srv in
  Alcotest.(check bool) "clean drain" true s.Transport.sm_clean

(* A delta [base] is a client-supplied cache key.  Anything but 16
   lowercase hex digits must miss without naming a path: each bad key
   below has a valid manifest planted where it would resolve (where the
   filesystem allows one), so reading it would answer "warm". *)
let test_delta_base_key_validated () =
  let dir = fresh_dir () in
  let srv = Transport.start (config ~workers:1 ~cache_dir:dir ()) in
  let c = connect srv in
  let fp line =
    Option.bind
      (Option.bind (Diag.Json.mem "delta" (json line))
         (Diag.Json.mem "schedule_fp"))
      Diag.Json.str
  in
  let text = good_text ~seed:933 () in
  send c
    (Printf.sprintf {|{"op":"delta","text":%s}|} (Diag.Json.string text));
  let cold = recv_exn c in
  Alcotest.(check int) "cold compile succeeds" 0 (exit_code cold);
  let key =
    match str_mem "key" cold with
    | Some k -> k
    | None -> Alcotest.fail "no manifest key announced"
  in
  let stored =
    In_channel.with_open_bin (Cache.manifest_file ~dir ~key)
      In_channel.input_all
  in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  let plant bad =
    let path = Cache.manifest_file ~dir ~key:bad in
    mkdir_p (Filename.dirname path);
    write_file path stored
  in
  List.iter
    (fun (what, bad, plantable) ->
      if plantable then plant bad;
      send c
        (Printf.sprintf {|{"op":"delta","text":%s,"base":%s}|}
           (Diag.Json.string text) (Diag.Json.string bad));
      let r = recv_exn c in
      Alcotest.(check int) (what ^ ": compiles") 0 (exit_code r);
      Alcotest.(check (option string)) (what ^ ": misses") (Some "miss")
        (str_mem "base" r);
      Alcotest.(check (option string))
        (what ^ ": schedule_fp of the cold compile")
        (fp cold) (fp r))
    [
      ("../x", "../x", true);
      ("/etc/passwd", "/etc/passwd", true);
      ("empty", "", true);
      ("uppercase hex", "0123456789ABCDEF", true);
      ("17 digits", key ^ "0", true);
      ("embedded NUL", String.sub key 0 8 ^ "\000" ^ String.sub key 9 7, false);
    ];
  send c
    (Printf.sprintf {|{"op":"delta","text":%s,"base":%s}|}
       (Diag.Json.string text) (Diag.Json.string key));
  Alcotest.(check (option string)) "the real key still loads" (Some "warm")
    (str_mem "base" (recv_exn c));
  close c;
  let s = drain_and_wait srv in
  Alcotest.(check bool) "clean drain" true s.Transport.sm_clean

(* A net driven twice is rejected by the builder in the middle of the
   parse.  Under a cache directory a delta request keys that text before
   it compiles; it must answer E_MALFORMED_NET at exit 3 on both ops, in a
   batch too, and never take its worker down. *)
let multi_driver_text =
  "design multi_driver\ndomain clk0\nnet 0 IN\nnet 1 X\nnet 2 Q\n\
   input IN 0 domain 0\ngate buf G1 1 0\ngate not G2 1 0\n\
   ff F0 2 1 dom 0\noutput Q 2\n"

let test_multi_driver_cached () =
  let dir = fresh_dir () in
  let srv = Transport.start (config ~workers:1 ~cache_dir:dir ()) in
  let c = connect srv in
  send c
    (Printf.sprintf {|{"text":%s,"id":"md"}|}
       (Diag.Json.string multi_driver_text));
  check_failure ~what:"cached multi-driver request" ~code:"E_MALFORMED_NET"
    ~exit:3 (recv_exn c);
  send c
    (Printf.sprintf {|{"op":"delta","text":%s,"id":"md-delta"}|}
       (Diag.Json.string multi_driver_text));
  let d = recv_exn c in
  Alcotest.(check string) "delta record" "msched-delta-1" (schema d);
  Alcotest.(check int) "delta exit class" 3 (exit_code d);
  Alcotest.(check bool) "delta carries E_MALFORMED_NET" true
    (List.mem "E_MALFORMED_NET" (diag_codes d));
  send c
    (Printf.sprintf {|{"text":%s,"id":"after"}|}
       (Diag.Json.string (good_text ())));
  Alcotest.(check int) "the worker still serves" 0 (exit_code (recv_exn c));
  close c;
  let s = drain_and_wait srv in
  Alcotest.(check int) "no worker crashed" 0
    s.Transport.sm_counters.Dispatch.c_crashed;
  let settings =
    { Server.default_settings with Server.s_cache_dir = Some dir }
  in
  let b =
    Server.run_batch ~jobs:1 settings
      [ Server.job_of_text ~index:0 ~path:"multi_driver.mnl" multi_driver_text ]
  in
  Alcotest.(check int) "cached batch record exit class" 3 (Server.exit_code b);
  Alcotest.(check int) "one record" 1 (Array.length b.Server.b_results)

(* A torn base manifest: the identity delta against it answers
   "corrupt" with an E_CACHE warning and the cold schedule, at exit 0,
   and its own store repairs the file. *)
let test_delta_corrupt_base () =
  let dir = fresh_dir () in
  let srv = Transport.start (config ~workers:1 ~cache_dir:dir ()) in
  let c = connect srv in
  let fp line =
    Option.bind
      (Option.bind (Diag.Json.mem "delta" (json line))
         (Diag.Json.mem "schedule_fp"))
      Diag.Json.str
  in
  let request =
    Printf.sprintf {|{"op":"delta","text":%s%s}|}
      (Diag.Json.string (good_text ~seed:935 ()))
  in
  send c (request "");
  let cold = recv_exn c in
  Alcotest.(check int) "cold compile succeeds" 0 (exit_code cold);
  let key =
    match str_mem "key" cold with
    | Some k -> k
    | None -> Alcotest.fail "no manifest key announced"
  in
  let path = Cache.manifest_file ~dir ~key in
  let whole = In_channel.with_open_bin path In_channel.input_all in
  write_file path (String.sub whole 0 (String.length whole / 2));
  send c (request (Printf.sprintf {|,"base":%s|} (Diag.Json.string key)));
  let r = recv_exn c in
  Alcotest.(check (option string)) "base reads corrupt" (Some "corrupt")
    (str_mem "base" r);
  Alcotest.(check bool) "carries E_CACHE" true
    (List.mem "E_CACHE" (diag_codes r));
  Alcotest.(check int) "exit 0" 0 (exit_code r);
  Alcotest.(check (option string)) "the cold schedule" (fp cold) (fp r);
  Alcotest.(check (option string)) "the same key" (Some key) (str_mem "key" r);
  (match Cache.load_manifest ~dir ~key with
  | Cache.M_hit _ -> ()
  | Cache.M_miss -> Alcotest.fail "repaired manifest missing"
  | Cache.M_corrupt _ -> Alcotest.fail "manifest not repaired");
  close c;
  let s = drain_and_wait srv in
  Alcotest.(check bool) "clean drain" true s.Transport.sm_clean

(* `serve --stdin` is one Transport session over a pair of fds (pipes
   here; stdin/stdout in the CLI): the socket grammar, responses in
   request order with ids echoed, the records a direct run_job produces,
   and the same conn + server summaries, with input EOF draining the
   server. *)
let test_stdio_session () =
  let dir = fresh_dir () in
  let mnl = Filename.concat dir "good.mnl" in
  let text = good_text () in
  write_file mnl text;
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let cfg = config ~address:(Transport.Stdio (req_r, resp_w)) () in
  let srv = Transport.start cfg in
  let requests =
    [
      mnl;
      Printf.sprintf {|{"path":%s,"id":"p1"}|} (Diag.Json.string mnl);
      Printf.sprintf {|{"text":%s}|} (Diag.Json.string text);
      Printf.sprintf {|{"op":"delta","text":%s,"id":"d1"}|}
        (Diag.Json.string text);
      "{not json";
      {|{"id":"x"}|};
    ]
  in
  (* Write from a thread: the session may block on a full response pipe
     until this test reads, whatever is left to write. *)
  let writer =
    Thread.create
      (fun () ->
        let w = { c_fd = req_w; c_carry = "" } in
        List.iter (send w) requests;
        close w)
      ()
  in
  let c = { c_fd = resp_r; c_carry = "" } in
  let responses = List.map (fun _ -> recv_exn c) requests in
  let conn = recv_exn c in
  Thread.join writer;
  (* Input EOF alone must start the drain; if it does not, the watchdog
     stops the server after 30 s so the test fails instead of hanging. *)
  let settled = Atomic.make false and fired = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let t_end = Unix.gettimeofday () +. 30.0 in
        while (not (Atomic.get settled)) && Unix.gettimeofday () < t_end do
          Thread.delay 0.05
        done;
        if not (Atomic.get settled) then begin
          Atomic.set fired true;
          Transport.request_shutdown srv `Abort
        end)
      ()
  in
  let s = Transport.wait srv in
  Atomic.set settled true;
  Thread.join watchdog;
  Alcotest.(check bool) "input EOF started the drain" false (Atomic.get fired);
  (* The transport leaves the caller's fds open: closing the write end
     shows nothing follows the conn summary. *)
  Unix.close resp_w;
  Alcotest.(check (option string)) "stream ends after the conn summary" None
    (recv c);
  close c;
  Unix.close req_r;
  let settings = cfg.Transport.t_settings in
  let compiled path =
    Server.record_json
      (Server.run_job settings ~epoch:0.0
         (Server.job_of_text ~index:0 ~path text))
  in
  match responses with
  | [ bare; with_id; inline; delta; malformed; no_source ] ->
      Alcotest.(check string) "bare path: the run_job record" (compiled mnl)
        bare;
      Alcotest.(check string) "path + id: the run_job record, id echoed"
        (Server.with_id (Some "p1") (compiled mnl))
        with_id;
      Alcotest.(check string) "inline text: the run_job record"
        (compiled "<inline>") inline;
      Alcotest.(check string) "delta op: the run_delta record, id echoed"
        (Server.with_id (Some "d1")
           (Server.delta_record_json
              (Server.run_delta settings
                 {
                   Server.dq_path = "<inline>";
                   dq_text = text;
                   dq_base = None;
                 })))
        delta;
      check_failure ~what:"malformed line" ~code:"E_PARSE" ~exit:3 malformed;
      check_failure ~what:"no path or text" ~code:"E_PARSE" ~exit:3 no_source;
      Alcotest.(check (option string)) "refused request echoes its id"
        (Some "x") (str_mem "id" no_source);
      Alcotest.(check string) "conn summary schema" "msched-serve-conn-1"
        (schema conn);
      Alcotest.(check (option int)) "conn counted every request" (Some 6)
        (int_mem "requests" conn);
      Alcotest.(check (option int)) "conn counted the failures" (Some 2)
        (int_mem "errors" conn);
      Alcotest.(check bool) "input EOF drains clean" true s.Transport.sm_clean;
      Alcotest.(check int) "one connection" 1 s.Transport.sm_connections;
      Alcotest.(check int) "four jobs completed" 4
        s.Transport.sm_counters.Dispatch.c_completed;
      Alcotest.(check (option string)) "server summary drain verdict"
        (Some "clean")
        (str_mem "drain" (Transport.summary_json s))
  | _ -> assert false

(* A finished job must wake its submitter at once, not on a poll tick:
   200 no-op jobs in sequence through a one-worker dispatcher, median
   submit-to-return under 0.3 ms (a 1 ms poll puts it near 1 ms).  Then
   50 jobs that each spin for 1 ms, so the submitter is already waiting
   when the job finishes.  Each job returns when it started and ended, and
   what is bounded is submit-to-return minus the job's own run time: a
   spin that overruns on a loaded host lengthens both alike, so only the
   hand-off is measured, with the same 0.3 ms of slack. *)
let test_dispatch_wakes_submitter () =
  let d =
    Dispatch.create
      { Dispatch.default_config with Dispatch.d_workers = 1 }
      (fun ~stopping:_ run_s ->
        let t_start = Unix.gettimeofday () in
        let t_end = t_start +. run_s in
        while Unix.gettimeofday () < t_end do
          ()
        done;
        (t_start, Unix.gettimeofday ()))
  in
  let median_overhead_ms ~jobs run_s =
    let times =
      Array.init jobs (fun _ ->
          let t0 = Unix.gettimeofday () in
          match Dispatch.submit d run_s with
          | Dispatch.Done (t_start, t_end) ->
              1000.0 *. (Unix.gettimeofday () -. t0 -. (t_end -. t_start))
          | _ -> Alcotest.fail "a job did not complete")
    in
    Array.sort Float.compare times;
    times.(jobs / 2)
  in
  let no_op = median_overhead_ms ~jobs:200 0.0 in
  let one_ms = median_overhead_ms ~jobs:50 0.001 in
  Alcotest.(check bool) "clean drain" true (Dispatch.drain d);
  if no_op >= 0.3 then
    Alcotest.failf
      "no-op jobs: median submit-to-return beyond the run %.3f ms, want < \
       0.3 ms"
      no_op;
  if one_ms >= 0.3 then
    Alcotest.failf
      "1 ms jobs: median submit-to-return beyond the run %.3f ms, want < \
       0.3 ms"
      one_ms

(* One `serve --stdin` session over pipes.  [feed] writes request bytes
   from a thread (the session may block on a full response pipe until the
   test reads); [finish] closes the input and returns the conn summary and
   the server summary that input EOF produces. *)
type stdio = {
  st_srv : Transport.t;
  st_req_r : Unix.file_descr;
  st_req_w : Unix.file_descr;
  st_resp_w : Unix.file_descr;
  st_resp : client;
}

let stdio_start ?max_frame ?cache_dir ?inject () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let srv =
    Transport.start
      (config ?max_frame ?cache_dir ?inject
         ~address:(Transport.Stdio (req_r, resp_w))
         ())
  in
  {
    st_srv = srv;
    st_req_r = req_r;
    st_req_w = req_w;
    st_resp_w = resp_w;
    st_resp = { c_fd = resp_r; c_carry = "" };
  }

let feed st data =
  Thread.create (fun () -> send_raw { c_fd = st.st_req_w; c_carry = "" } data) ()

let stdio_finish st =
  Unix.close st.st_req_w;
  let conn = recv_exn st.st_resp in
  let s = Transport.wait st.st_srv in
  Unix.close st.st_resp_w;
  Alcotest.(check (option string)) "stream ends after the conn summary" None
    (recv st.st_resp);
  close st.st_resp;
  Unix.close st.st_req_r;
  (conn, s)

(* A request that is one long bare path (ENAMETOOLONG) is answered
   exit 3 with a line under 4 KiB: the path is quoted once, capped, in
   [design] and in the message, and the OS error does not repeat it. *)
let test_long_path_echo_capped () =
  let path = String.make (1024 * 1024) 'p' in
  let st = stdio_start () in
  let writer = feed st (path ^ "\n") in
  let r = recv_exn st.st_resp in
  Thread.join writer;
  check_failure ~what:"1 MiB bare path" ~code:"E_PARSE" ~exit:3 r;
  if String.length r >= 4096 then
    Alcotest.failf "answer is %d bytes, want < 4096" (String.length r);
  let quoted = String.sub path 0 256 ^ "... (1048576 bytes)" in
  Alcotest.(check (option string)) "design: 256 bytes and the length"
    (Some quoted) (str_mem "design" r);
  let conn, s = stdio_finish st in
  Alcotest.(check (option int)) "one request, one error" (Some 1)
    (int_mem "errors" conn);
  Alcotest.(check bool) "input EOF drains clean" true s.Transport.sm_clean

(* Frame assembly is linear: one 4 MiB frame (the cap) costs at most 3x
   the same bytes sent as 64 frames of 64 KiB.  Each frame is a bare path
   too long to open, so every answer is a small exit-3 record and the
   time is framing.  Best of two rounds per shape. *)
let test_frame_at_cap_linear () =
  let cap = 4 * 1024 * 1024 in
  let st = stdio_start ~max_frame:cap () in
  let small = String.make (cap / 64) 's' in
  let big = String.make cap 'b' in
  let timed data frames =
    let t0 = Unix.gettimeofday () in
    let writer = feed st data in
    for _ = 1 to frames do
      let r = recv_exn ~timeout_s:60.0 st.st_resp in
      Alcotest.(check int) "too long to open: exit 3" 3 (exit_code r);
      if String.length r >= 4096 then
        Alcotest.failf "answer is %d bytes, want < 4096" (String.length r)
    done;
    Thread.join writer;
    Unix.gettimeofday () -. t0
  in
  let small_frames = String.concat "" (List.init 64 (fun _ -> small ^ "\n")) in
  let rounds =
    List.init 2 (fun _ ->
        let t_small = timed small_frames 64 in
        let t_big = timed (big ^ "\n") 1 in
        (t_small, t_big))
  in
  let best f = List.fold_left (fun m r -> Float.min m (f r)) infinity rounds in
  let t_small = best fst and t_big = best snd in
  let conn, s = stdio_finish st in
  Alcotest.(check (option int)) "every frame answered" (Some 130)
    (int_mem "requests" conn);
  Alcotest.(check int) "no frame error at the cap" 0
    s.Transport.sm_frame_errors;
  if t_big > 3.0 *. t_small then
    Alcotest.failf "one %d-byte frame took %.3f s, 64 frames of %d bytes %.3f s"
      cap t_big (cap / 64) t_small

(* A second [design] line starts a new design and forgets the first one's
   net ids: over [serve --stdin] the text answers E_PARSE "unknown net 0"
   at exit 3, and no worker crashes. *)
let design_reset_text =
  "design a\ndomain c\nnet 0 x\ndesign b\ndomain c\ninput i 0 domain 0\n\
   output o 0\n"

let test_design_reset_no_crash () =
  let st = stdio_start () in
  let request id text =
    Printf.sprintf {|{"text":%s,"id":"%s"}|} (Diag.Json.string text) id ^ "\n"
  in
  let writer = feed st (request "reset" design_reset_text) in
  let r = recv_exn st.st_resp in
  Thread.join writer;
  check_failure ~what:"second design line" ~code:"E_PARSE" ~exit:3 r;
  let writer = feed st (request "after" (good_text ())) in
  Alcotest.(check int) "the worker still serves" 0 (exit_code (recv_exn st.st_resp));
  Thread.join writer;
  let _conn, s = stdio_finish st in
  Alcotest.(check int) "no worker crashed" 0
    s.Transport.sm_counters.Dispatch.c_crashed

(* A signal handler runs at a safepoint of whichever thread it
   interrupts, perhaps one holding the server's lock, so a shutdown
   requested from one must take no lock.  A stdio session answers 40
   compile requests while SIGUSR1 arrives every 0.2 ms from a thread that
   blocks it (so other threads take it, as they take an external
   SIGTERM), each handled by a drain request.  Every request is answered
   once, compiled (exit 0) or shed once the drain began (exit 8); the
   conn summary follows and the drain is clean.  A handler that takes
   the lock fails here only when a signal lands inside a locked region,
   so a pass does not prove the absence of the lock, only the drain. *)
let test_signal_shutdown () =
  let dir = fresh_dir () in
  let mnl = Filename.concat dir "good.mnl" in
  write_file mnl (good_text ());
  let n = 40 in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  (* Every request is in the pipe, and the input closed, before the
     session starts. *)
  let input = { c_fd = req_w; c_carry = "" } in
  send_raw input (String.concat "" (List.init n (fun _ -> mnl ^ "\n")));
  close input;
  let srv =
    Transport.start (config ~address:(Transport.Stdio (req_r, resp_w)) ())
  in
  let handled = Atomic.make 0 in
  let previous =
    Sys.signal Sys.sigusr1
      (Sys.Signal_handle
         (fun _ ->
           Atomic.incr handled;
           Transport.request_shutdown srv `Drain))
  in
  let stop = Atomic.make false in
  let storm =
    Thread.create
      (fun () ->
        ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigusr1 ]);
        while not (Atomic.get stop) do
          Unix.kill (Unix.getpid ()) Sys.sigusr1;
          Thread.delay 0.0002
        done)
      ()
  in
  let resp = { c_fd = resp_r; c_carry = "" } in
  let rec next () =
    try recv_exn ~timeout_s:10.0 resp
    with Unix.Unix_error (Unix.EINTR, _, _) -> next ()
  in
  let lines = Array.init (n + 1) (fun _ -> next ()) in
  let s = Transport.wait srv in
  Atomic.set stop true;
  Thread.join storm;
  Thread.delay 0.01;
  Sys.set_signal Sys.sigusr1 previous;
  Unix.close resp_w;
  close resp;
  Unix.close req_r;
  Alcotest.(check bool) "the handler ran" true (Atomic.get handled > 0);
  let answers = Array.sub lines 0 n in
  Array.iter
    (fun line ->
      match exit_code line with
      | 0 -> ()
      | 8 -> check_failure ~what:"shed" ~code:"E_OVERLOAD" ~exit:8 line
      | e -> Alcotest.failf "exit %d answering a compile: %s" e line)
    answers;
  let conn = lines.(n) in
  Alcotest.(check string) "conn summary" "msched-serve-conn-1" (schema conn);
  Alcotest.(check (option int)) "every request counted" (Some n)
    (int_mem "requests" conn);
  let shed =
    Array.fold_left (fun k l -> if exit_code l = 8 then k + 1 else k) 0 answers
  in
  Alcotest.(check int) "compiled + shed" n
    (s.Transport.sm_counters.Dispatch.c_completed + shed);
  Alcotest.(check bool) "clean drain" true s.Transport.sm_clean

(* The served request path, byte for byte: one `serve --stdin` session
   under a cache directory, with fault injection on, sends every kind of
   request line one at a time.  Each response line is pinned by its
   FNV-1a hash, with the design directory's name replaced by "<dir>" and
   the conn summary's [wall_s] removed; then the server summary's cache
   counts and completed jobs.  The hashes were printed by the server in
   which compile, delta and poison requests still took separate routes
   to their answers, and must not move.  The four compile records were
   re-recorded twice.  When the pathfinder gained its distance bound,
   each differed from its earlier line only in the attempt's
   "expansions" count (3 to 2 for the file, 6 to 4 for the inline
   text).  When lint began to report all dangling nets as one warning,
   each differed only in its E_DANGLING entries, now one, and in
   "lint_warnings", lower by the entries folded: the new hashes are those
   of the earlier lines with their per-net entries folded into the
   grouped warning.  When retry rungs stopped replaying routes, the four
   compile records and the poison record, each embedding a driver
   document, were re-recorded a third time: schema "msched-driver-2",
   without the attempts' "reused"/"ripped" and the degradation's
   "reused_transports"/"ripped_transports" members.  The new hashes are
   those of the earlier session's lines served with every rung cold,
   with those four members removed and the schema renamed. *)
let served_path_pins =
  [
    ("bare path (cold)", "608b37a0cee56b2b");
    ("path + id (warm)", "c9627611e0af181c");
    ("inline text (cold)", "b7157236d9923e3f");
    ("inline text again (warm)", "2f47418053a30bd6");
    ("delta, no base", "8b1913c87810f83e");
    ("delta on its base", "e3b6b32e3b23c110");
    ("missing file", "6aa02d853406dd4c");
    ("delta of a missing file", "6aa02d853406dd4c");
    ("path and text", "e6242c98f50d3230");
    ("unknown op", "6d2ff51d0ac63af8");
    ("malformed frame", "e6cb234452f99426");
    ("poison:sleep", "587431ac070fe3b7");
    ("malformed poison spec", "a06f5b172c8f4bf8");
    ("conn summary", "7dd21091e11b7ea5");
  ]

let replace_all ~sub ~by s =
  let n = String.length sub and b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_substring b s i (String.length s - i)
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* Drop the [,"wall_s":<number>] member, the one timing in a response. *)
let strip_wall_s line =
  let key = {|,"wall_s":|} in
  let n = String.length key in
  let rec find i =
    if i + n > String.length line then line
    else if String.sub line i n = key then
      let rec skip j =
        if j < String.length line && String.contains "0123456789.-+e" line.[j]
        then skip (j + 1)
        else j
      in
      let j = skip (i + n) in
      String.sub line 0 i ^ String.sub line j (String.length line - j)
    else find (i + 1)
  in
  find 0

let test_served_path_pins () =
  let src = fresh_dir () in
  let mnl = Filename.concat src "good.mnl" in
  write_file mnl (good_text ());
  let missing = Filename.concat src "missing.mnl" in
  let inline = good_text ~seed:902 () in
  let edited =
    let nl =
      match Serial.of_string inline with
      | Ok nl -> nl
      | Error m -> Alcotest.failf "inline text does not parse: %s" m
    in
    let rec scan seed =
      if seed > 8 then Alcotest.fail "no applicable domain-flip edit"
      else
        match Msched_delta.Edit.apply ~seed Msched_delta.Edit.Flip_domain nl with
        | Ok (nl', _) -> Serial.to_string nl'
        | Error _ -> scan (seed + 1)
    in
    scan 0
  in
  let st = stdio_start ~cache_dir:(fresh_dir ()) ~inject:true () in
  let ask line =
    let writer = feed st (line ^ "\n") in
    let r = recv_exn st.st_resp in
    Thread.join writer;
    r
  in
  let str = Diag.Json.string in
  let bare = ask mnl in
  let with_id = ask (Printf.sprintf {|{"path":%s,"id":"p1"}|} (str mnl)) in
  let text_cold = ask (Printf.sprintf {|{"text":%s}|} (str inline)) in
  let text_warm = ask (Printf.sprintf {|{"text":%s}|} (str inline)) in
  let delta0 =
    ask (Printf.sprintf {|{"op":"delta","text":%s,"id":"d0"}|} (str inline))
  in
  let key =
    match str_mem "key" delta0 with
    | Some k -> k
    | None -> Alcotest.fail "the delta answer announced no key"
  in
  let delta1 =
    ask
      (Printf.sprintf {|{"op":"delta","text":%s,"base":%s,"id":"d1"}|}
         (str edited) (str key))
  in
  let answers =
    [
      bare;
      with_id;
      text_cold;
      text_warm;
      delta0;
      delta1;
      ask missing;
      ask (Printf.sprintf {|{"op":"delta","path":%s}|} (str missing));
      ask
        (Printf.sprintf {|{"path":%s,"text":%s,"id":"both"}|} (str mnl)
           (str inline));
      ask {|{"op":"bogus","id":"op"}|};
      ask "{not json";
      ask "poison:sleep=0.01";
      ask "poison:frobnicate";
    ]
  in
  let conn, s = stdio_finish st in
  List.iter2
    (fun (what, want) line ->
      Alcotest.(check string) what want
        (Cache.hash_hex (strip_wall_s (replace_all ~sub:src ~by:"<dir>" line))))
    served_path_pins (answers @ [ conn ]);
  Alcotest.(check (list (pair string int))) "summary cache counts"
    [ ("off", 6); ("cold", 3); ("warm", 2); ("corrupt", 0) ]
    (List.map
       (fun (st, n) -> (Server.cache_status_name st, n))
       s.Transport.sm_cache);
  Alcotest.(check int) "jobs completed" 7
    s.Transport.sm_counters.Dispatch.c_completed;
  Alcotest.(check bool) "input EOF drains clean" true s.Transport.sm_clean

let suite =
  [
    Alcotest.test_case "serve: round-trip over a unix socket" `Quick
      test_roundtrip_unix;
    Alcotest.test_case "serve: concurrent clients over tcp" `Slow
      test_concurrent_clients;
    Alcotest.test_case "serve: deadlines + hung-worker replacement" `Quick
      test_timeout_and_hung_replacement;
    Alcotest.test_case "serve: worker crash is reaped and replaced" `Quick
      test_crash_recovery;
    Alcotest.test_case "serve: full queue sheds with E_OVERLOAD" `Quick
      test_overload_shed;
    Alcotest.test_case "serve: block policy still honours deadlines" `Quick
      test_overload_block_deadline;
    Alcotest.test_case "serve: malformed and oversized frames" `Quick
      test_malformed_frames;
    Alcotest.test_case "serve: mid-request client disconnect" `Quick
      test_mid_request_disconnect;
    Alcotest.test_case "serve: drain loses zero in-flight responses" `Quick
      test_drain_zero_lost;
    Alcotest.test_case "serve: abort escalation unsticks a hung drain" `Quick
      test_abort_during_drain;
    Alcotest.test_case "serve: cache LRU gc under live traffic" `Quick
      test_cache_gc_under_serve;
    Alcotest.test_case "serve: client lanes drain round-robin" `Quick
      test_fairness_round_robin;
    Alcotest.test_case "serve: delta op warm == cold over the wire" `Quick
      test_delta_over_socket;
    Alcotest.test_case "serve: delta base keys are validated" `Quick
      test_delta_base_key_validated;
    Alcotest.test_case "serve: cached multi-driver text is exit 3" `Quick
      test_multi_driver_cached;
    Alcotest.test_case "serve: stdin session speaks the socket grammar"
      `Quick test_stdio_session;
    Alcotest.test_case "serve: corrupt delta base compiles cold" `Quick
      test_delta_corrupt_base;
    Alcotest.test_case "serve: summary counts result-cache outcomes" `Quick
      test_summary_counts_cache;
    Alcotest.test_case "dispatch: a finished job wakes its submitter" `Quick
      test_dispatch_wakes_submitter;
    Alcotest.test_case "serve: a long bare path is echoed capped" `Quick
      test_long_path_echo_capped;
    Alcotest.test_case "serve: a frame at the cap costs linear time" `Quick
      test_frame_at_cap_linear;
    Alcotest.test_case "serve: a second design line is exit 3, not a crash"
      `Quick test_design_reset_no_crash;
    Alcotest.test_case "serve: served request path pins" `Quick
      test_served_path_pins;
    Alcotest.test_case "serve: a signal handler requests the drain" `Quick
      test_signal_shutdown;
  ]
