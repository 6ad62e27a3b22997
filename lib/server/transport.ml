(* Front end for `msched serve`: framed NDJSON over a Unix-domain or TCP
   stream socket, or one session over a pair of fds (stdin/stdout),
   dispatched onto the {!Dispatch} worker engine.

   Wire protocol (one request per line, one response line per request —
   docs/SERVER.md has the full grammar):

     path/to/design.mnl                      bare path
     {"path": "...", "id": "...", "deadline_s": 2.5}
     {"text": "design inline\n...", "id": "..."}
     {"op": "delta", "path"|"text": ..., "base"?: "<manifest key>"}
     {"op": "shutdown", "mode": "drain"|"abort"}
     poison:sleep=0.25 | poison:hang | poison:crash   (--inject-faults only)

   A compile, delta or poison line is one request ({!Q_job}).  The
   session turns its path or inline text into one [Server.request], a
   worker answers it with [Server.answer], the one executor [batch]
   uses too, and the session sends that answer's record, the request
   [id] spliced in when given: [msched-batch-1] for a compile (from the
   result cache when the server runs with a cache directory and the
   request repeats an earlier text byte for byte), [msched-delta-1] for
   a delta.  Failures carry the documented diagnostic codes — E_PARSE
   for malformed or oversized frames, E_OVERLOAD when shed, E_TIMEOUT
   on deadline, E_INTERNAL when a worker crashed on the job.
   Client EOF gets a [msched-serve-conn-1] summary line; the server's own
   [msched-serve-summary-1] is returned from {!wait} after shutdown.

   Threading: an accept thread (none for stdio), one sys-thread per client
   session, the Dispatch worker domains + monitor, and a janitor thread
   that enforces the cache size cap.  Sessions block inside
   {!Dispatch.submit}; all socket reads go through [select] with a short
   timeout so the stop flag is always honoured, and SIGPIPE is ignored so
   a client vanishing mid-response is a counted disconnect, not a process
   kill. *)

module Diag = Msched_diag.Diag
module Sink = Msched_obs.Sink

(* ---- Addresses. ---- *)

type address =
  | Unix_path of string
  | Tcp of string * int
  | Stdio of Unix.file_descr * Unix.file_descr

let address_name = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p
  | Stdio _ -> "stdio"

let parse_address s =
  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if String.length s > 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix_path (String.sub s 5 (String.length s - 5)))
  else if String.length s > 4 && String.sub s 0 4 = "tcp:" then
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | None -> bad "tcp address %S needs host:port" rest
    | Some i -> (
        let host = String.sub rest 0 i in
        let host = if host = "" then "127.0.0.1" else host in
        match int_of_string_opt (String.sub rest (i + 1) (String.length rest - i - 1)) with
        | Some port when port >= 0 && port < 65536 -> Ok (Tcp (host, port))
        | _ -> bad "invalid tcp port in %S" s)
  else if s <> "" then Ok (Unix_path s)
  else bad "empty listen address"

(* ---- Requests. ---- *)

type poison = Sleep of float | Hang | Crash

let poison_name = function
  | Sleep s -> Printf.sprintf "poison:sleep=%g" s
  | Hang -> "poison:hang"
  | Crash -> "poison:crash"

type source = [ `Path of string | `Text of string ]

type request =
  | Q_blank
  | Q_job of {
      q_work :
        [ `Compile of source
        | `Delta of source * string option
        | `Poison of poison ];
      q_id : string option;
      q_deadline_s : float option;
    }
  | Q_shutdown of [ `Drain | `Abort ]
  | Q_bad of { q_diag : Diag.t; q_id : string option }

let parse_poison_spec spec =
  if spec = "hang" then Some Hang
  else if spec = "crash" then Some Crash
  else
    match String.index_opt spec '=' with
    | Some i
      when String.sub spec 0 i = "sleep" ->
        Option.map
          (fun s -> Sleep (Float.max 0.0 s))
          (float_of_string_opt
             (String.sub spec (i + 1) (String.length spec - i - 1)))
    | _ -> None

let parse_request ~inject_faults line =
  let module J = Diag.Json in
  let line = String.trim line in
  let bad ?id d = Q_bad { q_diag = d; q_id = id } in
  let job ?id ?deadline work =
    Q_job { q_work = work; q_id = id; q_deadline_s = deadline }
  in
  let gate_poison p id deadline =
    if inject_faults then job ?id ?deadline (`Poison p)
    else
      bad ?id
        (Diag.error Diag.E_UNSUPPORTED
           "fault injection is disabled (start the server with \
            --inject-faults)")
  in
  if line = "" || line.[0] = '#' then Q_blank
  else if String.length line > 7 && String.sub line 0 7 = "poison:" then
    match parse_poison_spec (String.sub line 7 (String.length line - 7)) with
    | Some p -> gate_poison p None None
    | None ->
        bad (Diag.error Diag.E_PARSE "bad poison spec %S" (Server.echo line))
  else if line.[0] <> '{' then job (`Compile (`Path line))
  else
    match J.parse line with
    | Error msg -> bad (Diag.error Diag.E_PARSE "bad request frame: %s" msg)
    | Ok doc -> (
        let id = Option.bind (J.mem "id" doc) J.str in
        let deadline = Option.bind (J.mem "deadline_s" doc) J.num in
        let bad = bad ?id in
        let source what =
          match
            ( Option.bind (J.mem "path" doc) J.str,
              Option.bind (J.mem "text" doc) J.str )
          with
          | Some path, None -> Ok (`Path path)
          | None, Some text -> Ok (`Text text)
          | Some _, Some _ ->
              Error
                (Diag.error Diag.E_PARSE "%s has both \"path\" and \"text\""
                   what)
          | None, None ->
              Error
                (Diag.error Diag.E_PARSE
                   "%s needs a \"path\" or \"text\" member" what)
        in
        match Option.bind (J.mem "op" doc) J.str with
        | Some "shutdown" -> (
            match Option.bind (J.mem "mode" doc) J.str with
            | Some "abort" -> Q_shutdown `Abort
            | Some "drain" | None -> Q_shutdown `Drain
            | Some m ->
                bad
                  (Diag.error Diag.E_PARSE "unknown shutdown mode %S"
                     (Server.echo m)))
        | Some "delta" -> (
            match source "delta request" with
            | Ok src ->
                job ?id ?deadline
                  (`Delta (src, Option.bind (J.mem "base" doc) J.str))
            | Error d -> bad d)
        | Some op ->
            bad (Diag.error Diag.E_PARSE "unknown op %S" (Server.echo op))
        | None -> (
            match Option.bind (J.mem "poison" doc) J.str with
            | Some spec -> (
                match parse_poison_spec spec with
                | Some p -> gate_poison p id deadline
                | None ->
                    bad
                      (Diag.error Diag.E_PARSE "bad poison spec %S"
                         (Server.echo spec)))
            | None -> (
                match source "request" with
                | Ok src -> job ?id ?deadline (`Compile src)
                | Error d -> bad d)))

(* ---- Dispatcher payload. ---- *)

(* A structurally minimal design that lints clean: what poison jobs
   compile once their fault has played out, so every code path still
   produces a well-formed record. *)
let poison_design =
  "design poison\ndomain clk0\nnet 0 a\nnet 1 q\ninput in0 0 domain 0\n\
   ff f0 1 0 dom 0\noutput o0 1\n"

type payload = {
  p_epoch : float;  (** Submit time; the answer's queue wait starts here. *)
  p_label : string;
  p_work : [ `Request of Server.request | `Poison of poison ];
}

(* Compile, delta and poison jobs share the dispatcher, so they share its
   queue bound, deadlines and fairness lanes, and one executor answers
   them all.  The result-cache lookup runs here, on the worker, so a hit
   waits its turn like a compile. *)
let run_payload settings ~stopping payload =
  let request =
    match payload.p_work with
    | `Request r -> r
    | `Poison p ->
        (match p with
        | Crash -> failwith "injected fault: worker crash"
        | Sleep s ->
            let t_end = Unix.gettimeofday () +. s in
            while Unix.gettimeofday () < t_end && not (stopping ()) do
              Thread.delay 0.005
            done
        | Hang ->
            (* Hangs until [abort] raises the stopping flag; from the
               dispatcher's point of view this is a real stuck compile. *)
            while not (stopping ()) do
              Thread.delay 0.005
            done);
        Server.Compile
          (Server.job_of_text ~index:0 ~path:payload.p_label poison_design)
  in
  Server.answer settings ~epoch:payload.p_epoch request

(* ---- Server. ---- *)

type config = {
  t_address : address;
  t_dispatch : Dispatch.config;
  t_settings : Server.settings;
  t_inject_faults : bool;
  t_max_frame : int;
  t_cache_max_bytes : int option;
  t_gc_interval_s : float;
  t_drain_timeout_s : float;
  t_abort_timeout_s : float;
}

let default_config =
  {
    t_address = Unix_path "msched-serve.sock";
    t_dispatch = Dispatch.default_config;
    t_settings = Server.default_settings;
    t_inject_faults = false;
    t_max_frame = 8 * 1024 * 1024;
    t_cache_max_bytes = None;
    t_gc_interval_s = 5.0;
    t_drain_timeout_s = 30.0;
    t_abort_timeout_s = 2.0;
  }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr option;  (** [None] for {!Stdio}. *)
  bound : address;  (** Actual address (TCP port 0 resolved). *)
  disp : (payload, Server.answer) Dispatch.t;
  lock : Mutex.t;
  mutable sessions : Thread.t list;
  (* Counters are refs (not mutable fields) so the gauge probes handed to
     the dispatcher can close over them before this record exists. *)
  n_conns : int ref;
  n_disconnects : int ref;
  n_frame_errors : int ref;
  n_evicted : int ref;
  n_cache : int array;
      (** [msched-batch-1] responses sent, by [cache] member
          ({!cache_slot}). *)
  shutdown : [ `Drain | `Abort ] option Atomic.t;
      (** Escalates only: none, drain, abort. *)
  mutable stop_accept : bool;
  mutable stop_sessions : bool;
  mutable accept_thread : Thread.t option;
  mutable janitor : Thread.t option;
  t_start : float;
}

let locked srv f =
  Mutex.lock srv.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock srv.lock) f

let bound_address srv = srv.bound

exception Disconnect

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF | ETIMEDOUT | EAGAIN | EWOULDBLOCK), _, _)
        ->
          raise Disconnect
  in
  go 0

(* ---- Per-client session. ---- *)

type session_stats = {
  mutable ss_requests : int;
  mutable ss_ok : int;
  mutable ss_errors : int;
}

let conn_summary_json ss wall =
  let module J = Diag.Json in
  let b = Buffer.create 128 in
  let first = ref true in
  Buffer.add_char b '{';
  J.field b ~first "schema" (J.string "msched-serve-conn-1");
  J.field b ~first "requests" (string_of_int ss.ss_requests);
  J.field b ~first "ok" (string_of_int ss.ss_ok);
  J.field b ~first "errors" (string_of_int ss.ss_errors);
  J.field b ~first "wall_s" (Printf.sprintf "%.6f" wall);
  Buffer.add_char b '}';
  Buffer.contents b

let ctl_ack_json action =
  let module J = Diag.Json in
  Printf.sprintf "{\"schema\":\"msched-serve-ctl-1\",\"ok\":true,\"action\":%s}"
    (J.string action)

(* Escalate only: a drain can harden into an abort, never the reverse.
   A signal handler calls this, at a safepoint of whichever thread it
   interrupts, perhaps one holding [srv.lock]: so no lock, one
   compare-and-set. *)
let rec request_shutdown srv mode =
  let cur = Atomic.get srv.shutdown in
  let escalates =
    match (cur, mode) with None, _ | Some `Drain, `Abort -> true | _ -> false
  in
  if escalates && not (Atomic.compare_and_set srv.shutdown cur (Some mode))
  then request_shutdown srv mode

let cache_slot = function
  | Server.Cache_off -> 0
  | Server.Cache_cold -> 1
  | Server.Cache_warm -> 2
  | Server.Cache_corrupt -> 3

let count_cache srv status =
  let i = cache_slot status in
  locked srv (fun () -> srv.n_cache.(i) <- srv.n_cache.(i) + 1)

(* A request that never reached the driver: its record reads "off". *)
let emit_error srv ss emit ?id ~path diags =
  ss.ss_errors <- ss.ss_errors + 1;
  count_cache srv Server.Cache_off;
  emit (Server.error_record ?id ~path diags)

(* Submit one payload into this session's fairness lane and emit its
   response record; every job kind (compile, delta, poison) shares this
   path, so they share backpressure, deadlines and fairness. *)
let submit_and_emit srv ~client ss emit ~id ~deadline_s payload =
  match Dispatch.submit ~client ?deadline_s srv.disp payload with
  | Dispatch.Done a ->
      if a.Server.a_exit = 0 then ss.ss_ok <- ss.ss_ok + 1
      else ss.ss_errors <- ss.ss_errors + 1;
      Option.iter (count_cache srv) a.Server.a_cache;
      emit (Server.with_id id (Lazy.force a.Server.a_record))
  | Dispatch.Rejected d | Dispatch.Timed_out d | Dispatch.Crashed d ->
      emit_error srv ss emit ?id ~path:payload.p_label [ d ]

(* A compile or delta source becomes a [Server.request] in the session
   thread (a path is one file read), named as its answer names it: the
   path, or "<inline>".  The compile runs on a worker. *)
let server_request work =
  let source = match work with `Compile s | `Delta (s, _) -> s in
  let path = match source with `Path p -> p | `Text _ -> "<inline>" in
  let text =
    match source with
    | `Text text -> Ok text
    | `Path _ ->
        Result.map
          (fun job -> job.Server.j_text)
          (Server.job_of_file ~index:0 path)
  in
  match (text, work) with
  | Error d, _ -> Error (path, d)
  | Ok text, `Compile _ ->
      Ok (path, Server.Compile (Server.job_of_text ~index:0 ~path text))
  | Ok text, `Delta (_, base) ->
      Ok
        ( path,
          Server.Delta { Server.dq_path = path; dq_text = text; dq_base = base }
        )

let handle_request srv ~client ss emit line =
  match parse_request ~inject_faults:srv.cfg.t_inject_faults line with
  | Q_blank -> ()
  | Q_bad { q_diag; q_id } ->
      ss.ss_requests <- ss.ss_requests + 1;
      emit_error srv ss emit ?id:q_id ~path:"<request>" [ q_diag ]
  | Q_shutdown mode ->
      request_shutdown srv mode;
      emit (ctl_ack_json (match mode with `Drain -> "drain" | `Abort -> "abort"))
  | Q_job { q_work; q_id; q_deadline_s } -> (
      ss.ss_requests <- ss.ss_requests + 1;
      let submit label work =
        submit_and_emit srv ~client ss emit ~id:q_id ~deadline_s:q_deadline_s
          { p_epoch = Unix.gettimeofday (); p_label = label; p_work = work }
      in
      match q_work with
      | `Poison p -> submit (poison_name p) (`Poison p)
      | (`Compile _ | `Delta _) as work -> (
          match server_request work with
          | Ok (path, request) -> submit path (`Request request)
          | Error (path, d) -> emit_error srv ss emit ?id:q_id ~path [ d ]))

let session_main srv ~client ~input ~output =
  let t0 = Unix.gettimeofday () in
  let ss = { ss_requests = 0; ss_ok = 0; ss_errors = 0 } in
  let emit line = write_all output (line ^ "\n") in
  let chunk = Bytes.create 65536 in
  (* The unterminated tail: bytes read since the last newline. *)
  let partial = Buffer.create 8192 in
  let lines = Queue.create () in
  let eof = ref false in
  (* Split the [n] bytes just read into frames.  Only the new bytes are
     scanned for a newline and each byte is copied into [partial] at most
     once, so assembling a frame costs time linear in its length.  The
     frame cap applies to the unterminated tail. *)
  let absorb n =
    let rec newline i =
      if i = n || Bytes.unsafe_get chunk i = '\n' then i else newline (i + 1)
    in
    let rec split start =
      let i = newline start in
      if i = n then Buffer.add_subbytes partial chunk start (n - start)
      else begin
        if Buffer.length partial = 0 then
          Queue.add (Bytes.sub_string chunk start (i - start)) lines
        else begin
          Buffer.add_subbytes partial chunk start (i - start);
          Queue.add (Buffer.contents partial) lines;
          Buffer.reset partial
        end;
        split (i + 1)
      end
    in
    split 0;
    if Buffer.length partial > srv.cfg.t_max_frame then begin
      locked srv (fun () -> incr srv.n_frame_errors);
      ss.ss_requests <- ss.ss_requests + 1;
      emit_error srv ss emit ~path:"<request>"
        [
          Diag.error Diag.E_PARSE
            "request frame exceeds %d bytes without a newline; closing \
             connection"
            srv.cfg.t_max_frame;
        ];
      raise Disconnect
    end
  in
  (try
     let rec loop () =
       match Queue.take_opt lines with
       | Some line ->
           handle_request srv ~client ss emit line;
           loop ()
       | None ->
           if !eof then begin
             (* A truncated final frame (no newline before EOF) is still a
                request. *)
             if Buffer.length partial > 0 then begin
               let line = Buffer.contents partial in
               Buffer.reset partial;
               handle_request srv ~client ss emit line
             end
           end
           else if srv.stop_sessions then ()
           else begin
             (match Unix.select [ input ] [] [] 0.05 with
             | [], _, _ -> ()
             | _ -> (
                 match Unix.read input chunk 0 (Bytes.length chunk) with
                 | 0 -> eof := true
                 | n -> absorb n
                 | exception Unix.Unix_error ((ECONNRESET | EBADF), _, _) ->
                     raise Disconnect));
             loop ()
           end
     in
     loop ();
     emit (conn_summary_json ss (Unix.gettimeofday () -. t0))
   with
  | Disconnect -> locked srv (fun () -> incr srv.n_disconnects)
  | Unix.Unix_error _ -> locked srv (fun () -> incr srv.n_disconnects))

(* ---- Accept loop / janitor. ---- *)

let accept_loop srv listen_fd =
  while not srv.stop_accept do
    match Unix.select [ listen_fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept listen_fd with
        | fd, _ ->
            (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0
             with Unix.Unix_error _ -> ());
            (* The connection ordinal doubles as the session's fairness
               lane in the dispatcher (ids start at 1; lane 0 is the
               anonymous default). *)
            let client =
              locked srv (fun () ->
                  incr srv.n_conns;
                  !(srv.n_conns))
            in
            let th =
              Thread.create
                (fun fd ->
                  session_main srv ~client ~input:fd ~output:fd;
                  try Unix.close fd with Unix.Unix_error _ -> ())
                fd
            in
            locked srv (fun () -> srv.sessions <- th :: srv.sessions)
        | exception Unix.Unix_error _ -> ())
  done

let run_gc srv =
  match (srv.cfg.t_cache_max_bytes, srv.cfg.t_settings.Server.s_cache_dir) with
  | Some max_bytes, Some dir ->
      let r = Cache.gc ~dir ~max_bytes in
      if r.Cache.gc_evicted > 0 then
        locked srv (fun () ->
            srv.n_evicted := !(srv.n_evicted) + r.Cache.gc_evicted)
  | _ -> ()

let janitor_loop srv =
  let next = ref (Unix.gettimeofday () +. srv.cfg.t_gc_interval_s) in
  while not srv.stop_accept do
    Thread.delay 0.05;
    if Unix.gettimeofday () >= !next then begin
      run_gc srv;
      next := Unix.gettimeofday () +. srv.cfg.t_gc_interval_s
    end
  done

(* ---- Lifecycle. ---- *)

let listen_socket address =
  match address with
  | Unix_path path ->
      (* A stale socket file from a dead server would make bind fail;
         refuse to clobber anything that is not a socket. *)
      (match Unix.stat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ ->
          Diag.fail Diag.E_UNSUPPORTED
            "listen path %s exists and is not a socket" path
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (Some fd, address)
  | Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> Tcp (host, p)
        | _ -> address
      in
      (Some fd, bound)
  | Stdio _ -> (None, address)

let start ?sink cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (match cfg.t_settings.Server.s_cache_dir with
  | Some dir -> Cache.ensure_dir dir
  | None -> ());
  let listen_fd, bound = listen_socket cfg.t_address in
  let lock = Mutex.create () in
  let n_conns = ref 0
  and n_disconnects = ref 0
  and n_frame_errors = ref 0
  and n_evicted = ref 0 in
  let probe cell () =
    Mutex.lock lock;
    let v = float_of_int !cell in
    Mutex.unlock lock;
    v
  in
  let disp =
    Dispatch.create ?sink
      ~gauges:
        [
          ("server.cache_evictions", probe n_evicted);
          ("server.connections", probe n_conns);
          ("server.disconnects", probe n_disconnects);
          ("server.frame_errors", probe n_frame_errors);
        ]
      cfg.t_dispatch
      (run_payload cfg.t_settings)
  in
  let srv =
    {
      cfg;
      listen_fd;
      bound;
      disp;
      lock;
      sessions = [];
      n_conns;
      n_disconnects;
      n_frame_errors;
      n_evicted;
      n_cache = Array.make 4 0;
      shutdown = Atomic.make None;
      stop_accept = false;
      stop_sessions = false;
      accept_thread = None;
      janitor = None;
      t_start = Unix.gettimeofday ();
    }
  in
  run_gc srv;
  (match cfg.t_address with
  | Stdio (input, output) ->
      (* The caller's one session, over fds it keeps owning: however the
         session ends (EOF, a vanished reader, an oversized frame), the
         server has nobody left to serve and drains. *)
      locked srv (fun () -> incr srv.n_conns);
      srv.sessions <-
        [
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () -> request_shutdown srv `Drain)
                (fun () -> session_main srv ~client:1 ~input ~output))
            ();
        ]
  | Unix_path _ | Tcp _ ->
      srv.accept_thread <-
        Option.map (Thread.create (accept_loop srv)) listen_fd);
  srv.janitor <- Some (Thread.create janitor_loop srv);
  srv

type summary = {
  sm_counters : Dispatch.counters;
  sm_connections : int;
  sm_disconnects : int;
  sm_frame_errors : int;
  sm_evictions : int;
  sm_cache : (Server.cache_status * int) list;
  sm_wall_s : float;
  sm_clean : bool;
}

let summary_json s =
  let module J = Diag.Json in
  let c = s.sm_counters in
  let b = Buffer.create 256 in
  let first = ref true in
  Buffer.add_char b '{';
  J.field b ~first "schema" (J.string "msched-serve-summary-1");
  J.field b ~first "submitted" (string_of_int c.Dispatch.c_submitted);
  J.field b ~first "completed" (string_of_int c.Dispatch.c_completed);
  J.field b ~first "rejected" (string_of_int c.Dispatch.c_rejected);
  J.field b ~first "timed_out" (string_of_int c.Dispatch.c_timed_out);
  J.field b ~first "crashed" (string_of_int c.Dispatch.c_crashed);
  J.field b ~first "late_results" (string_of_int c.Dispatch.c_late);
  J.field b ~first "workers_reaped" (string_of_int c.Dispatch.c_reaped);
  J.field b ~first "workers_replaced" (string_of_int c.Dispatch.c_replaced);
  J.field b ~first "peak_queue_depth" (string_of_int c.Dispatch.c_peak_queue_depth);
  J.field b ~first "peak_inflight" (string_of_int c.Dispatch.c_peak_inflight);
  J.field b ~first "connections" (string_of_int s.sm_connections);
  J.field b ~first "disconnects" (string_of_int s.sm_disconnects);
  J.field b ~first "frame_errors" (string_of_int s.sm_frame_errors);
  J.field b ~first "cache_evictions" (string_of_int s.sm_evictions);
  J.field b ~first "cache"
    (Server.cache_counts_json (fun status -> List.assoc status s.sm_cache));
  J.field b ~first "wall_s" (Printf.sprintf "%.6f" s.sm_wall_s);
  J.field b ~first "drain"
    (J.string (if s.sm_clean then "clean" else "forced"));
  Buffer.add_char b '}';
  Buffer.contents b

let wait srv =
  (* Sit until someone asks for shutdown: a signal handler via
     {!request_shutdown}, or a client's {"op":"shutdown"}. *)
  let rec poll () =
    match Atomic.get srv.shutdown with
    | Some mode -> mode
    | None ->
        Thread.delay 0.05;
        poll ()
  in
  let mode = poll () in
  srv.stop_accept <- true;
  (* While a graceful drain runs, keep watching for escalation to abort
     (second SIGTERM / SIGINT): Dispatch.abort is safe to fire
     concurrently with the drain in progress and unsticks it. *)
  let drain_done = ref false in
  let escalated = ref false in
  let watcher =
    Thread.create
      (fun () ->
        while not !drain_done do
          Thread.delay 0.02;
          if
            mode = `Drain
            && (not !escalated)
            && Atomic.get srv.shutdown = Some `Abort
          then begin
            escalated := true;
            ignore (Dispatch.abort ~timeout_s:srv.cfg.t_abort_timeout_s srv.disp)
          end
        done)
      ()
  in
  let clean =
    match mode with
    | `Drain -> Dispatch.drain ~timeout_s:srv.cfg.t_drain_timeout_s srv.disp
    | `Abort -> Dispatch.abort ~timeout_s:srv.cfg.t_abort_timeout_s srv.disp
  in
  drain_done := true;
  Thread.join watcher;
  (* Every in-flight submit has now been answered; release the sessions
     (they flush their connection summaries and close) and the accept /
     janitor threads. *)
  srv.stop_sessions <- true;
  (match srv.accept_thread with Some t -> Thread.join t | None -> ());
  (match srv.janitor with Some t -> Thread.join t | None -> ());
  List.iter Thread.join (locked srv (fun () -> srv.sessions));
  (match srv.listen_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  (match srv.bound with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ | Stdio _ -> ());
  run_gc srv;
  let clean = clean && not !escalated in
  let counters = Dispatch.counters srv.disp in
  locked srv (fun () ->
      {
        sm_counters = counters;
        sm_connections = !(srv.n_conns);
        sm_disconnects = !(srv.n_disconnects);
        sm_frame_errors = !(srv.n_frame_errors);
        sm_evictions = !(srv.n_evicted);
        sm_cache =
          List.map
            (fun st -> (st, srv.n_cache.(cache_slot st)))
            Server.[ Cache_off; Cache_cold; Cache_warm; Cache_corrupt ];
        sm_wall_s = Unix.gettimeofday () -. srv.t_start;
        sm_clean = clean;
      })
