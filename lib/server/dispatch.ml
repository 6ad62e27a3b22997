(* Concurrent request dispatcher: the engine behind `msched serve`'s
   socket front end.  Session threads submit jobs into a bounded queue;
   a fixed set of worker domains drain it; a monitor thread watches the
   workers and is the sole writer of the observability sink.

   The failure semantics are the point (docs/SERVER.md has the state
   machine):

   - Backpressure: the queue is bounded.  When full, [Shed] answers
     E_OVERLOAD immediately; [Block] makes the submitter wait for space
     (still subject to its deadline).

   - Deadlines: every submit can carry one.  A request that expires while
     QUEUED is cancelled — no worker ever sees it.  One that expires while
     RUNNING is abandoned: the submitter gets E_TIMEOUT now, the worker
     keeps going (OCaml domains cannot be killed), and if it is still stuck
     after a grace period the monitor replaces the worker so capacity
     recovers.  A late result from an abandoned job is counted and dropped.

   - Crashes: a worker whose [run] raises answers the in-flight job with an
     E_INTERNAL diagnostic and lets its domain die.  The monitor reaps the
     dead domain and spawns a replacement, so one poisoned request never
     costs a worker slot.

   - Fairness: tickets queue into per-client lanes drained round-robin,
     so a client that floods the queue cannot starve the others — each
     admitted client gets one job per rotation regardless of how deep its
     own lane is.  The bound and the overload policy still apply to the
     queue as a whole (a flooder fills it and sheds {e itself} first,
     since its lane holds almost all of the queued tickets).

   - Shutdown: [drain] stops accepting, finishes everything queued and
     running, then joins the workers.  [abort] stops accepting, answers
     queued requests with E_OVERLOAD, raises the [stopping] flag that
     cooperative jobs may poll, and joins whatever exits within the
     timeout.  Workers that refuse to finish are leaked to process exit —
     never waited on forever.

   Locking: one mutex guards the queue, tickets, worker table and
   counters.  Workers block on [cond] for work.  Submitters block on
   [settled], which is broadcast whenever a ticket's result cell fills
   (finish, abort, orphan settlement), a queued ticket leaves the queue
   (taken, cancelled, aborted) and draining starts; a finished job wakes
   its submitter at once.  OCaml has no timed condition wait, so the
   monitor also broadcasts [settled] on every 10 ms tick: a deadline
   fires within one tick of expiry. *)

module Diag = Msched_diag.Diag
module Sink = Msched_obs.Sink

type overload = Shed | Block

let overload_name = function Shed -> "shed" | Block -> "block"

type 'res outcome =
  | Done of 'res
  | Rejected of Diag.t
  | Timed_out of Diag.t
  | Crashed of Diag.t

type config = {
  d_workers : int;
  d_queue_max : int;
  d_overload : overload;
  d_deadline_s : float option;
  d_grace_s : float;
}

let default_config =
  {
    d_workers = 2;
    d_queue_max = 64;
    d_overload = Shed;
    d_deadline_s = None;
    d_grace_s = 1.0;
  }

type ticket_state =
  | Queued
  | Running of int  (** Worker slot executing it. *)
  | Finished
  | Cancelled  (** Deadline expired while queued; workers skip it. *)
  | Abandoned of float
      (** Deadline expired while running; the time the submitter gave up. *)

type ('job, 'res) ticket = {
  k_id : int;
  k_client : int;  (** Fairness lane (connection id; 0 = anonymous). *)
  k_job : 'job;
  mutable k_state : ticket_state;
  mutable k_cell : 'res outcome option;
}

type ('job, 'res) worker = {
  w_slot : int;
  mutable w_dom : unit Domain.t option;
  mutable w_ticket : ('job, 'res) ticket option;
  mutable w_exited : bool;  (** Loop returned; the domain is joinable. *)
  mutable w_joined : bool;
      (** Claimed for joining (monitor and drain race; join is
          single-use). *)
}

type counters = {
  c_submitted : int;
  c_completed : int;
  c_rejected : int;
  c_timed_out : int;
  c_crashed : int;
  c_late : int;  (** Abandoned jobs that eventually finished anyway. *)
  c_reaped : int;  (** Dead (crashed) worker domains joined + replaced. *)
  c_replaced : int;  (** Hung workers written off after the grace period. *)
  c_queue_depth : int;
  c_inflight : int;
  c_peak_queue_depth : int;
  c_peak_inflight : int;
  c_peak_lanes : int;  (** Most distinct clients queued at once. *)
}

type ('job, 'res) t = {
  cfg : config;
  run : stopping:(unit -> bool) -> 'job -> 'res;
  lock : Mutex.t;
  cond : Condition.t;  (** Workers wait here for work. *)
  settled : Condition.t;
      (** Submitters wait here, for their result or for queue space. *)
  lanes : (int, ('job, 'res) ticket Queue.t) Hashtbl.t;
      (** Per-client FIFO lanes; a lane exists iff it is non-empty. *)
  rr : int Queue.t;
      (** Round-robin rotation: each client with a non-empty lane appears
          exactly once; popping a job sends the client to the tail. *)
  slots : ('job, 'res) worker option array;
  mutable zombies : ('job, 'res) worker list;
      (** Replaced hung workers, joined by the monitor if they ever exit. *)
  mutable accepting : bool;
  mutable stopping : bool;
  mutable stopped : bool;
  mutable next_id : int;
  mutable q_live : int;  (** Queued tickets that are not cancelled. *)
  mutable n_submitted : int;
  mutable n_completed : int;
  mutable n_rejected : int;
  mutable n_timed_out : int;
  mutable n_crashed : int;
  mutable n_late : int;
  mutable n_reaped : int;
  mutable n_replaced : int;
  mutable n_inflight : int;
  mutable peak_queue : int;
  mutable peak_inflight : int;
  mutable peak_lanes : int;
  sink : Sink.t option;
  extra_gauges : (string * (unit -> float)) list;
  mutable monitor : Thread.t option;
  mutable monitor_stop : bool;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---- Worker loop (runs on its own domain). ---- *)

let current t w =
  match t.slots.(w.w_slot) with Some w' -> w' == w | None -> false

(* Pop the next live ticket round-robin across client lanes; cancelled
   (deadline) and pre-answered (abort) tickets are discarded.  Invariant:
   a client id sits in [rr] exactly once iff its lane is non-empty.  Lock
   held. *)
let rec pop_live t =
  match Queue.take_opt t.rr with
  | None -> None
  | Some client -> (
      match Hashtbl.find_opt t.lanes client with
      | None -> pop_live t
      | Some lane ->
          let rec next () =
            match Queue.take_opt lane with
            | None -> None
            | Some k -> ( match k.k_state with Queued -> Some k | _ -> next ())
          in
          let found = next () in
          if Queue.is_empty lane then Hashtbl.remove t.lanes client
          else Queue.add client t.rr;
          (match found with Some _ as s -> s | None -> pop_live t))

(* Append a ticket to its client's lane, creating the lane (and its
   rotation slot) on first use.  Lock held. *)
let push_lane t k =
  let lane =
    match Hashtbl.find_opt t.lanes k.k_client with
    | Some lane -> lane
    | None ->
        let lane = Queue.create () in
        Hashtbl.add t.lanes k.k_client lane;
        Queue.add k.k_client t.rr;
        let n = Hashtbl.length t.lanes in
        if n > t.peak_lanes then t.peak_lanes <- n;
        lane
  in
  Queue.add k lane

let take t w =
  locked t (fun () ->
      let rec go () =
        if (not (current t w)) || t.stopping then None
        else
          match pop_live t with
          | Some k ->
              k.k_state <- Running w.w_slot;
              t.q_live <- t.q_live - 1;
              Condition.broadcast t.settled;
              w.w_ticket <- Some k;
              t.n_inflight <- t.n_inflight + 1;
              if t.n_inflight > t.peak_inflight then
                t.peak_inflight <- t.n_inflight;
              Some k
          | None ->
              if not t.accepting then None
              else begin
                Condition.wait t.cond t.lock;
                go ()
              end
      in
      go ())

let finish t w k outcome =
  locked t (fun () ->
      w.w_ticket <- None;
      t.n_inflight <- t.n_inflight - 1;
      match k.k_state with
      | Running _ ->
          k.k_state <- Finished;
          k.k_cell <- Some outcome;
          Condition.broadcast t.settled;
          (match outcome with
          | Done _ -> t.n_completed <- t.n_completed + 1
          | Crashed _ -> t.n_crashed <- t.n_crashed + 1
          | Rejected _ | Timed_out _ -> ())
      | Abandoned _ | Finished | Queued | Cancelled ->
          (* The submitter was already answered (deadline abandonment, or
             shutdown settled the orphan); drop the late result but keep
             the evidence. *)
          t.n_late <- t.n_late + 1)

let rec worker_loop t w =
  match take t w with
  | None -> locked t (fun () -> w.w_exited <- true)
  | Some k -> (
      match t.run ~stopping:(fun () -> t.stopping) k.k_job with
      | res ->
          finish t w k (Done res);
          worker_loop t w
      | exception e ->
          (* The job poisoned this worker: answer it, then let the domain
             die — the monitor reaps and replaces. *)
          let diag =
            Diag.error Diag.E_INTERNAL
              "worker %d crashed while serving request %d: %s" w.w_slot k.k_id
              (Printexc.to_string e)
          in
          finish t w k (Crashed diag);
          locked t (fun () -> w.w_exited <- true))

(* Lock held by the caller. *)
let spawn_worker t slot =
  let w =
    {
      w_slot = slot;
      w_dom = None;
      w_ticket = None;
      w_exited = false;
      w_joined = false;
    }
  in
  t.slots.(slot) <- Some w;
  w.w_dom <- Some (Domain.spawn (fun () -> worker_loop t w))

(* Claim an exited worker for joining.  Lock held; [Domain.join] is
   single-use, and the monitor and [drain]/[abort] race to reap. *)
let claim w =
  if w.w_exited && not w.w_joined then begin
    w.w_joined <- true;
    true
  end
  else false

(* ---- Monitor (runs on a thread of the caller's domain). ---- *)

let sample_gauges t =
  match t.sink with
  | None -> ()
  | Some sink ->
      (* Snapshot under the lock, write to the (single-threaded) sink
         outside it: the monitor is the sink's only writer. *)
      let snap =
        locked t (fun () ->
            [
              ("server.queue_depth", float_of_int t.q_live);
              ("server.inflight", float_of_int t.n_inflight);
              ("server.peak_queue_depth", float_of_int t.peak_queue);
              ("server.peak_inflight", float_of_int t.peak_inflight);
              ("server.client_lanes", float_of_int (Hashtbl.length t.lanes));
              ("server.peak_client_lanes", float_of_int t.peak_lanes);
              ("server.timeouts", float_of_int t.n_timed_out);
              ("server.rejected", float_of_int t.n_rejected);
              ("server.crashes", float_of_int t.n_crashed);
              ("server.reaped", float_of_int t.n_reaped);
              ("server.replaced", float_of_int t.n_replaced);
              ("server.late_results", float_of_int t.n_late);
            ])
      in
      List.iter (fun (name, v) -> Sink.gauge sink name v) snap;
      List.iter (fun (name, probe) -> Sink.gauge sink name (probe ())) t.extra_gauges

let monitor_tick t =
  let now = Unix.gettimeofday () in
  let to_join =
    locked t (fun () ->
        let acc = ref [] in
        (* Reap crashed workers: their loop returned, so the join below is
           immediate; respawn into the same slot. *)
        Array.iteri
          (fun i wo ->
            match wo with
            | Some w when w.w_exited && current t w && not t.stopped ->
                (* An exited worker during normal operation means a crash
                   (drain/abort claims the clean exits itself). *)
                if (t.accepting || t.q_live > 0) && claim w then begin
                  t.n_reaped <- t.n_reaped + 1;
                  acc := w :: !acc;
                  spawn_worker t i
                end
            | _ -> ())
          t.slots;
        (* Replace workers hung past the grace period on an abandoned
           request: the old domain cannot be killed, so it is moved to the
           zombie list (joined if it ever exits) and a fresh worker takes
           the slot. *)
        Array.iteri
          (fun i wo ->
            match wo with
            | Some w when not w.w_exited -> (
                match w.w_ticket with
                | Some { k_state = Abandoned t0; _ }
                  when now -. t0 >= t.cfg.d_grace_s ->
                    t.n_replaced <- t.n_replaced + 1;
                    t.zombies <- w :: t.zombies;
                    spawn_worker t i
                | _ -> ())
            | _ -> ())
          t.slots;
        (* Zombies that eventually exited become joinable. *)
        let exited, still = List.partition claim t.zombies in
        t.zombies <- still;
        acc := exited @ !acc;
        (* Submitters re-check their deadlines. *)
        Condition.broadcast t.settled;
        !acc)
  in
  List.iter
    (fun w -> match w.w_dom with Some d -> Domain.join d | None -> ())
    to_join;
  sample_gauges t

let monitor_loop t =
  while not t.monitor_stop do
    Thread.delay 0.01;
    monitor_tick t
  done;
  (* Final sample so post-shutdown counters reach the sink. *)
  sample_gauges t

(* ---- Public API. ---- *)

let create ?sink ?(gauges = []) cfg run =
  let cfg = { cfg with d_workers = max 1 cfg.d_workers } in
  let t =
    {
      cfg;
      run;
      lock = Mutex.create ();
      cond = Condition.create ();
      settled = Condition.create ();
      lanes = Hashtbl.create 16;
      rr = Queue.create ();
      slots = Array.make cfg.d_workers None;
      zombies = [];
      accepting = true;
      stopping = false;
      stopped = false;
      next_id = 0;
      q_live = 0;
      n_submitted = 0;
      n_completed = 0;
      n_rejected = 0;
      n_timed_out = 0;
      n_crashed = 0;
      n_late = 0;
      n_reaped = 0;
      n_replaced = 0;
      n_inflight = 0;
      peak_queue = 0;
      peak_inflight = 0;
      peak_lanes = 0;
      sink;
      extra_gauges = gauges;
      monitor = None;
      monitor_stop = false;
    }
  in
  locked t (fun () ->
      for i = 0 to cfg.d_workers - 1 do
        spawn_worker t i
      done);
  t.monitor <- Some (Thread.create monitor_loop t);
  t

let overload_diag fmt = Diag.error Diag.E_OVERLOAD fmt
let timeout_diag fmt = Diag.error Diag.E_TIMEOUT fmt

let submit ?(client = 0) ?deadline_s t job =
  let deadline_s =
    match deadline_s with Some _ as d -> d | None -> t.cfg.d_deadline_s
  in
  let t0 = Unix.gettimeofday () in
  let deadline = Option.map (fun d -> t0 +. d) deadline_s in
  let expired () =
    match deadline with
    | None -> false
    | Some d -> Unix.gettimeofday () >= d
  in
  locked t @@ fun () ->
  (* Admission: draining/stopped servers shed everything; a full queue
     sheds or blocks per policy. *)
  let rec admit () =
    if not t.accepting then (
      t.n_rejected <- t.n_rejected + 1;
      Error
        (Rejected
           (overload_diag "server is draining; request shed (retry elsewhere)")))
    else if t.q_live < t.cfg.d_queue_max then Ok ()
    else
      match t.cfg.d_overload with
      | Shed ->
          t.n_rejected <- t.n_rejected + 1;
          Error
            (Rejected
               (overload_diag
                  "request queue full (%d deep, policy shed); retry after \
                   backoff"
                  t.cfg.d_queue_max))
      | Block ->
          if expired () then begin
            t.n_timed_out <- t.n_timed_out + 1;
            Error
              (Timed_out
                 (timeout_diag
                    "deadline expired after %.3fs blocked on a full queue"
                    (Unix.gettimeofday () -. t0)))
          end
          else begin
            Condition.wait t.settled t.lock;
            admit ()
          end
  in
  match admit () with
  | Error outcome -> outcome
  | Ok () ->
      let k =
        {
          k_id = t.next_id;
          k_client = client;
          k_job = job;
          k_state = Queued;
          k_cell = None;
        }
      in
      t.next_id <- t.next_id + 1;
      t.n_submitted <- t.n_submitted + 1;
      push_lane t k;
      t.q_live <- t.q_live + 1;
      if t.q_live > t.peak_queue then t.peak_queue <- t.q_live;
      Condition.signal t.cond;
      (* Await the outcome; on deadline, cancel (queued) or abandon
         (running). *)
      let rec await () =
        match k.k_cell with
        | Some o -> o
        | None when not (expired ()) ->
            Condition.wait t.settled t.lock;
            await ()
        | None -> (
            let elapsed = Unix.gettimeofday () -. t0 in
            match k.k_state with
            | Queued ->
                k.k_state <- Cancelled;
                t.q_live <- t.q_live - 1;
                t.n_timed_out <- t.n_timed_out + 1;
                Condition.broadcast t.settled;
                Timed_out
                  (timeout_diag
                     "request %d cancelled after %.3fs in queue (never \
                      started)"
                     k.k_id elapsed)
            | Running slot ->
                k.k_state <- Abandoned (Unix.gettimeofday ());
                t.n_timed_out <- t.n_timed_out + 1;
                Timed_out
                  (timeout_diag
                     "request %d abandoned after %.3fs running on worker %d \
                      (worker will be replaced if it does not recover)"
                     k.k_id elapsed slot)
            | Finished | Cancelled | Abandoned _ ->
                (* Finished sets the cell in the same critical section;
                   cancel/abandon are ours alone. *)
                assert false)
      in
      await ()

let counters t =
  locked t (fun () ->
      {
        c_submitted = t.n_submitted;
        c_completed = t.n_completed;
        c_rejected = t.n_rejected;
        c_timed_out = t.n_timed_out;
        c_crashed = t.n_crashed;
        c_late = t.n_late;
        c_reaped = t.n_reaped;
        c_replaced = t.n_replaced;
        c_queue_depth = t.q_live;
        c_inflight = t.n_inflight;
        c_peak_queue_depth = t.peak_queue;
        c_peak_inflight = t.peak_inflight;
        c_peak_lanes = t.peak_lanes;
      })

let accepting t = locked t (fun () -> t.accepting)

(* Wait until every live worker has exited, up to [timeout_s].  Returns
   the workers that did exit (joinable) and whether all of them did. *)
let wait_workers t timeout_s =
  let t_end = Unix.gettimeofday () +. timeout_s in
  let all_exited () =
    locked t (fun () ->
        Array.for_all
          (function Some w -> w.w_exited | None -> true)
          t.slots
        && List.for_all (fun w -> w.w_exited) t.zombies)
  in
  let rec wait () =
    if all_exited () then true
    else if Unix.gettimeofday () >= t_end then false
    else begin
      Thread.delay 0.005;
      wait ()
    end
  in
  let clean = wait () in
  let joinable =
    locked t (fun () ->
        let acc = ref [] in
        Array.iter
          (function
            | Some w when claim w -> acc := w :: !acc | _ -> ())
          t.slots;
        List.iter (fun w -> if claim w then acc := w :: !acc) t.zombies;
        !acc)
  in
  List.iter
    (fun w -> match w.w_dom with Some d -> Domain.join d | None -> ())
    joinable;
  clean

(* Any ticket still Running when shutdown gives up belongs to a leaked
   (hung) worker: answer its submitter now so no session thread waits
   forever on a cell that will never fill. *)
let settle_orphans t =
  locked t (fun () ->
      let settle w =
        match w.w_ticket with
        | Some ({ k_state = Running _; _ } as k) ->
            k.k_state <- Abandoned (Unix.gettimeofday ());
            k.k_cell <-
              Some
                (Timed_out
                   (timeout_diag
                      "request %d was still running on a leaked worker at \
                       shutdown; abandoned"
                      k.k_id));
            t.n_timed_out <- t.n_timed_out + 1
        | _ -> ()
      in
      Array.iter (Option.iter settle) t.slots;
      List.iter settle t.zombies;
      Condition.broadcast t.settled)

let stop_monitor t =
  t.monitor_stop <- true;
  (* drain and abort may race here (signal escalation); join is
     single-use, so claim the thread under the lock. *)
  let th = locked t (fun () ->
      let th = t.monitor in
      t.monitor <- None;
      th)
  in
  match th with Some th -> Thread.join th | None -> ()

let drain ?(timeout_s = 30.0) t =
  locked t (fun () ->
      t.accepting <- false;
      Condition.broadcast t.cond;
      Condition.broadcast t.settled);
  (* Workers finish the queue, then their takes return None and they
     exit.  Monitor keeps reaping crashes mid-drain. *)
  let clean = wait_workers t timeout_s in
  settle_orphans t;
  locked t (fun () -> t.stopped <- true);
  stop_monitor t;
  clean

let abort ?(timeout_s = 2.0) t =
  locked t (fun () ->
      t.accepting <- false;
      t.stopping <- true;
      (* Everything still queued is answered now; no worker will start
         it. *)
      Hashtbl.iter
        (fun _client lane ->
          Queue.iter
            (fun k ->
              if k.k_state = Queued then begin
                k.k_state <- Finished;
                k.k_cell <-
                  Some
                    (Rejected
                       (overload_diag
                          "server aborted before request %d started" k.k_id));
                t.q_live <- t.q_live - 1;
                t.n_rejected <- t.n_rejected + 1
              end)
            lane)
        t.lanes;
      Condition.broadcast t.cond;
      Condition.broadcast t.settled);
  let clean = wait_workers t timeout_s in
  settle_orphans t;
  locked t (fun () -> t.stopped <- true);
  stop_monitor t;
  clean
