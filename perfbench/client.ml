(* Launching the real `msched serve --tcp` process and driving it from this
   one load-generator process: closed loops over at most two connections,
   plus the /proc probes that read the server's CPU time and peak RSS. *)

let now = Unix.gettimeofday

(* ---- Server process ---- *)

type server = {
  pid : int;
  mutable port : int;
  out_file : string;  (** The server's stdout: the shutdown summary. *)
  mutable alive : bool;
}

let live : server list ref = ref []

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

let reap srv =
  if srv.alive then begin
    (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (waitpid_noeintr [] srv.pid) with Unix.Unix_error _ -> ());
    srv.alive <- false
  end

(* No server outlives the benchmark, whatever way it exits. *)
let () = at_exit (fun () -> List.iter reap !live)

(* Reads to EOF: /proc files report a size of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        match input ic chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents b
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            go ()
      in
      go ())

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* "msched serve: listening on tcp:127.0.0.1:PORT (...)" on stderr. *)
let port_of_banner text =
  let marker = "listening on tcp:" in
  match find_sub text marker with
  | None -> None
  | Some i -> (
      let rest = String.sub text (i + String.length marker) (String.length text - i - String.length marker) in
      let hostport = List.hd (String.split_on_char ' ' rest) in
      match List.rev (String.split_on_char ':' hostport) with
      | p :: _ -> int_of_string_opt p
      | [] -> None)

let launch ~exe ~flags ~dir =
  let out_file = Filename.concat dir "serve.out"
  and err_file = Filename.concat dir "serve.err" in
  let open_out_fd f =
    Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let out_fd = open_out_fd out_file and err_fd = open_out_fd err_file in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (exe :: "serve" :: "--tcp" :: "127.0.0.1:0" :: flags) in
  let pid = Unix.create_process exe argv stdin_r out_fd err_fd in
  List.iter Unix.close [ stdin_r; stdin_w; out_fd; err_fd ];
  let srv = { pid; port = 0; out_file; alive = true } in
  live := srv :: !live;
  let deadline = now () +. 30.0 in
  let rec wait_banner () =
    match port_of_banner (read_file err_file) with
    | Some port -> srv.port <- port
    | None ->
        (match waitpid_noeintr [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            srv.alive <- false;
            failwith
              (Printf.sprintf "msched serve exited before listening: %s"
                 (String.trim (read_file err_file))));
        if now () > deadline then failwith "msched serve did not start listening";
        Unix.sleepf 0.002;
        wait_banner ()
  in
  wait_banner ();
  srv

(* ---- Connections ---- *)

type conn = { fd : Unix.file_descr; acc : Buffer.t; chunk : Bytes.t }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; acc = Buffer.create 65536; chunk = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let rec go off =
    if off < String.length line then
      go (off + Unix.write_substring c.fd line off (String.length line - off))
  in
  go 0

(* One read; [`Line l] once a full response line has arrived.  The
   protocol answers one line per request and the loop never pipelines, so
   a line always ends its chunk. *)
let pump c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> `Eof
  | n -> (
      let rec nl i = if i >= n then None else if Bytes.get c.chunk i = '\n' then Some i else nl (i + 1) in
      match nl 0 with
      | None ->
          Buffer.add_subbytes c.acc c.chunk 0 n;
          `More
      | Some i ->
          Buffer.add_subbytes c.acc c.chunk 0 i;
          let line = Buffer.contents c.acc in
          Buffer.clear c.acc;
          Buffer.add_subbytes c.acc c.chunk (i + 1) (n - i - 1);
          `Line line)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `More
  | exception Unix.Unix_error (_, _, _) -> `Eof

let rec recv_line c =
  match pump c with
  | `Line l -> Some l
  | `More -> recv_line c
  | `Eof -> None

let roundtrip c line =
  send c line;
  recv_line c

(* ---- Closed loop ---- *)

type sample = {
  index : int;  (** Stream position. *)
  sent : float;
  received : float;
  response : string option;  (** [None]: connection lost or stalled. *)
}

let latency_ms s = 1000.0 *. (s.received -. s.sent)

(* Each connection sends its next request as soon as the previous answer
   is complete, until [seconds] have passed since the first send; requests
   in flight at that point are awaited and counted.  [next ~conn ~prev]
   gives the stream index and line of the connection's next request.

   Every [calib_every_s] the loop lets the requests in flight finish, runs
   [calibrate] while the server is idle, and resumes; the calibration
   points (time, result) are returned with the samples, and the time spent
   calibrating is returned so it can be left out of throughput. *)
let closed_loop conns ~seconds ~stall_s ~calib_every_s ~calibrate ~next =
  let n = Array.length conns in
  let pending = Array.make n None in
  let resume = Array.make n false in
  let samples = ref [] and calib = ref [] and calib_s = ref 0.0 in
  let t0 = now () in
  let run_calibration () =
    let c0 = now () in
    let v = calibrate () in
    let c1 = now () in
    calib := ((c0 +. c1) /. 2.0, v) :: !calib;
    calib_s := !calib_s +. (c1 -. c0)
  in
  let send_next i prev =
    match next ~conn:i ~prev with
    | None -> pending.(i) <- None
    | Some (index, line) ->
        let sent = now () in
        send conns.(i) line;
        pending.(i) <- Some (index, sent)
  in
  run_calibration ();
  let last_calib = ref (now ()) in
  Array.iteri (fun i _ -> send_next i None) conns;
  let last_progress = ref (now ()) in
  let busy () = Array.exists Option.is_some pending in
  let prevs = Array.make n None in
  while busy () || Array.exists Fun.id resume do
    if not (busy ()) then begin
      (* Everything paused for calibration has drained. *)
      run_calibration ();
      last_calib := now ();
      Array.iteri
        (fun i r ->
          if r then begin
            resume.(i) <- false;
            if now () -. t0 -. !calib_s < seconds then send_next i prevs.(i)
          end)
        resume
    end;
    let fds =
      List.filter_map
        (fun i -> Option.map (fun _ -> conns.(i).fd) pending.(i))
        (List.init n Fun.id)
    in
    let ready =
      if fds = [] then []
      else
        match Unix.select fds [] [] 1.0 with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    Array.iteri
      (fun i c ->
        match pending.(i) with
        | Some (index, sent) when List.mem c.fd ready -> (
            let finish response =
              let received = now () in
              samples := { index; sent; received; response } :: !samples;
              last_progress := received;
              response
            in
            match pump c with
            | `More -> ()
            | `Eof ->
                ignore (finish None);
                pending.(i) <- None
            | `Line l ->
                let r = finish (Some l) in
                pending.(i) <- None;
                if now () -. t0 -. !calib_s < seconds then
                  if now () -. !last_calib >= calib_every_s then begin
                    prevs.(i) <- r;
                    resume.(i) <- true
                  end
                  else send_next i r)
        | _ -> ())
      conns;
    if busy () && now () -. !last_progress > stall_s then
      Array.iteri
        (fun i p ->
          match p with
          | Some (index, sent) ->
              samples := { index; sent; received = now (); response = None } :: !samples;
              pending.(i) <- None;
              resume.(i) <- false
          | None -> ())
        pending
  done;
  run_calibration ();
  ( List.sort (fun a b -> compare a.index b.index) !samples,
    List.rev !calib,
    !calib_s )

(* ---- Shutdown ---- *)

let wait_exit srv ~timeout_s =
  let deadline = now () +. timeout_s in
  let rec go () =
    match waitpid_noeintr [ Unix.WNOHANG ] srv.pid with
    | 0, _ ->
        if now () > deadline then reap srv
        else begin
          Unix.sleepf 0.005;
          go ()
        end
    | _ -> srv.alive <- false
  in
  go ()

(* Ask for a drain, wait for the process, and return its
   [msched-serve-summary-1] line (None if it had to be killed). *)
let shutdown srv =
  (try
     let c = connect srv.port in
     ignore (roundtrip c "{\"op\":\"shutdown\"}\n");
     close c
   with Unix.Unix_error _ -> ());
  wait_exit srv ~timeout_s:60.0;
  live := List.filter (fun s -> s.pid <> srv.pid) !live;
  let lines = String.split_on_char '\n' (read_file srv.out_file) in
  List.find_opt
    (fun l -> find_sub l "msched-serve-summary-1" <> None)
    lines

(* ---- /proc probes ---- *)

let clk_tck =
  lazy
    (try
       let ic = Unix.open_process_args_in "getconf" [| "getconf"; "CLK_TCK" |] in
       let v = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
       ignore (Unix.close_process_in ic);
       Option.value v ~default:100
     with _ -> 100)

(* User plus system CPU seconds of [pid] so far. *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' after) in
  (* Fields 14 and 15 of proc(5), counted from field 3 (state). *)
  float_of_string fields.(11) +. float_of_string fields.(12)
  |> fun ticks -> ticks /. float_of_int (Lazy.force clk_tck)

(* Host CPU time as (steal, total) jiffies, from the first line of
   /proc/stat: the share a hypervisor took from this machine. *)
let host_jiffies () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: fields ->
      let v = List.map float_of_string fields in
      ((match List.nth_opt v 7 with Some s -> s | None -> 0.0), List.fold_left ( +. ) 0.0 v)
  | _ -> (0.0, 0.0)

(* Peak resident set ([VmHWM]) in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  let words =
    String.split_on_char ' '
      (String.map (fun c -> if c = '\t' then ' ' else c) line)
    |> List.filter (( <> ) "")
  in
  float_of_string (List.nth words 1) /. 1024.0
