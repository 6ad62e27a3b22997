(* Output checks.  Every distinct request text is compiled once in this
   process, outside the timed region.  The reference schedule must pass
   the static verifier, a seeded sample is co-simulated against the golden
   reference simulator with zero mismatching frames allowed, and every
   server response must agree with its reference: on final length and
   [est_speed_hz] for a compile, and on the schedule fingerprint too for a
   delta (warm ≡ cold). *)

module Compile = Msched.Compile
module Server = Msched_server.Server
module Cache = Msched_server.Cache
module Schedule = Msched_route.Schedule
module Serial = Msched_netlist.Serial
module Netlist = Msched_netlist.Netlist
module Diag = Msched_diag.Diag
module J = Msched_diag.Diag.Json

type expect = { length : int; est_speed_hz : float; schedule_fp : string }

let fingerprint sched = Cache.hash_hex (Schedule.to_json_string sched)

(* The compile the server runs for this workload, without a cache: warm
   starts from the reroute cache are outcome-equivalent to cold ones, and
   a delta schedule is byte-identical to a plain cold compile. *)
let reference_compile kind (s : Server.settings) nl =
  match kind with
  | Workload.Delta_edit -> Compile.compile ~options:s.Server.s_options nl
  | Workload.Cold_compile | Workload.Serve_mix -> (
      let r =
        Compile.compile_resilient ~options:s.Server.s_options
          ~max_retries:s.Server.s_max_retries
          ~fallback_hard:s.Server.s_fallback_hard ~reuse:s.Server.s_reuse nl
      in
      match (r.Compile.compiled, r.Compile.diagnostics) with
      | Some c, _ -> c
      | None, d :: _ -> raise (Diag.Fail d)
      | None, [] -> failwith "compile failed without a diagnostic")

let cosim_horizon_ps = 250_000

(* Mismatching frames of a lock-step run against [Ref_sim]. *)
let cosim ~seed (c : Compile.compiled) =
  let p = c.Compile.prepared in
  let clocks =
    Msched_clocking.Async_gen.clocks ~seed (Netlist.domains p.Compile.netlist)
  in
  let r =
    Msched_sim.Fidelity.compare_run p.Compile.placement c.Compile.schedule
      ~clocks ~horizon_ps:cosim_horizon_ps ~seed ()
  in
  r.Msched_sim.Fidelity.mismatch_frames

let reference kind settings ?cosim_seed text =
  match Serial.of_string_diag text with
  | Error _ -> Error "reference: the request text does not parse"
  | Ok nl -> (
      match reference_compile kind settings nl with
      | exception e ->
          Error
            (Format.asprintf "reference compile: %a" Diag.pp
               (Compile.diag_of_exn e))
      | c -> (
          let report = Compile.verify_schedule c.Compile.prepared c.Compile.schedule in
          let violations = List.length report.Msched_check.Verify.violations in
          let sched = c.Compile.schedule in
          let mismatches =
            match cosim_seed with None -> 0 | Some seed -> cosim ~seed c
          in
          if violations > 0 then
            Error (Printf.sprintf "reference schedule: %d verifier violations" violations)
          else if mismatches > 0 then
            Error
              (Printf.sprintf "reference schedule: %d mismatching co-simulation frames"
                 mismatches)
          else
            Ok
              {
                length = sched.Schedule.length;
                est_speed_hz = Schedule.est_speed_hz sched;
                schedule_fp = fingerprint sched;
              }))

(* References for many texts on all cores: the server is stopped by then. *)
let references kind settings ~cosim texts =
  let n = Array.length texts in
  let out = Array.make n (Error "reference not computed") in
  Msched_par.Pool.with_pool ~jobs:(min 2 (Domain.recommended_domain_count ()))
    (fun pool ->
      Msched_par.Pool.run pool ~n (fun ~worker:_ i ->
          out.(i) <-
            (try reference kind settings ?cosim_seed:cosim.(i) texts.(i)
             with e -> Error ("reference: " ^ Printexc.to_string e))));
  out

(* ---- Responses ---- *)

type observed = { o_length : int; o_hz : float; o_fp : string option }

let member path doc =
  List.fold_left (fun acc k -> Option.bind acc (J.mem k)) (Some doc) path

(* The first error diagnostic of a response, else its first warning. *)
let first_diag doc =
  let diags = Option.value ~default:[] (Option.bind (J.mem "diagnostics" doc) J.arr) in
  let field k d = Option.bind (J.mem k d) J.str in
  let errors = List.filter (fun d -> field "severity" d = Some "error") diags in
  match errors @ diags with
  | d :: _ ->
      Printf.sprintf "%s: %s"
        (Option.value ~default:"?" (field "code" d))
        (Option.value ~default:"" (field "message" d))
  | [] -> "no diagnostic"

let exit_status doc =
  match Option.bind (J.mem "exit_code" doc) J.int with
  | Some 0 -> Ok ()
  | Some code -> Error (Printf.sprintf "exit_code %d (%s)" code (first_diag doc))
  | None -> Error "response has no exit_code"

let parse_response line =
  match J.parse line with
  | Ok doc -> Ok doc
  | Error e -> Error ("unparseable response: " ^ e)

let check_exit line = Result.bind (parse_response line) exit_status

let observe kind doc =
  let num path = Option.bind (member path doc) J.num in
  match kind with
  | Workload.Delta_edit -> (
      match
        ( Option.bind (member [ "delta"; "length" ] doc) J.int,
          num [ "delta"; "est_speed_hz" ],
          Option.bind (member [ "delta"; "schedule_fp" ] doc) J.str )
      with
      | Some l, Some hz, Some fp -> Some { o_length = l; o_hz = hz; o_fp = Some fp }
      | _ -> None)
  | Workload.Cold_compile | Workload.Serve_mix -> (
      let attempts =
        Option.value ~default:[] (Option.bind (member [ "result"; "attempts" ] doc) J.arr)
      in
      let ok =
        List.filter (fun a -> Option.bind (J.mem "ok" a) (function J.Bool b -> Some b | _ -> None) = Some true) attempts
      in
      match List.rev ok with
      | final :: _ -> (
          match
            (Option.bind (J.mem "length" final) J.int, Option.bind (J.mem "est_speed_hz" final) J.num)
          with
          | Some l, Some hz -> Some { o_length = l; o_hz = hz; o_fp = None }
          | _ -> None)
      | [] -> None)

(* Responses print frequencies with six significant digits. *)
let same_hz a b = Printf.sprintf "%.6g" a = Printf.sprintf "%.6g" b

(* [Ok hz] when the response is a success that matches its reference, with
   the schedule's emulation speed; [Error why] otherwise. *)
let check kind (expect : (expect, string) result) response =
  let ( let* ) = Result.bind in
  let* line =
    Option.to_result ~none:"no response (connection lost or server stalled)" response
  in
  let* doc = parse_response line in
  let* () = exit_status doc in
  let* o = Option.to_result ~none:"response carries no schedule" (observe kind doc) in
  let* e = expect in
  if o.o_length <> e.length then
    Error (Printf.sprintf "length %d, reference %d" o.o_length e.length)
  else if not (same_hz o.o_hz e.est_speed_hz) then
    Error (Printf.sprintf "est_speed_hz %.6g, reference %.6g" o.o_hz e.est_speed_hz)
  else
    match o.o_fp with
    | Some fp when fp <> e.schedule_fp ->
        Error (Printf.sprintf "schedule_fp %s, cold compile %s" fp e.schedule_fp)
    | _ -> Ok o.o_hz

(* Which distinct texts to co-simulate: a seeded sample of [cosim_count],
   each with its own stimulus and clock seed. *)
let cosim_count = 3

let cosim_sample ~seed n =
  let rng = Random.State.make [| seed; 0xc051 |] in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let out = Array.make n None in
  Array.iteri (fun k i -> if k < cosim_count then out.(i) <- Some (seed + k)) order;
  out

(* The manifest key a delta response announces (the next edit's base). *)
let delta_key line =
  match J.parse line with
  | Ok doc -> Option.bind (J.mem "key" doc) J.str
  | Error _ -> None

(* One verdict per sample: [(text, response)] against [refs.(text)]. *)
let verdicts kind refs samples =
  List.map (fun (ti, response) -> check kind refs.(ti) response) samples

let failed verdicts = List.length (List.filter Result.is_error verdicts)
