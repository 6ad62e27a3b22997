(* The output check must count a response that disagrees with its
   reference as failed: genuine references pass real server responses,
   doctored ones (wrong length, frequency or fingerprint) fail them, as do
   missing and error responses. *)

open Perfbench
module Server = Msched_server.Server

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let expect_failed what n verdicts =
  let got = Checks.failed verdicts in
  if got <> n then fail "%s: %d of %d counted as failed, expected %d" what got (List.length verdicts) n

let settings = Workload.settings ~pins:96 ~weight:16 ~retries:0 ~fallback_hard:false ()

let reference kind text =
  match Checks.reference kind settings ~cosim_seed:1 text with
  | Ok e -> e
  | Error e -> fail "reference failed: %s" e

let doctored (e : Checks.expect) =
  [
    { e with Checks.length = e.Checks.length + 1 };
    { e with Checks.est_speed_hz = e.Checks.est_speed_hz *. 1.01 };
    { e with Checks.schedule_fp = "0000000000000000" };
  ]

let compile_case () =
  let text = Workload.text_of_spec "random:domains=2,modules=6,mts=0.20,seed=3" in
  let response =
    Server.record_json
      (Server.run_job settings ~epoch:0.0 (Server.job_of_text ~index:0 ~path:"t" text))
  in
  let kind = Workload.Cold_compile in
  let e = reference kind text in
  expect_failed "compile, genuine" 0 (Checks.verdicts kind [| Ok e |] [ (0, Some response) ]);
  (* A compile response carries no fingerprint, so only a doctored length
     or frequency can fail it. *)
  List.iteri
    (fun i d ->
      expect_failed (Printf.sprintf "compile, doctored %d" i) (if i < 2 then 1 else 0)
        (Checks.verdicts kind [| Ok d |] [ (0, Some response) ]))
    (doctored e);
  expect_failed "compile, no response" 1 (Checks.verdicts kind [| Ok e |] [ (0, None) ]);
  expect_failed "compile, failed reference" 1
    (Checks.verdicts kind [| Error "doctored" |] [ (0, Some response) ]);
  let refused = Server.error_record ~path:"t" [ Msched_diag.Diag.error Msched_diag.Diag.E_OVERLOAD "queue full" ] in
  expect_failed "compile, refused" 1 (Checks.verdicts kind [| Ok e |] [ (0, Some refused) ])

let delta_case () =
  let dir = Filename.concat (Sys.getcwd ()) "perfbench-test-cache" in
  let s = { settings with Server.s_cache_dir = Some dir } in
  Msched_server.Cache.ensure_dir dir;
  let base_text = Workload.text_of_spec "design1:scale=0.01,seed=2" in
  let base = Server.run_delta s { Server.dq_path = "b"; dq_text = base_text; dq_base = None } in
  let nl = Msched_netlist.Serial.of_string_exn base_text in
  let edited =
    match Msched_delta.Edit.apply ~seed:4 Msched_delta.Edit.Flip_domain nl with
    | Ok (nl', _) -> Msched_netlist.Serial.to_string nl'
    | Error e -> fail "edit: %s" e
  in
  let r =
    Server.run_delta s { Server.dq_path = "e"; dq_text = edited; dq_base = Some base.Server.dr_key }
  in
  let response = Server.delta_record_json r in
  let kind = Workload.Delta_edit in
  let e = reference kind edited in
  expect_failed "delta, genuine" 0 (Checks.verdicts kind [| Ok e |] [ (0, Some response) ]);
  List.iteri
    (fun i d ->
      expect_failed (Printf.sprintf "delta, doctored %d" i) 1
        (Checks.verdicts kind [| Ok d |] [ (0, Some response) ]))
    (doctored e)

let () =
  compile_case ();
  delta_case ();
  print_endline "perfbench checks: doctored expectations are counted as failed"
