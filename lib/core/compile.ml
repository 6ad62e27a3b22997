open Msched_netlist
module Partition = Msched_partition.Partition
module Placement = Msched_place.Placement
module System = Msched_arch.System
module Topology = Msched_arch.Topology
module Domain_analysis = Msched_mts.Domain_analysis
module Latch_analysis = Msched_mts.Latch_analysis
module Transform = Msched_mts.Transform
module Classify = Msched_mts.Classify
module Tiers = Msched_route.Tiers
module Reroute = Msched_route.Reroute
module Sink = Msched_obs.Sink
module Diag = Msched_diag.Diag

type options = {
  max_block_weight : int;
  pins_per_fpga : int;
  topology_kind : Topology.kind;
  vclock_hz : float;
  partition_seed : int;
  place_seed : int;
  place_effort : int;
  route : Tiers.options;
  verify : bool;
  obs : Sink.t;
  compile_jobs : int;  (* Ignored; see compile.mli. *)
}

let default_options =
  {
    max_block_weight = 64;
    pins_per_fpga = System.xilinx_4062_pins;
    topology_kind = Topology.Mesh;
    vclock_hz = System.default_vclock_hz;
    partition_seed = 1;
    place_seed = 7;
    place_effort = 4;
    route = Tiers.default_options;
    verify = true;
    obs = Sink.null;
    compile_jobs = 1;
  }

type prepared = {
  original : Netlist.t;
  netlist : Netlist.t;
  rewrites : Transform.rewrite list;
  analysis : Domain_analysis.t;
  partition : Partition.t;
  system : System.t;
  placement : Placement.t;
  latch_analysis : Latch_analysis.t array;
  classification : Classify.t;
}

type compiled = { prepared : prepared; schedule : Msched_route.Schedule.t }

exception Compile_error of Diag.t

let compile_error d = raise (Compile_error d)

let prepare ?(options = default_options) original =
  let obs = options.obs in
  Sink.span obs
    ~args:
      [
        ("cells", string_of_int (Netlist.num_cells original));
        ("nets", string_of_int (Netlist.num_nets original));
        ("domains", string_of_int (Netlist.num_domains original));
      ]
    "prepare"
  @@ fun () ->
  if Netlist.num_cells original = 0 then
    compile_error
      (Diag.error Diag.E_EMPTY_DESIGN
         "design %s has no cells: nothing to partition or schedule"
         (Netlist.design_name original));
  let analysis0 =
    Sink.span obs "domain-analysis" @@ fun () ->
    Domain_analysis.compute ~obs original
  in
  (match Transform.check_supported original analysis0 with
  | Ok () -> ()
  | Error msg -> compile_error (Diag.error Diag.E_UNSUPPORTED "%s" msg));
  let rewritten =
    Sink.span obs "mts-transform" @@ fun () ->
    Transform.master_slave ~obs original analysis0
  in
  let netlist = rewritten.Transform.netlist in
  (* Only a rewrite changes what the first analysis saw. *)
  let analysis =
    if rewritten.Transform.rewrites = [] then analysis0
    else
      Sink.span obs "domain-analysis" @@ fun () ->
      Domain_analysis.compute ~obs netlist
  in
  let partition =
    Sink.span obs "partition" @@ fun () ->
    (* Partition capacity failures (a single cell heavier than the block
       budget) are an infeasibility of the requested options, not an
       internal error: E_CAPACITY, so sweeps and the resilient driver can
       tell them apart from genuine bugs. *)
    match
      Partition.make ~obs netlist ~max_weight:options.max_block_weight
        ~seed:options.partition_seed ()
    with
    | p -> p
    | exception Invalid_argument msg ->
        compile_error
          (Diag.error Diag.E_CAPACITY
             "partitioning with max_block_weight=%d failed: %s"
             options.max_block_weight msg)
  in
  (match Partition.validate partition with
  | Ok () -> ()
  | Error msg ->
      compile_error (Diag.error Diag.E_INTERNAL "invalid partition: %s" msg));
  let topology =
    Topology.make_for_count options.topology_kind (Partition.num_blocks partition)
  in
  let system =
    (* A pin budget too small to give every channel a wire is, like a
       partition capacity failure, an infeasibility of the options. *)
    match
      System.make ~vclock_hz:options.vclock_hz topology
        ~pins_per_fpga:options.pins_per_fpga
    with
    | s -> s
    | exception Invalid_argument msg ->
        compile_error
          (Diag.error Diag.E_CAPACITY
             "building the system with pins_per_fpga=%d failed: %s"
             options.pins_per_fpga msg)
  in
  let placement =
    Sink.span obs "placement" @@ fun () ->
    Placement.place partition system ~seed:options.place_seed
      ~effort:options.place_effort ~obs ()
  in
  let latch_analysis =
    Sink.span obs "latch-analysis" @@ fun () ->
    Latch_analysis.analyze ~obs partition
  in
  let classification =
    Sink.span obs "classification" @@ fun () ->
    Classify.compute ~obs partition analysis
  in
  {
    original;
    netlist;
    rewrites = rewritten.Transform.rewrites;
    analysis;
    partition;
    system;
    placement;
    latch_analysis;
    classification;
  }

let route ?(obs = Sink.null) ?reroute ?jobs:_ prepared route_options =
  Tiers.schedule prepared.placement prepared.analysis
    ~analysis:prepared.latch_analysis ~options:route_options ~obs ?reroute ()

let route_forward ?(obs = Sink.null) prepared route_options =
  Msched_route.Forward.schedule prepared.placement prepared.analysis
    ~analysis:prepared.latch_analysis ~options:route_options ~obs ()

let verify_schedule ?(obs = Sink.null) prepared sched =
  Msched_check.Verify.verify ~obs prepared.placement prepared.analysis sched

let verify_or_fail ~obs prepared schedule =
  let report = verify_schedule ~obs prepared schedule in
  if not (Msched_check.Verify.is_clean report) then begin
    let hold_cells = Msched_check.Verify.hold_safety_cells report in
    let code =
      if Ids.Cell.Set.is_empty hold_cells then Diag.E_VERIFY
      else Diag.E_HOLD_VIOLATION
    in
    let cell =
      Option.map Ids.Cell.to_int (Ids.Cell.Set.min_elt_opt hold_cells)
    in
    compile_error
      (Diag.error code ?cell "schedule fails static verification:@\n%a"
         Msched_check.Verify.pp_report report)
  end

(* [route] + [verify] on an already-prepared front end: every compile
   entry point below ends here, so retries never re-partition or
   re-place. *)
let compile_prepared ?(options = default_options) ?reroute prepared =
  let obs = options.obs in
  let schedule = route ~obs ?reroute prepared options.route in
  if options.verify then verify_or_fail ~obs prepared schedule;
  { prepared; schedule }

let compile ?(options = default_options) nl =
  let obs = options.obs in
  Sink.span obs "compile" @@ fun () ->
  let prepared = prepare ~options nl in
  compile_prepared ~options prepared

(* ------------------------------------------------------------------ *)
(* Resilient driver: lint first, then a bounded retry/escalation ladder
   instead of the batch tool's fail-fast crash.  See docs/ROBUSTNESS.md. *)

type attempt_outcome =
  | Attempt_ok of { length : int; est_speed_hz : float }
  | Attempt_failed of Diag.t

type attempt = {
  attempt_label : string;
  attempt_mode : Tiers.mts_mode;
  attempt_max_extra : int;
  attempt_partition_seed : int;
  attempt_place_seed : int;
  attempt_expansions : int;
  attempt_outcome : attempt_outcome;
}

type degradation = {
  requested_mode : Tiers.mts_mode;
  achieved_mode : Tiers.mts_mode option;
  requested_hz : float;
      (** The virtual-clock rate: the Table-1 hardware ceiling of one
          emulated cycle per virtual clock. *)
  achieved_hz : float option;  (** vclock / frame length of the final schedule. *)
  retries : int;  (** Attempts that failed before the outcome was decided. *)
  fallback_nets : int;
      (** Transports hard-routed on dedicated wires in the final schedule
          beyond what the requested mode implies (per-net fallback residue,
          or every MTS transport after the whole-schedule hard rung). *)
  lint_errors : int;
  lint_warnings : int;
}

type resilient = {
  compiled : compiled option;
  attempts : attempt list;
  diagnostics : Diag.t list;
  degradation : degradation;
}

let succeeded r = r.compiled <> None

let degraded r =
  match r.attempts with
  | [] -> false
  | _ -> succeeded r && r.degradation.retries > 0

(* The escalation ladder.  Retry [i] of [n]: first pure slack relaxation
   (the cheapest knob: longer frames instead of failure), then rip-up &
   retry with perturbed partition/placement seeds on top of the relaxed
   slack.  The hard fallback is handled separately by [compile_resilient]:
   first per-net (only the unroutable residue moves to dedicated wires),
   then — as a last resort — the whole-schedule hard baseline (paper
   Table 1 rows 8 vs 9: correct but slower and pin-hungrier). *)
let relax_slack options i =
  min (1 lsl 20)
    (max 1024 ((options.route.Tiers.max_extra_slots + 1) * (1 lsl i)))

let ladder options ~max_retries =
  let base = options.route in
  let baseline = ("baseline", options) in
  let retry i =
    let label =
      if i = 1 then "relax-slack" else Printf.sprintf "reseed-%d" (i - 1)
    in
    let route = { base with Tiers.max_extra_slots = relax_slack options i } in
    let options =
      if i = 1 then { options with route }
      else
        {
          options with
          route;
          partition_seed = options.partition_seed + (7 * (i - 1));
          place_seed = options.place_seed + (13 * (i - 1));
        }
    in
    (label, options)
  in
  baseline :: List.init max_retries (fun i -> retry (i + 1))

let diag_of_exn = function
  | Compile_error d | Tiers.Unroutable d | Msched_route.Forward.Unsupported d
  | Diag.Fail d ->
      d
  | Netlist.Invalid e -> Lint.diag_of_validation_error e
  | Levelize.Combinational_cycle cells ->
      Diag.error Diag.E_COMB_CYCLE
        ?cell:(match cells with c :: _ -> Some (Ids.Cell.to_int c) | [] -> None)
        "combinational cycle through %d cells" (List.length cells)
  | Invalid_argument msg -> Diag.error Diag.E_INTERNAL "invalid argument: %s" msg
  | Failure msg -> Diag.error Diag.E_INTERNAL "failure: %s" msg
  | e -> Diag.error Diag.E_INTERNAL "unexpected exception: %s" (Printexc.to_string e)

let count_hard_transports (s : Msched_route.Schedule.t) =
  List.fold_left
    (fun acc ls ->
      List.fold_left
        (fun acc tr ->
          if tr.Msched_route.Schedule.tr_hard then acc + 1 else acc)
        acc ls.Msched_route.Schedule.ls_transports)
    0 s.Msched_route.Schedule.link_scheds

(* Bound on per-net fallback iterations: each one hard-wires the residue
   of the previous attempt, so a design that keeps producing fresh residue
   is converging toward the whole-schedule hard rung anyway. *)
let max_fallback_iters = 4

let compile_resilient ?(options = default_options) ?(max_retries = 3)
    ?(fallback_hard = false) ?reuse:_ ?reroute nl =
  let obs = options.obs in
  Sink.span obs "driver" @@ fun () ->
  let diags = ref [] in
  let push d = diags := d :: !diags in
  let lint =
    Sink.span obs "driver.lint" @@ fun () ->
    match Lint.check nl with
    | ds -> ds
    | exception e -> [ diag_of_exn e ]
  in
  List.iter push lint;
  let lint_errors = List.length (Lint.errors lint) in
  let lint_warnings = List.length lint - lint_errors in
  Sink.add obs "driver.lint_errors" lint_errors;
  Sink.add obs "driver.lint_warnings" lint_warnings;
  let degradation0 =
    {
      requested_mode = options.route.Tiers.mode;
      achieved_mode = None;
      requested_hz = options.vclock_hz;
      achieved_hz = None;
      retries = 0;
      fallback_nets = 0;
      lint_errors;
      lint_warnings;
    }
  in
  if lint_errors > 0 then
    {
      compiled = None;
      attempts = [];
      diagnostics = List.rev !diags;
      degradation = degradation0;
    }
  else begin
    (* One reroute context for the whole ladder.  Every attempt searches
       every transport from scratch; the context carries only the last
       attempt's residue and the forced-hard set the per-net fallback
       builds from it.  A caller-supplied [reroute] context is used in
       place of a fresh one; callers pass one to read its statistics
       afterwards. *)
    let ctx = match reroute with Some c -> c | None -> Reroute.create () in
    (* [prepare] is deterministic in (netlist, options minus route), so
       rungs that only touch the route options share the front-end. *)
    let prepared_cache : (int * int, prepared) Hashtbl.t = Hashtbl.create 4 in
    let attempts = ref [] in
    let record a = attempts := a :: !attempts in
    let run_attempt label opts =
      Sink.incr obs "driver.attempts";
      let seeds = (opts.partition_seed, opts.place_seed) in
      (* An attempt that fails before it routes (a reseed rung's
         [prepare]) must leave no residue for the per-net fallback. *)
      Reroute.clear_failures ctx;
      let e0 = Reroute.expansions ctx in
      let outcome =
        Sink.span obs
          ~args:
            [
              ("label", label);
              ("mode", Tiers.mode_name opts.route.Tiers.mode);
            ]
          "driver.attempt"
        @@ fun () ->
        match
          let prepared =
            match Hashtbl.find_opt prepared_cache seeds with
            | Some p -> p
            | None ->
                let p = prepare ~options:opts nl in
                Hashtbl.add prepared_cache seeds p;
                p
          in
          compile_prepared ~options:opts ~reroute:ctx prepared
        with
        | c ->
            Ok
              ( c,
                Attempt_ok
                  {
                    length = c.schedule.Msched_route.Schedule.length;
                    est_speed_hz =
                      Msched_route.Schedule.est_speed_hz c.schedule;
                  } )
        | exception e -> Error (diag_of_exn e)
      in
      record
        {
          attempt_label = label;
          attempt_mode = opts.route.Tiers.mode;
          attempt_max_extra = opts.route.Tiers.max_extra_slots;
          attempt_partition_seed = opts.partition_seed;
          attempt_place_seed = opts.place_seed;
          attempt_expansions = Reroute.expansions ctx - e0;
          attempt_outcome =
            (match outcome with Ok (_, ok) -> ok | Error d -> Attempt_failed d);
        };
      outcome
    in
    (* No rung changes the design, so a malformed-input failure (exit
       class 3) ends the ladder and skips the hard fallback. *)
    let input_fault = ref false in
    let rec run = function
      | [] -> None
      | (label, opts) :: rest -> (
          match run_attempt label opts with
          | Ok (c, _) -> Some (c, opts)
          | Error d when Diag.exit_code d.Diag.code = 3 ->
              push d;
              input_fault := true;
              None
          | Error d ->
              push d;
              if rest <> [] then Sink.incr obs "driver.retries";
              run rest)
    in
    let result = run (ladder options ~max_retries) in
    (* Hard fallback, per net first: the residue the last attempt could
       not route moves to dedicated wires; everything else stays on the
       scheduled virtual network.  Only when the residue cannot be named
       (the failure was not an unroutable transport) or refuses to
       converge does the whole schedule fall back to hard routing. *)
    let result =
      if result <> None || (not fallback_hard) || !input_fault then result
      else begin
        let relaxed =
          {
            options with
            route =
              {
                options.route with
                Tiers.max_extra_slots = relax_slack options (max_retries + 1);
              };
          }
        in
        let rec per_net i =
          if i > max_fallback_iters then None
          else
            match Reroute.failures ctx with
            | [] -> None
            | fails ->
                List.iter (fun (k, _) -> Reroute.force_hard ctx k) fails;
                Sink.add obs "driver.fallback_forced" (List.length fails);
                let label =
                  if i = 1 then "fallback-hard"
                  else Printf.sprintf "fallback-hard-%d" i
                in
                (match run_attempt label relaxed with
                | Ok (c, _) -> Some (c, relaxed)
                | Error d ->
                    push d;
                    Sink.incr obs "driver.retries";
                    per_net (i + 1))
        in
        match per_net 1 with
        | Some _ as r -> r
        | None -> (
            (* Whole-schedule hard baseline: the plain hard-mode compile,
               so no link stays forced. *)
            Reroute.clear ctx;
            let hard_all =
              {
                relaxed with
                route =
                  { relaxed.route with Tiers.mode = Tiers.Mts_hard };
              }
            in
            Sink.incr obs "driver.retries";
            match run_attempt "fallback-hard-all" hard_all with
            | Ok (c, _) -> Some (c, hard_all)
            | Error d ->
                push d;
                None)
      end
    in
    let attempts = List.rev !attempts in
    (* Attempts beyond the baseline; a lone failed baseline is 0 retries. *)
    let retries = max 0 (List.length attempts - 1) in
    let compiled, degradation =
      match result with
      | None -> (None, { degradation0 with retries })
      | Some (c, opts) ->
          let fallback_nets =
            if
              opts.route.Tiers.mode <> options.route.Tiers.mode
              || Reroute.forced_hard_count ctx > 0
            then count_hard_transports c.schedule
            else 0
          in
          Sink.add obs "driver.fallback_nets" fallback_nets;
          ( Some c,
            {
              degradation0 with
              achieved_mode = Some opts.route.Tiers.mode;
              achieved_hz = Some (Msched_route.Schedule.est_speed_hz c.schedule);
              retries;
              fallback_nets;
            } )
    in
    { compiled; attempts; diagnostics = List.rev !diags; degradation }
  end

(* ------------------------------------------------------------------ *)
(* Delta compilation (docs/DELTA.md): a cold compile plus the block diff
   that explains what the edit changed.  The schedule is the cold one by
   construction; the manifest is built once per compile and serves both
   as this compile's diff input and as the next edit's base. *)

module Manifest = Msched_delta.Manifest
module Delta_diff = Msched_delta.Diff
module Delta_fp = Msched_delta.Fingerprint

(* The canonical rendering of every option that shapes a compile; the
   server cache keys on it and manifests embed it (blocks compiled under
   different seeds, slack or topology are not comparable). *)
let options_fingerprint (o : options) =
  Printf.sprintf
    "mode=%s;extra=%d;pins=%d;weight=%d;pseed=%d;plseed=%d;effort=%d;vhz=%.6g;topo=%s;verify=%b"
    (Tiers.mode_name o.route.Tiers.mode)
    o.route.Tiers.max_extra_slots o.pins_per_fpga o.max_block_weight
    o.partition_seed o.place_seed o.place_effort o.vclock_hz
    (Format.asprintf "%a" Msched_arch.Topology.pp_kind o.topology_kind)
    o.verify

let manifest_of ~options ?design_fp prepared =
  let design_fp =
    match design_fp with
    | Some fp -> fp
    | None -> Delta_fp.design prepared.original
  in
  Manifest.build
    ~options_fp:(options_fingerprint options)
    ~design_fp prepared.placement ~analysis:prepared.analysis

type base = { base_compiled : compiled; base_manifest : Manifest.t }

let compile_base ?(options = default_options) ?design_fp nl =
  let compiled = compile ~options nl in
  {
    base_compiled = compiled;
    base_manifest = manifest_of ~options ?design_fp compiled.prepared;
  }

type delta_result = {
  delta_compiled : compiled;
  delta_manifest : Manifest.t;
  delta_diff : Delta_diff.t option;
  delta_reused : int;
  delta_ripped : int;
  delta_fresh : int;
  delta_expansions : int;
}

let delta_reuse_fraction _ = 0.0

let compile_delta ?(options = default_options) ?design_fp ~manifest nl =
  let obs = options.obs in
  Sink.span obs "delta" @@ fun () ->
  let b = compile_base ~options ?design_fp nl in
  let p = b.base_compiled.prepared in
  let diff =
    if
      String.equal manifest.Manifest.options_fp
        b.base_manifest.Manifest.options_fp
    then
      Delta_diff.between ~base:manifest ~edited:b.base_manifest p.placement
        ~analysis:p.analysis
    else None
  in
  (match diff with
  | None -> Sink.incr obs "delta.cold_fallback"
  | Some d ->
      Sink.add obs "delta.blocks_clean" (Delta_diff.clean_count d);
      Sink.add obs "delta.blocks_dirty" (Delta_diff.dirty_count d);
      Sink.add obs "delta.cone" (Delta_diff.cone_size d));
  {
    delta_compiled = b.base_compiled;
    delta_manifest = b.base_manifest;
    delta_diff = diff;
    delta_reused = 0;
    delta_ripped = 0;
    delta_fresh = 0;
    delta_expansions = 0;
  }

(* ---- Reporting. ---- *)

let pp_attempt ppf a =
  let pp_outcome ppf = function
    | Attempt_ok { length; est_speed_hz } ->
        Format.fprintf ppf "ok: %d vclocks/frame, %.1f kHz" length
          (est_speed_hz /. 1e3)
    | Attempt_failed d -> Diag.pp ppf d
  in
  Format.fprintf ppf "%-17s mode=%-7s slack=%-7d seeds=%d/%d  %a"
    a.attempt_label
    (Tiers.mode_name a.attempt_mode)
    a.attempt_max_extra a.attempt_partition_seed a.attempt_place_seed
    pp_outcome a.attempt_outcome

let pp_degradation ppf d =
  Format.fprintf ppf
    "requested: %s MTS routing at %.1f MHz vclock@\n\
     achieved:  %s, %s emulation speed@\n\
     retries: %d, hard-fallback transports: %d, lint: %d errors / %d \
     warnings"
    (Tiers.mode_name d.requested_mode)
    (d.requested_hz /. 1e6)
    (match d.achieved_mode with
    | None -> "nothing (all attempts failed)"
    | Some m -> Tiers.mode_name m ^ " MTS routing")
    (match d.achieved_hz with
    | None -> "no"
    | Some hz -> Format.asprintf "%.1f kHz" (hz /. 1e3))
    d.retries d.fallback_nets d.lint_errors d.lint_warnings

let pp_resilient ppf r =
  (match r.attempts with
  | [] -> ()
  | attempts ->
      Format.fprintf ppf "attempts:@\n";
      List.iter (fun a -> Format.fprintf ppf "  %a@\n" pp_attempt a) attempts);
  Format.fprintf ppf "%a" pp_degradation r.degradation

let resilient_to_json r =
  let module J = Diag.Json in
  let b = Buffer.create 4096 in
  let first = ref true in
  Buffer.add_char b '{';
  J.field b ~first "schema" (J.string "msched-driver-2");
  J.field b ~first "status"
    (J.string
       (if not (succeeded r) then "failed"
        else if degraded r then "degraded"
        else "ok"));
  let attempts_json =
    let ab = Buffer.create 1024 in
    Buffer.add_char ab '[';
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_char ab ',';
        let af = ref true in
        Buffer.add_char ab '{';
        J.field ab ~first:af "label" (J.string a.attempt_label);
        J.field ab ~first:af "mode" (J.string (Tiers.mode_name a.attempt_mode));
        J.field ab ~first:af "max_extra_slots"
          (string_of_int a.attempt_max_extra);
        J.field ab ~first:af "partition_seed"
          (string_of_int a.attempt_partition_seed);
        J.field ab ~first:af "place_seed" (string_of_int a.attempt_place_seed);
        J.field ab ~first:af "expansions" (string_of_int a.attempt_expansions);
        (match a.attempt_outcome with
        | Attempt_ok { length; est_speed_hz } ->
            J.field ab ~first:af "ok" "true";
            J.field ab ~first:af "length" (string_of_int length);
            J.field ab ~first:af "est_speed_hz"
              (Printf.sprintf "%.6g" est_speed_hz)
        | Attempt_failed d ->
            J.field ab ~first:af "ok" "false";
            J.field ab ~first:af "diagnostic" (Diag.to_json d));
        Buffer.add_char ab '}')
      r.attempts;
    Buffer.add_char ab ']';
    Buffer.contents ab
  in
  J.field b ~first "attempts" attempts_json;
  let diags_json =
    let rb = Buffer.create 1024 in
    let rep = Diag.Report.create () in
    Diag.Report.add_list rep r.diagnostics;
    Diag.Report.to_json_buf rb rep;
    Buffer.contents rb
  in
  J.field b ~first "diagnostics" diags_json;
  let d = r.degradation in
  let deg_json =
    let db = Buffer.create 256 in
    let df = ref true in
    Buffer.add_char db '{';
    J.field db ~first:df "requested_mode"
      (J.string (Tiers.mode_name d.requested_mode));
    (match d.achieved_mode with
    | None -> ()
    | Some m -> J.field db ~first:df "achieved_mode" (J.string (Tiers.mode_name m)));
    J.field db ~first:df "requested_hz" (Printf.sprintf "%.6g" d.requested_hz);
    (match d.achieved_hz with
    | None -> ()
    | Some hz -> J.field db ~first:df "achieved_hz" (Printf.sprintf "%.6g" hz));
    J.field db ~first:df "retries" (string_of_int d.retries);
    J.field db ~first:df "fallback_nets" (string_of_int d.fallback_nets);
    J.field db ~first:df "lint_errors" (string_of_int d.lint_errors);
    J.field db ~first:df "lint_warnings" (string_of_int d.lint_warnings);
    Buffer.add_char db '}';
    Buffer.contents db
  in
  J.field b ~first "degradation" deg_json;
  Buffer.add_char b '}';
  Buffer.contents b

(* Exit code of a resilient run: 0 on success (degraded or not), else the
   class of the first error diagnostic. *)
let resilient_exit_code r =
  if succeeded r then 0
  else
    match List.filter Diag.is_error r.diagnostics with
    | [] -> Diag.exit_code Diag.E_INTERNAL
    | d :: _ -> Diag.exit_code d.Diag.code
