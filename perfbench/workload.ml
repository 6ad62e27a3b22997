(* The three workloads: which `msched serve` flags each runs, the
   in-process settings that mirror those flags, and the seeded request
   streams.  The seed reaches only this module; the server sees nothing but
   the generated netlist text. *)

module Compile = Msched.Compile
module Server = Msched_server.Server
module Serial = Msched_netlist.Serial
module Design_gen = Msched_gen.Design_gen
module Edit = Msched_delta.Edit
module Tiers = Msched_route.Tiers

type kind = Cold_compile | Serve_mix | Delta_edit

type request = {
  label : string;  (** Generator spec, plus the edit for delta requests. *)
  text : string;  (** Netlist text, sent inline. *)
  edit : Edit.kind option;  (** The edit that produced [text] (delta only). *)
  fresh : bool;  (** First sighting of [text] in the stream. *)
  from_base : bool;
      (** Delta: an edit of the base design, so its base is the base
          compile's key rather than the previous response's. *)
}

(* A request stream, generated on demand in send order.  Generation is
   sequential and seeded, so item [i] is the same however many items a run
   ends up sending. *)
type stream = {
  mutable items : request array;
  mutable len : int;
  next : request array -> int -> request;
      (** [next items len]: item [len], given the items before it. *)
}

let stream next = { items = [||]; len = 0; next }

let get s i =
  while s.len <= i do
    let item = s.next s.items s.len in
    if s.len = Array.length s.items then begin
      let grown = Array.make (max 64 (2 * s.len)) item in
      Array.blit s.items 0 grown 0 s.len;
      s.items <- grown
    end;
    s.items.(s.len) <- item;
    s.len <- s.len + 1
  done;
  s.items.(i)

type t = {
  kind : kind;
  name : string;
  why : string;
  connections : int;
  flags : string list;  (** [msched serve] flags, without address and cache dir. *)
  settings : Server.settings;  (** The same settings, for in-process calls. *)
  cached : bool;  (** Runs with [--cache-dir]. *)
  seed : int;
  warmup : request list;  (** Untimed, sent during set-up on every connection. *)
  stream : stream;  (** Timed requests, in send order. *)
  prefetch_per_s : int;
      (** Requests per timed second generated before the run starts:
          above the closed-loop rate of a fast host, so generation stays
          out of the loop. *)
}

let why = function
  | Cold_compile ->
      "compile core dominates: partition, placement, TIERS routing and verify \
       of Table 1 designs, no cache, one connection"
  | Serve_mix ->
      "fixed per-request costs: small designs on two connections, half repeats \
       that read the reroute cache, a congested retry ladder"
  | Delta_edit ->
      "incremental loop: a chain of unfiltered single edits against cached \
       block manifests, threading each response key into the next request"

(* The CLI's [server_settings] for the same flags: default compile
   options with the given pins/weight, virtual routing, warm retries. *)
let settings ~pins ~weight ?max_extra ~retries ~fallback_hard () =
  let route =
    match max_extra with
    | None -> Tiers.default_options
    | Some n -> { Tiers.default_options with Tiers.max_extra_slots = n }
  in
  {
    Server.s_options =
      {
        Compile.default_options with
        Compile.pins_per_fpga = pins;
        max_block_weight = weight;
        route;
      };
    s_max_retries = retries;
    s_fallback_hard = fallback_hard;
    s_reuse = true;
    s_cache_dir = None;
    s_obs_jobs = false;
  }

let text_of_spec spec =
  match Design_gen.of_spec spec with
  | Ok d -> Serial.to_string d.Design_gen.netlist
  | Error d ->
      failwith
        (Format.asprintf "perfbench: bad generator spec %s: %a" spec
           Msched_diag.Diag.pp d)

let request ?edit ?(from_base = false) ~fresh label text =
  { label; text; edit; fresh; from_base }
let of_spec spec = request ~fresh:true spec (text_of_spec spec)

(* cold_compile: the paper's two Table 1 designs at a twentieth of their
   size, 24 seeds in a fixed cycle.  Two design1 rows per design2 row keep
   the median inside one cluster instead of on the gap between two; many
   seeds average out what one seed's design costs and how fast its
   schedule runs. *)
let cold_designs seed =
  List.concat
    (List.init 8 (fun k ->
         List.map of_spec
           [
             Printf.sprintf "design1:scale=0.05,seed=%d" (seed + (2 * k));
             Printf.sprintf "design1:scale=0.05,seed=%d" (seed + (2 * k) + 1);
             Printf.sprintf "design2:scale=0.05,seed=%d" (seed + k);
           ]))

let cycle designs =
  let a = Array.of_list designs in
  stream (fun _ i ->
      let r = a.(i mod Array.length a) in
      { r with fresh = i < Array.length a })

(* serve_mix: the six seeded generator families at 85-800 cells, taken in
   turn.  Every other request of a family is a first sighting; the others
   repeat the exact text of one of that family's earlier first sightings,
   drawn uniformly (a reroute-cache read).  Fixing the family mix and the
   repeat share keeps the seed from moving the workload's cost. *)
let mix_families = 6

let mix_spec rng family =
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let frac lo hi = lo +. Random.State.float rng (hi -. lo) in
  let s = Random.State.int rng 1_000_000 in
  match family with
  | 0 ->
      Printf.sprintf "random:domains=%d,modules=%d,mts=%.2f,seed=%d" (int 2 4)
        (int 6 14) (frac 0.1 0.3) s
  | 1 -> Printf.sprintf "gals:islands=%d,size=%d,seed=%d" (int 3 5) (int 2 4) s
  | 2 ->
      Printf.sprintf "dense:domains=%d,density=%.2f,seed=%d" (int 6 10)
        (frac 0.1 0.3) s
  | 3 -> Printf.sprintf "fabric:banks=%d,domains=%d,seed=%d" (int 2 6) (int 2 4) s
  | 4 -> Printf.sprintf "design1:scale=0.02,seed=%d" s
  | _ -> Printf.sprintf "design2:scale=0.02,seed=%d" s

let mix_stream seed =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  stream (fun items i ->
      let family = i mod mix_families and round = i / mix_families in
      if round mod 2 = 0 then of_spec (mix_spec rng family)
      else
        let earlier_fresh = (round / 2) + 1 in
        let pick = Random.State.int rng earlier_fresh in
        { (items.((2 * pick * mix_families) + family)) with fresh = false })

(* delta_edit: one base design, then chains of single edits, each applied
   to the previous edited netlist.  The kind cycles through all five
   [Edit] kinds from a seed-chosen offset; edit seeds come from the
   workload seed.  Nothing is filtered for reuse: only an edit the kind
   cannot make on the current netlist is redrawn (for design1 none is).
   Every [delta_chain] edits the chain starts again from the base design,
   so the design does not grow with the number of requests a run sends;
   the base design is the same for every seed, so the seed moves only the
   edits. *)
let delta_base = "design1:scale=0.025,seed=1"
let delta_chain = 40

let delta_stream seed =
  let kinds = Array.of_list Edit.all_kinds in
  let rng = Random.State.make [| seed; 0xde17a |] in
  let base =
    match Design_gen.of_spec delta_base with
    | Ok d -> d.Design_gen.netlist
    | Error _ -> invalid_arg "delta_base"
  in
  let current = ref base in
  let offset = ((seed mod Array.length kinds) + Array.length kinds) mod Array.length kinds in
  stream (fun _ i ->
      let from_base = i mod delta_chain = 0 in
      if from_base then current := base;
      let kind = kinds.((offset + i) mod Array.length kinds) in
      let edit_seed = Random.State.bits rng in
      let rec attempt k =
        if k > 16 then
          failwith
            (Printf.sprintf "perfbench: no %s edit applies at step %d"
               (Edit.kind_name kind) i)
        else
          match Edit.apply ~seed:(edit_seed + k) kind !current with
          | Ok edited -> edited
          | Error _ -> attempt (k + 1)
      in
      let nl, desc = attempt 0 in
      current := nl;
      request ~edit:kind ~from_base ~fresh:true
        (Printf.sprintf "edit %d (%s): %s" (i + 1) (Edit.kind_name kind) desc)
        (Serial.to_string nl))

let make name ~seed =
  let compile_flags = [ "--workers"; "1"; "--weight"; "64"; "--pins"; "96" ] in
  let compile_settings =
    settings ~pins:96 ~weight:64 ~retries:0 ~fallback_hard:false ()
  in
  match name with
  | "cold_compile" ->
      let designs = cold_designs seed in
      Some
        {
          kind = Cold_compile;
          name;
          why = why Cold_compile;
          connections = 1;
          flags = compile_flags;
          settings = compile_settings;
          cached = false;
          seed;
          warmup = List.filteri (fun i _ -> i = 0 || i = 2) designs;
          stream = cycle designs;
          prefetch_per_s = 0;
        }
  | "serve_mix" ->
      Some
        {
          kind = Serve_mix;
          name;
          why = why Serve_mix;
          connections = 2;
          flags =
            [
              "--workers"; "2"; "--weight"; "32"; "--pins"; "24";
              "--max-extra"; "0"; "--retries"; "2"; "--fallback-hard";
            ];
          settings =
            settings ~pins:24 ~weight:32 ~max_extra:0 ~retries:2
              ~fallback_hard:true ();
          cached = true;
          seed;
          warmup =
            List.map of_spec
              [
                Printf.sprintf "random:domains=2,modules=6,mts=0.20,seed=%d" seed;
                Printf.sprintf "gals:islands=3,size=2,seed=%d" seed;
                Printf.sprintf "fabric:banks=2,domains=2,seed=%d" seed;
              ];
          stream = mix_stream seed;
          prefetch_per_s = 100;
        }
  | "delta_edit" ->
      Some
        {
          kind = Delta_edit;
          name;
          why = why Delta_edit;
          connections = 1;
          flags = compile_flags;
          settings = compile_settings;
          cached = true;
          seed;
          warmup = [ of_spec delta_base ];
          stream = delta_stream seed;
          prefetch_per_s = 16;
        }
  | _ -> None

(* The row a request's latency is reported in: its edit kind, or its
   generator family with repeats apart. *)
let input_class r =
  match r.edit with
  | Some k -> Edit.kind_name k
  | None ->
      let family = List.hd (String.split_on_char ':' r.label) in
      if r.fresh then family else family ^ " (repeat)"

let with_cache_dir t dir =
  { t with settings = { t.settings with Server.s_cache_dir = Some dir } }

(* The request line for [r]; delta requests carry the previous response's
   manifest key as their base. *)
let line t ?base r =
  let module J = Msched_diag.Diag.Json in
  match t.kind with
  | Cold_compile | Serve_mix -> Printf.sprintf "{\"text\":%s}\n" (J.string r.text)
  | Delta_edit -> (
      match base with
      | None -> Printf.sprintf "{\"op\":\"delta\",\"text\":%s}\n" (J.string r.text)
      | Some key ->
          Printf.sprintf "{\"op\":\"delta\",\"text\":%s,\"base\":%s}\n"
            (J.string r.text) (J.string key))
