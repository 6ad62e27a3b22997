module Diag = Msched_diag.Diag

let diag_of_validation_error (e : Netlist.validation_error) =
  match e with
  | Netlist.Undriven_net n ->
      Diag.error Diag.E_UNDRIVEN ~net:(Ids.Net.to_int n) "net %a has no driver"
        Ids.Net.pp n
  | Netlist.Multiple_drivers (n, a, b) ->
      Diag.error Diag.E_MALFORMED_NET ~net:(Ids.Net.to_int n)
        ~cell:(Ids.Cell.to_int b) "net %a driven by both %a and %a" Ids.Net.pp
        n Ids.Cell.pp a Ids.Cell.pp b
  | Netlist.Bad_arity (c, msg) ->
      Diag.error Diag.E_ARITY ~cell:(Ids.Cell.to_int c)
        "cell %a has bad arity: %s" Ids.Cell.pp c msg
  | Netlist.Missing_trigger c ->
      Diag.error Diag.E_MALFORMED_NET ~cell:(Ids.Cell.to_int c)
        "sequential cell %a has no trigger" Ids.Cell.pp c
  | Netlist.Unknown_domain d ->
      Diag.error Diag.E_UNKNOWN_DOMAIN ~domain:(Ids.Dom.to_int d)
        "unknown domain %a" Ids.Dom.pp d

(* The frozen-netlist lint.  Builder.finalize already rejects structurally
   broken graphs (undriven nets, arity, unknown domains) fail-fast;
   [Builder.finalize_result] collects those without raising.  What remains
   checkable — and is NOT enforced by finalize — is linted here:

   - combinational cycles (otherwise first surfaced as a raise from deep
     inside levelization, mid-pipeline);
   - dangling nets: a driven net no consumer reads (almost always a
     front-end bug; the scheduler would silently ship it between FPGAs);
   - domains declared but never used by any cell (a domain needs no
     materialized [Clock_source] cell — edges normally arrive from the
     external clock generators — but declaring one nothing references is
     suspicious);
   - cross-domain fanin: a net whose backward cone is sampled by more than
     [xdomain_fanin_limit] distinct clock domains. *)
let xdomain_fanin_limit = 4

let check nl =
  let diags = ref [] in
  let push d = diags := d :: !diags in
  (* Dangling nets. *)
  Netlist.iter_nets nl (fun n ni ->
      if Array.length ni.Netlist.fanouts = 0 then
        push
          (Diag.warning Diag.E_DANGLING ~net:(Ids.Net.to_int n)
             ~cell:(Ids.Cell.to_int ni.Netlist.driver)
             ~culprit:ni.Netlist.net_name "net %s (driven by %s) has no consumer"
             ni.Netlist.net_name
             (Netlist.cell nl ni.Netlist.driver).Cell.name));
  (* Combinational cycles. *)
  (match Levelize.compute nl with
  | Ok _ -> ()
  | Error cycle ->
      let culprit =
        match cycle with
        | c :: _ -> Some (Netlist.cell nl c).Cell.name
        | [] -> None
      in
      push
        (Diag.error Diag.E_COMB_CYCLE
           ?cell:(match cycle with c :: _ -> Some (Ids.Cell.to_int c) | [] -> None)
           ?culprit
           "combinational cycle through %d cells: %a" (List.length cycle)
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
              Ids.Cell.pp)
           cycle));
  (* Declared-but-unused domains. *)
  let used_domains = Array.make (Netlist.num_domains nl) false in
  let use d = used_domains.(Ids.Dom.to_int d) <- true in
  Netlist.iter_cells nl (fun c ->
      (match c.Cell.kind with
      | Cell.Input { domain = Some d } -> use d
      | Cell.Clock_source d -> use d
      | _ -> ());
      match c.Cell.trigger with
      | Some (Cell.Dom_clock d) -> use d
      | Some (Cell.Net_trigger _) | None -> ());
  Array.iteri
    (fun i used ->
      if not used then
        push
          (Diag.warning Diag.E_UNKNOWN_DOMAIN ~domain:i
             "domain %s is declared but never used"
             (Netlist.domain_name nl (Ids.Dom.of_int i))))
    used_domains;
  (* Cross-domain fanin.  A net sampled by sequential cells of many
     different domains forks into one MTS transport per crossing, and the
     equal-delay MERGE rule (Axiom 2) pads every fork to the slowest arm —
     so high cross-domain fanin is where schedule length quietly goes.  The
     sampling-domain set of each net is the backward closure over
     combinational logic of the [Dom_clock] triggers of its sequential
     readers; more than [xdomain_fanin_limit] domains draws a warning. *)
  let module IntSet = Set.Make (Int) in
  let sampled : (int, IntSet.t) Hashtbl.t = Hashtbl.create 97 in
  let get n = Option.value ~default:IntSet.empty (Hashtbl.find_opt sampled n) in
  let work = Queue.create () in
  let add_domain net d =
    let n = Ids.Net.to_int net in
    let s = get n in
    if not (IntSet.mem d s) then (
      Hashtbl.replace sampled n (IntSet.add d s);
      Queue.push net work)
  in
  Netlist.iter_cells nl (fun c ->
      match c.Cell.trigger with
      | Some (Cell.Dom_clock d) ->
          Array.iter
            (fun n -> add_domain n (Ids.Dom.to_int d))
            c.Cell.data_inputs
      | Some (Cell.Net_trigger _) | None -> ());
  while not (Queue.is_empty work) do
    let n = Queue.pop work in
    let drv = Netlist.driver nl n in
    if Cell.is_combinational drv then
      let s = get (Ids.Net.to_int n) in
      Array.iter
        (fun m -> IntSet.iter (fun d -> add_domain m d) s)
        drv.Cell.data_inputs
  done;
  Netlist.iter_nets nl (fun n ni ->
      let k = IntSet.cardinal (get (Ids.Net.to_int n)) in
      if k > xdomain_fanin_limit then
        push
          (Diag.warning Diag.E_XDOMAIN_FANIN ~net:(Ids.Net.to_int n)
             ~cell:(Ids.Cell.to_int ni.Netlist.driver)
             ~culprit:ni.Netlist.net_name
             "net %s (driven by %s) is sampled by %d clock domains (limit \
              %d): each crossing costs an MTS transport and equal-delay \
              padding"
             ni.Netlist.net_name
             (Netlist.cell nl ni.Netlist.driver).Cell.name
             k xdomain_fanin_limit));
  List.rev !diags

let errors ds = List.filter Diag.is_error ds
let has_errors ds = List.exists Diag.is_error ds
