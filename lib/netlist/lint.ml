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
     front-end bug; the scheduler would silently ship it between FPGAs),
     reported as one warning per design;
   - domains declared but never used by any cell (a domain needs no
     materialized [Clock_source] cell — edges normally arrive from the
     external clock generators — but declaring one nothing references is
     suspicious);
   - cross-domain fanin: a net whose backward cone is sampled by more than
     [xdomain_fanin_limit] distinct clock domains. *)
let xdomain_fanin_limit = 4
let dangling_listed = 8

(* One [E_DANGLING] warning for all of a design's dangling nets, in
   net-id order: its context names the lowest one, its message counts
   them and lists the first [dangling_listed].  A design with one
   dangling net reads "net n7 (driven by c6) has no consumer". *)
let dangling nl =
  let count = ref 0 and listed = ref [] in
  Netlist.iter_nets nl (fun n ni ->
      if Array.length ni.Netlist.fanouts = 0 then begin
        if !count < dangling_listed then listed := n :: !listed;
        incr count
      end);
  match List.rev !listed with
  | [] -> None
  | first :: _ as listed ->
      let driven n =
        let ni = Netlist.net nl n in
        String.concat ""
          [
            ni.Netlist.net_name;
            " (driven by ";
            (Netlist.cell nl ni.Netlist.driver).Cell.name;
            ")";
          ]
      in
      let message =
        if !count = 1 then "net " ^ driven first ^ " has no consumer"
        else
          String.concat ""
            [
              string_of_int !count;
              " nets have no consumer: ";
              String.concat ", " (List.map driven listed);
              (if !count > dangling_listed then
                 " and " ^ string_of_int (!count - dangling_listed) ^ " more"
               else "");
            ]
      in
      let ni = Netlist.net nl first in
      Some
        (Diag.make ~net:(Ids.Net.to_int first)
           ~cell:(Ids.Cell.to_int ni.Netlist.driver)
           ~culprit:ni.Netlist.net_name Diag.Warning Diag.E_DANGLING message)

let check nl =
  let diags = ref [] in
  let push d = diags := d :: !diags in
  Option.iter push (dangling nl);
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
  (* Each net's sampling-domain set is a bitset of [words] ints at
     [sampled.(n * words)], 63 domains to a word.  A net whose set grows
     joins a FIFO of net ids unless it is already queued; popping it ORs
     its set into the data inputs of its combinational driver.  Every
     order reaches the same least fixpoint, so only the counts matter. *)
  let nnets = Netlist.num_nets nl in
  let words = max 1 ((Netlist.num_domains nl + 62) / 63) in
  let sampled = Array.make (nnets * words) 0 in
  let queued = Array.make nnets false in
  let queue = Array.make (max 1 nnets) 0 in
  let head = ref 0 and len = ref 0 in
  let enqueue n =
    if not queued.(n) then begin
      queued.(n) <- true;
      queue.((!head + !len) mod nnets) <- n;
      incr len
    end
  in
  Netlist.iter_cells nl (fun c ->
      match c.Cell.trigger with
      | Some (Cell.Dom_clock d) ->
          let d = Ids.Dom.to_int d in
          let w = d / 63 and bit = 1 lsl (d mod 63) in
          Array.iter
            (fun net ->
              let n = Ids.Net.to_int net in
              let i = (n * words) + w in
              if sampled.(i) land bit = 0 then begin
                sampled.(i) <- sampled.(i) lor bit;
                enqueue n
              end)
            c.Cell.data_inputs
      | Some (Cell.Net_trigger _) | None -> ());
  while !len > 0 do
    let n = queue.(!head) in
    head := (!head + 1) mod nnets;
    decr len;
    queued.(n) <- false;
    let drv = Netlist.driver nl (Ids.Net.of_int n) in
    if Cell.is_combinational drv then
      Array.iter
        (fun net ->
          let m = Ids.Net.to_int net in
          let grew = ref false in
          for w = 0 to words - 1 do
            let src = sampled.((n * words) + w) and i = (m * words) + w in
            let merged = sampled.(i) lor src in
            if merged <> sampled.(i) then begin
              sampled.(i) <- merged;
              grew := true
            end
          done;
          if !grew then enqueue m)
        drv.Cell.data_inputs
  done;
  let popcount x =
    let rec go x k = if x = 0 then k else go (x land (x - 1)) (k + 1) in
    go x 0
  in
  let domains_of n =
    let k = ref 0 in
    for w = 0 to words - 1 do
      k := !k + popcount sampled.((n * words) + w)
    done;
    !k
  in
  Netlist.iter_nets nl (fun n ni ->
      let k = domains_of (Ids.Net.to_int n) in
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
