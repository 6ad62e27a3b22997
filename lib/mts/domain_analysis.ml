open Msched_netlist
module DSet = Ids.Dom.Set

type t = { trans : DSet.t array; sample : DSet.t array }

let transitions t n = t.trans.(Ids.Net.to_int n)
let samples t n = t.sample.(Ids.Net.to_int n)

let trigger_domains_with trans = function
  | Cell.Dom_clock d -> DSet.singleton d
  | Cell.Net_trigger n -> trans.(Ids.Net.to_int n)

(* Forward fixed point for transition domains.

   A cell's output transitions in:
   - Input: its declared stimulus domain;
   - Clock_source d: {d};
   - Gate: the union over its data inputs;
   - Flip_flop: the domains of its trigger;
   - Latch: trigger domains union data-input domains (transparent latches
     pass data transitions through);
   - Ram: trigger domains (synchronous write visible on read-through) union
     read-address transition domains (asynchronous read). *)
let output_trans trans (c : Cell.t) =
  let of_net n = trans.(Ids.Net.to_int n) in
  let of_trigger () =
    match c.Cell.trigger with
    | Some tr -> trigger_domains_with trans tr
    | None -> DSet.empty
  in
  match c.Cell.kind with
  | Cell.Input { domain = Some d } -> DSet.singleton d
  | Cell.Input { domain = None } -> DSet.empty
  | Cell.Clock_source d -> DSet.singleton d
  | Cell.Gate _ ->
      Array.fold_left (fun acc n -> DSet.union acc (of_net n)) DSet.empty
        c.Cell.data_inputs
  | Cell.Flip_flop -> of_trigger ()
  | Cell.Latch _ -> DSet.union (of_trigger ()) (of_net c.Cell.data_inputs.(0))
  | Cell.Ram { addr_bits } ->
      let raddr =
        List.init addr_bits (fun i -> c.Cell.data_inputs.(2 + addr_bits + i))
      in
      List.fold_left
        (fun acc n -> DSet.union acc (of_net n))
        (of_trigger ()) raddr
  | Cell.Output -> DSet.empty

(* Least fixed points by worklist.  Every item (cell or net) is evaluated
   once, in the order [first] gives; after that an item is evaluated again
   only when a set it reads grew.  Each item sits in the FIFO at most once,
   so a ring of [n] slots holds it.  The updates are monotone unions, so
   the result is the same least fixed point a sweep-until-stable loop
   reaches, whatever the order. *)
let worklist n ~first eval =
  let ring = Array.init n first in
  let queued = Array.make n true in
  let head = ref 0 and len = ref n in
  let push i =
    if not queued.(i) then begin
      queued.(i) <- true;
      ring.((!head + !len) mod n) <- i;
      incr len
    end
  in
  while !len > 0 do
    let i = ring.(!head) in
    head := (!head + 1) mod n;
    decr len;
    queued.(i) <- false;
    eval push i
  done

(* A cell is evaluated again when a net it reads (a fanout of that net)
   grew. *)
let compute_trans nl =
  let trans = Array.make (Netlist.num_nets nl) DSet.empty in
  let cells = Netlist.cells nl in
  worklist (Array.length cells) ~first:Fun.id (fun push ci ->
      let c = cells.(ci) in
      match c.Cell.output with
      | None -> ()
      | Some out ->
          let s = output_trans trans c in
          let i = Ids.Net.to_int out in
          if not (DSet.subset s trans.(i)) then begin
            trans.(i) <- DSet.union trans.(i) s;
            Array.iter
              (fun (tm : Netlist.term) -> push (Ids.Cell.to_int tm.Netlist.term_cell))
              (Netlist.fanouts nl out)
          end);
  trans

(* Backward fixed point for sample domains.

   A net is sampled in domain d when it feeds, through combinational logic:
   - the data pin of a flip-flop or latch whose trigger fires in d;
   - a write pin of a RAM whose trigger fires in d;
   - the trigger pin of a state element whose *data* can transition in d
     (the gate is "read against" the data on every relevant edge);
   - the read-address pins of a RAM propagate the RAM output's samples
     backward (asynchronous read path), as do gate data pins. *)
let compute_sample nl trans =
  let sample = Array.make (Netlist.num_nets nl) DSet.empty in
  let demand_of_term (tm : Netlist.term) =
    let c = Netlist.cell nl tm.Netlist.term_cell in
    let trig_doms () =
      match c.Cell.trigger with
      | Some tr -> trigger_domains_with trans tr
      | None -> DSet.empty
    in
    match c.Cell.kind, tm.Netlist.term_pin with
    | Cell.Gate _, Netlist.Data_pin _ -> (
        match c.Cell.output with
        | Some out -> sample.(Ids.Net.to_int out)
        | None -> DSet.empty)
    | (Cell.Flip_flop | Cell.Latch _), Netlist.Data_pin _ -> trig_doms ()
    | (Cell.Flip_flop | Cell.Latch _), Netlist.Trigger_pin ->
        (* The gate value matters whenever the data can change. *)
        trans.(Ids.Net.to_int c.Cell.data_inputs.(0))
    | Cell.Ram { addr_bits }, Netlist.Data_pin i ->
        if i < 2 + addr_bits then trig_doms () (* we / wdata / waddr *)
        else (
          (* raddr: backward through the asynchronous read *)
          match c.Cell.output with
          | Some out -> sample.(Ids.Net.to_int out)
          | None -> DSet.empty)
    | Cell.Ram _, Netlist.Trigger_pin -> DSet.empty
    | Cell.Output, Netlist.Data_pin _ -> DSet.empty
    | (Cell.Input _ | Cell.Clock_source _), _ -> DSet.empty
    | Cell.Gate _, Netlist.Trigger_pin | Cell.Output, Netlist.Trigger_pin ->
        DSet.empty
  in
  (* A net is evaluated again when the output of a gate it feeds, or of
     a RAM it addresses for reading, grew: the only demands that read
     [sample]. *)
  let requeue_inputs push (c : Cell.t) =
    match c.Cell.kind with
    | Cell.Gate _ -> Array.iter (fun n -> push (Ids.Net.to_int n)) c.Cell.data_inputs
    | Cell.Ram { addr_bits } ->
        for i = 2 + addr_bits to (2 * addr_bits) + 1 do
          push (Ids.Net.to_int c.Cell.data_inputs.(i))
        done
    | Cell.Input _ | Cell.Clock_source _ | Cell.Latch _ | Cell.Flip_flop
    | Cell.Output ->
        ()
  in
  let n = Netlist.num_nets nl in
  (* Demand flows from consumers back to producers: start from the last
     net. *)
  worklist n ~first:(fun i -> n - 1 - i) (fun push i ->
      let ni = Netlist.net nl (Ids.Net.of_int i) in
      let s =
        Array.fold_left
          (fun acc tm -> DSet.union acc (demand_of_term tm))
          DSet.empty ni.Netlist.fanouts
      in
      if not (DSet.subset s sample.(i)) then begin
        sample.(i) <- DSet.union sample.(i) s;
        requeue_inputs push (Netlist.cell nl ni.Netlist.driver)
      end);
  sample

let compute ?(obs = Msched_obs.Sink.null) nl =
  let trans = compute_trans nl in
  let sample = compute_sample nl trans in
  let t = { trans; sample } in
  if Msched_obs.Sink.enabled obs then begin
    let module Sink = Msched_obs.Sink in
    Sink.add obs "domain.nets" (Netlist.num_nets nl);
    Sink.add obs "domain.domains" (List.length (Netlist.domains nl));
    let multi = ref 0 and mts = ref 0 in
    Array.iteri
      (fun i ds ->
        if DSet.cardinal ds >= 2 then begin
          Stdlib.incr multi;
          if DSet.cardinal sample.(i) >= 2 then Stdlib.incr mts
        end)
      trans;
    Sink.add obs "domain.multi_transition_nets" !multi;
    Sink.add obs "domain.mts_nets" !mts
  end;
  t

let trigger_domains t tr = trigger_domains_with t.trans tr
let is_multi_transition t n = DSet.cardinal (transitions t n) >= 2

let is_mts_net t n =
  DSet.cardinal (transitions t n) >= 2 && DSet.cardinal (samples t n) >= 2

let is_mts_gate t _nl (c : Cell.t) =
  Cell.is_combinational c
  &&
  match c.Cell.output with
  | Some out -> is_mts_net t out
  | None -> false

let is_mts_state t (c : Cell.t) =
  match c.Cell.kind, c.Cell.trigger with
  | (Cell.Latch _ | Cell.Flip_flop), Some tr ->
      DSet.cardinal (trigger_domains t tr) >= 2
  | (Cell.Latch _ | Cell.Flip_flop), None -> false
  | (Cell.Gate _ | Cell.Ram _ | Cell.Input _ | Cell.Clock_source _ | Cell.Output), _
    ->
      false

let pp_net t ppf n =
  let pp_set ppf s =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
      Ids.Dom.pp ppf (DSet.elements s)
  in
  Format.fprintf ppf "%a: T={%a} S={%a}" Ids.Net.pp n pp_set (transitions t n)
    pp_set (samples t n)
