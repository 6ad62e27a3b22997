open Msched_netlist
module Partition = Msched_partition.Partition
module Latch_analysis = Msched_mts.Latch_analysis

type why =
  | Deadline
  | Via_link of { link : int; dmax : int }
  | Via_group of {
      latch : Ids.Cell.t;
      gate : bool;
      dmax : int;
      out : Ids.Net.t option;
    }

type binding =
  | Floor
  | Transport of { link : int; settle : int }
  | Congestion
  | Sink of { block : Ids.Block.t; cell : Ids.Cell.t; net : Ids.Net.t }
  | Latch_eval of {
      block : Ids.Block.t;
      cell : Ids.Cell.t;
      out : Ids.Net.t option;
      r : int;
      pin_settle : int;
    }

type t = {
  part : Partition.t;
  la : Latch_analysis.t array;
  links : Link.t array;
  req : (int * why) Ids.Net.Tbl.t array;  (** Per block, reverse slots. *)
  feeds_off : int array;
      (** The link step's index, by output net [n]: the origins whose cone
          reaches [n] are [feeds_origin.(i)], at MaxDelay [feeds_dmax.(i)],
          for [i] from [feeds_off.(n)] to [feeds_off.(n + 1) - 1], in the
          order a scan of the block's origins and their [to_outputs] meets
          them.  Output nets are driven in their block, so these are
          origins of the link's source block. *)
  feeds_origin : Ids.Net.t array;
  feeds_dmax : int array;
  mutable longest : int;  (** Longest link settle + departure so far. *)
  mutable longest_by : binding;
}

let provenance t b n = Ids.Net.Tbl.find_opt t.req.(Ids.Block.to_int b) n

let requirement t b n =
  match provenance t b n with Some (v, _) -> v | None -> 0

let raise_req t b n v why =
  if v > requirement t b n then
    Ids.Net.Tbl.replace t.req.(Ids.Block.to_int b) n (v, why)

let local_settle t b n =
  Option.value ~default:0
    (Ids.Net.Tbl.find_opt t.la.(b).Latch_analysis.local_max_settle n)

(* Frame-end deadlines: every origin that reaches a flip-flop data pin,
   RAM write pin or primary output must be settled that many slots before
   the frame end. *)
let seed part la links =
  let nnets = Netlist.num_nets (Partition.netlist part) in
  let each f =
    Array.iter
      (fun (lab : Latch_analysis.t) ->
        Ids.Net.Tbl.iter
          (fun m info ->
            List.iter (fun (onet, d) -> f m (Ids.Net.to_int onet) d)
              info.Latch_analysis.to_outputs)
          lab.Latch_analysis.origins)
      la
  in
  let feeds_off = Array.make (nnets + 1) 0 in
  each (fun _ n _ -> feeds_off.(n + 1) <- feeds_off.(n + 1) + 1);
  for n = 0 to nnets - 1 do
    feeds_off.(n + 1) <- feeds_off.(n + 1) + feeds_off.(n)
  done;
  let next = Array.sub feeds_off 0 nnets in
  let feeds_origin = Array.make feeds_off.(nnets) (Ids.Net.of_int 0) in
  let feeds_dmax = Array.make feeds_off.(nnets) 0 in
  each (fun m n (d : Traverse.delay) ->
      feeds_origin.(next.(n)) <- m;
      feeds_dmax.(next.(n)) <- d.Traverse.dmax;
      next.(n) <- next.(n) + 1);
  let t =
    {
      part;
      la;
      links;
      req = Array.map (fun _ -> Ids.Net.Tbl.create 16) la;
      feeds_off;
      feeds_origin;
      feeds_dmax;
      longest = 1;
      longest_by = Floor;
    }
  in
  Array.iter
    (fun (lab : Latch_analysis.t) ->
      Ids.Net.Tbl.iter
        (fun m info ->
          match info.Latch_analysis.deadline_delay with
          | Some d -> raise_req t lab.Latch_analysis.block m d Deadline
          | None -> ())
        lab.Latch_analysis.origins)
    la;
  t

let propagate t ~latch_ordering ~depart order =
  let nl = Partition.netlist t.part in
  (* Every origin feeding the link's source terminal must be ready MaxDelay
     earlier (in forward time) than the departure; frame-start-settled
     sources bound the frame length. *)
  let link i =
    let l = t.links.(i) in
    let rdep = depart i (requirement t l.Link.dst_block l.Link.net) in
    let n = Ids.Net.to_int l.Link.net in
    for k = t.feeds_off.(n) to t.feeds_off.(n + 1) - 1 do
      let dmax = t.feeds_dmax.(k) in
      raise_req t l.Link.src_block t.feeds_origin.(k) (rdep + dmax)
        (Via_link { link = i; dmax })
    done;
    let settle = local_settle t (Ids.Block.to_int l.Link.src_block) l.Link.net in
    if rdep + settle > t.longest then begin
      t.longest <- rdep + settle;
      t.longest_by <- Transport { link = i; settle }
    end
  in
  (* The group's ReadyTime is its members' largest output requirement; the
     latch evaluation itself costs one level on top of the pin delay. *)
  let group b gi =
    let lab = t.la.(b) in
    let block = lab.Latch_analysis.block in
    let g = lab.Latch_analysis.groups.(gi) in
    let r, out =
      List.fold_left
        (fun (acc, via) latch ->
          match (Netlist.cell nl latch).Cell.output with
          | Some o ->
              let r = requirement t block o in
              if r > acc || via = None then (max r acc, Some o) else (acc, via)
          | None -> (acc, via))
        (0, None) g.Latch_analysis.latches
    in
    let dep ~gate_side (dep : Latch_analysis.dep) =
      let pin gate = function
        | Some (d : Traverse.delay) ->
            raise_req t block dep.Latch_analysis.dep_origin
              (r + d.Traverse.dmax + 1)
              (Via_group
                 {
                   latch = dep.Latch_analysis.dep_latch;
                   gate;
                   dmax = d.Traverse.dmax;
                   out;
                 })
        | None -> ()
      in
      pin false dep.Latch_analysis.dep_pd.Latch_analysis.to_data;
      if gate_side then pin true dep.Latch_analysis.dep_pd.Latch_analysis.to_gate
    in
    List.iter (dep ~gate_side:latch_ordering) g.Latch_analysis.input_deps;
    List.iter (dep ~gate_side:true) g.Latch_analysis.local_deps
  in
  List.iter
    (function Sched_graph.Lnk i -> link i | Sched_graph.Grp (b, gi) -> group b gi)
    order

type frame = { length : int; binding : binding; driver : string }

let driver t binding =
  let name c = (Netlist.cell (Partition.netlist t.part) c).Cell.name in
  match binding with
  | Floor -> "minimum frame"
  | Transport { link; _ } ->
      Format.asprintf "transport chain: settle + departure of %a" Link.pp
        t.links.(link)
  | Congestion -> "wire congestion (latest reserved slot)"
  | Sink { block; cell; _ } ->
      Format.asprintf "local combinational chain to frame-end sink %s in %a"
        (name cell) Ids.Block.pp block
  | Latch_eval { block; cell; _ } ->
      Format.asprintf "latch evaluation of %s in %a" (name cell) Ids.Block.pp
        block

let frame t ~congestion =
  let nl = Partition.netlist t.part in
  let length = ref t.longest and binding = ref t.longest_by in
  if congestion > !length then begin
    length := congestion;
    binding := Congestion
  end;
  Array.iteri
    (fun b (lab : Latch_analysis.t) ->
      let block = lab.Latch_analysis.block in
      let settle n = local_settle t b n in
      List.iter
        (fun cid ->
          let c = Netlist.cell nl cid in
          let sink n =
            if settle n > !length then begin
              length := settle n;
              binding := Sink { block; cell = cid; net = n }
            end
          in
          (match c.Cell.kind, c.Cell.trigger with
          | Cell.Flip_flop, Some (Cell.Dom_clock _) | Cell.Output, _ ->
              sink c.Cell.data_inputs.(0)
          | Cell.Ram { addr_bits }, _ ->
              for i = 0 to 1 + addr_bits do
                sink c.Cell.data_inputs.(i)
              done
          | (Cell.Flip_flop | Cell.Gate _ | Cell.Latch _ | Cell.Input _
            | Cell.Clock_source _), _ ->
              ());
          (* Latches, net-triggered flip-flops and net-triggered RAM write
             ports: local pin settle plus the reverse-time output
             requirement must fit in the frame. *)
          match c.Cell.kind, c.Cell.trigger with
          | Cell.Latch _, _
          | (Cell.Flip_flop | Cell.Ram _), Some (Cell.Net_trigger _) ->
              let r =
                match c.Cell.output with
                | Some out -> requirement t block out
                | None -> 0
              in
              let data =
                match c.Cell.kind with
                | Cell.Ram { addr_bits } ->
                    let m = ref 0 in
                    for i = 0 to 1 + addr_bits do
                      m := max !m (settle c.Cell.data_inputs.(i))
                    done;
                    !m
                | Cell.Latch _ | Cell.Flip_flop | Cell.Gate _ | Cell.Input _
                | Cell.Clock_source _ | Cell.Output ->
                    settle c.Cell.data_inputs.(0)
              in
              let gate =
                match c.Cell.trigger with
                | Some (Cell.Net_trigger tn) -> settle tn
                | Some (Cell.Dom_clock _) | None -> 0
              in
              let pin_settle = max data gate in
              if r + pin_settle + 1 > !length then begin
                length := r + pin_settle + 1;
                binding :=
                  Latch_eval
                    { block; cell = cid; out = c.Cell.output; r; pin_settle }
              end
          | (Cell.Flip_flop | Cell.Ram _ | Cell.Gate _ | Cell.Input _
            | Cell.Clock_source _ | Cell.Output), _ ->
              ())
        (Partition.cells_of_block t.part block))
    t.la;
  { length = !length; binding = !binding; driver = driver t !binding }
