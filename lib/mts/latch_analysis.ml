open Msched_netlist
module Partition = Msched_partition.Partition

type pin_delay = {
  to_data : Traverse.delay option;
  to_gate : Traverse.delay option;
}

type dep = { dep_origin : Ids.Net.t; dep_latch : Ids.Cell.t; dep_pd : pin_delay }

type group = {
  gid : int;
  latches : Ids.Cell.t list;
  input_deps : dep list;
  local_deps : dep list;
}

type origin_info = {
  to_outputs : (Ids.Net.t * Traverse.delay) list;
  deadline_delay : int option;
  to_latch_pins : (Ids.Cell.t * pin_delay) list;
}

type t = {
  block : Ids.Block.t;
  input_nets : Ids.Net.t list;
  output_nets : Ids.Net.t list;
  latch_output_origins : Ids.Net.t list;
  origins : origin_info Ids.Net.Tbl.t;
  groups : group array;
  local_max_settle : int Ids.Net.Tbl.t;
}

(* --- Union-find over latch indices ------------------------------------ *)

module Uf = struct
  let create n = Array.init n Fun.id

  let rec find uf i = if uf.(i) = i then i else find uf uf.(i)

  let union uf i j =
    let ri = find uf i and rj = find uf j in
    if ri <> rj then uf.(min ri rj) |> fun root -> uf.(max ri rj) <- root
end

(* --- Pin classification ------------------------------------------------ *)

type sink_class =
  | State_data of Ids.Cell.t  (* latch D, or net-triggered FF D *)
  | State_gate of Ids.Cell.t  (* latch gate, or net-triggered FF clock *)
  | Deadline  (* Dom-clocked FF data, RAM write pins, primary output *)
  | Not_sink  (* combinational pins, global clock triggers *)

(* Net-triggered flip-flops share the latch hold hazard (their clock edge
   arrives mid-frame), so they get the same D/G treatment; dom-clocked
   flip-flops capture at frame boundaries and only impose deadlines. *)
let classify_sink nl (tm : Netlist.term) =
  let c = Netlist.cell nl tm.Netlist.term_cell in
  let net_triggered () =
    match c.Cell.trigger with
    | Some (Cell.Net_trigger _) -> true
    | Some (Cell.Dom_clock _) | None -> false
  in
  match c.Cell.kind, tm.Netlist.term_pin with
  | Cell.Latch _, Netlist.Data_pin _ -> State_data c.Cell.id
  | Cell.Latch _, Netlist.Trigger_pin ->
      if net_triggered () then State_gate c.Cell.id else Not_sink
  | Cell.Flip_flop, Netlist.Data_pin _ ->
      if net_triggered () then State_data c.Cell.id else Deadline
  | Cell.Flip_flop, Netlist.Trigger_pin ->
      if net_triggered () then State_gate c.Cell.id else Not_sink
  | Cell.Ram { addr_bits }, Netlist.Data_pin i ->
      if i >= 2 + addr_bits then Not_sink (* read address: combinational *)
      else if net_triggered () then State_data c.Cell.id
      else Deadline
  | Cell.Ram _, Netlist.Trigger_pin ->
      if net_triggered () then State_gate c.Cell.id else Not_sink
  | Cell.Output, Netlist.Data_pin _ -> Deadline
  | (Cell.Gate _ | Cell.Input _ | Cell.Clock_source _), _ -> Not_sink
  | Cell.Output, Netlist.Trigger_pin -> Not_sink

let merge_delay a b =
  match a with
  | None -> Some b
  | Some d ->
      Some
        {
          Traverse.dmin = min d.Traverse.dmin b.Traverse.dmin;
          Traverse.dmax = max d.Traverse.dmax b.Traverse.dmax;
        }

(* Origin info from the origin's cone, in the kernel's visit order. *)
let origin_info_of nl region is_output src =
  let to_outputs = ref [] in
  let deadline = ref (-1) in
  let pins = ref [] in
  let add_pin l d ~gate =
    let pd, rest =
      match List.partition (fun (l', _) -> Ids.Cell.equal l l') !pins with
      | [ (_, pd) ], rest -> (pd, rest)
      | _, rest -> ({ to_data = None; to_gate = None }, rest)
    in
    let pd =
      if gate then { pd with to_gate = merge_delay pd.to_gate d }
      else { pd with to_data = merge_delay pd.to_data d }
    in
    pins := (l, pd) :: rest
  in
  Traverse.cone region src (fun n dmin dmax ->
      if is_output n then
        to_outputs := (n, { Traverse.dmin; dmax }) :: !to_outputs;
      let fanouts = Netlist.fanouts nl n in
      for t = 0 to Array.length fanouts - 1 do
        let tm = fanouts.(t) in
        if Traverse.contains region tm.Netlist.term_cell then
          match classify_sink nl tm with
          | Not_sink -> ()
          | Deadline -> deadline := max !deadline dmax
          | State_data l -> add_pin l { Traverse.dmin; dmax } ~gate:false
          | State_gate l -> add_pin l { Traverse.dmin; dmax } ~gate:true
      done);
  {
    to_outputs = List.rev !to_outputs;
    deadline_delay = (if !deadline < 0 then None else Some !deadline);
    to_latch_pins =
      List.sort (fun (a, _) (b, _) -> Ids.Cell.compare a b) !pins;
  }

let analyze_block_in scratch part block =
  let nl = Partition.netlist part in
  let cells = Partition.cells_of_block part block in
  let region = Traverse.region scratch cells in
  let input_nets = Partition.input_nets part block in
  let output_nets = Partition.output_nets part block in
  let output_set =
    List.fold_left (fun s n -> Ids.Net.Set.add n s) Ids.Net.Set.empty output_nets
  in
  let is_output n = Ids.Net.Set.mem n output_set in
  let latches =
    let is_stateful cid =
      let c = Netlist.cell nl cid in
      match c.Cell.kind, c.Cell.trigger with
      | Cell.Latch _, _ -> true
      | (Cell.Flip_flop | Cell.Ram _), Some (Cell.Net_trigger _) -> true
      | (Cell.Flip_flop | Cell.Ram _), (Some (Cell.Dom_clock _) | None) ->
          false
      | (Cell.Gate _ | Cell.Input _ | Cell.Clock_source _ | Cell.Output), _ ->
          false
    in
    List.filter is_stateful cells
  in
  let latch_output_origins =
    List.filter_map (fun cid -> (Netlist.cell nl cid).Cell.output) latches
  in
  let origins = Ids.Net.Tbl.create 64 in
  let origin_nets = input_nets @ latch_output_origins in
  List.iter
    (fun m ->
      if not (Ids.Net.Tbl.mem origins m) then
        Ids.Net.Tbl.replace origins m (origin_info_of nl region is_output m))
    origin_nets;
  (* Latches needing group coordination: those reached by an input net, or
     by another latch's output (local latch chains must propagate ReadyTime
     requirements too, or a downstream link could sample a chained latch
     before it has evaluated). *)
  let latch_index = Ids.Cell.Tbl.create 16 in
  List.iteri (fun i l -> Ids.Cell.Tbl.replace latch_index l i) latches;
  let nlatches = List.length latches in
  let latch_arr = Array.of_list latches in
  let touched = Array.make nlatches false in
  List.iter
    (fun m ->
      let info = Ids.Net.Tbl.find origins m in
      List.iter
        (fun (l, _) -> touched.(Ids.Cell.Tbl.find latch_index l) <- true)
        info.to_latch_pins)
    (input_nets @ latch_output_origins);
  (* D-type sibling merge via union-find. *)
  let uf = Uf.create nlatches in
  List.iter
    (fun m ->
      let info = Ids.Net.Tbl.find origins m in
      let data_latches =
        List.filter_map
          (fun (l, pd) ->
            if pd.to_data <> None then Some (Ids.Cell.Tbl.find latch_index l)
            else None)
          info.to_latch_pins
      in
      match data_latches with
      | [] -> ()
      | first :: rest -> List.iter (fun j -> Uf.union uf first j) rest)
    input_nets;
  (* Processing-order edges between union-find roots:
     - G-type: gate-consumer latch root before data-consumer latch root;
     - local consumption: downstream group before upstream group. *)
  let edges = Hashtbl.create 32 in
  let add_edge a b =
    let ra = Uf.find uf a and rb = Uf.find uf b in
    if ra <> rb then Hashtbl.replace edges (ra, rb) ()
  in
  List.iter
    (fun m ->
      let info = Ids.Net.Tbl.find origins m in
      let data_l, gate_l =
        List.fold_left
          (fun (dl, gl) (l, pd) ->
            let i = Ids.Cell.Tbl.find latch_index l in
            ( (if pd.to_data <> None then i :: dl else dl),
              if pd.to_gate <> None then i :: gl else gl ))
          ([], []) info.to_latch_pins
      in
      List.iter (fun g -> List.iter (fun d -> add_edge g d) data_l) gate_l)
    input_nets;
  (* Local consumption edges: latch LA's output feeding latch LB means LB
     (downstream) is processed before LA. *)
  List.iter
    (fun la ->
      match (Netlist.cell nl la).Cell.output with
      | None -> ()
      | Some out -> (
          match Ids.Net.Tbl.find_opt origins out with
          | None -> ()
          | Some info ->
              let ia = Ids.Cell.Tbl.find latch_index la in
              List.iter
                (fun (lb, _) ->
                  let ib = Ids.Cell.Tbl.find latch_index lb in
                  if touched.(ia) && touched.(ib) then add_edge ib ia)
                info.to_latch_pins))
    latches;
  (* Condense to groups. Only touched roots become groups. *)
  let members = Array.make nlatches [] in
  for i = nlatches - 1 downto 0 do
    if touched.(i) then begin
      let r = Uf.find uf i in
      members.(r) <- i :: members.(r)
    end
  done;
  let roots =
    List.filter (fun r -> members.(r) <> []) (List.init nlatches Fun.id)
  in
  let root_pos = Hashtbl.create 16 in
  List.iteri (fun pos r -> Hashtbl.replace root_pos r pos) roots;
  let nroots = List.length roots in
  let succ = Array.make nroots [] in
  Hashtbl.iter
    (fun (a, b) () ->
      match Hashtbl.find_opt root_pos a, Hashtbl.find_opt root_pos b with
      | Some pa, Some pb -> succ.(pa) <- pb :: succ.(pa)
      | _, _ -> ())
    edges;
  let comps = Graph_util.sccs nroots (fun v -> succ.(v)) in
  let root_arr = Array.of_list roots in
  let input_set =
    List.fold_left (fun s n -> Ids.Net.Set.add n s) Ids.Net.Set.empty input_nets
  in
  let groups =
    List.mapi
      (fun gid comp ->
        let latch_ids =
          List.concat_map (fun pos -> members.(root_arr.(pos))) comp
          |> List.map (fun i -> latch_arr.(i))
        in
        let latch_set =
          List.fold_left
            (fun s l -> Ids.Cell.Set.add l s)
            Ids.Cell.Set.empty latch_ids
        in
        let deps_of origin_list =
          List.concat_map
            (fun m ->
              match Ids.Net.Tbl.find_opt origins m with
              | None -> []
              | Some info ->
                  List.filter_map
                    (fun (l, pd) ->
                      if Ids.Cell.Set.mem l latch_set then
                        Some { dep_origin = m; dep_latch = l; dep_pd = pd }
                      else None)
                    info.to_latch_pins)
            origin_list
        in
        {
          gid;
          latches = latch_ids;
          input_deps = deps_of (Ids.Net.Set.elements input_set);
          local_deps = deps_of latch_output_origins;
        })
      comps
  in
  let local_max_settle = Ids.Net.Tbl.create 64 in
  Traverse.settle region (Ids.Net.Tbl.replace local_max_settle);
  {
    block;
    input_nets;
    output_nets;
    latch_output_origins;
    origins;
    groups = Array.of_list groups;
    local_max_settle;
  }

let analyze_block part block =
  analyze_block_in (Traverse.scratch (Partition.netlist part)) part block

let analyze ?(obs = Msched_obs.Sink.null) part =
  let scratch = Traverse.scratch (Partition.netlist part) in
  let la =
    Array.init (Partition.num_blocks part) (fun b ->
        analyze_block_in scratch part (Ids.Block.of_int b))
  in
  if Msched_obs.Sink.enabled obs then
    Array.iter
      (fun lab ->
        Msched_obs.Sink.add obs "latch.groups" (Array.length lab.groups);
        Msched_obs.Sink.add obs "latch.origins"
          (Ids.Net.Tbl.length lab.origins))
      la;
  la
