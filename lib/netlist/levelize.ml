exception Combinational_cycle of Ids.Cell.t list

type t = {
  levels : int array;  (* by net index *)
  topo : Ids.Cell.t array;
  max_level : int;
}

(* RAM data_inputs = [| we; wdata; waddr...; raddr... |] *)
let comb_lo (c : Cell.t) =
  match c.kind with Cell.Ram { addr_bits } -> 2 + addr_bits | _ -> 0

let comb_hi (c : Cell.t) =
  match c.kind with
  | Cell.Gate _ -> Array.length c.data_inputs
  | Cell.Ram { addr_bits } -> 2 + (2 * addr_bits)
  | Cell.Latch _ | Cell.Flip_flop | Cell.Input _ | Cell.Clock_source _
  | Cell.Output ->
      0

let comb_inputs _nl (c : Cell.t) =
  let lo = comb_lo c in
  List.init (comb_hi c - lo) (fun i -> c.data_inputs.(lo + i))

let is_comb_through (c : Cell.t) =
  match c.kind with
  | Cell.Gate _ | Cell.Ram _ -> true
  | Cell.Latch _ | Cell.Flip_flop | Cell.Input _ | Cell.Clock_source _
  | Cell.Output ->
      false

(* Whether an individual input pin participates in combinational propagation
   through the cell (for RAMs, only read-address pins do). *)
let is_comb_pin (c : Cell.t) (pin : Netlist.pin) =
  match pin, c.kind with
  | Netlist.Trigger_pin, _ -> false
  | Netlist.Data_pin _, Cell.Gate _ -> true
  | Netlist.Data_pin i, Cell.Ram { addr_bits } -> i >= 2 + addr_bits
  | Netlist.Data_pin _, ( Cell.Latch _ | Cell.Flip_flop | Cell.Input _
                        | Cell.Clock_source _ | Cell.Output ) ->
      false

(* Kahn's algorithm over the combinational subgraph.  In-degree of a cell is
   the number of its combinational input nets whose drivers are themselves
   combinational through-cells. *)
let compute nl =
  let ncells = Netlist.num_cells nl in
  let nnets = Netlist.num_nets nl in
  let levels = Array.make nnets 0 in
  let indeg = Array.make ncells 0 in
  let members = Array.make ncells false in
  Netlist.iter_cells nl (fun c ->
      if is_comb_through c then begin
        members.(Ids.Cell.to_int c.id) <- true;
        let deg =
          List.fold_left
            (fun acc n ->
              if is_comb_through (Netlist.driver nl n) then acc + 1 else acc)
            0 (comb_inputs nl c)
        in
        indeg.(Ids.Cell.to_int c.id) <- deg
      end);
  let queue = Queue.create () in
  Netlist.iter_cells nl (fun c ->
      if members.(Ids.Cell.to_int c.id) && indeg.(Ids.Cell.to_int c.id) = 0
      then Queue.add c.id queue);
  let topo = ref [] in
  let processed = ref 0 in
  let total = Array.fold_left (fun n m -> if m then n + 1 else n) 0 members in
  while not (Queue.is_empty queue) do
    let cid = Queue.pop queue in
    incr processed;
    topo := cid :: !topo;
    let c = Netlist.cell nl cid in
    let lvl =
      List.fold_left
        (fun acc n -> max acc (levels.(Ids.Net.to_int n) + 1))
        1 (comb_inputs nl c)
    in
    (match c.output with
    | Some out -> levels.(Ids.Net.to_int out) <- lvl
    | None -> ());
    match c.output with
    | None -> ()
    | Some out ->
        Array.iter
          (fun (tm : Netlist.term) ->
            let consumer = Netlist.cell nl tm.Netlist.term_cell in
            if is_comb_through consumer && is_comb_pin consumer tm.Netlist.term_pin
            then begin
              let i = Ids.Cell.to_int consumer.id in
              indeg.(i) <- indeg.(i) - 1;
              if indeg.(i) = 0 then Queue.add consumer.id queue
            end)
          (Netlist.fanouts nl out)
  done;
  if !processed < total then begin
    (* Cells still having positive in-degree are on or downstream of a cycle;
       extract one actual cycle by walking predecessors. *)
    let stuck =
      List.filter
        (fun i -> members.(i) && indeg.(i) > 0)
        (List.init ncells Fun.id)
    in
    let stuck_set = Hashtbl.create 16 in
    List.iter (fun i -> Hashtbl.replace stuck_set i ()) stuck;
    let rec walk seen i =
      if List.exists (Int.equal i) seen then
        (* cut the path at the first repetition *)
        let rec take = function
          | [] -> []
          | j :: rest -> if Int.equal j i then [ j ] else j :: take rest
        in
        take seen
      else
        let c = Netlist.cell nl (Ids.Cell.of_int i) in
        let pred =
          List.find_map
            (fun n ->
              let d = Netlist.driver nl n in
              let j = Ids.Cell.to_int d.Cell.id in
              if Hashtbl.mem stuck_set j then Some j else None)
            (comb_inputs nl c)
        in
        match pred with
        | Some j -> walk (i :: seen) j
        | None -> i :: seen
    in
    let cycle =
      match stuck with
      | [] -> []
      | i :: _ -> List.map Ids.Cell.of_int (walk [] i)
    in
    Error cycle
  end
  else
    let max_level = Array.fold_left max 0 levels in
    Ok { levels; topo = Array.of_list (List.rev !topo); max_level }

let compute_exn nl =
  match compute nl with
  | Ok t -> t
  | Error cycle -> raise (Combinational_cycle cycle)

let net_level t n = t.levels.(Ids.Net.to_int n)
let topo_cells t = t.topo
let max_level t = t.max_level
