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
   combinational through-cells.  Each combinational cell is queued once, so
   the FIFO is [topo] itself: cells are appended at [tail] and popped at
   [head], and a cycle leaves it short.  Only members are ever decremented,
   so after the loop the cells with positive in-degree are exactly the
   members left out of [topo]. *)
let compute nl =
  let ncells = Netlist.num_cells nl in
  let levels = Array.make (Netlist.num_nets nl) 0 in
  let indeg = Array.make ncells 0 in
  let total = ref 0 in
  Netlist.iter_cells nl (fun c ->
      if is_comb_through c then begin
        incr total;
        let deg = ref 0 in
        for p = comb_lo c to comb_hi c - 1 do
          if is_comb_through (Netlist.driver nl c.data_inputs.(p)) then incr deg
        done;
        indeg.(Ids.Cell.to_int c.id) <- !deg
      end);
  let topo = Array.make !total (Ids.Cell.of_int 0) in
  let tail = ref 0 in
  let enqueue id =
    topo.(!tail) <- id;
    incr tail
  in
  Netlist.iter_cells nl (fun c ->
      if is_comb_through c && indeg.(Ids.Cell.to_int c.id) = 0 then
        enqueue c.id);
  let head = ref 0 and max_level = ref 0 in
  while !head < !tail do
    let c = Netlist.cell nl topo.(!head) in
    incr head;
    match c.output with
    | None -> ()
    | Some out ->
        let lvl = ref 1 in
        for p = comb_lo c to comb_hi c - 1 do
          let l = levels.(Ids.Net.to_int c.data_inputs.(p)) + 1 in
          if l > !lvl then lvl := l
        done;
        levels.(Ids.Net.to_int out) <- !lvl;
        if !lvl > !max_level then max_level := !lvl;
        let fanouts = Netlist.fanouts nl out in
        for k = 0 to Array.length fanouts - 1 do
          let tm = fanouts.(k) in
          let consumer = Netlist.cell nl tm.Netlist.term_cell in
          if
            is_comb_through consumer
            && is_comb_pin consumer tm.Netlist.term_pin
          then begin
            let i = Ids.Cell.to_int consumer.id in
            indeg.(i) <- indeg.(i) - 1;
            if indeg.(i) = 0 then enqueue consumer.id
          end
        done
  done;
  if !tail < !total then begin
    (* Cells still having positive in-degree are on or downstream of a cycle;
       extract one actual cycle by walking, from the lowest such cell, to
       the first such driver among each cell's combinational inputs. *)
    let rec stuck_pred (c : Cell.t) p hi =
      if p >= hi then None
      else
        let j = Ids.Cell.to_int (Netlist.driver nl c.data_inputs.(p)).Cell.id in
        if indeg.(j) > 0 then Some j else stuck_pred c (p + 1) hi
    in
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
        match stuck_pred c (comb_lo c) (comb_hi c) with
        | Some j -> walk (i :: seen) j
        | None -> i :: seen
    in
    let rec first_stuck i =
      if i >= ncells then []
      else if indeg.(i) > 0 then List.map Ids.Cell.of_int (walk [] i)
      else first_stuck (i + 1)
    in
    Error (first_stuck 0)
  end
  else Ok { levels; topo; max_level = !max_level }

let compute_exn nl =
  match compute nl with
  | Ok t -> t
  | Error cycle -> raise (Combinational_cycle cycle)

let net_level t n = t.levels.(Ids.Net.to_int n)
let topo_cells t = t.topo
let max_level t = t.max_level
