open Msched_netlist

type xing = {
  x_crossing : Ids.Net.t list;
  x_inputs : Ids.Net.t list array;  (* by block index *)
  x_outputs : Ids.Net.t list array;
  x_foreign : (Ids.Block.t * Netlist.term list) list array;  (* by net index *)
}

type t = {
  netlist : Netlist.t;
  block_of_cell : int array;  (* by cell index *)
  cells_of_block : Ids.Cell.t list array;
  mutable xing : xing option;  (* lazily computed crossing index *)
}

let netlist t = t.netlist
let num_blocks t = Array.length t.cells_of_block
let blocks t = List.init (num_blocks t) Ids.Block.of_int
let block_of_cell t c = Ids.Block.of_int t.block_of_cell.(Ids.Cell.to_int c)
let cells_of_block t b = t.cells_of_block.(Ids.Block.to_int b)

let weight_of_block t b =
  Capacity.block_weight t.netlist (cells_of_block t b)

let is_global_term nl (tm : Netlist.term) =
  match tm.Netlist.term_pin with
  | Netlist.Data_pin _ -> false
  | Netlist.Trigger_pin -> (
      let c = Netlist.cell nl tm.Netlist.term_cell in
      match c.Cell.trigger with
      | Some (Cell.Dom_clock _) -> true
      | Some (Cell.Net_trigger _) | None -> false)

let build nl block_of_cell =
  let nblocks = 1 + Array.fold_left max (-1) block_of_cell in
  let cells_of_block = Array.make nblocks [] in
  for i = Array.length block_of_cell - 1 downto 0 do
    let b = block_of_cell.(i) in
    cells_of_block.(b) <- Ids.Cell.of_int i :: cells_of_block.(b)
  done;
  { netlist = nl; block_of_cell; cells_of_block; xing = None }

let of_assignment nl assignment =
  if Array.length assignment <> Netlist.num_cells nl then
    invalid_arg "Partition.of_assignment: wrong length";
  build nl (Array.map Ids.Block.to_int assignment)

(* The partitioner's cell graph in CSR form, built once per [make]: an
   offsets array plus one flat array per relation, so that clustering,
   merging and refinement allocate nothing per cell.  For cell [c],
   [nbr.(i)] for [i] in [nbr_off.(c)] to [nbr_off.(c + 1) - 1] are its
   neighbours: the drivers of its data inputs, the driver of a
   [Net_trigger], then the non-global consumers of its output, in that
   order and with repeats.  [net.(i)] over [net_off.(c)] .. are its nets
   (data inputs, trigger net, output).  For net [n], [ep.(i)] over
   [ep_off.(n)] .. are its endpoint cells: the driver first, then every
   consumer that is not a global-clock terminal, in fanout order. *)
type graph = {
  weight : int array;  (* by cell *)
  nbr_off : int array;
  nbr : int array;
  net_off : int array;
  net : int array;
  ep_off : int array;
  ep : int array;
}

let graph nl =
  let ncells = Netlist.num_cells nl and nnets = Netlist.num_nets nl in
  let cells = Netlist.cells nl in
  let ep_off = Array.make (nnets + 1) 0 in
  for n = 0 to nnets - 1 do
    let fo = Netlist.fanouts nl (Ids.Net.of_int n) in
    let k = ref 1 in
    for j = 0 to Array.length fo - 1 do
      if not (is_global_term nl fo.(j)) then incr k
    done;
    ep_off.(n + 1) <- ep_off.(n) + !k
  done;
  let ep = Array.make ep_off.(nnets) 0 in
  for n = 0 to nnets - 1 do
    let ni = Netlist.net nl (Ids.Net.of_int n) in
    let fo = ni.Netlist.fanouts in
    let i = ref ep_off.(n) in
    ep.(!i) <- Ids.Cell.to_int ni.Netlist.driver;
    for j = 0 to Array.length fo - 1 do
      let tm = fo.(j) in
      if not (is_global_term nl tm) then begin
        incr i;
        ep.(!i) <- Ids.Cell.to_int tm.Netlist.term_cell
      end
    done
  done;
  let trigger_net (c : Cell.t) =
    match c.Cell.trigger with
    | Some (Cell.Net_trigger n) -> Ids.Net.to_int n
    | Some (Cell.Dom_clock _) | None -> -1
  in
  let net_off = Array.make (ncells + 1) 0 in
  let nbr_off = Array.make (ncells + 1) 0 in
  for c = 0 to ncells - 1 do
    let cell = cells.(c) in
    let ins =
      Array.length cell.Cell.data_inputs
      + if trigger_net cell >= 0 then 1 else 0
    in
    match cell.Cell.output with
    | Some o ->
        let o = Ids.Net.to_int o in
        net_off.(c + 1) <- net_off.(c) + ins + 1;
        nbr_off.(c + 1) <- nbr_off.(c) + ins + (ep_off.(o + 1) - ep_off.(o) - 1)
    | None ->
        net_off.(c + 1) <- net_off.(c) + ins;
        nbr_off.(c + 1) <- nbr_off.(c) + ins
  done;
  let net = Array.make net_off.(ncells) 0 in
  let nbr = Array.make nbr_off.(ncells) 0 in
  for c = 0 to ncells - 1 do
    let cell = cells.(c) in
    let i = net_off.(c) and j = nbr_off.(c) in
    let di = cell.Cell.data_inputs in
    for k = 0 to Array.length di - 1 do
      let n = Ids.Net.to_int di.(k) in
      net.(i + k) <- n;
      nbr.(j + k) <- ep.(ep_off.(n))
    done;
    let ins = Array.length di in
    let tn = trigger_net cell in
    let ins =
      if tn < 0 then ins
      else begin
        net.(i + ins) <- tn;
        nbr.(j + ins) <- ep.(ep_off.(tn));
        ins + 1
      end
    in
    match cell.Cell.output with
    | Some o ->
        let o = Ids.Net.to_int o in
        net.(i + ins) <- o;
        Array.blit ep (ep_off.(o) + 1) nbr (j + ins)
          (ep_off.(o + 1) - ep_off.(o) - 1)
    | None -> ()
  done;
  {
    weight = Array.map Capacity.cell_weight cells;
    nbr_off;
    nbr;
    net_off;
    net;
    ep_off;
    ep;
  }

(* BFS clustering: grow a block from each unassigned seed until the weight
   budget is reached.  Every cell enters the queue at most once (when it
   is taken), so one array of [ncells] serves every block's BFS. *)
let cluster g ~max_weight ~order =
  let ncells = Array.length g.weight in
  let assignment = Array.make ncells (-1) in
  let queue = Array.make ncells 0 in
  let next_block = ref 0 in
  let grow seed =
    let b = !next_block in
    incr next_block;
    let weight = ref 0 in
    let try_take i =
      if assignment.(i) = -1 then begin
        let w = g.weight.(i) in
        if w > max_weight then
          invalid_arg "Partition.make: a cell exceeds max_weight";
        if !weight + w <= max_weight then begin
          assignment.(i) <- b;
          weight := !weight + w;
          true
        end
        else false
      end
      else false
    in
    queue.(0) <- seed;
    let head = ref 0 and tail = ref 1 in
    let (_ : bool) = try_take seed in
    while !head < !tail do
      let c = queue.(!head) in
      incr head;
      if assignment.(c) = b then
        for k = g.nbr_off.(c) to g.nbr_off.(c + 1) - 1 do
          let n = g.nbr.(k) in
          if try_take n then begin
            queue.(!tail) <- n;
            incr tail
          end
        done
    done
  in
  Array.iter (fun i -> if assignment.(i) = -1 then grow i) order;
  assignment

(* One FM-style refinement pass: move boundary cells to the neighbor block
   they are most connected to when it reduces the cut and fits. *)
let refine g ~max_weight assignment =
  let ncells = Array.length assignment in
  let nblocks = 1 + Array.fold_left max (-1) assignment in
  let weights = Array.make nblocks 0 in
  Array.iteri (fun i b -> weights.(b) <- weights.(b) + g.weight.(i)) assignment;
  let moved = ref 0 in
  (* Over the cell's nets, each net's other endpoints score +1 if the
     move makes the net internal to [target], -1 if it cuts a net
     currently internal to [here], and 0 as soon as they lie in neither
     block alone. *)
  let gain_of_move c ~here ~target =
    let gain = ref 0 in
    for k = g.net_off.(c) to g.net_off.(c + 1) - 1 do
      let n = g.net.(k) in
      let others = ref false and all_target = ref true and all_here = ref true in
      let e = ref g.ep_off.(n) and stop = g.ep_off.(n + 1) in
      while !e < stop && (!all_target || !all_here) do
        let d = g.ep.(!e) in
        if d <> c then begin
          others := true;
          let b = assignment.(d) in
          if b <> target then all_target := false;
          if b <> here then all_here := false
        end;
        incr e
      done;
      if !others then
        if !all_target then incr gain else if !all_here then decr gain
    done;
    !gain
  in
  (* The distinct neighbour blocks of cell [i] other than its own, in
     ascending order: [candidates.(0 .. n - 1)], deduplicated by stamping
     each block with [i]. *)
  let stamp = Array.make nblocks (-1) and candidates = Array.make nblocks 0 in
  for i = 0 to ncells - 1 do
    let here = assignment.(i) in
    let n = ref 0 in
    for k = g.nbr_off.(i) to g.nbr_off.(i + 1) - 1 do
      let b = assignment.(g.nbr.(k)) in
      if b <> here && stamp.(b) <> i then begin
        stamp.(b) <- i;
        let j = ref !n in
        while !j > 0 && candidates.(!j - 1) > b do
          candidates.(!j) <- candidates.(!j - 1);
          decr j
        done;
        candidates.(!j) <- b;
        incr n
      end
    done;
    (* The first candidate with the largest positive gain that fits. *)
    let w = g.weight.(i) in
    let best = ref (-1) and best_gain = ref 0 in
    for k = 0 to !n - 1 do
      let target = candidates.(k) in
      if weights.(target) + w <= max_weight then begin
        let gain = gain_of_move i ~here ~target in
        if gain > !best_gain then begin
          best := target;
          best_gain := gain
        end
      end
    done;
    if !best >= 0 then begin
      assignment.(i) <- !best;
      weights.(here) <- weights.(here) - w;
      weights.(!best) <- weights.(!best) + w;
      incr moved
    end
  done;
  !moved

(* Block pairs counted flat.  Pair [p] is the key [a * nblocks + b]
   ([a < b]) with [counts.(p)] events, numbered in first-occurrence
   order; [slots] maps keys to pair numbers by linear probing and is
   kept at most half full ([keys] and [counts] have half its length). *)
type pair_table = {
  mutable slots : int array;  (* pair number, or -1 when free *)
  mutable keys : int array;
  mutable counts : int array;
  mutable npairs : int;
}

let slot_hash key = (key * 0x2545F4914F6CDD1D) lsr 20

(* The slot holding [key], or the free slot where it belongs. *)
let rec find_slot slots keys mask key i =
  let p = slots.(i) in
  if p < 0 || keys.(p) = key then i
  else find_slot slots keys mask key ((i + 1) land mask)

let grow_pairs t =
  let cap = 2 * Array.length t.slots in
  let mask = cap - 1 in
  let slots = Array.make cap (-1) in
  for p = 0 to t.npairs - 1 do
    let key = t.keys.(p) in
    slots.(find_slot slots t.keys mask key (slot_hash key land mask)) <- p
  done;
  let extend a =
    let b = Array.make (cap / 2) 0 in
    Array.blit a 0 b 0 t.npairs;
    b
  in
  t.slots <- slots;
  t.keys <- extend t.keys;
  t.counts <- extend t.counts

let bump_pair t key =
  let mask = Array.length t.slots - 1 in
  let i = find_slot t.slots t.keys mask key (slot_hash key land mask) in
  let p = t.slots.(i) in
  if p >= 0 then t.counts.(p) <- t.counts.(p) + 1
  else begin
    let p = t.npairs in
    t.slots.(i) <- p;
    t.keys.(p) <- key;
    t.counts.(p) <- 1;
    t.npairs <- p + 1;
    if 2 * t.npairs = Array.length t.slots then grow_pairs t
  end

(* Inter-block connectivity of one merge round, as [Hashtbl.iter] over a
   table keyed by [(a, b)], [a < b], would list it: that order is
   [merge_small]'s tie-break among equally connected neighbours.  A
   table's iteration order depends only on the order its keys were first
   inserted, so the pairs are counted flat (one event per non-global
   consumer in another block than its net's driver, in net order), then
   inserted once each in first-occurrence order.  Returns the pairs in
   that iteration order as [(a, b, w)] arrays. *)
let block_pairs g ~nblocks assignment =
  let nnets = Array.length g.ep_off - 1 in
  let t =
    {
      slots = Array.make 64 (-1);
      keys = Array.make 32 0;
      counts = Array.make 32 0;
      npairs = 0;
    }
  in
  for n = 0 to nnets - 1 do
    let src = assignment.(g.ep.(g.ep_off.(n))) in
    for e = g.ep_off.(n) + 1 to g.ep_off.(n + 1) - 1 do
      let dst = assignment.(g.ep.(e)) in
      if dst <> src then bump_pair t ((min src dst * nblocks) + max src dst)
    done
  done;
  let conn = Hashtbl.create 256 in
  for p = 0 to t.npairs - 1 do
    let key = t.keys.(p) in
    Hashtbl.replace conn (key / nblocks, key mod nblocks) t.counts.(p)
  done;
  let np = t.npairs in
  let pa = Array.make np 0 and pb = Array.make np 0 and pw = Array.make np 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun (a, b) w ->
      pa.(!i) <- a;
      pb.(!i) <- b;
      pw.(!i) <- w;
      incr i)
    conn;
  (pa, pb, pw)

(* Greedy merge of under-filled blocks: repeatedly fold each small block
   into the block it is most connected to that still has room (falling back
   to any block with room), until no merge fits.  BFS clustering leaves a
   tail of fragment blocks behind; this pass packs them. *)
let merge_small g ~max_weight assignment =
  let ncells = Array.length assignment in
  let progress = ref true in
  while !progress do
    progress := false;
    let n = 1 + Array.fold_left max (-1) assignment in
    let weights = Array.make n 0 in
    let cell_counts = Array.make n 0 in
    for i = 0 to ncells - 1 do
      let b = assignment.(i) in
      weights.(b) <- weights.(b) + g.weight.(i);
      cell_counts.(b) <- cell_counts.(b) + 1
    done;
    (* Each block's neighbours with their connection counts, in CSR form:
       block [s] lists the pairs that name it in reverse iteration order,
       as prepending to a per-block list in that order would. *)
    let pa, pb, pw = block_pairs g ~nblocks:n assignment in
    let np = Array.length pa in
    let off = Array.make (n + 1) 0 in
    for p = 0 to np - 1 do
      off.(pa.(p) + 1) <- off.(pa.(p) + 1) + 1;
      off.(pb.(p) + 1) <- off.(pb.(p) + 1) + 1
    done;
    for b = 0 to n - 1 do
      off.(b + 1) <- off.(b + 1) + off.(b)
    done;
    let next = Array.sub off 0 n in
    let nbr = Array.make (2 * np) 0 and nbr_w = Array.make (2 * np) 0 in
    let add a b w =
      nbr.(next.(a)) <- b;
      nbr_w.(next.(a)) <- w;
      next.(a) <- next.(a) + 1
    in
    for p = np - 1 downto 0 do
      add pa.(p) pb.(p) pw.(p);
      add pb.(p) pa.(p) pw.(p)
    done;
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        let c = Int.compare weights.(a) weights.(b) in
        if c <> 0 then c else Int.compare a b)
      order;
    let merged_into = Array.init n Fun.id in
    let rec root b = if merged_into.(b) = b then b else root merged_into.(b) in
    let try_merge s t =
      let t = root t in
      if t <> s && weights.(t) + weights.(s) <= max_weight then begin
        merged_into.(s) <- t;
        weights.(t) <- weights.(t) + weights.(s);
        weights.(s) <- 0;
        progress := true;
        true
      end
      else false
    in
    Array.iter
      (fun s ->
        (* Ids with no cells are holes left by earlier rounds, not blocks. *)
        if cell_counts.(s) > 0 && merged_into.(s) = s && weights.(s) * 2 <= max_weight
        then begin
          (* Candidates by decreasing connection count: a stable insertion
             sort of [s]'s segment. *)
          for i = off.(s) + 1 to off.(s + 1) - 1 do
            let b = nbr.(i) and w = nbr_w.(i) in
            let j = ref i in
            while !j > off.(s) && nbr_w.(!j - 1) < w do
              nbr.(!j) <- nbr.(!j - 1);
              nbr_w.(!j) <- nbr_w.(!j - 1);
              decr j
            done;
            nbr.(!j) <- b;
            nbr_w.(!j) <- w
          done;
          let merged = ref false and i = ref off.(s) in
          while (not !merged) && !i < off.(s + 1) do
            merged := try_merge s nbr.(!i);
            incr i
          done;
          (* Fall back to any block with room. *)
          let t = ref 0 in
          while (not !merged) && !t < n do
            if cell_counts.(!t) > 0 && !t <> s && merged_into.(!t) = !t then
              merged := try_merge s !t;
            incr t
          done
        end)
      order;
    if !progress then
      Array.iteri (fun i b -> assignment.(i) <- root b) assignment
  done

(* Empty blocks can appear after refinement; renumber densely. *)
let compact assignment =
  let nblocks = 1 + Array.fold_left max (-1) assignment in
  let used = Array.make nblocks false in
  Array.iter (fun b -> used.(b) <- true) assignment;
  let remap = Array.make nblocks (-1) in
  let next = ref 0 in
  for b = 0 to nblocks - 1 do
    if used.(b) then begin
      remap.(b) <- !next;
      incr next
    end
  done;
  Array.map (fun b -> remap.(b)) assignment

let make ?(obs = Msched_obs.Sink.null) nl ~max_weight ?(seed = 1) () =
  if max_weight <= 0 then invalid_arg "Partition.make: max_weight";
  let ncells = Netlist.num_cells nl in
  let order = Array.init ncells Fun.id in
  (* Deterministic shuffle of seed order. *)
  let rng = Random.State.make [| seed; ncells |] in
  for i = ncells - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  let g = graph nl in
  let assignment = cluster g ~max_weight ~order in
  merge_small g ~max_weight assignment;
  let assignment = compact assignment in
  let rec loop pass =
    if pass < 3 then
      let moved = refine g ~max_weight assignment in
      if moved > 0 then loop (pass + 1)
  in
  loop 0;
  let t = build nl (compact assignment) in
  if Msched_obs.Sink.enabled obs then begin
    let module Sink = Msched_obs.Sink in
    Sink.add obs "partition.blocks" (num_blocks t);
    List.iter
      (fun b -> Sink.observe obs "partition.block_weight" (weight_of_block t b))
      (blocks t)
  end;
  t

(* The crossing index, computed once per partition: every net's foreign
   consumers (blocks ascending, each block's terminals in fanout order),
   the crossing nets, and each block's input and output nets, all in net
   order.  Nets are visited from the last down so that consing builds
   every list in order; [terms] and [foreign] are per-net scratch. *)
let xing_of t =
  match t.xing with
  | Some x -> x
  | None ->
      let nl = t.netlist in
      let nblocks = num_blocks t and nnets = Netlist.num_nets nl in
      let x_foreign = Array.make nnets [] in
      let crossing = ref [] in
      let inputs = Array.make nblocks [] in
      let outputs = Array.make nblocks [] in
      let terms = Array.make nblocks [] in
      let foreign = Array.make nblocks 0 in
      for n = nnets - 1 downto 0 do
        let net = Ids.Net.of_int n in
        let ni = Netlist.net nl net in
        let src = t.block_of_cell.(Ids.Cell.to_int ni.Netlist.driver) in
        let fo = ni.Netlist.fanouts in
        let nf = ref 0 in
        for j = Array.length fo - 1 downto 0 do
          let tm = fo.(j) in
          if not (is_global_term nl tm) then begin
            let b = t.block_of_cell.(Ids.Cell.to_int tm.Netlist.term_cell) in
            if b <> src then begin
              (match terms.(b) with
              | [] ->
                  let k = ref !nf in
                  while !k > 0 && foreign.(!k - 1) > b do
                    foreign.(!k) <- foreign.(!k - 1);
                    decr k
                  done;
                  foreign.(!k) <- b;
                  incr nf
              | _ :: _ -> ());
              terms.(b) <- tm :: terms.(b)
            end
          end
        done;
        if !nf > 0 then begin
          let l = ref [] in
          for k = !nf - 1 downto 0 do
            let b = foreign.(k) in
            l := (Ids.Block.of_int b, terms.(b)) :: !l;
            terms.(b) <- [];
            inputs.(b) <- net :: inputs.(b)
          done;
          x_foreign.(n) <- !l;
          crossing := net :: !crossing;
          outputs.(src) <- net :: outputs.(src)
        end
      done;
      let x =
        { x_crossing = !crossing; x_inputs = inputs; x_outputs = outputs; x_foreign }
      in
      t.xing <- Some x;
      x

let foreign_consumers t net = (xing_of t).x_foreign.(Ids.Net.to_int net)

let crossing_nets t = (xing_of t).x_crossing
let input_nets t b = (xing_of t).x_inputs.(Ids.Block.to_int b)
let output_nets t b = (xing_of t).x_outputs.(Ids.Block.to_int b)

let cut_size t =
  List.fold_left
    (fun acc n -> acc + List.length (foreign_consumers t n))
    0 (crossing_nets t)

let naive_pin_count t b =
  let nl = t.netlist in
  let outgoing = ref 0 and incoming = Ids.Net.Tbl.create 32 in
  List.iter
    (fun n ->
      let dblock = block_of_cell t (Netlist.driver nl n).Cell.id in
      let foreign = foreign_consumers t n in
      if Ids.Block.equal dblock b && foreign <> [] then incr outgoing;
      if List.exists (fun (fb, _) -> Ids.Block.equal fb b) foreign then
        Ids.Net.Tbl.replace incoming n ())
    (crossing_nets t);
  !outgoing + Ids.Net.Tbl.length incoming

let validate t =
  let ncells = Netlist.num_cells t.netlist in
  if Array.length t.block_of_cell <> ncells then Error "wrong assignment length"
  else
    let nblocks = num_blocks t in
    let bad =
      Array.exists (fun b -> b < 0 || b >= nblocks) t.block_of_cell
    in
    if bad then Error "cell with out-of-range block"
    else if Array.exists (fun l -> l = []) t.cells_of_block then
      Error "empty block"
    else Ok ()

let pp_summary ppf t =
  let max_w =
    List.fold_left (fun m b -> max m (weight_of_block t b)) 0 (blocks t)
  in
  Format.fprintf ppf "%d blocks, cut=%d, max block weight=%d" (num_blocks t)
    (cut_size t) max_w
