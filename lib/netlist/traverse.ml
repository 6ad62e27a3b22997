type delay = { dmin : int; dmax : int }

type scratch = {
  nl : Netlist.t;
  stamp : int array;  (* by net: the walk that last reached it *)
  dmin : int array;  (* by net, valid under the current stamp *)
  dmax : int array;
  owner : int array;  (* by cell: the last region it joined *)
  pos : int array;  (* by cell: topological position in its region *)
  heap : int array;  (* topological positions waiting for their visit *)
  mutable heap_size : int;
  mutable epoch : int;
  mutable regions : int;
}

let scratch nl =
  let nnets = Netlist.num_nets nl and ncells = Netlist.num_cells nl in
  {
    nl;
    stamp = Array.make nnets 0;
    dmin = Array.make nnets 0;
    dmax = Array.make nnets 0;
    owner = Array.make ncells (-1);
    pos = Array.make ncells 0;
    heap = Array.make ncells 0;
    heap_size = 0;
    epoch = 0;
    regions = 0;
  }

type region = {
  s : scratch;
  id : int;
  members : int array;  (* cell ids, in the caller's order, once each *)
  topo : int array;  (* combinational members, in topological order *)
  out : int array;  (* by position: output net, or -1 *)
  fanin_start : int array;  (* by position: CSR offsets into [fanin] *)
  fanin : int array;  (* combinational input nets *)
}

let contains r c = r.s.owner.(Ids.Cell.to_int c) = r.id

let out_net (c : Cell.t) =
  match c.Cell.output with Some n -> Ids.Net.to_int n | None -> -1

let cell_at nl i = Netlist.cell nl (Ids.Cell.of_int i)

(* Kahn's algorithm over the member combinational cells, its queue seeded
   in increasing cell id order.  In-degree counts the combinational input
   pins driven by member combinational cells. *)
let region s cells =
  let nl = s.nl in
  let id = s.regions in
  s.regions <- id + 1;
  let n = List.length cells in
  let members = Array.make n 0 in
  let nmem = ref 0 and ncomb = ref 0 in
  List.iter
    (fun c ->
      let i = Ids.Cell.to_int c in
      if s.owner.(i) <> id then begin
        s.owner.(i) <- id;
        members.(!nmem) <- i;
        incr nmem;
        if Levelize.is_comb_through (Netlist.cell nl c) then incr ncomb
      end)
    cells;
  let members = if !nmem = n then members else Array.sub members 0 !nmem in
  let ncomb = !ncomb in
  let in_play i =
    s.owner.(i) = id && Levelize.is_comb_through (cell_at nl i)
  in
  let comb = Array.make ncomb 0 in
  let k = ref 0 in
  Array.iter
    (fun i ->
      if Levelize.is_comb_through (cell_at nl i) then begin
        comb.(!k) <- i;
        incr k
      end)
    members;
  Array.sort Int.compare comb;
  (* [pos] holds each combinational member's index in [comb] until the
     sort assigns its topological position. *)
  Array.iteri (fun k i -> s.pos.(i) <- k) comb;
  let indeg = Array.make ncomb 0 in
  let nfanin = ref 0 in
  for k = 0 to ncomb - 1 do
    let c = cell_at nl comb.(k) in
    let hi = Levelize.comb_hi c in
    nfanin := !nfanin + hi - Levelize.comb_lo c;
    for p = Levelize.comb_lo c to hi - 1 do
      let d = Netlist.driver nl c.Cell.data_inputs.(p) in
      if in_play (Ids.Cell.to_int d.Cell.id) then indeg.(k) <- indeg.(k) + 1
    done
  done;
  (* Pop order is queue order, so [queue] ends as the topological order. *)
  let queue = Array.make ncomb 0 in
  let tail = ref 0 in
  for k = 0 to ncomb - 1 do
    if indeg.(k) = 0 then begin
      queue.(!tail) <- k;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let c = cell_at nl comb.(queue.(!head)) in
    incr head;
    match c.Cell.output with
    | None -> ()
    | Some o ->
        let fo = Netlist.fanouts nl o in
        for t = 0 to Array.length fo - 1 do
          let tm = fo.(t) in
          let j = Ids.Cell.to_int tm.Netlist.term_cell in
          if
            in_play j
            && Levelize.is_comb_pin (cell_at nl j) tm.Netlist.term_pin
          then begin
            let kj = s.pos.(j) in
            indeg.(kj) <- indeg.(kj) - 1;
            if indeg.(kj) = 0 then begin
              queue.(!tail) <- kj;
              incr tail
            end
          end
        done
  done;
  if !tail < ncomb then begin
    let stuck = ref [] in
    for k = ncomb - 1 downto 0 do
      if indeg.(k) > 0 then stuck := Ids.Cell.of_int comb.(k) :: !stuck
    done;
    raise (Levelize.Combinational_cycle !stuck)
  end;
  let topo = queue in
  Array.iteri (fun p k -> topo.(p) <- comb.(k)) queue;
  let out = Array.make ncomb (-1) in
  let fanin_start = Array.make (ncomb + 1) 0 in
  let fanin = Array.make !nfanin 0 in
  let next = ref 0 in
  Array.iteri
    (fun p i ->
      s.pos.(i) <- p;
      let c = cell_at nl i in
      out.(p) <- out_net c;
      fanin_start.(p) <- !next;
      for q = Levelize.comb_lo c to Levelize.comb_hi c - 1 do
        fanin.(!next) <- Ids.Net.to_int c.Cell.data_inputs.(q);
        incr next
      done)
    topo;
  fanin_start.(ncomb) <- !next;
  { s; id; members; topo; out; fanin_start; fanin }

(* ---- Binary min-heap of topological positions ---- *)

let heap_push s p =
  let h = s.heap in
  let i = ref s.heap_size in
  s.heap_size <- s.heap_size + 1;
  while !i > 0 && h.((!i - 1) / 2) > p do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- p

let heap_pop s =
  let h = s.heap in
  let top = h.(0) in
  let n = s.heap_size - 1 in
  s.heap_size <- n;
  if n > 0 then begin
    let last = h.(n) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let m = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
        if h.(m) < last then begin
          h.(!i) <- h.(m);
          i := m
        end
        else continue := false
      end
    done;
    h.(!i) <- last
  end;
  top

(* Queue every member cell that [n] feeds through a combinational pin and
   that this walk has not queued yet; its output's stamp marks it queued. *)
let push_consumers r e n =
  let s = r.s in
  let fo = Netlist.fanouts s.nl (Ids.Net.of_int n) in
  for t = 0 to Array.length fo - 1 do
    let tm = fo.(t) in
    let j = Ids.Cell.to_int tm.Netlist.term_cell in
    if
      s.owner.(j) = r.id
      && Levelize.is_comb_pin (cell_at s.nl j) tm.Netlist.term_pin
    then begin
      let p = s.pos.(j) in
      let o = r.out.(p) in
      if o >= 0 && s.stamp.(o) <> e then begin
        s.stamp.(o) <- e;
        heap_push s p
      end
    end
  done

(* A queued cell is visited after every member cell that feeds it (the
   heap pops positions in increasing order), so the stamped inputs it
   reads are final. *)
let cone r src f =
  let s = r.s in
  let e = s.epoch + 1 in
  s.epoch <- e;
  let si = Ids.Net.to_int src in
  s.stamp.(si) <- e;
  s.dmin.(si) <- 0;
  s.dmax.(si) <- 0;
  f src 0 0;
  push_consumers r e si;
  while s.heap_size > 0 do
    let p = heap_pop s in
    let lo = ref max_int and hi = ref 0 in
    for q = r.fanin_start.(p) to r.fanin_start.(p + 1) - 1 do
      let n = r.fanin.(q) in
      if s.stamp.(n) = e then begin
        if s.dmin.(n) < !lo then lo := s.dmin.(n);
        if s.dmax.(n) > !hi then hi := s.dmax.(n)
      end
    done;
    let o = r.out.(p) in
    s.dmin.(o) <- !lo + 1;
    s.dmax.(o) <- !hi + 1;
    f (Ids.Net.of_int o) (!lo + 1) (!hi + 1);
    push_consumers r e o
  done

(* Net-triggered flip-flops update mid-frame, when their derived clock
   arrives, so they are no frame-start origin; their outputs are handled
   like latch outputs. *)
let is_frame_start (c : Cell.t) =
  match c.Cell.kind, c.Cell.trigger with
  | Cell.Flip_flop, Some (Cell.Net_trigger _) -> false
  | (Cell.Flip_flop | Cell.Ram _ | Cell.Input _ | Cell.Clock_source _), _ ->
      true
  | (Cell.Latch _ | Cell.Gate _ | Cell.Output), _ -> false

let settle r f =
  let s = r.s in
  let e = s.epoch + 1 in
  s.epoch <- e;
  Array.iter
    (fun i ->
      let c = cell_at s.nl i in
      let o = out_net c in
      if o >= 0 && is_frame_start c then begin
        s.stamp.(o) <- e;
        s.dmax.(o) <- 0
      end)
    r.members;
  Array.iteri
    (fun p o ->
      let hi = ref (-1) in
      for q = r.fanin_start.(p) to r.fanin_start.(p + 1) - 1 do
        let n = r.fanin.(q) in
        if s.stamp.(n) = e && s.dmax.(n) > !hi then hi := s.dmax.(n)
      done;
      if !hi >= 0 && o >= 0 then begin
        s.stamp.(o) <- e;
        s.dmax.(o) <- !hi + 1
      end)
    r.out;
  Array.iter
    (fun i ->
      let c = cell_at s.nl i in
      let o = out_net c in
      if o >= 0 && is_frame_start c then f (Ids.Net.of_int o) s.dmax.(o))
    r.members;
  Array.iteri
    (fun p o ->
      if
        o >= 0
        && s.stamp.(o) = e
        && not (is_frame_start (cell_at s.nl r.topo.(p)))
      then f (Ids.Net.of_int o) s.dmax.(o))
    r.out
