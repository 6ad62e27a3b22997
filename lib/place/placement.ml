(* Block-to-FPGA placement: a greedy constructive pass, then seeded
   simulated annealing of FPGA-pair swaps.  The cost is the total
   weighted hop distance over inter-block connections, read from the
   system's hop table ({!Msched_arch.System.hops}), the table TIERS'
   distance bound reads too.  The annealer's move loop, which is most of
   a placement's time, runs on flat int arrays without bounds checks;
   [graph] and [anneal] state the invariants that keep each index in
   range. *)

open Msched_netlist
module Partition = Msched_partition.Partition
module System = Msched_arch.System

type t = {
  partition : Partition.t;
  system : System.t;
  fpga_of_block : int array;  (* by block index *)
  block_of_fpga : int array;  (* by fpga index, -1 when empty *)
}

let partition t = t.partition
let system t = t.system
let fpga_of_block t b = Ids.Fpga.of_int t.fpga_of_block.(Ids.Block.to_int b)

let block_of_fpga t f =
  match t.block_of_fpga.(Ids.Fpga.to_int f) with
  | -1 -> None
  | b -> Some (Ids.Block.of_int b)

let fpga_of_cell t c = fpga_of_block t (Partition.block_of_cell t.partition c)

(* The placer's flat state: the connection graph in CSR form (block [b]'s
   neighbours are [adj_nbr.(i)], with weight [adj_w.(i)], for [i] from
   [adj_off.(b)] to [adj_off.(b + 1) - 1]) and the hop distance between
   FPGAs [f] and [g] at [dist.((f * nf) + g)], the system's shared hop
   table ({!System.hops}).  A connection's weight is the number of
   foreign consumer terminals between its two blocks, summed over the
   crossing nets in both directions; each block lists its neighbours in
   ascending order.

   Invariants [graph] establishes, which the annealer's unchecked reads
   rely on: [adj_off] has length [nb + 1], starts at 0 and never
   decreases, and [adj_off.(nb)] is the length of [adj_nbr] and [adj_w];
   every [adj_nbr] entry is a block in [0, nb); [dist] has length
   [nf * nf] ({!System.hops}' length, fixed by [System.make]). *)
type graph = {
  nf : int;
  adj_off : int array;
  adj_nbr : int array;
  adj_w : int array;
  dist : int array;
}

let graph part sys =
  let nb = Partition.num_blocks part in
  let nf = System.num_fpgas sys in
  let nl = Partition.netlist part in
  (* Connection weights, dense by block pair like [dist]; every foreign
     block has at least one terminal, so a pair is connected iff its
     weight is positive. *)
  let w = Array.make (nb * nb) 0 in
  List.iter
    (fun net ->
      let a =
        Ids.Block.to_int (Partition.block_of_cell part (Netlist.driver nl net).Cell.id)
      in
      List.iter
        (fun (b, terms) ->
          let b = Ids.Block.to_int b and k = List.length terms in
          w.((a * nb) + b) <- w.((a * nb) + b) + k;
          w.((b * nb) + a) <- w.((b * nb) + a) + k)
        (Partition.foreign_consumers part net))
    (Partition.crossing_nets part);
  let adj_off = Array.make (nb + 1) 0 in
  for a = 0 to nb - 1 do
    let d = ref 0 in
    for b = 0 to nb - 1 do
      if w.((a * nb) + b) > 0 then incr d
    done;
    adj_off.(a + 1) <- adj_off.(a) + !d
  done;
  let adj_nbr = Array.make adj_off.(nb) 0 in
  let adj_w = Array.make adj_off.(nb) 0 in
  for a = 0 to nb - 1 do
    let i = ref adj_off.(a) in
    for b = 0 to nb - 1 do
      let x = w.((a * nb) + b) in
      if x > 0 then begin
        adj_nbr.(!i) <- b;
        adj_w.(!i) <- x;
        incr i
      end
    done
  done;
  { nf; adj_off; adj_nbr; adj_w; dist = System.hops sys }

(* Total weighted hop distance, each connection counted at its lower
   block. *)
let cost g fpga_of_block =
  let c = ref 0 in
  for a = 0 to Array.length fpga_of_block - 1 do
    let row = fpga_of_block.(a) * g.nf in
    for i = g.adj_off.(a) to g.adj_off.(a + 1) - 1 do
      let p = g.adj_nbr.(i) in
      if p > a then c := !c + (g.adj_w.(i) * g.dist.(row + fpga_of_block.(p)))
    done
  done;
  !c

let build part sys fpga_of_block =
  let nf = System.num_fpgas sys in
  let block_of_fpga = Array.make nf (-1) in
  Array.iteri
    (fun b f ->
      if block_of_fpga.(f) <> -1 then
        invalid_arg "Placement: two blocks on one FPGA";
      block_of_fpga.(f) <- b)
    fpga_of_block;
  { partition = part; system = sys; fpga_of_block; block_of_fpga }

let of_assignment part sys assignment =
  if Array.length assignment <> Partition.num_blocks part then
    invalid_arg "Placement.of_assignment: wrong length";
  build part sys (Array.map Ids.Fpga.to_int assignment)

(* Greedy constructive placement: pinned blocks first, then the rest in
   decreasing connectivity order, each at the free FPGA minimizing cost
   against already-placed neighbors. *)
let constructive g pinned =
  let nb = Array.length pinned and nf = g.nf in
  let degree =
    Array.init nb (fun b ->
        let d = ref 0 in
        for i = g.adj_off.(b) to g.adj_off.(b + 1) - 1 do
          d := !d + g.adj_w.(i)
        done;
        !d)
  in
  let order =
    List.sort
      (fun a b -> compare (degree.(b), a) (degree.(a), b))
      (List.init nb Fun.id)
    |> List.filter (fun b -> pinned.(b) = -1)
  in
  let fpga_of_block = Array.make nb (-1) in
  let taken = Array.make nf false in
  Array.iteri
    (fun b f ->
      if f >= 0 then begin
        if taken.(f) then invalid_arg "Placement.place: conflicting pins";
        fpga_of_block.(b) <- f;
        taken.(f) <- true
      end)
    pinned;
  List.iter
    (fun b ->
      let best = ref (-1) and best_cost = ref max_int in
      for f = 0 to nf - 1 do
        if not taken.(f) then begin
          let c = ref 0 in
          for i = g.adj_off.(b) to g.adj_off.(b + 1) - 1 do
            let p = fpga_of_block.(g.adj_nbr.(i)) in
            if p >= 0 then c := !c + (g.adj_w.(i) * g.dist.((f * nf) + p))
          done;
          if !c < !best_cost then begin
            best_cost := !c;
            best := f
          end
        end
      done;
      fpga_of_block.(b) <- !best;
      taken.(!best) <- true)
    order;
  fpga_of_block

(* ---- Annealing RNG: counter mode. ----

   Every random draw of the annealer is a pure function of (seed, nb, nf,
   draw index) — splitmix64 applied to a per-placement base plus the draw
   counter — so the move stream does not depend on how many draws a
   rejected move consumed.  The draws are inlined so that, without
   flambda, their Int64 intermediates stay unboxed. *)

let sm64_gamma = 0x9E3779B97F4A7C15L

let[@inline] splitmix64 z =
  let open Int64 in
  let z = add z sm64_gamma in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let draw_base ~seed ~nb ~nf =
  let s = splitmix64 (Int64.of_int seed) in
  let s = splitmix64 (Int64.add s (Int64.of_int nb)) in
  splitmix64 (Int64.add s (Int64.of_int nf))

let[@inline] draw base i =
  splitmix64 (Int64.add base (Int64.mul (Int64.of_int i) sm64_gamma))

let[@inline] draw_int base i n =
  Int64.to_int (Int64.shift_right_logical (draw base i) 33) mod n

let[@inline] draw_unit base i =
  Int64.to_float (Int64.shift_right_logical (draw base i) 11) *. 0x1p-53

(* Seeded simulated annealing of [fpga_of_block] in place: [moves] random
   FPGA-pair swaps (a swap with an empty FPGA moves one block), Metropolis
   acceptance on a linearly falling temperature.  Annealing may end on an
   uphill excursion, so the result is the cheapest state the trajectory
   visited — never worse than the start.  Returns the number of moves
   tried and accepted.  Nothing in the move loop allocates.

   The move loop reads its arrays without bounds checks.  Each read names
   the invariant that keeps its index in range; [place], the only caller,
   establishes them:
   - [fpga_of_block] comes from [constructive], which gives every one of
     the [nb] blocks a distinct FPGA in [0, nf) (its [taken] array is
     indexed by FPGA with checked reads; [place] rejects [nb > nf]), and
     [pinned] is [place]'s [pinned_arr], of length [nb];
   - [block_at] is built below from [fpga_of_block], so each entry is
     [-1] or a block in [0, nb), and a swap only exchanges two entries
     and moves each block to the FPGA the other vacated, which keeps both
     arrays mutually inverse;
   - [graph] fixes the lengths of [adj_off], [adj_nbr], [adj_w] and
     [dist] (see its comment). *)
let anneal g ~seed ~moves pinned fpga_of_block =
  let nb = Array.length fpga_of_block and nf = g.nf in
  let { adj_off; adj_nbr; adj_w; dist; _ } = g in
  let block_at = Array.make nf (-1) in
  Array.iteri (fun b f -> block_at.(f) <- b) fpga_of_block;
  let base = draw_base ~seed ~nb ~nf in
  let cost = ref (cost g fpga_of_block) in
  let temp0 = 1.0 +. (float_of_int !cost /. float_of_int (max 1 nb)) in
  let best_cost = ref !cost in
  let best = Array.copy fpga_of_block in
  let tried = ref 0 and accepted = ref 0 in
  for m = 0 to moves - 1 do
    (* [draw_int] reduces a non-negative draw (shifted right by 33) mod
       [nf], so [f1] and [f2] are FPGAs in [0, nf): [block_at]'s length. *)
    let f1 = draw_int base (3 * m) nf and f2 = draw_int base ((3 * m) + 1) nf in
    let b1 = Array.unsafe_get block_at f1
    and b2 = Array.unsafe_get block_at f2 in
    (* [b1], [b2] are [-1] or blocks in [0, nb): [pinned]'s length, read
       only when non-negative. *)
    if
      f1 <> f2
      && (b1 >= 0 || b2 >= 0)
      && (b1 < 0 || Array.unsafe_get pinned b1 < 0)
      && (b2 < 0 || Array.unsafe_get pinned b2 < 0)
    then begin
      (* The change in cost: for each moved block, Σ w·(dist[to][p] −
         dist[from][p]) over its neighbours other than the swap partner,
         whose distance to it a swap keeps.  [row1 + fp] and [row2 + fp]
         are below [nf * nf], [dist]'s length: [f1], [f2] and every
         [fpga_of_block] entry [fp] lie in [0, nf). *)
      let row1 = f1 * nf and row2 = f2 * nf in
      let delta = ref 0 in
      (* For a block [b] in [0, nb), [b] and [b + 1] index [adj_off]
         (length [nb + 1]), and [i] runs inside [0, adj_off.(nb))
         ([adj_off] never decreases): in range for [adj_nbr] and [adj_w].
         [p], an [adj_nbr] entry, is a block in [0, nb), in range for
         [fpga_of_block]. *)
      if b1 >= 0 then
        for
          i = Array.unsafe_get adj_off b1
          to Array.unsafe_get adj_off (b1 + 1) - 1
        do
          let p = Array.unsafe_get adj_nbr i in
          if p <> b2 then begin
            let fp = Array.unsafe_get fpga_of_block p in
            delta :=
              !delta
              + Array.unsafe_get adj_w i
                * (Array.unsafe_get dist (row2 + fp)
                  - Array.unsafe_get dist (row1 + fp))
          end
        done;
      if b2 >= 0 then
        for
          i = Array.unsafe_get adj_off b2
          to Array.unsafe_get adj_off (b2 + 1) - 1
        do
          let p = Array.unsafe_get adj_nbr i in
          if p <> b1 then begin
            let fp = Array.unsafe_get fpga_of_block p in
            delta :=
              !delta
              + Array.unsafe_get adj_w i
                * (Array.unsafe_get dist (row1 + fp)
                  - Array.unsafe_get dist (row2 + fp))
          end
        done;
      let delta = !delta in
      incr tried;
      if
        delta <= 0
        || draw_unit base ((3 * m) + 2)
           < exp
               (-.float_of_int delta
               /. ((temp0 *. (1.0 -. (float_of_int m /. float_of_int moves)))
                  +. 1e-3))
      then begin
        incr accepted;
        (* The same indices as the reads above: [f1], [f2] in [0, nf),
           non-negative [b1], [b2] in [0, nb). *)
        Array.unsafe_set block_at f1 b2;
        Array.unsafe_set block_at f2 b1;
        if b1 >= 0 then Array.unsafe_set fpga_of_block b1 f2;
        if b2 >= 0 then Array.unsafe_set fpga_of_block b2 f1;
        cost := !cost + delta;
        if !cost < !best_cost then begin
          best_cost := !cost;
          Array.blit fpga_of_block 0 best 0 nb
        end
      end
    end
  done;
  if !best_cost < !cost then Array.blit best 0 fpga_of_block 0 nb;
  (!tried, !accepted)

let place part sys ?(seed = 7) ?(effort = 4) ?(pinned = [])
    ?(obs = Msched_obs.Sink.null) () =
  let module Sink = Msched_obs.Sink in
  let nb = Partition.num_blocks part in
  let nf = System.num_fpgas sys in
  if nb > nf then
    invalid_arg
      (Printf.sprintf "Placement.place: %d blocks > %d FPGAs" nb nf);
  let pinned_arr = Array.make nb (-1) in
  List.iter
    (fun (b, f) ->
      let bi = Ids.Block.to_int b in
      if bi >= nb then invalid_arg "Placement.place: pinned block out of range";
      if pinned_arr.(bi) >= 0 then
        invalid_arg "Placement.place: block pinned twice";
      pinned_arr.(bi) <- Ids.Fpga.to_int f)
    pinned;
  let g = graph part sys in
  let fpga_of_block = constructive g pinned_arr in
  if effort > 0 && nb > 1 then begin
    let tried, accepted =
      anneal g ~seed ~moves:(effort * 200 * nb) pinned_arr fpga_of_block
    in
    Sink.add obs "place.moves_tried" tried;
    Sink.add obs "place.moves_accepted" accepted;
    Sink.annotate obs
      [
        ("moves_accepted", string_of_int accepted);
        ("moves_rejected", string_of_int (tried - accepted));
      ]
  end;
  Sink.gauge obs "place.wirelength" (float_of_int (cost g fpga_of_block));
  build part sys fpga_of_block

let wirelength t = cost (graph t.partition t.system) t.fpga_of_block

let pp_summary ppf t =
  Format.fprintf ppf "%d blocks on %a, wirelength=%d"
    (Partition.num_blocks t.partition)
    Msched_arch.Topology.pp
    (System.topology t.system)
    (wirelength t)
