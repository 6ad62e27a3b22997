(* Host-speed calibration.  The shared 2-vCPU hosts this benchmark runs on
   change speed by up to 2x over minutes (a busy sibling hyperthread or a
   frequency change; the hypervisor's steal share stays near 0), and the
   server's CPU time per request moves with it.  A fixed task that shares
   no code with msched is timed in this process before and after the timed
   region; time metrics are also reported divided by its slowdown against
   [reference_ms], so a change in the host does not read as a change in
   the program. *)

module IntMap = Map.Make (Int)

(* Allocation-heavy graph work, like the compiler's: a seeded random
   digraph, breadth-first distances kept in a hash table, then a sort and
   a balanced map over the result. *)
let task () =
  let rng = Random.State.make [| 7 |] in
  let n = 40_000 in
  let succ = Array.init n (fun _ -> Array.init 3 (fun _ -> Random.State.int rng n)) in
  let dist = Hashtbl.create 1024 in
  let q = Queue.create () in
  Queue.add 0 q;
  Hashtbl.replace dist 0 0;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let d = Hashtbl.find dist v in
    Array.iter
      (fun w ->
        if not (Hashtbl.mem dist w) then begin
          Hashtbl.replace dist w (d + 1);
          Queue.add w q
        end)
      succ.(v)
  done;
  Hashtbl.fold (fun k d acc -> (d, k) :: acc) dist []
  |> List.sort compare
  |> List.fold_left (fun m (d, k) -> IntMap.add k d m) IntMap.empty
  |> IntMap.cardinal

(* Median wall time (ms) of [runs] repetitions. *)
let measure ?(runs = 9) () =
  Stats.median
    (Array.init runs (fun _ ->
         let t0 = Unix.gettimeofday () in
         ignore (Sys.opaque_identity (task ()));
         1000.0 *. (Unix.gettimeofday () -. t0)))

(* The task's time on the host the normalized metrics are expressed for. *)
let reference_ms = 100.0

(* The calibration result at time [t], interpolated between the points
   taken around it ([points] sorted by time). *)
let at points t =
  let rec go = function
    | (t1, v1) :: ((t2, v2) :: _ as rest) ->
        if t <= t1 then v1
        else if t <= t2 then v1 +. ((v2 -. v1) *. (t -. t1) /. (t2 -. t1))
        else go rest
    | [ (_, v) ] -> v
    | [] -> reference_ms
  in
  go points

(* How much slower than the reference host this one was at [t]. *)
let slowdown points t = at points t /. reference_ms
