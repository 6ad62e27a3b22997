(* See pool.mli.  Each [run] spawns its helpers, lets everyone (caller
   included) claim task indices from one atomic cursor, and joins them
   before returning: no domain outlives the call, so there is nothing to
   park between batches or shut down afterwards. *)

type t = { jobs : int }

let jobs t = t.jobs
let with_pool ~jobs f = f { jobs = max 1 jobs }

let run t ~n f =
  if t.jobs <= 1 || n <= 1 then
    for i = 0 to n - 1 do
      f ~worker:0 i
    done
  else begin
    let cursor = Atomic.make 0 in
    (* Claim indices until the cursor runs past [n]; a failing task does
       not stop its worker, and the failures come back to the caller. *)
    let drain worker =
      let rec claim fails =
        let i = Atomic.fetch_and_add cursor 1 in
        if i >= n then fails
        else
          match f ~worker i with
          | () -> claim fails
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              claim ((i, e, bt) :: fails)
      in
      claim []
    in
    let helpers =
      List.init (min t.jobs n - 1) (fun k ->
          Domain.spawn (fun () -> drain (k + 1)))
    in
    let mine = drain 0 in
    let fails = List.concat (mine :: List.map Domain.join helpers) in
    match List.sort (fun (i, _, _) (j, _, _) -> compare i j) fails with
    | [] -> ()
    | (_, e, bt) :: _ -> Printexc.raise_with_backtrace e bt
  end
