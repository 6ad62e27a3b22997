open Msched_netlist

type polarity = Rising | Falling

type edge = {
  domain : Ids.Dom.t;
  polarity : polarity;
  index : int;
  time_ps : int;
}

let stream clocks ~horizon_ps =
  let edges_of_clock c =
    let n = Clock.rising_edges_before c horizon_ps in
    let rec collect k acc =
      if k >= n then acc
      else
        let rise =
          {
            domain = c.Clock.domain;
            polarity = Rising;
            index = k;
            time_ps = Clock.rising_edge_time c k;
          }
        in
        let fall_t = Clock.falling_edge_time c k in
        let acc = rise :: acc in
        let acc =
          if fall_t < horizon_ps then
            {
              domain = c.Clock.domain;
              polarity = Falling;
              index = k;
              time_ps = fall_t;
            }
            :: acc
          else acc
        in
        collect (k + 1) acc
    in
    collect 0 []
  in
  let all = List.concat_map edges_of_clock clocks in
  List.sort
    (fun a b ->
      match Int.compare a.time_ps b.time_ps with
      | 0 -> Ids.Dom.compare a.domain b.domain
      | c -> c)
    all

let rising_only edges =
  List.filter (fun e -> e.polarity = Rising) edges

let frames edges ~frame_ps =
  if frame_ps <= 0 then invalid_arg "Edges.frames: frame_ps";
  let rec go current current_k acc = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | e :: rest ->
        let k = e.time_ps / frame_ps in
        if k = current_k || current = [] then go (e :: current) k acc rest
        else go [ e ] k (List.rev current :: acc) rest
  in
  go [] 0 [] edges

let max_edges_per_domain_in_frame frames =
  List.fold_left
    (fun acc frame ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let key = (Ids.Dom.to_int e.domain, e.polarity = Rising) in
          Hashtbl.replace tbl key
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
        frame;
      Hashtbl.fold (fun _ v acc -> max acc v) tbl acc)
    0 frames

let count_by_domain ~num_domains edges =
  let counts = Array.make num_domains 0 in
  List.iter
    (fun e ->
      if e.polarity = Rising then
        let i = Ids.Dom.to_int e.domain in
        counts.(i) <- counts.(i) + 1)
    edges;
  counts

let level_at clocks domain t =
  let c = List.find (fun c -> Ids.Dom.equal c.Clock.domain domain) clocks in
  Clock.level_at c t
