(* Order statistics over measured samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (the "inclusive" method of
   Python's statistics.quantiles and numpy's default). *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))

let median a = quantile a 0.5

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let geomean a =
  let n = Array.length a in
  if n = 0 then nan
  else exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 a /. float_of_int n)

(* Least-squares slope of log y against log x: the growth exponent of a
   cost y over input size x.  Points with a non-positive coordinate carry
   no information on a log scale and are dropped. *)
let growth_exponent points =
  let pts =
    List.filter_map
      (fun (x, y) -> if x > 0.0 && y > 0.0 then Some (log x, log y) else None)
      points
  in
  let n = float_of_int (List.length pts) in
  if n < 2.0 then nan
  else
    let mx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts /. n in
    let my = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts /. n in
    let sxy, sxx =
      List.fold_left
        (fun (sxy, sxx) (x, y) ->
          (sxy +. ((x -. mx) *. (y -. my)), sxx +. ((x -. mx) *. (x -. mx))))
        (0.0, 0.0) pts
    in
    if sxx = 0.0 then nan else sxy /. sxx

let ratio num den = if den = 0.0 then 0.0 else num /. den
