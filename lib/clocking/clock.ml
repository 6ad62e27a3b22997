open Msched_netlist

type t = {
  domain : Ids.Dom.t;
  name : string;
  period_ps : int;
  phase_ps : int;
  duty_num : int;
  duty_den : int;
}

let make ?(phase_ps = 0) ?(duty = (1, 2)) domain ~name ~period_ps =
  if period_ps <= 0 then invalid_arg "Clock.make: period must be positive";
  let duty_num, duty_den = duty in
  if duty_num <= 0 || duty_den <= 0 || duty_num >= duty_den then
    invalid_arg "Clock.make: duty must be in (0, 1)";
  if phase_ps < 0 then invalid_arg "Clock.make: phase must be non-negative";
  { domain; name; period_ps; phase_ps; duty_num; duty_den }

let high_time c = c.period_ps * c.duty_num / c.duty_den
let rising_edge_time c k = c.phase_ps + (k * c.period_ps)
let falling_edge_time c k = rising_edge_time c k + high_time c

let level_at c t =
  if t < c.phase_ps then false
  else
    let offset = (t - c.phase_ps) mod c.period_ps in
    offset < high_time c

let rising_edges_before c horizon =
  if horizon <= c.phase_ps then 0
  else ((horizon - c.phase_ps - 1) / c.period_ps) + 1

let pp ppf c =
  Format.fprintf ppf "%s(%a): %d ps period, %d ps phase" c.name Ids.Dom.pp
    c.domain c.period_ps c.phase_ps
