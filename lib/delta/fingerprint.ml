open Msched_netlist
module Partition = Msched_partition.Partition
module Domain_analysis = Msched_mts.Domain_analysis

(* The same FNV-1a 64 the reroute and server caches use, so every
   fingerprint in the system reads as the same 16-hex-digit currency. *)
let hash_hex = Msched_diag.Diag.Json.hash_hex

(* The design fingerprint hashes the canonical serial text: re-emitting a
   parsed design normalizes whitespace, comments and file-local net
   numbering, so two sources that parse to the same netlist fingerprint
   identically.  Internal id order is part of the text and hence of the
   fingerprint — by design, since id order is semantic identity for the
   seeded partitioner and placer. *)
let design nl = hash_hex (Serial.to_string nl)

(* ------------------------------------------------------------------ *)
(* Block fingerprints are id-free: every cell, net and domain is named,
   and the rendered lines are sorted, so a block whose contents are
   untouched by an edit elsewhere in the design hashes identically even
   though the edit shifted every id after the insertion point. *)

let dom_name nl d = Netlist.domain_name nl d
let net_name nl n = (Netlist.net nl n).Netlist.net_name

let trigger_text nl = function
  | None -> "-"
  | Some (Cell.Dom_clock d) -> "dom:" ^ dom_name nl d
  | Some (Cell.Net_trigger t) -> "net:" ^ net_name nl t

let kind_text nl (c : Cell.t) =
  match c.Cell.kind with
  | Cell.Gate g -> "gate/" ^ Serial.gate_name g
  | Cell.Latch { active_high } ->
      if active_high then "latch/high" else "latch/low"
  | Cell.Flip_flop -> "ff"
  | Cell.Ram { addr_bits } -> Printf.sprintf "ram/%d" addr_bits
  | Cell.Input { domain } -> (
      match domain with
      | None -> "input"
      | Some d -> "input/" ^ dom_name nl d)
  | Cell.Clock_source d -> "clocksource/" ^ dom_name nl d
  | Cell.Output -> "output"

let cell_line nl (c : Cell.t) =
  let b = Buffer.create 64 in
  Buffer.add_string b "cell ";
  Buffer.add_string b c.Cell.name;
  Buffer.add_char b ' ';
  Buffer.add_string b (kind_text nl c);
  Buffer.add_char b ' ';
  Buffer.add_string b (trigger_text nl c.Cell.trigger);
  Array.iter
    (fun i ->
      Buffer.add_char b ' ';
      Buffer.add_string b (net_name nl i))
    c.Cell.data_inputs;
  Buffer.add_string b " -> ";
  Buffer.add_string b
    (match c.Cell.output with None -> "-" | Some o -> net_name nl o);
  Buffer.contents b

let dom_set_text nl set =
  Ids.Dom.Set.elements set
  |> List.map (dom_name nl)
  |> List.sort compare |> String.concat ","

(* What the scheduler can observe about a net crossing a block boundary:
   which domains toggle it, which domains sample it, and whether it is
   multi-transition (forcing per-domain FORK/MERGE transport).  A change
   in any of these reshapes the block's route-links even when the block's
   own cells are untouched — which is exactly when the dirty cone must
   grow past the fingerprint-dirty set. *)
let boundary_signature nl analysis n =
  Printf.sprintf "t=%s;s=%s;mt=%b;mts=%b"
    (dom_set_text nl (Domain_analysis.transitions analysis n))
    (dom_set_text nl (Domain_analysis.samples analysis n))
    (Domain_analysis.is_multi_transition analysis n)
    (Domain_analysis.is_mts_net analysis n)

let block_text part ~analysis b =
  let nl = Partition.netlist part in
  let cells =
    Partition.cells_of_block part b
    |> List.map (fun c -> cell_line nl (Netlist.cell nl c))
    |> List.sort compare
  in
  let boundary dir nets =
    nets
    |> List.map (fun n ->
           Printf.sprintf "%s %s %s" dir (net_name nl n)
             (boundary_signature nl analysis n))
    |> List.sort compare
  in
  String.concat "\n"
    (cells
    @ boundary "in" (Partition.input_nets part b)
    @ boundary "out" (Partition.output_nets part b))

let block part ~analysis b = hash_hex (block_text part ~analysis b)
