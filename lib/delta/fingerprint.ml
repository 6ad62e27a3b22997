open Msched_netlist
module Partition = Msched_partition.Partition
module Domain_analysis = Msched_mts.Domain_analysis
module J = Msched_diag.Diag.Json

(* The design fingerprint hashes the canonical serial text: re-emitting a
   parsed design normalizes whitespace, comments and file-local net
   numbering, so two sources that parse to the same netlist fingerprint
   identically.  Internal id order is part of the text and hence of the
   fingerprint — by design, since id order is semantic identity for the
   seeded partitioner and placer.  The same FNV-1a 64 the server cache
   uses, so every fingerprint reads as the same 16-hex-digit currency. *)
let design_of_canonical text = J.hash_hex text
let design nl = design_of_canonical (Serial.to_string nl)

(* ------------------------------------------------------------------ *)
(* Block fingerprints are id-free: every cell, net and domain is named,
   and the rendered lines are sorted, so a block whose contents are
   untouched by an edit elsewhere in the design hashes identically even
   though the edit shifted every id after the insertion point. *)

let dom_name nl d = Netlist.domain_name nl d
let net_name nl n = (Netlist.net nl n).Netlist.net_name

(* ["cell <name> <kind> <trigger> <input nets...> -> <output net>"],
   rendered in the reused buffer [b]. *)
let cell_line b nl (c : Cell.t) =
  Buffer.clear b;
  let str = Buffer.add_string b and chr = Buffer.add_char b in
  str "cell ";
  str c.Cell.name;
  chr ' ';
  (match c.Cell.kind with
  | Cell.Gate g ->
      str "gate/";
      str (Serial.gate_name g)
  | Cell.Latch { active_high } ->
      str (if active_high then "latch/high" else "latch/low")
  | Cell.Flip_flop -> str "ff"
  | Cell.Ram { addr_bits } ->
      str "ram/";
      J.add_int b addr_bits
  | Cell.Input { domain = None } -> str "input"
  | Cell.Input { domain = Some d } ->
      str "input/";
      str (dom_name nl d)
  | Cell.Clock_source d ->
      str "clocksource/";
      str (dom_name nl d)
  | Cell.Output -> str "output");
  chr ' ';
  (match c.Cell.trigger with
  | None -> chr '-'
  | Some (Cell.Dom_clock d) ->
      str "dom:";
      str (dom_name nl d)
  | Some (Cell.Net_trigger t) ->
      str "net:";
      str (net_name nl t));
  Array.iter
    (fun i ->
      chr ' ';
      str (net_name nl i))
    c.Cell.data_inputs;
  str " -> ";
  str (match c.Cell.output with None -> "-" | Some o -> net_name nl o);
  Buffer.contents b

(* The domains of [set] by name, sorted, comma-separated. *)
let add_dom_set b nl set =
  Ids.Dom.Set.elements set
  |> List.map (dom_name nl)
  |> List.sort String.compare
  |> List.iteri (fun i name ->
         if i > 0 then Buffer.add_char b ',';
         Buffer.add_string b name)

(* What the scheduler can observe about a net crossing a block boundary:
   which domains toggle it, which domains sample it, and whether it is
   multi-transition (forcing per-domain FORK/MERGE transport).  A change
   in any of these reshapes the block's route-links even when the block's
   own cells are untouched — which is exactly when the dirty cone must
   grow past the fingerprint-dirty set. *)
let add_signature b nl analysis n =
  let str = Buffer.add_string b in
  str "t=";
  add_dom_set b nl (Domain_analysis.transitions analysis n);
  str ";s=";
  add_dom_set b nl (Domain_analysis.samples analysis n);
  str ";mt=";
  J.add_bool b (Domain_analysis.is_multi_transition analysis n);
  str ";mts=";
  J.add_bool b (Domain_analysis.is_mts_net analysis n)

let boundary_signature nl analysis n =
  let b = Buffer.create 64 in
  add_signature b nl analysis n;
  Buffer.contents b

type blocks = {
  block_fps : string array;
  crossing : (Ids.Net.t * string) list;
}

(* One pass over the partition.  Each crossing net's signature, and its
   "in" and "out" boundary lines, are rendered once and shared by every
   block that lists the net; each cell's line is rendered once, in its
   own block.  A block hashes its lines sorted and joined by newlines,
   without building the joined text.  Every cell line starts "cell ",
   every input line "in " and every output line "out ", so one sort puts
   the sorted cells first, then the sorted inputs, then the sorted
   outputs. *)
let blocks part ~analysis =
  let nl = Partition.netlist part in
  let nn = Netlist.num_nets nl in
  let line_buf = Buffer.create 128 in
  let memo = Array.make nn "" in
  let signature n =
    let i = Ids.Net.to_int n in
    if memo.(i) = "" then begin
      Buffer.clear line_buf;
      add_signature line_buf nl analysis n;
      memo.(i) <- Buffer.contents line_buf
    end;
    memo.(i)
  in
  let crossing =
    List.map (fun n -> (n, signature n)) (Partition.crossing_nets part)
  in
  let in_lines = Array.make nn "" and out_lines = Array.make nn "" in
  let line dir lines n =
    let i = Ids.Net.to_int n in
    if lines.(i) = "" then
      lines.(i) <- String.concat " " [ dir; net_name nl n; signature n ];
    lines.(i)
  in
  let block_fps =
    Array.init (Partition.num_blocks part) (fun i ->
        let b = Ids.Block.of_int i in
        let cells = Partition.cells_of_block part b
        and ins = Partition.input_nets part b
        and outs = Partition.output_nets part b in
        let lines =
          Array.make
            (List.length cells + List.length ins + List.length outs)
            ""
        in
        let k = ref 0 in
        let add l =
          lines.(!k) <- l;
          incr k
        in
        List.iter
          (fun c -> add (cell_line line_buf nl (Netlist.cell nl c)))
          cells;
        List.iter (fun n -> add (line "in" in_lines n)) ins;
        List.iter (fun n -> add (line "out" out_lines n)) outs;
        Array.stable_sort String.compare lines;
        J.hash_hex_lines lines)
  in
  { block_fps; crossing }
