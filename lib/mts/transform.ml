open Msched_netlist

type rewrite = {
  old_ff : Ids.Cell.t;
  master : Ids.Cell.t;
  slave : Ids.Cell.t;
}

type rewritten = { netlist : Netlist.t; rewrites : rewrite list }

(* Multi-domain RAM write clocks — the paper's "memories under test" future
   work — are supported by treating the write port like an MTS latch (write
   clock = gate, write pins = data), so nothing is rejected anymore.  The
   function remains as the extension point for future unsupported shapes. *)
let check_supported _nl _analysis = Ok ()

let is_mts_ff analysis (c : Cell.t) =
  match c.Cell.kind, c.Cell.trigger with
  | Cell.Flip_flop, Some tr ->
      Ids.Dom.Set.cardinal (Domain_analysis.trigger_domains analysis tr) >= 2
  | _, _ -> false

(* Rebuild the netlist, preserving net ids: every original net is
   pre-allocated in id order, then cells are re-added in id order with _to
   constructors.  Master-latch output nets are appended at the end. *)
let rebuild nl analysis =
  let b = Netlist.Builder.create ~design_name:(Netlist.design_name nl) () in
  List.iter
    (fun d ->
      let (_ : Ids.Dom.t) = Netlist.Builder.add_domain b (Netlist.domain_name nl d) in
      ())
    (Netlist.domains nl);
  for i = 0 to Netlist.num_nets nl - 1 do
    let old = Ids.Net.of_int i in
    let n' =
      Netlist.Builder.fresh_net b ~name:(Netlist.net nl old).Netlist.net_name ()
    in
    assert (Ids.Net.equal n' old)
  done;
  let rewrites = ref [] in
  let next_new_cell = ref 0 in
  let take () =
    let id = Ids.Cell.of_int !next_new_cell in
    incr next_new_cell;
    id
  in
  Netlist.iter_cells nl (fun c ->
      if is_mts_ff analysis c then begin
        let out = Option.get c.Cell.output in
        let trigger = Option.get c.Cell.trigger in
        let data = c.Cell.data_inputs.(0) in
        let mid =
          Netlist.Builder.fresh_net b ~name:(c.Cell.name ^ "_master_q") ()
        in
        let master = take () in
        Netlist.Builder.add_latch_to b ~name:(c.Cell.name ^ "_master")
          ~active_high:false ~data ~gate:trigger ~output:mid ();
        let slave = take () in
        Netlist.Builder.add_latch_to b ~name:(c.Cell.name ^ "_slave")
          ~active_high:true ~data:mid ~gate:trigger ~output:out ();
        rewrites := { old_ff = c.Cell.id; master; slave } :: !rewrites
      end
      else begin
        incr next_new_cell;
        match c.Cell.kind with
        | Cell.Input { domain } ->
            Netlist.Builder.add_input_to b ~name:c.Cell.name ?domain
              ~output:(Option.get c.Cell.output) ()
        | Cell.Clock_source d ->
            Netlist.Builder.add_clock_source_to b d
              ~output:(Option.get c.Cell.output)
        | Cell.Output ->
            let (_ : Ids.Cell.t) =
              Netlist.Builder.add_output b ~name:c.Cell.name c.Cell.data_inputs.(0)
            in
            ()
        | Cell.Gate g ->
            Netlist.Builder.add_gate_to b ~name:c.Cell.name g
              (Array.to_list c.Cell.data_inputs)
              ~output:(Option.get c.Cell.output)
        | Cell.Latch { active_high } ->
            Netlist.Builder.add_latch_to b ~name:c.Cell.name ~active_high
              ~data:c.Cell.data_inputs.(0)
              ~gate:(Option.get c.Cell.trigger)
              ~output:(Option.get c.Cell.output)
              ()
        | Cell.Flip_flop ->
            Netlist.Builder.add_flip_flop_to b ~name:c.Cell.name
              ~data:c.Cell.data_inputs.(0)
              ~clock:(Option.get c.Cell.trigger)
              ~output:(Option.get c.Cell.output)
              ()
        | Cell.Ram { addr_bits } ->
            let d = c.Cell.data_inputs in
            Netlist.Builder.add_ram_to b ~name:c.Cell.name ~addr_bits
              ~write_enable:d.(0) ~write_data:d.(1)
              ~write_addr:(List.init addr_bits (fun i -> d.(2 + i)))
              ~read_addr:(List.init addr_bits (fun i -> d.(2 + addr_bits + i)))
              ~clock:(Option.get c.Cell.trigger)
              ~output:(Option.get c.Cell.output)
              ()
      end);
  { netlist = Netlist.Builder.finalize b; rewrites = List.rev !rewrites }

(* Without an MTS flip-flop the rebuild would reproduce its input cell
   for cell and net for net, so the input is returned as is. *)
let master_slave ?(obs = Msched_obs.Sink.null) nl analysis =
  let r =
    if Array.exists (is_mts_ff analysis) (Netlist.cells nl) then
      rebuild nl analysis
    else { netlist = nl; rewrites = [] }
  in
  Msched_obs.Sink.add obs "mts.ff_rewrites" (List.length r.rewrites);
  Msched_obs.Sink.add obs "mts.cells_out" (Netlist.num_cells r.netlist);
  r
