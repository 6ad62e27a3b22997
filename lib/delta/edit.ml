open Msched_netlist
module Builder = Netlist.Builder

type kind = Add_cell | Remove_cell | Retime_net | Flip_domain | Resize_fanout

let all_kinds =
  [ Add_cell; Remove_cell; Retime_net; Flip_domain; Resize_fanout ]

let kind_name = function
  | Add_cell -> "add-cell"
  | Remove_cell -> "remove-cell"
  | Retime_net -> "retime-net"
  | Flip_domain -> "flip-domain"
  | Resize_fanout -> "resize-fanout"

(* Deterministic splitmix-style draw so an (edit kind, seed) pair names
   one concrete edit forever — the differential suite depends on replaying
   the exact same mutation against cold and delta compiles. *)
let draw seed salt bound =
  if bound <= 0 then invalid_arg "draw";
  let z = ref (Int64.of_int ((seed * 0x9e3779b9) + salt + 1)) in
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30))
         0xbf58476d1ce4e5b9L;
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27))
         0x94d049bb133111ebL;
  z := Int64.logxor !z (Int64.shift_right_logical !z 31);
  Int64.to_int (Int64.rem (Int64.logand !z Int64.max_int) (Int64.of_int bound))

(* ------------------------------------------------------------------ *)
(* Rebuild a netlist through the Builder, preserving the ids of every
   untouched net and cell (fresh nets and cells are allocated in the same
   order the original enumerates them — the order Serial.output writes).
   [transform] may drop or replace cells (a dropped cell's output net must
   be fanout-free: the net is dropped with it); [extra_nets] are allocated
   after the originals; [remap] redirects {e data} inputs (triggers are
   never remapped); [append] adds new cells at the end. *)

type action = Keep | Drop | Replace of Cell.t

let copy nl ?(extra_nets = []) ?(transform = fun _ -> Keep)
    ?(remap = fun (_ : Cell.t) (_ : Ids.Net.t) -> `Keep)
    ?(append = fun _ ~trans:_ ~extras:_ -> ()) () =
  let b = Builder.create ~design_name:(Netlist.design_name nl) () in
  List.iter
    (fun d -> ignore (Builder.add_domain b (Netlist.domain_name nl d)))
    (Netlist.domains nl);
  let resolved =
    Array.init (Netlist.num_cells nl) (fun i ->
        let c = Netlist.cell nl (Ids.Cell.of_int i) in
        match transform c with
        | Keep -> Some c
        | Replace c' -> Some c'
        | Drop -> None)
  in
  let skip_net = Array.make (max 1 (Netlist.num_nets nl)) false in
  Array.iteri
    (fun i r ->
      if r = None then
        match (Netlist.cell nl (Ids.Cell.of_int i)).Cell.output with
        | Some n ->
            if Array.length (Netlist.fanouts nl n) > 0 then
              invalid_arg "edit: dropped cell's output net has consumers";
            skip_net.(Ids.Net.to_int n) <- true
        | None -> ())
    resolved;
  let trans_tbl = Array.make (max 1 (Netlist.num_nets nl)) None in
  Netlist.iter_nets nl (fun n ni ->
      let i = Ids.Net.to_int n in
      if not skip_net.(i) then
        trans_tbl.(i) <- Some (Builder.fresh_net b ~name:ni.Netlist.net_name ()));
  let extras =
    Array.of_list
      (List.map (fun name -> Builder.fresh_net b ~name ()) extra_nets)
  in
  let trans n =
    match trans_tbl.(Ids.Net.to_int n) with
    | Some n' -> n'
    | None -> invalid_arg "edit: reference to a removed net"
  in
  let tnet c n =
    match remap c n with `Keep -> trans n | `Extra i -> extras.(i)
  in
  let ttrig = function
    | Cell.Dom_clock d -> Cell.Dom_clock d
    | Cell.Net_trigger n -> Cell.Net_trigger (trans n)
  in
  Array.iter
    (function
      | None -> ()
      | Some c -> (
          let name = c.Cell.name in
          let out () = trans (Option.get c.Cell.output) in
          let ins () = Array.map (tnet c) c.Cell.data_inputs in
          match c.Cell.kind with
          | Cell.Input { domain } ->
              Builder.add_input_to b ~name ?domain ~output:(out ()) ()
          | Cell.Clock_source d ->
              Builder.add_clock_source_to b d ~output:(out ())
          | Cell.Gate g ->
              Builder.add_gate_to b ~name g
                (Array.to_list (ins ()))
                ~output:(out ())
          | Cell.Latch { active_high } ->
              Builder.add_latch_to b ~name ~active_high
                ~data:(tnet c c.Cell.data_inputs.(0))
                ~gate:(ttrig (Option.get c.Cell.trigger))
                ~output:(out ()) ()
          | Cell.Flip_flop ->
              Builder.add_flip_flop_to b ~name
                ~data:(tnet c c.Cell.data_inputs.(0))
                ~clock:(ttrig (Option.get c.Cell.trigger))
                ~output:(out ()) ()
          | Cell.Ram { addr_bits } ->
              let ins = ins () in
              let slice off len = Array.to_list (Array.sub ins off len) in
              Builder.add_ram_to b ~name ~addr_bits
                ~write_enable:ins.(0) ~write_data:ins.(1)
                ~write_addr:(slice 2 addr_bits)
                ~read_addr:(slice (2 + addr_bits) addr_bits)
                ~clock:(ttrig (Option.get c.Cell.trigger))
                ~output:(out ()) ()
          | Cell.Output ->
              ignore (Builder.add_output b ~name (tnet c c.Cell.data_inputs.(0)))))
    resolved;
  append b ~trans ~extras;
  Builder.finalize b

(* ------------------------------------------------------------------ *)

let fresh_name nl base =
  let taken = Hashtbl.create 256 in
  Netlist.iter_nets nl (fun _ ni -> Hashtbl.replace taken ni.Netlist.net_name ());
  Netlist.iter_cells nl (fun c -> Hashtbl.replace taken c.Cell.name ());
  let rec go name = if Hashtbl.mem taken name then go (name ^ "x") else name in
  go base

let pick_net nl seed salt =
  Ids.Net.of_int (draw seed salt (Netlist.num_nets nl))

let add_cell nl seed =
  let n = pick_net nl seed 1 in
  let buf = fresh_name nl (Printf.sprintf "delta$add%d" seed) in
  let nl' =
    copy nl
      ~extra_nets:[ buf ^ "$n" ]
      ~append:(fun b ~trans ~extras ->
        Builder.add_gate_to b ~name:buf Cell.Buf [ trans n ]
          ~output:extras.(0);
        ignore (Builder.add_output b ~name:(buf ^ "$o") extras.(0)))
      ()
  in
  Ok (nl', Printf.sprintf "add buf+output %s on net %s" buf
            (Netlist.net nl n).Netlist.net_name)

let remove_cell nl seed =
  let removable (c : Cell.t) =
    match c.Cell.kind with
    | Cell.Output -> true
    | Cell.Clock_source _ -> false
    | _ -> (
        match c.Cell.output with
        | Some n -> Array.length (Netlist.fanouts nl n) = 0
        | None -> false)
  in
  let candidates =
    Netlist.fold_cells nl ~init:[] ~f:(fun acc c ->
        if removable c then c.Cell.id :: acc else acc)
    |> List.rev
  in
  match candidates with
  | [] -> Error "remove-cell: no sink or fanout-free cell to remove"
  | _ ->
      let victim =
        List.nth candidates (draw seed 2 (List.length candidates))
      in
      let nl' =
        copy nl
          ~transform:(fun c ->
            if Ids.Cell.equal c.Cell.id victim then Drop else Keep)
          ()
      in
      Ok
        ( nl',
          Printf.sprintf "remove cell %s"
            (Netlist.cell nl victim).Cell.name )

let retime_net nl seed =
  let has_data_fanout n =
    Array.exists
      (fun t -> match t.Netlist.term_pin with
        | Netlist.Data_pin _ -> true
        | Netlist.Trigger_pin -> false)
      (Netlist.fanouts nl n)
  in
  let candidates =
    List.filter has_data_fanout
      (List.init (Netlist.num_nets nl) Ids.Net.of_int)
  in
  match candidates with
  | [] -> Error "retime-net: no net with data consumers"
  | _ ->
      let n = List.nth candidates (draw seed 3 (List.length candidates)) in
      let doms = Netlist.domains nl in
      let dom = List.nth doms (draw seed 4 (List.length doms)) in
      let name = fresh_name nl (Printf.sprintf "delta$rt%d" seed) in
      (* Every data consumer of [n] moves to the new flop's output; the
         flop itself (added in [append]) reads the original net.  Triggers
         stay on [n] — retiming a gating path is a different edit. *)
      let nl' =
        copy nl
          ~extra_nets:[ name ^ "$q" ]
          ~remap:(fun _ m -> if Ids.Net.equal m n then `Extra 0 else `Keep)
          ~append:(fun b ~trans ~extras ->
            Builder.add_flip_flop_to b ~name ~data:(trans n)
              ~clock:(Cell.Dom_clock dom) ~output:extras.(0) ())
          ()
      in
      Ok
        ( nl',
          Printf.sprintf "retime net %s through flop %s in domain %s"
            (Netlist.net nl n).Netlist.net_name name
            (Netlist.domain_name nl dom) )

let resize_fanout nl seed =
  let n = pick_net nl seed 5 in
  let name = fresh_name nl (Printf.sprintf "delta$fan%d" seed) in
  let nl' =
    copy nl
      ~append:(fun b ~trans ~extras ->
        ignore extras;
        ignore (Builder.add_output b ~name (trans n)))
      ()
  in
  Ok
    ( nl',
      Printf.sprintf "add output %s fanning out net %s" name
        (Netlist.net nl n).Netlist.net_name )

let flip_domain nl seed =
  let nd = Netlist.num_domains nl in
  if nd < 2 then Error "flip-domain: design has a single domain"
  else begin
    let flippable (c : Cell.t) =
      match (c.Cell.kind, c.Cell.trigger) with
      | Cell.Input { domain = Some _ }, _ -> true
      | _, Some (Cell.Dom_clock _) -> true
      | _ -> false
    in
    let candidates =
      Netlist.fold_cells nl ~init:[] ~f:(fun acc c ->
          if flippable c then c.Cell.id :: acc else acc)
      |> List.rev
    in
    match candidates with
    | [] -> Error "flip-domain: no domain-clocked cell or domained input"
    | _ ->
        let victim =
          List.nth candidates (draw seed 6 (List.length candidates))
        in
        let next d = Ids.Dom.of_int ((Ids.Dom.to_int d + 1) mod nd) in
        let nl' =
          copy nl
            ~transform:(fun c ->
              if not (Ids.Cell.equal c.Cell.id victim) then Keep
              else
                match (c.Cell.kind, c.Cell.trigger) with
                | Cell.Input { domain = Some d }, _ ->
                    Replace
                      { c with Cell.kind = Cell.Input { domain = Some (next d) } }
                | _, Some (Cell.Dom_clock d) ->
                    Replace
                      { c with Cell.trigger = Some (Cell.Dom_clock (next d)) }
                | _ -> Keep)
            ()
        in
        Ok
          ( nl',
            Printf.sprintf "flip domain of cell %s"
              (Netlist.cell nl victim).Cell.name )
  end

let apply ?(seed = 0) kind nl =
  match kind with
  | Add_cell -> add_cell nl seed
  | Remove_cell -> remove_cell nl seed
  | Retime_net -> retime_net nl seed
  | Flip_domain -> flip_domain nl seed
  | Resize_fanout -> resize_fanout nl seed
