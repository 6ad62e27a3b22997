type pin = Data_pin of int | Trigger_pin

type term = { term_cell : Ids.Cell.t; term_pin : pin }

type net_info = {
  net_name : string;
  driver : Ids.Cell.t;
  fanouts : term array;
}

type t = {
  design_name : string;
  domain_names : string array;
  cells : Cell.t array;
  nets : net_info array;
  clock_sources : Ids.Net.t option array;  (* by domain index *)
}

type validation_error =
  | Undriven_net of Ids.Net.t
  | Multiple_drivers of Ids.Net.t * Ids.Cell.t * Ids.Cell.t
  | Bad_arity of Ids.Cell.t * string
  | Missing_trigger of Ids.Cell.t
  | Unknown_domain of Ids.Dom.t

let pp_validation_error ppf = function
  | Undriven_net n -> Format.fprintf ppf "net %a has no driver" Ids.Net.pp n
  | Multiple_drivers (n, a, b) ->
      Format.fprintf ppf "net %a driven by both %a and %a" Ids.Net.pp n
        Ids.Cell.pp a Ids.Cell.pp b
  | Bad_arity (c, msg) ->
      Format.fprintf ppf "cell %a has bad arity: %s" Ids.Cell.pp c msg
  | Missing_trigger c ->
      Format.fprintf ppf "sequential cell %a has no trigger" Ids.Cell.pp c
  | Unknown_domain d -> Format.fprintf ppf "unknown domain %a" Ids.Dom.pp d

exception Invalid of validation_error

let design_name t = t.design_name
let num_domains t = Array.length t.domain_names
let num_cells t = Array.length t.cells
let num_nets t = Array.length t.nets
let domain_name t d = t.domain_names.(Ids.Dom.to_int d)
let domains t = List.init (num_domains t) Ids.Dom.of_int
let cell t c = t.cells.(Ids.Cell.to_int c)
let net t n = t.nets.(Ids.Net.to_int n)
let driver t n = cell t (net t n).driver
let fanouts t n = (net t n).fanouts
let iter_cells t f = Array.iter f t.cells

let fold_cells t ~init ~f = Array.fold_left f init t.cells
let iter_nets t f = Array.iteri (fun i ni -> f (Ids.Net.of_int i) ni) t.nets
let cells t = t.cells
let clock_source_net t d = t.clock_sources.(Ids.Dom.to_int d)

let trigger_net_of t (c : Cell.t) =
  match c.trigger with
  | None -> None
  | Some (Cell.Net_trigger n) -> Some n
  | Some (Cell.Dom_clock d) -> clock_source_net t d

let term_input_net t tm =
  let c = cell t tm.term_cell in
  match tm.term_pin with
  | Data_pin i -> c.data_inputs.(i)
  | Trigger_pin -> (
      match trigger_net_of t c with
      | Some n -> n
      | None -> invalid_arg "term_input_net: trigger has no net")

let pp_summary ppf t =
  let count p = fold_cells t ~init:0 ~f:(fun n c -> if p c then n + 1 else n) in
  let gates = count Cell.is_combinational in
  let latches = count (fun c -> match c.Cell.kind with Latch _ -> true | _ -> false) in
  let ffs = count (fun c -> match c.Cell.kind with Flip_flop -> true | _ -> false) in
  let rams = count (fun c -> match c.Cell.kind with Ram _ -> true | _ -> false) in
  Format.fprintf ppf
    "design %s: %d domains, %d cells (%d gates, %d latches, %d ffs, %d rams), %d nets"
    t.design_name (num_domains t) (num_cells t) gates latches ffs rams
    (num_nets t)

(* ------------------------------------------------------------------ *)

module Builder = struct
  (* Proto-nets live in two growable arrays indexed by net id: the name
     and the driving cell id ([-1] while undriven); cells in a third, in
     the order they were added.  Only the first [nnets] and [nadded]
     slots are meaningful.  A cell whose output turns out to be driven
     already still consumes its id, so [ncells] can run ahead of
     [nadded]. *)
  type t = {
    bname : string;
    mutable bdomains : string list;  (* reversed *)
    mutable ndomains : int;
    mutable bcells : Cell.t array;
    mutable nadded : int;
    mutable ncells : int;
    mutable pnames : string array;
    mutable pdrivers : int array;
    mutable nnets : int;
    bclock_sources : (int, Ids.Net.t) Hashtbl.t;
  }

  let create ?(design_name = "design") () =
    {
      bname = design_name;
      bdomains = [];
      ndomains = 0;
      bcells = [||];
      nadded = 0;
      ncells = 0;
      pnames = [||];
      pdrivers = [||];
      nnets = 0;
      bclock_sources = Hashtbl.create 8;
    }

  (* [a] with room for at least [n + 1] slots, the new ones [fill]. *)
  let grown a n fill =
    if n < Array.length a then a
    else begin
      let a' = Array.make (max 64 (2 * n)) fill in
      Array.blit a 0 a' 0 n;
      a'
    end

  let add_domain b name =
    let d = Ids.Dom.of_int b.ndomains in
    b.bdomains <- name :: b.bdomains;
    b.ndomains <- b.ndomains + 1;
    d

  let fresh_net b ?name () =
    let id = b.nnets in
    let name = match name with Some s -> s | None -> Printf.sprintf "n%d" id in
    b.pnames <- grown b.pnames id "";
    b.pdrivers <- grown b.pdrivers id (-1);
    b.pnames.(id) <- name;
    b.nnets <- id + 1;
    Ids.Net.of_int id

  let drive b net cell_id =
    let i = Ids.Net.to_int net in
    if i >= b.nnets then invalid_arg "Builder: net not allocated by this builder";
    let prev = b.pdrivers.(i) in
    if prev >= 0 then
      raise (Invalid (Multiple_drivers (net, Ids.Cell.of_int prev, cell_id)));
    b.pdrivers.(i) <- Ids.Cell.to_int cell_id

  let no_cell : Cell.t =
    {
      id = Ids.Cell.of_int 0;
      kind = Cell.Output;
      data_inputs = [||];
      trigger = None;
      output = None;
      name = "";
    }

  (* The one cell constructor; the typed ones below wrap it.  A cell
     whose output is driven already still consumes its id. *)
  let add_cell b ?name kind data_inputs ~trigger ~output =
    let id = Ids.Cell.of_int b.ncells in
    b.ncells <- b.ncells + 1;
    let name =
      match name with Some s -> s | None -> Format.asprintf "%a" Ids.Cell.pp id
    in
    (match output with Some n -> drive b n id | None -> ());
    let k = b.nadded in
    b.bcells <- grown b.bcells k no_cell;
    b.bcells.(k) <- { Cell.id; kind; data_inputs; trigger; output; name };
    b.nadded <- k + 1;
    id

  let add_input b ?name ?domain () =
    let out = fresh_net b ?name () in
    let (_ : Ids.Cell.t) =
      add_cell b ?name (Cell.Input { domain }) [||] ~trigger:None
        ~output:(Some out)
    in
    out

  let add_input_to b ?name ?domain ~output () =
    let (_ : Ids.Cell.t) =
      add_cell b ?name (Cell.Input { domain }) [||] ~trigger:None
        ~output:(Some output)
    in
    ()

  let add_clock_source_to b d ~output =
    if Hashtbl.mem b.bclock_sources (Ids.Dom.to_int d) then
      invalid_arg "add_clock_source_to: domain already has a clock source";
    let (_ : Ids.Cell.t) =
      add_cell b
        ~name:(Format.asprintf "clksrc_%a" Ids.Dom.pp d)
        (Cell.Clock_source d) [||] ~trigger:None
        ~output:(Some output)
    in
    Hashtbl.add b.bclock_sources (Ids.Dom.to_int d) output

  let add_clock_source b d =
    match Hashtbl.find_opt b.bclock_sources (Ids.Dom.to_int d) with
    | Some n -> n
    | None ->
        let out = fresh_net b ~name:(Format.asprintf "clk_%a" Ids.Dom.pp d) () in
        let (_ : Ids.Cell.t) =
          add_cell b
            ~name:(Format.asprintf "clksrc_%a" Ids.Dom.pp d)
            (Cell.Clock_source d) [||] ~trigger:None
            ~output:(Some out)
        in
        Hashtbl.add b.bclock_sources (Ids.Dom.to_int d) out;
        out

  let add_output b ?name net =
    add_cell b ?name Cell.Output [| net |] ~trigger:None ~output:None

  let add_gate_to b ?name g inputs ~output =
    let (_ : Ids.Cell.t) =
      add_cell b ?name (Cell.Gate g) (Array.of_list inputs) ~trigger:None
        ~output:(Some output)
    in
    ()

  let add_gate b ?name g inputs =
    let out = fresh_net b ?name () in
    add_gate_to b ?name g inputs ~output:out;
    out

  let add_latch_to b ?name ?(active_high = true) ~data ~gate ~output () =
    let (_ : Ids.Cell.t) =
      add_cell b ?name
        (Cell.Latch { active_high })
        [| data |] ~trigger:(Some gate) ~output:(Some output)
    in
    ()

  let add_latch b ?name ?active_high ~data ~gate () =
    let out = fresh_net b ?name () in
    add_latch_to b ?name ?active_high ~data ~gate ~output:out ();
    out

  let add_flip_flop_to b ?name ~data ~clock ~output () =
    let (_ : Ids.Cell.t) =
      add_cell b ?name Cell.Flip_flop [| data |]
        ~trigger:(Some clock) ~output:(Some output)
    in
    ()

  let add_flip_flop b ?name ~data ~clock () =
    let out = fresh_net b ?name () in
    add_flip_flop_to b ?name ~data ~clock ~output:out ();
    out

  let add_ram_to b ?name ~addr_bits ~write_enable ~write_data ~write_addr
      ~read_addr ~clock ~output () =
    if List.length write_addr <> addr_bits || List.length read_addr <> addr_bits
    then invalid_arg "add_ram: address width mismatch";
    let data_inputs =
      Array.of_list ((write_enable :: write_data :: write_addr) @ read_addr)
    in
    let (_ : Ids.Cell.t) =
      add_cell b ?name (Cell.Ram { addr_bits }) data_inputs ~trigger:(Some clock)
        ~output:(Some output)
    in
    ()

  let add_ram b ?name ~addr_bits ~write_enable ~write_data ~write_addr
      ~read_addr ~clock () =
    let out = fresh_net b ?name () in
    add_ram_to b ?name ~addr_bits ~write_enable ~write_data ~write_addr
      ~read_addr ~clock ~output:out ();
    out

  (* The first structural error of one cell, if any: an unknown trigger
     domain, then the arity and trigger its kind requires. *)
  let unknown_domain ndomains d = Ids.Dom.to_int d >= ndomains

  let arity_error (c : Cell.t) n =
    if Array.length c.data_inputs = n then None
    else
      Some (Bad_arity (c.id, Printf.sprintf "expected %d data inputs" n))

  let sequential_error (c : Cell.t) n =
    match arity_error c n with
    | Some _ as e -> e
    | None -> if c.trigger = None then Some (Missing_trigger c.id) else None

  let cell_error ndomains (c : Cell.t) =
    match c.trigger with
    | Some (Cell.Dom_clock d) when unknown_domain ndomains d ->
        Some (Unknown_domain d)
    | Some (Cell.Dom_clock _ | Cell.Net_trigger _) | None -> (
        match c.kind with
        | Cell.Gate g -> (
            match Cell.gate_arity g with
            | Some a -> arity_error c a
            | None ->
                if Array.length c.data_inputs >= 1 then None
                else
                  Some
                    (Bad_arity (c.id, "variadic gate needs at least one input"))
            )
        | Cell.Latch _ | Cell.Flip_flop -> sequential_error c 1
        | Cell.Ram { addr_bits } -> sequential_error c (2 + (2 * addr_bits))
        | Cell.Input { domain } -> (
            match (arity_error c 0, domain) with
            | (Some _ as e), _ -> e
            | None, Some d when unknown_domain ndomains d ->
                Some (Unknown_domain d)
            | None, (Some _ | None) -> None)
        | Cell.Clock_source d -> (
            match arity_error c 0 with
            | Some _ as e -> e
            | None ->
                if unknown_domain ndomains d then Some (Unknown_domain d)
                else None)
        | Cell.Output -> arity_error c 1)

  (* Every structural error in the builder graph (one per cell at most,
     plus every undriven net), in deterministic id order, without
     raising.  [Lint] maps these onto diagnostic codes. *)
  let errors b cells =
    let errs = ref [] in
    for k = 0 to Array.length cells - 1 do
      match cell_error b.ndomains cells.(k) with
      | None -> ()
      | Some e -> errs := e :: !errs
    done;
    for i = 0 to b.nnets - 1 do
      if b.pdrivers.(i) < 0 then errs := Undriven_net (Ids.Net.of_int i) :: !errs
    done;
    List.rev !errs

  let no_term = { term_cell = Ids.Cell.of_int 0; term_pin = Trigger_pin }

  (* The net a cell's trigger pin reads, or [-1].  A domain clock
     materialized as a net records the trigger as its fanout, so analyses
     see the dependency. *)
  let trigger_net clock_sources (c : Cell.t) =
    match c.trigger with
    | Some (Cell.Net_trigger n) -> Ids.Net.to_int n
    | Some (Cell.Dom_clock d) -> (
        match clock_sources.(Ids.Dom.to_int d) with
        | Some n -> Ids.Net.to_int n
        | None -> -1)
    | None -> -1

  (* Freeze a graph that [errors] accepted.  Fanout arrays are sized by a
     counting pass, then filled in cell order, data pins before the
     trigger: the fill walks that order backwards, counting each net's
     slots down. *)
  let freeze b cells =
    let domain_names = Array.of_list (List.rev b.bdomains) in
    let clock_sources = Array.make (Array.length domain_names) None in
    Hashtbl.iter (fun d n -> clock_sources.(d) <- Some n) b.bclock_sources;
    let slots = Array.make b.nnets 0 in
    for k = 0 to Array.length cells - 1 do
      let c = cells.(k) in
      let ins = c.Cell.data_inputs in
      for p = 0 to Array.length ins - 1 do
        let i = Ids.Net.to_int ins.(p) in
        slots.(i) <- slots.(i) + 1
      done;
      let t = trigger_net clock_sources c in
      if t >= 0 then slots.(t) <- slots.(t) + 1
    done;
    let nets =
      Array.init b.nnets (fun i ->
          {
            net_name = b.pnames.(i);
            driver = Ids.Cell.of_int b.pdrivers.(i);
            fanouts =
              (if slots.(i) = 0 then [||] else Array.make slots.(i) no_term);
          })
    in
    for k = Array.length cells - 1 downto 0 do
      let c = cells.(k) in
      let t = trigger_net clock_sources c in
      if t >= 0 then begin
        slots.(t) <- slots.(t) - 1;
        nets.(t).fanouts.(slots.(t)) <-
          { term_cell = c.Cell.id; term_pin = Trigger_pin }
      end;
      let ins = c.Cell.data_inputs in
      for p = Array.length ins - 1 downto 0 do
        let i = Ids.Net.to_int ins.(p) in
        slots.(i) <- slots.(i) - 1;
        nets.(i).fanouts.(slots.(i)) <-
          { term_cell = c.Cell.id; term_pin = Data_pin p }
      done
    done;
    { design_name = b.bname; domain_names; cells; nets; clock_sources }

  let finalize_result b =
    let cells = Array.sub b.bcells 0 b.nadded in
    match errors b cells with [] -> Ok (freeze b cells) | errs -> Error errs

  let finalize b =
    match finalize_result b with
    | Ok nl -> nl
    | Error errs -> raise (Invalid (List.hd errs))
end
