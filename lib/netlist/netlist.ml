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
     and the driving cell id ([-1] while undriven).  Only the first
     [nnets] slots are meaningful. *)
  type t = {
    bname : string;
    mutable bdomains : string list;  (* reversed *)
    mutable ndomains : int;
    mutable bcells : Cell.t list;  (* reversed *)
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
      bcells = [];
      ncells = 0;
      pnames = Array.make 64 "";
      pdrivers = Array.make 64 (-1);
      nnets = 0;
      bclock_sources = Hashtbl.create 8;
    }

  let add_domain b name =
    let d = Ids.Dom.of_int b.ndomains in
    b.bdomains <- name :: b.bdomains;
    b.ndomains <- b.ndomains + 1;
    d

  let fresh_net b ?name () =
    let id = b.nnets in
    let name = match name with Some s -> s | None -> Printf.sprintf "n%d" id in
    if id = Array.length b.pnames then begin
      let grow a fill =
        let a' = Array.make (2 * id) fill in
        Array.blit a 0 a' 0 id;
        a'
      in
      b.pnames <- grow b.pnames "";
      b.pdrivers <- grow b.pdrivers (-1)
    end;
    b.pnames.(id) <- name;
    b.nnets <- id + 1;
    Ids.Net.of_int id

  let fresh_cell_id b =
    let id = Ids.Cell.of_int b.ncells in
    b.ncells <- b.ncells + 1;
    id

  let drive b net cell_id =
    let i = Ids.Net.to_int net in
    if i >= b.nnets then invalid_arg "Builder: net not allocated by this builder";
    let prev = b.pdrivers.(i) in
    if prev >= 0 then
      raise (Invalid (Multiple_drivers (net, Ids.Cell.of_int prev, cell_id)));
    b.pdrivers.(i) <- Ids.Cell.to_int cell_id

  let push b (c : Cell.t) = b.bcells <- c :: b.bcells

  let add_cell b ?name kind ~data_inputs ~trigger ~output =
    let id = fresh_cell_id b in
    let name =
      match name with Some s -> s | None -> Format.asprintf "%a" Ids.Cell.pp id
    in
    (match output with Some n -> drive b n id | None -> ());
    let c : Cell.t =
      { id; kind; data_inputs = Array.of_list data_inputs; trigger; output; name }
    in
    push b c;
    id

  let add_input b ?name ?domain () =
    let out = fresh_net b ?name () in
    let (_ : Ids.Cell.t) =
      add_cell b ?name (Cell.Input { domain }) ~data_inputs:[] ~trigger:None
        ~output:(Some out)
    in
    out

  let add_input_to b ?name ?domain ~output () =
    let (_ : Ids.Cell.t) =
      add_cell b ?name (Cell.Input { domain }) ~data_inputs:[] ~trigger:None
        ~output:(Some output)
    in
    ()

  let add_clock_source_to b d ~output =
    if Hashtbl.mem b.bclock_sources (Ids.Dom.to_int d) then
      invalid_arg "add_clock_source_to: domain already has a clock source";
    let (_ : Ids.Cell.t) =
      add_cell b
        ~name:(Format.asprintf "clksrc_%a" Ids.Dom.pp d)
        (Cell.Clock_source d) ~data_inputs:[] ~trigger:None
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
            (Cell.Clock_source d) ~data_inputs:[] ~trigger:None
            ~output:(Some out)
        in
        Hashtbl.add b.bclock_sources (Ids.Dom.to_int d) out;
        out

  let add_output b ?name net =
    add_cell b ?name Cell.Output ~data_inputs:[ net ] ~trigger:None ~output:None

  let add_gate_to b ?name g inputs ~output =
    let (_ : Ids.Cell.t) =
      add_cell b ?name (Cell.Gate g) ~data_inputs:inputs ~trigger:None
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
        ~data_inputs:[ data ] ~trigger:(Some gate) ~output:(Some output)
    in
    ()

  let add_latch b ?name ?active_high ~data ~gate () =
    let out = fresh_net b ?name () in
    add_latch_to b ?name ?active_high ~data ~gate ~output:out ();
    out

  let add_flip_flop_to b ?name ~data ~clock ~output () =
    let (_ : Ids.Cell.t) =
      add_cell b ?name Cell.Flip_flop ~data_inputs:[ data ]
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
    let data_inputs = (write_enable :: write_data :: write_addr) @ read_addr in
    let (_ : Ids.Cell.t) =
      add_cell b ?name (Cell.Ram { addr_bits }) ~data_inputs ~trigger:(Some clock)
        ~output:(Some output)
    in
    ()

  let add_ram b ?name ~addr_bits ~write_enable ~write_data ~write_addr
      ~read_addr ~clock () =
    let out = fresh_net b ?name () in
    add_ram_to b ?name ~addr_bits ~write_enable ~write_data ~write_addr
      ~read_addr ~clock ~output:out ();
    out

  let check_cell ndomains (c : Cell.t) =
    let arity_fail msg = raise (Invalid (Bad_arity (c.id, msg))) in
    let expect n =
      if Array.length c.data_inputs <> n then
        arity_fail (Printf.sprintf "expected %d data inputs" n)
    in
    let check_domain d =
      if Ids.Dom.to_int d >= ndomains then raise (Invalid (Unknown_domain d))
    in
    (match c.trigger with
    | Some (Cell.Dom_clock d) -> check_domain d
    | Some (Cell.Net_trigger _) | None -> ());
    match c.kind with
    | Cell.Gate g -> (
        match Cell.gate_arity g with
        | Some a -> expect a
        | None ->
            if Array.length c.data_inputs < 1 then
              arity_fail "variadic gate needs at least one input")
    | Cell.Latch _ | Cell.Flip_flop ->
        expect 1;
        if c.trigger = None then raise (Invalid (Missing_trigger c.id))
    | Cell.Ram { addr_bits } ->
        expect (2 + (2 * addr_bits));
        if c.trigger = None then raise (Invalid (Missing_trigger c.id))
    | Cell.Input { domain } ->
        expect 0;
        Option.iter check_domain domain
    | Cell.Clock_source d ->
        expect 0;
        check_domain d
    | Cell.Output -> expect 1

  (* Every structural error in the builder graph (one per cell at most,
     plus every undriven net), in deterministic id order, without
     raising.  [Lint] maps these onto diagnostic codes. *)
  let errors b cells =
    let errs = ref [] in
    Array.iter
      (fun c ->
        match check_cell b.ndomains c with
        | () -> ()
        | exception Invalid e -> errs := e :: !errs)
      cells;
    for i = 0 to b.nnets - 1 do
      if b.pdrivers.(i) < 0 then errs := Undriven_net (Ids.Net.of_int i) :: !errs
    done;
    List.rev !errs

  let no_term = { term_cell = Ids.Cell.of_int 0; term_pin = Trigger_pin }

  (* Freeze a graph that [errors] accepted.  Fanout arrays are sized by a
     counting pass and filled in cell order, data pins before the
     trigger. *)
  let freeze b cells =
    let domain_names = Array.of_list (List.rev b.bdomains) in
    let clock_sources = Array.make (Array.length domain_names) None in
    Hashtbl.iter (fun d n -> clock_sources.(d) <- Some n) b.bclock_sources;
    let trigger_net (c : Cell.t) =
      match c.trigger with
      | Some (Cell.Net_trigger n) -> Some n
      (* A domain clock materialized as a net records the trigger as its
         fanout, so analyses see the dependency. *)
      | Some (Cell.Dom_clock d) -> clock_sources.(Ids.Dom.to_int d)
      | None -> None
    in
    let counts = Array.make b.nnets 0 in
    let count n =
      let i = Ids.Net.to_int n in
      counts.(i) <- counts.(i) + 1
    in
    Array.iter
      (fun (c : Cell.t) ->
        Array.iter count c.data_inputs;
        Option.iter count (trigger_net c))
      cells;
    let fanouts =
      Array.map (fun k -> if k = 0 then [||] else Array.make k no_term) counts
    in
    let fill = Array.make b.nnets 0 in
    let add n tm =
      let i = Ids.Net.to_int n in
      fanouts.(i).(fill.(i)) <- tm;
      fill.(i) <- fill.(i) + 1
    in
    Array.iter
      (fun (c : Cell.t) ->
        Array.iteri
          (fun i n -> add n { term_cell = c.id; term_pin = Data_pin i })
          c.data_inputs;
        Option.iter
          (fun n -> add n { term_cell = c.id; term_pin = Trigger_pin })
          (trigger_net c))
      cells;
    let nets =
      Array.init b.nnets (fun i ->
          {
            net_name = b.pnames.(i);
            driver = Ids.Cell.of_int b.pdrivers.(i);
            fanouts = fanouts.(i);
          })
    in
    { design_name = b.bname; domain_names; cells; nets; clock_sources }

  let finalize_result b =
    let cells = Array.of_list (List.rev b.bcells) in
    match errors b cells with [] -> Ok (freeze b cells) | errs -> Error errs

  let finalize b =
    match finalize_result b with
    | Ok nl -> nl
    | Error errs -> raise (Invalid (List.hd errs))
end
