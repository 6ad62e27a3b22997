let gate_name = function
  | Cell.And -> "and"
  | Cell.Or -> "or"
  | Cell.Nand -> "nand"
  | Cell.Nor -> "nor"
  | Cell.Xor -> "xor"
  | Cell.Xnor -> "xnor"
  | Cell.Not -> "not"
  | Cell.Buf -> "buf"
  | Cell.Mux -> "mux"

let gate_of_name = function
  | "and" -> Some Cell.And
  | "or" -> Some Cell.Or
  | "nand" -> Some Cell.Nand
  | "nor" -> Some Cell.Nor
  | "xor" -> Some Cell.Xor
  | "xnor" -> Some Cell.Xnor
  | "not" -> Some Cell.Not
  | "buf" -> Some Cell.Buf
  | "mux" -> Some Cell.Mux
  | _ -> None

(* Names may not contain whitespace; sanitize on output. *)
let clean_name s =
  String.map (fun c -> if c = ' ' || c = '\t' || c = '\n' then '_' else c) s

(* Written straight into a buffer: the cache key and the design
   fingerprint both hash this text on every served request. *)
let to_string nl =
  let b = Buffer.create (64 * (Netlist.num_cells nl + Netlist.num_nets nl)) in
  let str = Buffer.add_string b and chr = Buffer.add_char b in
  let int i = str (string_of_int i) in
  let name s = str (clean_name s) in
  let net n = int (Ids.Net.to_int n) in
  let sp_net n =
    chr ' ';
    net n
  in
  str "design ";
  name (Netlist.design_name nl);
  chr '\n';
  List.iter
    (fun d ->
      str "domain ";
      name (Netlist.domain_name nl d);
      chr '\n')
    (Netlist.domains nl);
  Netlist.iter_nets nl (fun n ni ->
      str "net ";
      net n;
      chr ' ';
      name ni.Netlist.net_name;
      chr '\n');
  let trigger (c : Cell.t) =
    match c.Cell.trigger with
    | Some (Cell.Dom_clock d) ->
        str " dom ";
        int (Ids.Dom.to_int d)
    | Some (Cell.Net_trigger t) ->
        str " net ";
        net t
    | None -> str " dom 0" (* unreachable for sequential cells *)
  in
  let head kind (c : Cell.t) =
    str kind;
    chr ' ';
    name c.Cell.name;
    sp_net (Option.get c.Cell.output)
  in
  Netlist.iter_cells nl (fun c ->
      (match c.Cell.kind with
      | Cell.Input { domain } -> (
          head "input" c;
          match domain with
          | Some d ->
              str " domain ";
              int (Ids.Dom.to_int d)
          | None -> ())
      | Cell.Clock_source d ->
          str "clocksource ";
          int (Ids.Dom.to_int d);
          sp_net (Option.get c.Cell.output)
      | Cell.Gate g ->
          head ("gate " ^ gate_name g) c;
          Array.iter sp_net c.Cell.data_inputs
      | Cell.Latch { active_high } ->
          head "latch" c;
          sp_net c.Cell.data_inputs.(0);
          trigger c;
          str (if active_high then " high" else " low")
      | Cell.Flip_flop ->
          head "ff" c;
          sp_net c.Cell.data_inputs.(0);
          trigger c
      | Cell.Ram { addr_bits } ->
          head "ram" c;
          chr ' ';
          int addr_bits;
          Array.iter sp_net c.Cell.data_inputs;
          trigger c
      | Cell.Output ->
          str "output ";
          name c.Cell.name;
          sp_net c.Cell.data_inputs.(0));
      chr '\n');
  Buffer.contents b

let output ppf nl = Format.pp_print_string ppf (to_string nl)

(* ------------------------------------------------------------------ *)

exception Parse of int * string

(* Mutable parse state shared by the fail-fast and the diagnostic-collecting
   entry points.  A `design' directive resets the builder (matching the
   historical behavior of one design per file). *)
type pstate = {
  mutable b : Netlist.Builder.t;
  nets : (int, Ids.Net.t) Hashtbl.t;
}

let process_line st lineno tokens =
  let nets = st.nets in
  let net lineno id =
    match Hashtbl.find_opt nets id with
    | Some n -> n
    | None -> raise (Parse (lineno, Printf.sprintf "unknown net %d" id))
  in
  let int lineno s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> raise (Parse (lineno, Printf.sprintf "expected integer, got %S" s))
  in
  let dom lineno s = Ids.Dom.of_int (int lineno s) in
  let parse_trigger lineno = function
    | [ "dom"; d ] -> Cell.Dom_clock (dom lineno d)
    | [ "net"; n ] -> Cell.Net_trigger (net lineno (int lineno n))
    | _ -> raise (Parse (lineno, "expected `dom <d>' or `net <n>'"))
  in
  match tokens with
    | [] -> ()
    | "#" :: _ -> ()
    | [ "design"; name ] -> st.b <- Netlist.Builder.create ~design_name:name ()
    | [ "domain"; name ] ->
        let (_ : Ids.Dom.t) = Netlist.Builder.add_domain st.b name in
        ()
    | [ "net"; id; name ] ->
        let n = Netlist.Builder.fresh_net st.b ~name () in
        Hashtbl.replace nets (int lineno id) n
    | "input" :: name :: out :: rest ->
        let domain =
          match rest with
          | [] -> None
          | [ "domain"; d ] -> Some (dom lineno d)
          | _ -> raise (Parse (lineno, "bad input line"))
        in
        Netlist.Builder.add_input_to st.b ~name ?domain
          ~output:(net lineno (int lineno out))
          ()
    | [ "clocksource"; d; out ] ->
        Netlist.Builder.add_clock_source_to st.b (dom lineno d)
          ~output:(net lineno (int lineno out))
    | "gate" :: kind :: name :: out :: ins -> (
        match gate_of_name kind with
        | None -> raise (Parse (lineno, "unknown gate kind " ^ kind))
        | Some g ->
            Netlist.Builder.add_gate_to st.b ~name g
              (List.map (fun i -> net lineno (int lineno i)) ins)
              ~output:(net lineno (int lineno out)))
    | [ "latch"; name; out; data; t0; t1; pol ] ->
        let active_high =
          match pol with
          | "high" -> true
          | "low" -> false
          | _ -> raise (Parse (lineno, "latch polarity must be high|low"))
        in
        Netlist.Builder.add_latch_to st.b ~name ~active_high
          ~data:(net lineno (int lineno data))
          ~gate:(parse_trigger lineno [ t0; t1 ])
          ~output:(net lineno (int lineno out))
          ()
    | [ "ff"; name; out; data; t0; t1 ] ->
        Netlist.Builder.add_flip_flop_to st.b ~name
          ~data:(net lineno (int lineno data))
          ~clock:(parse_trigger lineno [ t0; t1 ])
          ~output:(net lineno (int lineno out))
          ()
    | "ram" :: name :: out :: addr_bits :: rest ->
        let a = int lineno addr_bits in
        let expected = 2 + (2 * a) + 2 in
        if List.length rest <> expected then
          raise (Parse (lineno, "bad ram pin count"));
        let pins, trig =
          let rec split k acc = function
            | rest when k = 0 -> (List.rev acc, rest)
            | x :: rest -> split (k - 1) (x :: acc) rest
            | [] -> raise (Parse (lineno, "bad ram line"))
          in
          split (2 + (2 * a)) [] rest
        in
        let pins = List.map (fun i -> net lineno (int lineno i)) pins in
        let we, wdata, waddr, raddr =
          match pins with
          | we :: wdata :: rest ->
              let rec take k acc = function
                | rest when k = 0 -> (List.rev acc, rest)
                | x :: rest -> take (k - 1) (x :: acc) rest
                | [] -> raise (Parse (lineno, "bad ram address pins"))
              in
              let waddr, rest = take a [] rest in
              let raddr, _ = take a [] rest in
              (we, wdata, waddr, raddr)
          | _ -> raise (Parse (lineno, "bad ram pins"))
        in
        Netlist.Builder.add_ram_to st.b ~name ~addr_bits:a ~write_enable:we
          ~write_data:wdata ~write_addr:waddr ~read_addr:raddr
          ~clock:(parse_trigger lineno trig)
          ~output:(net lineno (int lineno out))
          ()
    | [ "output"; name; input ] ->
        let (_ : Ids.Cell.t) =
          Netlist.Builder.add_output st.b ~name (net lineno (int lineno input))
        in
        ()
    | tok :: _ -> raise (Parse (lineno, "unknown directive " ^ tok))

let iter_lines text f =
  String.split_on_char '\n' text
  |> List.iteri (fun i line ->
         let tokens =
           String.split_on_char ' ' (String.trim line)
           |> List.filter (fun s -> s <> "")
         in
         match tokens with
         | t :: _ when String.length t > 0 && t.[0] = '#' -> ()
         | _ -> f (i + 1) tokens)

let of_string text =
  let st = { b = Netlist.Builder.create (); nets = Hashtbl.create 256 } in
  match iter_lines text (process_line st) with
  | () -> (
      match Netlist.Builder.finalize st.b with
      | nl -> Ok nl
      | exception Netlist.Invalid e ->
          Error (Format.asprintf "validation: %a" Netlist.pp_validation_error e))
  | exception Parse (lineno, msg) ->
      Error (Printf.sprintf "line %d: %s" lineno msg)
  | exception Netlist.Invalid e ->
      (* Raised mid-parse by the builder, e.g. a net driven twice. *)
      Error (Format.asprintf "validation: %a" Netlist.pp_validation_error e)
  | exception Invalid_argument msg -> Error msg

let canonical text =
  match of_string text with
  | Ok nl -> Ok (to_string nl)
  | Error _ as e -> e

(* Diagnostic-collecting parse: one diagnostic per bad line (the line is
   skipped and parsing continues, so one typo does not hide the rest), then
   the accumulating structural validation of [Builder.finalize_result].
   Skipped lines can cascade (a skipped `net' makes later users of that id
   fail too), so the count is capped. *)
let max_parse_diags = 100

let of_string_diag text =
  let module Diag = Msched_diag.Diag in
  let st = { b = Netlist.Builder.create (); nets = Hashtbl.create 256 } in
  let rev_diags = ref [] in
  let ndiags = ref 0 in
  let truncated = ref false in
  let push d =
    if !ndiags < max_parse_diags then begin
      rev_diags := d :: !rev_diags;
      incr ndiags
    end
    else truncated := true
  in
  iter_lines text (fun lineno tokens ->
      match process_line st lineno tokens with
      | () -> ()
      | exception Parse (l, m) ->
          push (Diag.error Diag.E_PARSE "line %d: %s" l m)
      | exception Netlist.Invalid e -> push (Lint.diag_of_validation_error e)
      | exception Invalid_argument m ->
          push (Diag.error Diag.E_MALFORMED_NET "line %d: %s" lineno m));
  if !truncated then
    push
      (Diag.error Diag.E_PARSE "more than %d parse errors; rest suppressed"
         max_parse_diags);
  let parse_diags = List.rev !rev_diags in
  if parse_diags <> [] then Error parse_diags
  else
    match Netlist.Builder.finalize_result st.b with
    | Ok nl -> Ok nl
    | Error errs -> Error (List.map Lint.diag_of_validation_error errs)

let of_string_exn text =
  match of_string text with Ok nl -> nl | Error msg -> failwith msg
