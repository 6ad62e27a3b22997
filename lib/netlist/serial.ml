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

(* Names may not contain whitespace; sanitized on output, in place. *)
let is_space c = c = ' ' || c = '\t' || c = '\n'

(* The canonical text is written twice over the same walk: once into a
   counter, to learn its length, then into a string of exactly that
   length.  The cache key and the design fingerprint both hash this text
   on every served request; sizing it up front spares a buffer that
   overshoots and a copy out of it. *)
type out = { bytes : Bytes.t; mutable pos : int }

let rec decimal_width i = if i < 10 then 1 else 1 + decimal_width (i / 10)

let render o nl =
  let writing = Bytes.length o.bytes > 0 in
  let str s =
    let n = String.length s in
    if writing then Bytes.blit_string s 0 o.bytes o.pos n;
    o.pos <- o.pos + n
  in
  let chr c =
    if writing then Bytes.set o.bytes o.pos c;
    o.pos <- o.pos + 1
  in
  let int i =
    if i < 0 then str (string_of_int i)
    else begin
      let w = decimal_width i in
      if writing then begin
        let v = ref i in
        for k = o.pos + w - 1 downto o.pos do
          Bytes.set o.bytes k (Char.unsafe_chr (48 + (!v mod 10)));
          v := !v / 10
        done
      end;
      o.pos <- o.pos + w
    end
  in
  let name s =
    let start = o.pos in
    str s;
    if writing then
      for k = start to o.pos - 1 do
        if is_space (Bytes.get o.bytes k) then Bytes.set o.bytes k '_'
      done
  in
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
          str "gate ";
          head (gate_name g) c;
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
      chr '\n')

let to_string nl =
  let count = { bytes = Bytes.empty; pos = 0 } in
  render count nl;
  let o = { bytes = Bytes.create count.pos; pos = 0 } in
  render o nl;
  assert (o.pos = count.pos);
  Bytes.unsafe_to_string o.bytes

let output ppf nl = Format.pp_print_string ppf (to_string nl)

(* ------------------------------------------------------------------ *)

exception Parse of int * string

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i land max_int
end)

(* Mutable parse state shared by the fail-fast and the diagnostic-collecting
   entry points.  The current line's tokens are offsets into [text]: token
   [k] spans [starts.(k)] up to [stops.(k)].  A file net id [i] in
   [0, String.length text) names net [dense.(i)] ([-1]: undeclared), grown
   on demand and so never longer than the text; any other id goes through
   [sparse].  A `design' directive starts a new builder and forgets the
   file's net ids with the old one (one design per file): the first
   [nbound] slots of [bound] list the dense ids bound since, so forgetting
   costs what the design declared, not the table's length. *)
type pstate = {
  text : string;
  mutable b : Netlist.Builder.t;
  mutable dense : int array;
  mutable bound : int array;
  mutable nbound : int;
  sparse : Ids.Net.t Itbl.t;
  mutable starts : int array;
  mutable stops : int array;
  mutable ntok : int;
}

let create_state text =
  {
    text;
    b = Netlist.Builder.create ();
    dense = [||];
    bound = [||];
    nbound = 0;
    sparse = Itbl.create 1;
    starts = Array.make 16 0;
    stops = Array.make 16 0;
    ntok = 0;
  }

let is_dense st id = id >= 0 && id < String.length st.text

let bind_net st id net =
  if is_dense st id then begin
    let size = Array.length st.dense in
    if id >= size then begin
      let want = ref (max 64 (2 * size)) in
      while !want <= id do want := 2 * !want done;
      let d = Array.make (min !want (String.length st.text)) (-1) in
      Array.blit st.dense 0 d 0 size;
      st.dense <- d
    end;
    if st.dense.(id) < 0 then begin
      if st.nbound = Array.length st.bound then begin
        let b = Array.make (max 64 (2 * st.nbound)) 0 in
        Array.blit st.bound 0 b 0 st.nbound;
        st.bound <- b
      end;
      st.bound.(st.nbound) <- id;
      st.nbound <- st.nbound + 1
    end;
    st.dense.(id) <- Ids.Net.to_int net
  end
  else Itbl.replace st.sparse id net

let forget_nets st =
  for k = 0 to st.nbound - 1 do
    st.dense.(st.bound.(k)) <- -1
  done;
  st.nbound <- 0;
  Itbl.reset st.sparse

let push_token st start stop =
  let k = st.ntok in
  if k = Array.length st.starts then begin
    let grow a =
      let a' = Array.make (2 * k) 0 in
      Array.blit a 0 a' 0 k;
      a'
    in
    st.starts <- grow st.starts;
    st.stops <- grow st.stops
  end;
  st.starts.(k) <- start;
  st.stops.(k) <- stop;
  st.ntok <- k + 1

let token st k = String.sub st.text st.starts.(k) (st.stops.(k) - st.starts.(k))

let rec same_from text start lit i =
  i = String.length lit
  || String.unsafe_get text (start + i) = String.unsafe_get lit i
     && same_from text start lit (i + 1)

let token_is st k lit =
  st.stops.(k) - st.starts.(k) = String.length lit
  && same_from st.text st.starts.(k) lit 0

let gates =
  Cell.[| And; Or; Nand; Nor; Xor; Xnor; Not; Buf; Mux |]

(* The index in [gates] from [i] of the gate token [k] names, or [-1]:
   the inverse of [gate_name], read without copying the token out. *)
let rec token_gate st k i =
  if i = Array.length gates then -1
  else if token_is st k (gate_name gates.(i)) then i
  else token_gate st k (i + 1)

(* The value of the decimal digits text.[i .. stop - 1] after [acc], or
   [-1] at the first other byte. *)
let rec digits text stop i acc =
  if i = stop then acc
  else
    match String.unsafe_get text i with
    | '0' .. '9' as c -> digits text stop (i + 1) ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* [int_of_string_opt] of token [k]; a run of at most 18 decimal digits
   (no overflow) is read in place. *)
let token_int st lineno k =
  let start = st.starts.(k) and stop = st.stops.(k) in
  let v = if stop - start <= 18 then digits st.text stop start 0 else -1 in
  if v >= 0 then v
  else
    let s = token st k in
    match int_of_string_opt s with
    | Some i -> i
    | None -> raise (Parse (lineno, Printf.sprintf "expected integer, got %S" s))

let unknown_net lineno id =
  raise (Parse (lineno, Printf.sprintf "unknown net %d" id))

let token_net st lineno k =
  let id = token_int st lineno k in
  if is_dense st id then
    if id < Array.length st.dense && st.dense.(id) >= 0 then
      Ids.Net.of_int st.dense.(id)
    else unknown_net lineno id
  else
    match Itbl.find st.sparse id with
    | n -> n
    | exception Not_found -> unknown_net lineno id

(* The nets of the [count] tokens from [k], resolved left to right. *)
let token_nets st lineno k count =
  let a = Array.make count (Ids.Net.of_int 0) in
  for i = 0 to count - 1 do
    a.(i) <- token_net st lineno (k + i)
  done;
  a

let token_dom st lineno k = Ids.Dom.of_int (token_int st lineno k)

(* The two tokens at [k]: `dom <d>' or `net <n>'. *)
let token_trigger st lineno k =
  if token_is st k "dom" then Cell.Dom_clock (token_dom st lineno (k + 1))
  else if token_is st k "net" then
    Cell.Net_trigger (token_net st lineno (k + 1))
  else raise (Parse (lineno, "expected `dom <d>' or `net <n>'"))

let fail lineno msg = raise (Parse (lineno, msg))

let add_cell b ~name kind data_inputs ~trigger ~output =
  let (_ : Ids.Cell.t) =
    Netlist.Builder.add_cell b ~name kind data_inputs ~trigger ~output
  in
  ()

(* Which token of a line fails first is part of the diagnostic, so each
   directive resolves its tokens in a fixed order: the output net, then the
   trigger, then the data nets (gate inputs and RAM pins left to right; RAM
   pins before the output). *)
let process_line st lineno =
  let n = st.ntok and b = st.b in
  if n = 2 && token_is st 0 "design" then begin
    st.b <- Netlist.Builder.create ~design_name:(token st 1) ();
    forget_nets st
  end
  else if n = 2 && token_is st 0 "domain" then
    let (_ : Ids.Dom.t) = Netlist.Builder.add_domain b (token st 1) in
    ()
  else if n = 3 && token_is st 0 "net" then begin
    let fresh = Netlist.Builder.fresh_net b ~name:(token st 2) () in
    bind_net st (token_int st lineno 1) fresh
  end
  else if n >= 3 && token_is st 0 "input" then begin
    let domain =
      if n = 3 then None
      else if n = 5 && token_is st 3 "domain" then Some (token_dom st lineno 4)
      else fail lineno "bad input line"
    in
    let output = token_net st lineno 2 in
    add_cell b ~name:(token st 1) (Cell.Input { domain }) [||] ~trigger:None
      ~output:(Some output)
  end
  else if n = 3 && token_is st 0 "clocksource" then begin
    let output = token_net st lineno 2 in
    Netlist.Builder.add_clock_source_to b (token_dom st lineno 1) ~output
  end
  else if n >= 4 && token_is st 0 "gate" then begin
    let g = token_gate st 1 0 in
    if g < 0 then fail lineno ("unknown gate kind " ^ token st 1);
    let output = token_net st lineno 3 in
    let ins = token_nets st lineno 4 (n - 4) in
    add_cell b ~name:(token st 2) (Cell.Gate gates.(g)) ins ~trigger:None
      ~output:(Some output)
  end
  else if n = 7 && token_is st 0 "latch" then begin
    let active_high =
      if token_is st 6 "high" then true
      else if token_is st 6 "low" then false
      else fail lineno "latch polarity must be high|low"
    in
    let output = token_net st lineno 2 in
    let gate = token_trigger st lineno 4 in
    let data = token_net st lineno 3 in
    add_cell b ~name:(token st 1)
      (Cell.Latch { active_high })
      [| data |] ~trigger:(Some gate) ~output:(Some output)
  end
  else if n = 6 && token_is st 0 "ff" then begin
    let output = token_net st lineno 2 in
    let clock = token_trigger st lineno 4 in
    let data = token_net st lineno 3 in
    add_cell b ~name:(token st 1) Cell.Flip_flop [| data |]
      ~trigger:(Some clock) ~output:(Some output)
  end
  else if n >= 4 && token_is st 0 "ram" then begin
    (* Pins: we, wdata, [a] write-address and [a] read-address nets, then
       the two trigger tokens. *)
    let a = token_int st lineno 3 in
    if n - 4 <> 2 + (2 * a) + 2 then fail lineno "bad ram pin count";
    let npins = 2 + (2 * a) in
    if npins < 0 then fail lineno "bad ram line";
    let pins = token_nets st lineno 4 npins in
    if npins < 2 then fail lineno "bad ram pins";
    if a < 0 then fail lineno "bad ram address pins";
    let output = token_net st lineno 2 in
    let clock = token_trigger st lineno (4 + npins) in
    add_cell b ~name:(token st 1)
      (Cell.Ram { addr_bits = a })
      pins ~trigger:(Some clock) ~output:(Some output)
  end
  else if n = 3 && token_is st 0 "output" then
    let input = token_net st lineno 2 in
    add_cell b ~name:(token st 1) Cell.Output [| input |] ~trigger:None
      ~output:None
  else fail lineno ("unknown directive " ^ token st 0)

let is_blank = function ' ' | '\012' | '\r' | '\t' -> true | _ -> false

(* Calls [f lineno] with the line's tokens in [st] for every line that has
   tokens and does not start with `#'.  Lines end at '\n' and are numbered
   from 1; a line is trimmed of [String.trim]'s blanks at both ends and
   split at single spaces, so a tab inside a line is part of a token. *)
let iter_lines st f =
  let text = st.text in
  let len = String.length text in
  let lineno = ref 1 and ls = ref 0 in
  while !ls <= len do
    let le = ref !ls in
    while !le < len && String.unsafe_get text !le <> '\n' do incr le done;
    let s = ref !ls and e = ref !le in
    while !s < !e && is_blank (String.unsafe_get text !s) do incr s done;
    while !e > !s && is_blank (String.unsafe_get text (!e - 1)) do decr e done;
    st.ntok <- 0;
    let i = ref !s in
    while !i < !e do
      if String.unsafe_get text !i = ' ' then incr i
      else begin
        let start = !i in
        while !i < !e && String.unsafe_get text !i <> ' ' do incr i done;
        push_token st start !i
      end
    done;
    if st.ntok > 0 && text.[st.starts.(0)] <> '#' then f !lineno;
    incr lineno;
    ls := !le + 1
  done

(* The builder rejects some lines with [Invalid_argument] (a negative
   domain id, a second clock source); name the line like any parse error. *)
let process_line_exn st lineno =
  try process_line st lineno
  with Invalid_argument msg -> raise (Parse (lineno, msg))

let of_string text =
  let st = create_state text in
  match iter_lines st (process_line_exn st) with
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
  let st = create_state text in
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
  iter_lines st (fun lineno ->
      match process_line st lineno with
      | () -> ()
      | exception Parse (l, m) ->
          push (Diag.error Diag.E_PARSE "line %d: %s" l m)
      | exception Netlist.Invalid e -> push (Lint.diag_of_validation_error e)
      | exception Invalid_argument m ->
          push (Diag.error Diag.E_MALFORMED_NET "line %d: %s" lineno m));
  if !truncated then
    rev_diags :=
      Diag.error Diag.E_PARSE "more than %d parse errors; rest suppressed"
        max_parse_diags
      :: !rev_diags;
  let parse_diags = List.rev !rev_diags in
  if parse_diags <> [] then Error parse_diags
  else
    match Netlist.Builder.finalize_result st.b with
    | Ok nl -> Ok nl
    | Error errs -> Error (List.map Lint.diag_of_validation_error errs)

let of_string_exn text =
  match of_string text with Ok nl -> nl | Error msg -> failwith msg
