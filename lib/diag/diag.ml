(* Typed compiler diagnostics.

   This module sits below every other msched library (it depends on
   nothing), so the culprit context carries raw integer ids rather than the
   strongly-typed ids of Msched_netlist.Ids; callers convert with
   [Ids.X.to_int] at the raise/record site.  The numeric ids round-trip
   into the JSON report unchanged, which is what external tooling wants
   anyway. *)

type code =
  | E_PARSE
  | E_MALFORMED_NET
  | E_UNDRIVEN
  | E_DANGLING
  | E_COMB_CYCLE
  | E_UNKNOWN_DOMAIN
  | E_ARITY
  | E_UNSUPPORTED
  | E_CAPACITY
  | E_UNROUTABLE
  | E_HOLD_VIOLATION
  | E_VERIFY
  | E_XDOMAIN_FANIN
  | E_INTERNAL
  | E_CACHE
  | E_TIMEOUT
  | E_OVERLOAD
  | E_EMPTY_DESIGN

let code_name = function
  | E_PARSE -> "E_PARSE"
  | E_MALFORMED_NET -> "E_MALFORMED_NET"
  | E_UNDRIVEN -> "E_UNDRIVEN"
  | E_DANGLING -> "E_DANGLING"
  | E_COMB_CYCLE -> "E_COMB_CYCLE"
  | E_UNKNOWN_DOMAIN -> "E_UNKNOWN_DOMAIN"
  | E_ARITY -> "E_ARITY"
  | E_UNSUPPORTED -> "E_UNSUPPORTED"
  | E_CAPACITY -> "E_CAPACITY"
  | E_UNROUTABLE -> "E_UNROUTABLE"
  | E_HOLD_VIOLATION -> "E_HOLD_VIOLATION"
  | E_VERIFY -> "E_VERIFY"
  | E_XDOMAIN_FANIN -> "E_XDOMAIN_FANIN"
  | E_INTERNAL -> "E_INTERNAL"
  | E_CACHE -> "E_CACHE"
  | E_TIMEOUT -> "E_TIMEOUT"
  | E_OVERLOAD -> "E_OVERLOAD"
  | E_EMPTY_DESIGN -> "E_EMPTY_DESIGN"

let all_codes =
  [
    E_PARSE;
    E_MALFORMED_NET;
    E_UNDRIVEN;
    E_DANGLING;
    E_COMB_CYCLE;
    E_UNKNOWN_DOMAIN;
    E_ARITY;
    E_UNSUPPORTED;
    E_CAPACITY;
    E_UNROUTABLE;
    E_HOLD_VIOLATION;
    E_VERIFY;
    E_XDOMAIN_FANIN;
    E_INTERNAL;
    E_CACHE;
    E_TIMEOUT;
    E_OVERLOAD;
    E_EMPTY_DESIGN;
  ]

let code_of_name s = List.find_opt (fun c -> code_name c = s) all_codes

(* Process exit codes, one per diagnostic class (documented in
   docs/ROBUSTNESS.md; keep the three in sync with bin/msched_cli.ml).
   2 is the historical "verification failed" exit of `msched check`. *)
let exit_code = function
  | E_VERIFY | E_HOLD_VIOLATION -> 2
  | E_PARSE | E_MALFORMED_NET | E_UNDRIVEN | E_DANGLING | E_COMB_CYCLE
  | E_UNKNOWN_DOMAIN | E_ARITY | E_XDOMAIN_FANIN | E_CACHE | E_EMPTY_DESIGN ->
      3
  | E_UNROUTABLE | E_CAPACITY -> 4
  | E_UNSUPPORTED -> 5
  | E_INTERNAL -> 6
  | E_TIMEOUT -> 7
  | E_OVERLOAD -> 8

type severity = Error | Warning

let severity_name = function Error -> "error" | Warning -> "warning"

type context = {
  net : int option;
  cell : int option;
  domain : int option;
  fpga : int option;
  block : int option;
  slack : int option;  (** Slot budget that was exceeded, when known. *)
  culprit : string option;  (** Human-readable net/cell name. *)
}

let no_context =
  {
    net = None;
    cell = None;
    domain = None;
    fpga = None;
    block = None;
    slack = None;
    culprit = None;
  }

type t = {
  code : code;
  severity : severity;
  message : string;
  ctx : context;
}

let make ?net ?cell ?domain ?fpga ?block ?slack ?culprit severity code message
    =
  {
    code;
    severity;
    message;
    ctx = { net; cell; domain; fpga; block; slack; culprit };
  }

let error ?net ?cell ?domain ?fpga ?block ?slack ?culprit code fmt =
  Format.kasprintf
    (make ?net ?cell ?domain ?fpga ?block ?slack ?culprit Error code)
    fmt

let warning ?net ?cell ?domain ?fpga ?block ?slack ?culprit code fmt =
  Format.kasprintf
    (make ?net ?cell ?domain ?fpga ?block ?slack ?culprit Warning code)
    fmt

let is_error d = d.severity = Error

let pp_context ppf ctx =
  let item name = function
    | None -> ()
    | Some v -> Format.fprintf ppf " %s=%d" name v
  in
  item "net" ctx.net;
  item "cell" ctx.cell;
  item "domain" ctx.domain;
  item "fpga" ctx.fpga;
  item "block" ctx.block;
  item "slack" ctx.slack;
  match ctx.culprit with
  | None -> ()
  | Some c -> Format.fprintf ppf " culprit=%s" c

let pp ppf d =
  Format.fprintf ppf "%s[%s]: %s%a" (severity_name d.severity)
    (code_name d.code) d.message pp_context d.ctx

exception Fail of t
(** Structured escape hatch for contexts that must unwind (deep inside a
    scheduler pass).  Catch at the driver/CLI boundary. *)

let fail ?net ?cell ?domain ?fpga ?block ?slack ?culprit code fmt =
  Format.kasprintf
    (fun message ->
      raise
        (Fail (make ?net ?cell ?domain ?fpga ?block ?slack ?culprit Error code message)))
    fmt

(* ---- JSON (hand-emitted, schema "msched-diag-1"; mirrors the style of
   Msched_obs.Export so no JSON library is pulled in). ---- *)

module Json = struct
  (* Bytes JSON must escape: the quote, the backslash and the control
     characters below 0x20.  Everything else, DEL and bytes >= 0x80
     included, is copied as is. *)
  let plain c = c <> '"' && c <> '\\' && Char.code c >= 0x20

  let hex = "0123456789abcdef"

  (* Copy the run of plain bytes from [start] in one piece, escape the
     byte that ends it, and go on after it. *)
  let rec escape_from b s start =
    let n = String.length s in
    let i = ref start in
    while !i < n && plain (String.unsafe_get s !i) do
      incr i
    done;
    let i = !i in
    if i > start then Buffer.add_substring b s start (i - start);
    if i < n then begin
      (match String.unsafe_get s i with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b hex.[Char.code c lsr 4];
          Buffer.add_char b hex.[Char.code c land 15]);
      escape_from b s (i + 1)
    end

  let escape b s =
    Buffer.add_char b '"';
    escape_from b s 0;
    Buffer.add_char b '"'

  let rec add_digits b i =
    if i >= 10 then add_digits b (i / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (i mod 10)))

  let add_int b i =
    if i >= 0 then add_digits b i
    else if i = min_int then Buffer.add_string b (string_of_int i)
    else begin
      Buffer.add_char b '-';
      add_digits b (-i)
    end

  let add_bool b v = Buffer.add_string b (if v then "true" else "false")

  let string s =
    let b = Buffer.create (String.length s + 8) in
    escape b s;
    Buffer.contents b

  let field b ~first name value =
    if not !first then Buffer.add_char b ',';
    first := false;
    escape b name;
    Buffer.add_char b ':';
    Buffer.add_string b value

  (* A minimal JSON reader for the documents this toolchain itself emits
     (diag/driver/manifest/batch schemas): objects, arrays, strings with
     the escapes [escape] produces, numbers, booleans, null.  Readers that
     accumulate diagnostics (the batch server, the manifest cache) need to
     parse without pulling a JSON library into the dependency cone. *)
  type value =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of value list
    | Obj of (string * value) list

  exception Parse_error of string

  let parse text =
    let n = String.length text in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
    in
    let peek () = if !pos < n then Some text.[!pos] else None in
    let next () =
      match peek () with
      | Some c ->
          incr pos;
          c
      | None -> fail "unexpected end of input"
    in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          incr pos;
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if next () <> c then fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      String.iter expect word;
      value
    in
    (* The end of the run of plain string bytes starting at [i]. *)
    let rec run_end i =
      if i = n then i
      else
        match String.unsafe_get text i with
        | '"' | '\\' -> i
        | _ -> run_end (i + 1)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        (* Copy the run up to the next quote or backslash in one piece. *)
        let start = !pos in
        pos := run_end start;
        Buffer.add_substring b text start (!pos - start);
        match next () with
        | '"' -> Buffer.contents b
        | '\\' ->
            (match next () with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | ('"' | '\\' | '/') as c -> Buffer.add_char b c
            | 'u' ->
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub text !pos 4 in
                pos := !pos + 4;
                let digit = function
                  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                  | _ -> false
                in
                if not (String.for_all digit hex) then fail "bad \\u escape";
                let cp = int_of_string ("0x" ^ hex) in
                if cp < 0x80 then Buffer.add_char b (Char.chr cp)
                else
                  (* Our emitters only \u-escape control chars; keep
                     anything wider escaped rather than transcoding. *)
                  Buffer.add_string b ("\\u" ^ hex)
            | _ -> fail "bad escape");
            go ()
        | _ -> assert false (* a run ends only at a quote or backslash *)
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        incr pos
      done;
      if start = !pos then fail "empty number";
      match float_of_string_opt (String.sub text start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then (
            incr pos;
            Obj [])
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match next () with
              | ',' -> members ((k, v) :: acc)
              | '}' -> Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected , or }"
            in
            members []
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then (
            incr pos;
            Arr [])
          else
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match next () with
              | ',' -> elems (v :: acc)
              | ']' -> Arr (List.rev (v :: acc))
              | _ -> fail "expected , or ]"
            in
            elems []
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
      | None -> fail "unexpected end of input"
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let mem name = function
    | Obj members -> List.assoc_opt name members
    | _ -> None

  let str = function Str s -> Some s | _ -> None
  let num = function Num f -> Some f | _ -> None
  let arr = function Arr l -> Some l | _ -> None

  let int v =
    match num v with
    | Some f when Float.is_integer f -> Some (int_of_float f)
    | _ -> None

  (* FNV-1a, 64-bit: tiny, dependency-free and stable across platforms
     and processes.  The system's one content hash — cache keys, block
     fingerprints and the checksums of the reroute and manifest documents
     this reader loads back. *)
  let[@inline] fnv h s pos len =
    let h = ref h in
    for i = pos to pos + len - 1 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
          0x100000001b3L
    done;
    !h

  let fnv_basis = 0xcbf29ce484222325L

  let hash_hex s = Printf.sprintf "%016Lx" (fnv fnv_basis s 0 (String.length s))

  let hash_hex_lines lines =
    let h = ref fnv_basis in
    for i = 0 to Array.length lines - 1 do
      if i > 0 then h := fnv !h "\n" 0 1;
      h := fnv !h lines.(i) 0 (String.length lines.(i))
    done;
    Printf.sprintf "%016Lx" !h

  let hash_hex_slices slices =
    Printf.sprintf "%016Lx"
      (List.fold_left
         (fun h (s, pos, len) ->
           if pos < 0 || len < 0 || pos > String.length s - len then
             invalid_arg "Diag.Json.hash_hex_slices";
           fnv h s pos len)
         fnv_basis slices)
end

(* Field names, code and severity names are plain ASCII, written as
   they are; only the message and the culprit need escaping. *)
let to_json_buf b d =
  let str = Buffer.add_string b in
  str "{\"code\":\"";
  str (code_name d.code);
  str "\",\"severity\":\"";
  str (severity_name d.severity);
  str "\",\"message\":";
  Json.escape b d.message;
  str ",\"exit_code\":";
  Json.add_int b (exit_code d.code);
  let opt name = function
    | None -> ()
    | Some v ->
        str name;
        Json.add_int b v
  in
  opt ",\"net\":" d.ctx.net;
  opt ",\"cell\":" d.ctx.cell;
  opt ",\"domain\":" d.ctx.domain;
  opt ",\"fpga\":" d.ctx.fpga;
  opt ",\"block\":" d.ctx.block;
  opt ",\"slack\":" d.ctx.slack;
  (match d.ctx.culprit with
  | None -> ()
  | Some c ->
      str ",\"culprit\":";
      Json.escape b c);
  Buffer.add_char b '}'

let to_json d =
  let b = Buffer.create 256 in
  to_json_buf b d;
  Buffer.contents b

(* ---- Accumulating report. ---- *)

module Report = struct
  type diag = t

  type t = { mutable rev_diags : diag list }

  let create () = { rev_diags = [] }
  let add r d = r.rev_diags <- d :: r.rev_diags
  let add_list r ds = List.iter (add r) ds
  let to_list r = List.rev r.rev_diags
  let errors r = List.filter is_error (to_list r)
  let warnings r = List.filter (fun d -> not (is_error d)) (to_list r)
  let has_errors r = List.exists is_error r.rev_diags
  let is_empty r = r.rev_diags = []
  let count r = List.length r.rev_diags

  (* Exit code of the most severe error class present (the smallest
     numeric exit wins ties arbitrarily but deterministically: we take the
     first error's class in discovery order). *)
  let exit_code r =
    match errors r with [] -> 0 | d :: _ -> exit_code d.code

  let pp ppf r =
    match to_list r with
    | [] -> Format.pp_print_string ppf "no diagnostics"
    | ds ->
        Format.pp_print_list ~pp_sep:Format.pp_print_newline pp ppf ds

  let to_json_buf b r =
    Buffer.add_char b '[';
    List.iteri
      (fun i d ->
        if i > 0 then Buffer.add_char b ',';
        to_json_buf b d)
      (to_list r);
    Buffer.add_char b ']'

  let to_json r =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\"schema\":\"msched-diag-1\",\"diagnostics\":";
    to_json_buf b r;
    Buffer.add_char b '}';
    Buffer.contents b
end
