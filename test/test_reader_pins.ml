(* ---- Reader pins ----

   [Serial.of_string_diag] over a fixed corpus, one literal per case,
   recorded from the reader that split every line into token lists
   (before it tokenized by index).  The corpus is the curated broken
   designs under examples/broken/ plus 240 seeded mutations of generator
   texts: dropped and duplicated tokens and lines, non-integer and
   negative ids, tabs, CRLF line ends, comments, blank lines, unknown
   directives and swapped lines, plus a few hand-written edge texts.  No
   case holds a [design] line past the first line.  Two fixes re-recorded
   nine lines since: a text with more than 100 bad lines now ends on the
   "rest suppressed" notice (edge/hundred-errors, edge/cascade), and
   [Serial.of_string] names the line of a builder failure (the seven
   lines whose error is "d id must be non-negative" or
   "add_clock_source_to: ...").

   A case renders as one line:
   - [ok <hash>]: the FNV-1a hash of the accepted netlist's canonical
     text;
   - [err <n> <hash> <code> <message> | <of_string error>]: the number of
     diagnostics, the hash of their JSON renderings in order, and the
     first one's code and message (escaped), then [Serial.of_string]'s
     one-line error;
   - [raise <exception>]: the reader raised, which it must never do. *)

open Msched_netlist
module Design_gen = Msched_gen.Design_gen
module Diag = Msched_diag.Diag

let render text =
  let fast =
    match Serial.of_string text with
    | Ok nl -> Ok (Serial.to_string nl)
    | Error m -> Error m
    | exception e -> Error ("raise " ^ Printexc.to_string e)
  in
  match Serial.of_string_diag text, fast with
  | Ok nl, Ok canon ->
      let s = Serial.to_string nl in
      if s <> canon then "ok-mismatch" else "ok " ^ Diag.Json.hash_hex s
  | Ok _, Error m -> "ok-but-of_string " ^ String.escaped m
  | Error ds, fast ->
      let b = Buffer.create 256 in
      List.iter
        (fun d ->
          Diag.to_json_buf b d;
          Buffer.add_char b '\n')
        ds;
      let d = List.hd ds in
      Printf.sprintf "err %d %s %s %s | %s" (List.length ds)
        (Diag.Json.hash_hex (Buffer.contents b))
        (Diag.code_name d.Diag.code)
        (String.escaped d.Diag.message)
        (match fast with Ok _ -> "ok" | Error m -> String.escaped m)
  | exception e -> "raise " ^ Printexc.to_string e

(* ---- Corpus ---- *)

let broken_names =
  [
    "comb_cycle";
    "dangling";
    "fanin_storm";
    "multi_driver";
    "parse_error";
    "undriven";
    "unknown_domain";
  ]

(* [dune runtest] runs from _build/default/test with the files copied
   next to it (see the [deps] in test/dune); [dune exec] runs from the
   repository root. *)
let broken_dir () =
  List.find Sys.file_exists [ "../examples/broken"; "examples/broken" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let broken_cases () =
  let dir = broken_dir () in
  List.map
    (fun name -> ("broken/" ^ name, read_file (Filename.concat dir (name ^ ".mnl"))))
    broken_names

let base_texts () =
  List.map
    (fun (d : Design_gen.design) -> Serial.to_string d.Design_gen.netlist)
    [
      Design_gen.fig1 ();
      Design_gen.fig3_latch ();
      Design_gen.handshake ();
      Design_gen.random_multidomain ~seed:3 ~domains:2 ~modules:3
        ~mts_fraction:0.4 ~mts_ffs:1 ~xwrite_rams:1 ();
      Design_gen.gated_memory_fabric ~seed:5 ~addr_bits:1 ~domains:2 ~banks:2
        ();
      Design_gen.gals_islands ~seed:2 ~island_size:1 ~islands:2 ();
      Design_gen.dense_crossing ~seed:4 ~module_gates:2 ~domains:3
        ~density:0.5 ();
    ]

let non_ints =
  [| "x"; "1.5"; "0x1f"; "1_0"; "0b11"; "+3"; "007"; "-0"; "3a"; "99999999999999999999" |]

let odd_lines =
  [|
    "# a comment";
    "#glued comment";
    "   # indented comment";
    "";
    "   ";
    "\t";
    "frobnicate 1 2";
    "NET 0 x";
    "wire a b";
    "gate frob g 0 1";
    "latch l 0 0 dom 0 sideways";
    "input i 0 domain";
    "ram r 0 1 0 0";
    "clocksource x 0";
  |]

let is_int s = int_of_string_opt s <> None

(* One mutation of [lines] (line 0, the [design] line, is never touched
   except by a whole-text CRLF rewrite). *)
let mutate st lines =
  let n = Array.length lines in
  let pick () = 1 + Random.State.int st (max 1 (n - 1)) in
  let toks i = String.split_on_char ' ' lines.(i) in
  let set_toks i ts = lines.(i) <- String.concat " " ts in
  let with_line i = n > 1 && i < n in
  let edit_token f =
    let i = pick () in
    if with_line i then begin
      let ts = Array.of_list (toks i) in
      let k = Random.State.int st (Array.length ts) in
      set_toks i (f ts k)
    end;
    lines
  in
  let int_token f =
    edit_token (fun ts k ->
        let ints =
          List.filter (fun j -> is_int ts.(j)) (List.init (Array.length ts) Fun.id)
        in
        let k =
          match ints with
          | [] -> k
          | l -> List.nth l (Random.State.int st (List.length l))
        in
        Array.to_list (Array.mapi (fun j t -> if j = k then f t else t) ts))
  in
  let insert i l =
    Array.concat [ Array.sub lines 0 i; [| l |]; Array.sub lines i (n - i) ]
  in
  match Random.State.int st 11 with
  | 0 ->
      edit_token (fun ts k ->
          List.filteri (fun j _ -> j <> k) (Array.to_list ts))
  | 1 ->
      edit_token (fun ts k ->
          List.concat_map
            (fun (j, t) -> if j = k then [ t; t ] else [ t ])
            (List.mapi (fun j t -> (j, t)) (Array.to_list ts)))
  | 2 ->
      int_token (fun t ->
          match non_ints.(Random.State.int st (Array.length non_ints)) with
          | "x" -> "x" ^ t
          | s -> s)
  | 3 -> int_token (fun t -> if Random.State.bool st then "-" ^ t else "-1")
  | 4 ->
      let i = pick () in
      if with_line i then
        lines.(i) <-
          (match Random.State.int st 4 with
          | 0 -> "\t" ^ lines.(i)
          | 1 -> lines.(i) ^ "\t"
          | 2 -> " \t " ^ lines.(i) ^ "  "
          | _ -> (
              match String.index_opt lines.(i) ' ' with
              | Some p ->
                  String.sub lines.(i) 0 p ^ "\t"
                  ^ String.sub lines.(i) (p + 1) (String.length lines.(i) - p - 1)
              | None -> lines.(i) ^ "\t"));
      lines
  | 5 ->
      let i = pick () in
      if with_line i then lines.(i) <- lines.(i) ^ "\r";
      lines
  | 6 -> insert (pick ()) odd_lines.(Random.State.int st (Array.length odd_lines))
  | 7 ->
      let i = pick () in
      if with_line i then begin
        let ts = toks i in
        lines.(i) <-
          (if Random.State.bool st then lines.(i) ^ " # trailing"
           else String.concat "  " ts)
      end;
      lines
  | 8 ->
      let i = pick () in
      if with_line i then
        Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list lines))
      else lines
  | 9 ->
      let i = pick () in
      if with_line i then insert i lines.(i) else lines
  | _ ->
      let i = pick () and j = pick () in
      if with_line i && with_line j then begin
        let t = lines.(i) in
        lines.(i) <- lines.(j);
        lines.(j) <- t
      end;
      lines

let mutated_cases () =
  let bases = Array.of_list (base_texts ()) in
  List.init 240 (fun seed ->
      let st = Random.State.make [| 0x5e71a1; seed |] in
      let base = bases.(seed mod Array.length bases) in
      let lines =
        ref (Array.of_list (String.split_on_char '\n' base))
      in
      for _ = 0 to Random.State.int st 3 do
        lines := mutate st !lines
      done;
      let sep = if Random.State.int st 5 = 0 then "\r\n" else "\n" in
      (Printf.sprintf "mut/%03d" seed, String.concat sep (Array.to_list !lines)))

let edge_cases =
  [
    ("edge/empty", "");
    ("edge/newlines", "\n\n\n");
    ("edge/crlf-only", "\r\n\r\n");
    ("edge/form-feed", "\012design t\012\ndomain c\nnet 0 a\ninput a 0 domain 0\noutput o 0");
    ("edge/hash-alone", "#\ndesign t\n#design u\n");
    ("edge/no-final-newline", "design t\ndomain c\nnet 0 a\ninput a 0 domain 0\noutput o 0");
    ("edge/mid-tab", "design t\ndomain c\nnet\t0 a\n");
    ("edge/cr-mid", "design t\ndomain c\nnet 0\ra\ninput a 0 domain 0\noutput o 0\n");
    ("edge/sparse-ids", "design t\ndomain c\nnet 70 a\nnet -5 b\ninput a 70 domain 0\ngate not g -5 70\noutput o -5\n");
    ("edge/net-redefined", "design t\ndomain c\nnet 0 a\nnet 0 b\ninput a 0 domain 0\noutput o 0\n");
    ("edge/negative-domain", "design t\ndomain c\nnet 0 a\ninput a 0 domain -1\nff f 0 0 dom -2\n");
    ("edge/bad-domain", "design t\ndomain c\nnet 0 a\nnet 1 q\ninput a 0 domain 4\nff f 1 0 dom 7\noutput o 1\n");
    ("edge/clocksource-twice", "design t\ndomain c\nnet 0 a\nnet 1 b\nclocksource 0 0\nclocksource 0 1\n");
    ("edge/ram-pins", "design t\ndomain c\nnet 0 a\ninput a 0 domain 0\nram r 0 1 0 0 0 0 dom 0\nram s 0 x 0\nram t 0 1 0 0 0 0 net\n");
    ("edge/arity", "design t\ndomain c\nnet 0 a\nnet 1 b\ninput a 0 domain 0\ngate not g 1 0 0\ngate and h 1\n");
    ("edge/undriven", "design t\ndomain c\nnet 0 a\nnet 1 b\nnet 2 c\noutput o 2\n");
    ("edge/hundred-errors", String.concat "\n" (List.init 150 (fun i -> Printf.sprintf "bogus %d" i)));
    ( "edge/cascade",
      String.concat "\n"
        ("design t" :: "domain c" :: List.init 120 (fun i -> Printf.sprintf "gate buf g%d %d %d" i (i + 1) i)) );
  ]

let cases () = broken_cases () @ edge_cases @ mutated_cases ()

let rendering () =
  List.map (fun (name, text) -> name ^ " " ^ render text) (cases ())

let pins =
  {|broken/comb_cycle ok e2c8afa83ca238db
broken/dangling ok d24fee7a39bb2cee
broken/fanin_storm ok 169b102f10b29457
broken/multi_driver err 1 21dc3efa1c50f7f0 E_MALFORMED_NET net n1 driven by both c1 and c2 | validation: net n1 driven by both c1 and c2
broken/parse_error err 1 87ea805e772a7ce7 E_PARSE line 5: unknown directive frobnicate | line 5: unknown directive frobnicate
broken/undriven err 1 31dc258fa34f36c1 E_UNDRIVEN net n1 has no driver | validation: net n1 has no driver
broken/unknown_domain err 1 1f90ee929af40b08 E_UNKNOWN_DOMAIN unknown domain d3 | validation: unknown domain d3
edge/empty ok ddb9eab50a9a42b7
edge/newlines ok ddb9eab50a9a42b7
edge/crlf-only ok ddb9eab50a9a42b7
edge/form-feed ok 4390ccedf8d8097f
edge/hash-alone ok cf8fd09e677494f3
edge/no-final-newline ok 4390ccedf8d8097f
edge/mid-tab err 1 ad83d011e86cb6d3 E_PARSE line 3: unknown directive net\t0 | line 3: unknown directive net\t0
edge/cr-mid err 3 86840f66851c6aee E_PARSE line 3: unknown directive net | line 3: unknown directive net
edge/sparse-ids ok 45c325e75a876c22
edge/net-redefined err 1 4f48578e762e0833 E_UNDRIVEN net n0 has no driver | validation: net n0 has no driver
edge/negative-domain err 2 67568847ce7dcf52 E_MALFORMED_NET line 4: d id must be non-negative | line 4: d id must be non-negative
edge/bad-domain err 2 71a15a0d051134c1 E_UNKNOWN_DOMAIN unknown domain d4 | validation: unknown domain d4
edge/clocksource-twice err 1 4fc53c8e36737616 E_MALFORMED_NET line 6: add_clock_source_to: domain already has a clock source | line 6: add_clock_source_to: domain already has a clock source
edge/ram-pins err 3 113fecb21fea5e63 E_MALFORMED_NET net n0 driven by both c0 and c1 | validation: net n0 driven by both c0 and c1
edge/arity err 1 21dc3efa1c50f7f0 E_MALFORMED_NET net n1 driven by both c1 and c2 | validation: net n1 driven by both c1 and c2
edge/undriven err 3 63705b330e1eaa15 E_UNDRIVEN net n0 has no driver | validation: net n0 has no driver
edge/hundred-errors err 101 8e832977dadcc941 E_PARSE line 1: unknown directive bogus | line 1: unknown directive bogus
edge/cascade err 101 f455a76a637f2cd6 E_PARSE line 3: unknown net 1 | line 3: unknown net 1
mut/000 ok 3ef5d7c7d0d3026c
mut/001 err 1 99934d71847bce01 E_PARSE line 2: unknown net 0 | line 2: unknown net 0
mut/002 err 2 1d5a68fe03dd8fa9 E_MALFORMED_NET line 31: d id must be non-negative | line 31: d id must be non-negative
mut/003 err 1 54db5199bfcf195c E_PARSE line 99: unknown net -44 | line 99: unknown net -44
mut/004 err 4 f22705e7227e0f02 E_PARSE line 6: expected integer, got \"99999999999999999999\" | line 6: expected integer, got \"99999999999999999999\"
mut/005 err 3 1aae83e90ead6637 E_MALFORMED_NET net n24 driven by both c25 and c26 | validation: net n24 driven by both c25 and c26
mut/006 err 1 28d3d65fbcb8fdf9 E_UNDRIVEN net n17 has no driver | validation: net n17 has no driver
mut/007 err 1 2425873cbd342681 E_PARSE line 24: unknown directive ff | line 24: unknown directive ff
mut/008 err 1 606a03cffd35b4d3 E_PARSE line 24: expected integer, got \"GATE\" | line 24: expected integer, got \"GATE\"
mut/009 err 3 ba3d12b6c6579273 E_PARSE line 32: unknown net 2 | line 32: unknown net 2
mut/010 err 3 4b77bba366f9551f E_PARSE line 5: unknown directive net | line 5: unknown directive net
mut/011 ok 300a9be360e0f29e
mut/012 err 1 7f346f68ee5ce87c E_MALFORMED_NET net n28 driven by both c27 and c28 | validation: net n28 driven by both c27 and c28
mut/013 err 1 4e132d92a7a959f0 E_PARSE line 84: unknown gate kind gate | line 84: unknown gate kind gate
mut/014 err 1 2abeacf5000dd774 E_PARSE line 18: unknown directive ff | line 18: unknown directive ff
mut/015 err 1 a77f14e4084296bb E_PARSE line 18: unknown directive FA | line 18: unknown directive FA
mut/016 err 3 7c97ddb7a3ae4795 E_PARSE line 48: unknown net 19 | line 48: unknown net 19
mut/017 ok 3460f82b9803d8bd
mut/018 err 6 0dad553a84a7f50e E_PARSE line 25: unknown directive net | line 25: unknown directive net
mut/019 err 3 da98d187b36e212d E_PARSE line 43: unknown net 48 | line 43: unknown net 48
mut/020 err 6 6bffa6b295ce1410 E_PARSE line 15: unknown directive 10 | line 15: unknown directive 10
mut/021 err 1 95fb2fe4e3fc66c4 E_PARSE line 3: unknown directive 3a | line 3: unknown directive 3a
mut/022 err 2 5d47216105cf8c87 E_PARSE line 23: unknown net 7 | line 23: unknown net 7
mut/023 ok bfb7266e0ebe6ae8
mut/024 err 1 f5f6801f09dd0bb1 E_PARSE line 75: unknown directive gate\tor | line 75: unknown directive gate\tor
mut/025 err 1 534fb82a61d58f4b E_UNDRIVEN net n4 has no driver | validation: net n4 has no driver
mut/026 ok c91b484b80797cbf
mut/027 err 2 56e959511b56030a E_PARSE line 53: unknown net -5 | line 53: unknown net -5
mut/028 err 2 d5ffb284981838a7 E_PARSE line 25: unknown net 10 | line 25: unknown net 10
mut/029 err 2 7220aa9dda2b7f67 E_PARSE line 2: unknown directive domain | line 2: unknown directive domain
mut/030 err 3 87e732d6add33166 E_MALFORMED_NET net n4 driven by both c2 and c3 | validation: net n4 driven by both c2 and c3
mut/031 err 7 fd87218dbee532e9 E_PARSE line 9: unknown directive net\t5 | line 9: unknown directive net\t5
mut/032 ok 300a9be360e0f29e
mut/033 err 1 947f2a1648af35b9 E_MALFORMED_NET net n0 driven by both c0 and c60 | validation: net n0 driven by both c0 and c60
mut/034 err 1 4fe8ad50059aaea3 E_PARSE line 59: bad input line | line 59: bad input line
mut/035 err 1 f5ada81abdf22b91 E_UNDRIVEN net n10 has no driver | validation: net n10 has no driver
mut/036 err 1 36655a588626201d E_PARSE line 28: unknown directive O1 | line 28: unknown directive O1
mut/037 err 4 45284a96f6f3ea4e E_PARSE line 23: unknown directive 19 | line 23: unknown directive 19
mut/038 err 1 30e99d42b1ba5329 E_PARSE line 78: expected integer, got \"1.5\" | line 78: expected integer, got \"1.5\"
mut/039 ok 061648a6582612db
mut/040 err 1 2858c55892d51df9 E_PARSE line 26: bad input line | line 26: bad input line
mut/041 ok d7d31e41611cdf87
mut/042 err 1 ebf1a010b735abe5 E_PARSE line 23: unknown gate kind N7 | line 23: unknown gate kind N7
mut/043 err 3 962d543649334222 E_PARSE line 18: unknown net 2 | line 18: unknown net 2
mut/044 ok bfb7266e0ebe6ae8
mut/045 err 3 04d144c8f79d4fb0 E_PARSE line 51: unknown directive net | line 51: unknown directive net
mut/046 err 5 06add1b3a1e41e6d E_PARSE line 25: unknown directive net | line 25: unknown directive net
mut/047 err 1 427ab4b4c0358e87 E_PARSE line 81: unknown net 14 | line 81: unknown net 14
mut/048 ok d7d31e41611cdf87
mut/049 err 1 534fb82a61d58f4b E_UNDRIVEN net n4 has no driver | validation: net n4 has no driver
mut/050 ok 926d35313f272c30
mut/051 err 3 49e47a6c34a343b3 E_PARSE line 39: unknown directive ff\tdata_ff2 | line 39: unknown directive ff\tdata_ff2
mut/052 err 2 5731302a920382bd E_PARSE line 99: unknown net 47 | line 99: unknown net 47
mut/053 err 1 0bb579ad9d8c317c E_MALFORMED_NET net n21 driven by both c21 and c22 | validation: net n21 driven by both c21 and c22
mut/054 err 2 b21fbc4f61f55c78 E_MALFORMED_NET net n54 driven by both c52 and c53 | validation: net n54 driven by both c52 and c53
mut/055 err 3 a134c5f5898db5b5 E_MALFORMED_NET net n4 driven by both c4 and c28 | validation: net n4 driven by both c4 and c28
mut/056 err 1 30d8a82dc2276b9e E_PARSE line 11: expected integer, got \"x\" | line 11: expected integer, got \"x\"
mut/057 ok 5fc29501b482dff7
mut/058 err 3 d7e966ce5a554d3a E_PARSE line 36: unknown net -1 | line 36: unknown net -1
mut/059 err 3 619170443bf6aded E_PARSE line 79: unknown net 27 | line 79: unknown net 27
mut/060 ok 300a9be360e0f29e
mut/061 err 1 1e4f037ffb5f1881 E_UNDRIVEN net n5 has no driver | validation: net n5 has no driver
mut/062 err 2 9e6d28b1e782f360 E_PARSE line 4: unknown directive domain | line 4: unknown directive domain
mut/063 err 1 f1329b6a62b77de6 E_PARSE line 27: unknown directive 1_0 | line 27: unknown directive 1_0
mut/064 err 1 d19d202f0256b19f E_PARSE line 16: expected integer, got \"x\" | line 16: expected integer, got \"x\"
mut/065 err 4 1b342ebe216390ff E_PARSE line 5: unknown net 13 | line 5: unknown net 13
mut/066 err 1 675f01191e659a53 E_PARSE line 95: unknown directive c43 | line 95: unknown directive c43
mut/067 err 3 984e4424809a92f5 E_PARSE line 35: unknown directive net | line 35: unknown directive net
mut/068 err 4 7ebcb781f113e3e4 E_PARSE line 4: unknown directive 0 | line 4: unknown directive 0
mut/069 err 4 9eac1010205e6221 E_PARSE line 24: unknown directive net | line 24: unknown directive net
mut/070 err 1 1e4f037ffb5f1881 E_UNDRIVEN net n5 has no driver | validation: net n5 has no driver
mut/071 err 1 dccde083d9bcb153 E_PARSE line 26: unknown directive ff | line 26: unknown directive ff
mut/072 err 1 c1ad7b4e9a2e622a E_PARSE line 15: unknown directive wire | line 15: unknown directive wire
mut/073 ok 3460f82b9803d8bd
mut/074 err 3 ec2e5175b0811929 E_PARSE line 65: unknown net 26 | line 65: unknown net 26
mut/075 err 1 233b56fdd6a0756f E_PARSE line 127: unknown directive ff | line 127: unknown directive ff
mut/076 err 3 18cbfcd3aba9152e E_PARSE line 15: unknown directive NET | line 15: unknown directive NET
mut/077 err 1 61ab038f52bf9fad E_PARSE line 2: unknown directive domain | line 2: unknown directive domain
mut/078 err 6 af9439862f07cfd2 E_PARSE line 12: unknown directive net | line 12: unknown directive net
mut/079 err 1 b669b224a3b5e6b2 E_PARSE line 13: unknown directive frobnicate | line 13: unknown directive frobnicate
mut/080 err 2 ebf3ad82922aa830 E_PARSE line 9: unknown directive NET | line 9: unknown directive NET
mut/081 err 4 a6d98dc400c62c0e E_MALFORMED_NET net n2 driven by both c2 and c3 | validation: net n2 driven by both c2 and c3
mut/082 err 1 e9ed9e32a9fbfd04 E_PARSE line 80: unknown net 12 | line 80: unknown net 12
mut/083 ok 59c0c07364a8e797
mut/084 err 1 8bc0cabceaa0c20e E_MALFORMED_NET net n3 driven by both c3 and c6 | validation: net n3 driven by both c3 and c6
mut/085 err 4 e5e666f18aced6c3 E_PARSE line 19: unknown net 3 | line 19: unknown net 3
mut/086 err 2 df31894a08dfe31f E_PARSE line 56: unknown gate kind frob | line 56: unknown gate kind frob
mut/087 err 4 267d1fd59a11d569 E_PARSE line 15: unknown directive 11 | line 15: unknown directive 11
mut/088 ok 300a9be360e0f29e
mut/089 err 1 33113f8e0525d1fe E_PARSE line 134: unknown directive 0x1f | line 134: unknown directive 0x1f
mut/090 err 1 74fa33d3e17f5c7e E_MALFORMED_NET net n12 driven by both c12 and c13 | validation: net n12 driven by both c12 and c13
mut/091 err 3 ecd3f6dc4a894c19 E_PARSE line 12: unknown directive net | line 12: unknown directive net
mut/092 err 2 5d47216105cf8c87 E_PARSE line 23: unknown net 7 | line 23: unknown net 7
mut/093 err 1 a928ed543a7bd422 E_PARSE line 59: expected integer, got \"3a\" | line 59: expected integer, got \"3a\"
mut/094 err 1 bfb730580f001c61 E_PARSE line 86: unknown directive gate\tnor | line 86: unknown directive gate\tnor
mut/095 err 3 092df5bc65bac0ff E_PARSE line 14: unknown directive net | line 14: unknown directive net
mut/096 err 1 ab8e8ece8f17816f E_MALFORMED_NET line 90: d id must be non-negative | line 90: d id must be non-negative
mut/097 err 3 b949a2811ae72a89 E_PARSE line 71: unknown net 23 | line 71: unknown net 23
mut/098 err 1 7acdc2764fe72930 E_PARSE line 21: unknown directive gate\tand | line 21: unknown directive gate\tand
mut/099 ok 8422783c82ca38e6
mut/100 err 1 f4219d5bf7863328 E_PARSE line 2: unknown directive clk_send | line 2: unknown directive clk_send
mut/101 err 3 7ec4820c887e0abd E_PARSE line 37: unknown net 47 | line 37: unknown net 47
mut/102 err 4 f8225c7e397ca4c1 E_PARSE line 28: unknown directive net | line 28: unknown directive net
mut/103 err 6 c83c3c88fb35e441 E_PARSE line 19: unknown directive net | line 19: unknown directive net
mut/104 err 2 daa2848a283c3f65 E_PARSE line 22: unknown net 25 | line 22: unknown net 25
mut/105 err 1 2425873cbd342681 E_PARSE line 24: unknown directive ff | line 24: unknown directive ff
mut/106 err 2 d9e90ec8f1c7ec09 E_PARSE line 22: unknown net 7 | line 22: unknown net 7
mut/107 ok bfb7266e0ebe6ae8
mut/108 err 10 bf32163eac57adbf E_PARSE line 6: unknown directive net | line 6: unknown directive net
mut/109 err 1 d9dd94fd05d417d9 E_UNDRIVEN net n30 has no driver | validation: net n30 has no driver
mut/110 err 1 a75af990b5ef525c E_PARSE line 119: unknown directive hs1_0_data0 | line 119: unknown directive hs1_0_data0
mut/111 ok d7d31e41611cdf87
mut/112 err 2 8faa7a9906e6dd02 E_PARSE line 19: unknown net 4 | line 19: unknown net 4
mut/113 err 1 df64264a3f773e75 E_PARSE line 19: unknown directive ff\tFB | line 19: unknown directive ff\tFB
mut/114 err 1 28d3d65fbcb8fdf9 E_UNDRIVEN net n17 has no driver | validation: net n17 has no driver
mut/115 err 4 167f91dc37632988 E_PARSE line 50: expected integer, got \"3a\" | line 50: expected integer, got \"3a\"
mut/116 err 3 90f09989190aafc6 E_PARSE line 32: unknown directive net | line 32: unknown directive net
mut/117 err 9 08e2a5e86ca1f222 E_PARSE line 12: unknown directive net | line 12: unknown directive net
mut/118 err 1 fd1f27d1225b006c E_PARSE line 37: unknown directive frobnicate | line 37: unknown directive frobnicate
mut/119 err 1 00b140aed73f63b5 E_PARSE line 27: unknown directive output | line 27: unknown directive output
mut/120 err 2 670c0c2cf6f47095 E_PARSE line 18: unknown directive ff | line 18: unknown directive ff
mut/121 err 5 69f3bf4facfaffe7 E_PARSE line 19: unknown net 26 | line 19: unknown net 26
mut/122 err 3 d6befb72672a76a0 E_MALFORMED_NET net n33 driven by both c33 and c34 | validation: net n33 driven by both c33 and c34
mut/123 err 1 b7394f1ea15dfa5d E_UNDRIVEN net n23 has no driver | validation: net n23 has no driver
mut/124 err 2 4e8f4d9107a93e54 E_PARSE line 111: unknown net 46 | line 111: unknown net 46
mut/125 err 1 771b7ed4b0a5174c E_PARSE line 84: unknown directive wire | line 84: unknown directive wire
mut/126 ok 1be7a4a682bff2e6
mut/127 err 1 852f2962f0b33637 E_PARSE line 30: unknown gate kind frob | line 30: unknown gate kind frob
mut/128 err 1 7df0c25085ca7361 E_UNDRIVEN net n14 has no driver | validation: net n14 has no driver
mut/129 err 1 2b789a738a3d156f E_PARSE line 89: expected integer, got \"c36\" | line 89: expected integer, got \"c36\"
mut/130 err 4 88b5c90bc667963b E_PARSE line 26: unknown directive net | line 26: unknown directive net
mut/131 ok c91b484b80797cbf
mut/132 err 2 d86f1247e9514769 E_PARSE line 81: unknown net 33 | line 81: unknown net 33
mut/133 err 5 06efdd9b447be07c E_PARSE line 12: unknown directive net | line 12: unknown directive net
mut/134 err 1 ccf3cefc92965260 E_MALFORMED_NET net n10 driven by both c10 and c11 | validation: net n10 driven by both c10 and c11
mut/135 err 6 3318b3adea0b5be1 E_PARSE line 16: unknown net 24 | line 16: unknown net 24
mut/136 ok 2edf5854e5a2acff
mut/137 err 3 2173f6c852fd1daa E_PARSE line 45: unknown net 7 | line 45: unknown net 7
mut/138 err 3 fc9e5a4cb9b7f52f E_PARSE line 57: unknown directive net | line 57: unknown directive net
mut/139 ok d7d31e41611cdf87
mut/140 err 2 c035c60479ad41e2 E_PARSE line 9: unknown net 5 | line 9: unknown net 5
mut/141 err 3 dbf275f56330347c E_PARSE line 18: unknown net 3 | line 18: unknown net 3
mut/142 err 1 ae25ff2c29651570 E_PARSE line 36: unknown directive ff | line 36: unknown directive ff
mut/143 err 2 4590a2450dc03c6c E_PARSE line 83: unknown net 29 | line 83: unknown net 29
mut/144 err 9 25aac9669153036d E_PARSE line 13: unknown directive net | line 13: unknown directive net
mut/145 err 5 feb8e3df726f36fc E_PARSE line 28: unknown net 62 | line 28: unknown net 62
mut/146 err 1 ab8e8ece8f17816f E_MALFORMED_NET line 90: d id must be non-negative | line 90: d id must be non-negative
mut/147 err 1 0a98574cc818981d E_UNDRIVEN net n7 has no driver | validation: net n7 has no driver
mut/148 err 1 9a9cccc9bf6ca5b6 E_PARSE line 23: unknown directive gate\tand | line 23: unknown directive gate\tand
mut/149 err 1 9c3293f7616fa01f E_PARSE line 48: unknown directive ff | line 48: unknown directive ff
mut/150 err 1 3b72b760dbc5d053 E_PARSE line 27: expected integer, got \"x\" | line 27: expected integer, got \"x\"
mut/151 err 2 4485d915964dc6cd E_MALFORMED_NET line 43: d id must be non-negative | line 43: d id must be non-negative
mut/152 err 1 c976d994fe70677f E_PARSE line 83: unknown net 16 | line 83: unknown net 16
mut/153 err 4 243605d91a8a9d5e E_PARSE line 44: unknown directive net | line 44: unknown directive net
mut/154 err 2 d9e90ec8f1c7ec09 E_PARSE line 22: unknown net 7 | line 22: unknown net 7
mut/155 err 3 05941f206cc99d8e E_PARSE line 10: unknown directive net | line 10: unknown directive net
mut/156 err 5 d764e5b656b59069 E_PARSE line 23: expected integer, got \"3a\" | line 23: expected integer, got \"3a\"
mut/157 err 1 023ae37c6d5b53cd E_UNDRIVEN net n35 has no driver | validation: net n35 has no driver
mut/158 ok 300a9be360e0f29e
mut/159 err 3 459b6874733e9b4e E_PARSE line 91: unknown net 26 | line 91: unknown net 26
mut/160 err 7 50ad2cc2dd816d3f E_PARSE line 19: unknown directive net | line 19: unknown directive net
mut/161 err 2 5e9bffa1cfd5761d E_PARSE line 13: unknown gate kind frob | line 13: unknown gate kind frob
mut/162 err 3 e71fea6f11011afe E_PARSE line 24: unknown net 9 | line 24: unknown net 9
mut/163 ok 757b3aeb5923263f
mut/164 err 1 b905cc33e1b41d17 E_PARSE line 92: expected integer, got \"x40\" | line 92: expected integer, got \"x40\"
mut/165 err 3 94bb10799daf30f2 E_PARSE line 25: unknown net 24 | line 25: unknown net 24
mut/166 err 4 34d0aae534f566a8 E_PARSE line 44: unknown directive net\t40 | line 44: unknown directive net\t40
mut/167 ok d7d31e41611cdf87
mut/168 ok 43f79da2b0157a3c
mut/169 ok 8422783c82ca38e6
mut/170 err 1 9b2abbf8416cf21a E_PARSE line 57: expected integer, got \"1.5\" | line 57: expected integer, got \"1.5\"
mut/171 err 1 d8e357e7ff6b62ce E_PARSE line 56: unknown net -1 | line 56: unknown net -1
mut/172 err 1 534fb82a61d58f4b E_UNDRIVEN net n4 has no driver | validation: net n4 has no driver
mut/173 err 3 49f6004bb6947faf E_PARSE line 25: unknown directive net | line 25: unknown directive net
mut/174 err 1 0fb2b21287b8f734 E_PARSE line 54: unknown directive ff | line 54: unknown directive ff
mut/175 err 2 b31085df9fc8ad67 E_PARSE line 26: unknown net 10 | line 26: unknown net 10
mut/176 ok dc3f73a670fd1f66
mut/177 err 4 85816266e64ca339 E_PARSE line 6: unknown net 23 | line 6: unknown net 23
mut/178 err 5 2939e9be71cd9b99 E_PARSE line 48: unknown directive net | line 48: unknown directive net
mut/179 err 1 08ccbc33f3cb6fd1 E_UNDRIVEN net n25 has no driver | validation: net n25 has no driver
mut/180 err 3 11b3a087e53847e1 E_PARSE line 42: unknown directive 38 | line 42: unknown directive 38
mut/181 err 1 62ab67e098779781 E_UNDRIVEN net n19 has no driver | validation: net n19 has no driver
mut/182 err 3 80f111ebe3a2c8b5 E_MALFORMED_NET line 16: d id must be non-negative | line 16: d id must be non-negative
mut/183 err 1 303a869ebcd4cb4e E_PARSE line 28: unknown directive output | line 28: unknown directive output
mut/184 err 2 d8fa833d9aa003ae E_PARSE line 43: unknown net -1 | line 43: unknown net -1
mut/185 err 3 1fa0bba9ed2aaa98 E_PARSE line 50: unknown directive net | line 50: unknown directive net
mut/186 err 4 8c2e18ac29c93bd0 E_PARSE line 24: expected integer, got \"99999999999999999999\" | line 24: expected integer, got \"99999999999999999999\"
mut/187 err 4 37896fd357a8ace3 E_PARSE line 4: unknown directive net | line 4: unknown directive net
mut/188 err 3 e2082401c9197794 E_PARSE line 12: unknown directive net | line 12: unknown directive net
mut/189 err 1 cb14478897b370ca E_MALFORMED_NET net n3 driven by both c3 and c4 | validation: net n3 driven by both c3 and c4
mut/190 err 1 e8b8e172db69bc35 E_UNDRIVEN net n3 has no driver | validation: net n3 has no driver
mut/191 err 2 e40588d02ba55f1e E_PARSE line 53: unknown net 24 | line 53: unknown net 24
mut/192 ok 3460f82b9803d8bd
mut/193 err 6 6c972a11c3d93d33 E_PARSE line 41: unknown net 3 | line 41: unknown net 3
mut/194 err 4 23d0f2b62877fd77 E_PARSE line 54: expected integer, got \"3a\" | line 54: expected integer, got \"3a\"
mut/195 ok d7d31e41611cdf87
mut/196 err 3 f75f1d67a93a1011 E_PARSE line 7: unknown directive net | line 7: unknown directive net
mut/197 err 2 42671231a4d5a349 E_PARSE line 17: unknown net 1 | line 17: unknown net 1
mut/198 err 3 cb1395217d48685b E_PARSE line 4: unknown net 25 | line 4: unknown net 25
mut/199 err 1 9c87e9b5f47964c0 E_PARSE line 94: unknown directive ff | line 94: unknown directive ff
mut/200 ok 300a9be360e0f29e
mut/201 err 1 ced1ab74580b591f E_PARSE line 46: bad input line | line 46: bad input line
mut/202 err 5 343c268bd774bc14 E_PARSE line 19: unknown net 33 | line 19: unknown net 33
mut/203 ok 37b68fcba60b5c78
mut/204 err 4 64c7ed7df040b796 E_PARSE line 2: unknown net 1 | line 2: unknown net 1
mut/205 err 3 7e20004029c0b627 E_PARSE line 14: unknown directive net | line 14: unknown directive net
mut/206 err 1 c7205a3aa2a89831 E_PARSE line 72: unknown directive c20 | line 72: unknown directive c20
mut/207 err 1 9fe3cde2c6bcdf13 E_PARSE line 39: unknown net -1 | line 39: unknown net -1
mut/208 err 3 dae66a2fca77871b E_PARSE line 63: unknown directive 59 | line 63: unknown directive 59
mut/209 ok d7d31e41611cdf87
mut/210 err 1 1e4f037ffb5f1881 E_UNDRIVEN net n5 has no driver | validation: net n5 has no driver
mut/211 err 1 84f11230c40847b9 E_PARSE line 19: unknown directive ff | line 19: unknown directive ff
mut/212 err 2 78c4a6204bb5df28 E_PARSE line 36: unknown net 6 | line 36: unknown net 6
mut/213 err 4 64552a56005a8b85 E_PARSE line 42: unknown directive net | line 42: unknown directive net
mut/214 err 1 b6c82bc7cc71a8bf E_PARSE line 71: unknown directive ff | line 71: unknown directive ff
mut/215 err 1 db57e4e7404d959d E_UNDRIVEN net n62 has no driver | validation: net n62 has no driver
mut/216 err 4 95092e3c8928fa26 E_PARSE line 33: unknown directive net | line 33: unknown directive net
mut/217 err 1 7feb397d87d388a4 E_PARSE line 22: unknown directive wire | line 22: unknown directive wire
mut/218 err 1 3e712c224039706e E_PARSE line 27: unknown net -9 | line 27: unknown net -9
mut/219 err 1 230e784df0a8aded E_UNDRIVEN net n26 has no driver | validation: net n26 has no driver
mut/220 err 1 35a235105200d399 E_PARSE line 67: unknown directive or | line 67: unknown directive or
mut/221 err 2 813077e0a9bf49cc E_PARSE line 72: unknown net 33 | line 72: unknown net 33
mut/222 err 3 3e6730ba64d8785b E_PARSE line 2: unknown directive domain\tisland0 | line 2: unknown directive domain\tisland0
mut/223 err 2 1c951dc28cd85e90 E_PARSE line 49: unknown directive 1 | line 49: unknown directive 1
mut/224 err 3 78a7630ec3e5f6df E_PARSE line 21: unknown net 7 | line 21: unknown net 7
mut/225 ok 8422783c82ca38e6
mut/226 err 1 77bc1777f379e15d E_PARSE line 46: expected integer, got \"#\" | line 46: expected integer, got \"#\"
mut/227 err 2 3f1ed6bfb75f5d4a E_PARSE line 39: unknown net 44 | line 39: unknown net 44
mut/228 err 1 27435de1a1eed966 E_PARSE line 59: unknown directive output | line 59: unknown directive output
mut/229 ok c91b484b80797cbf
mut/230 err 1 0b40c34600899fac E_PARSE line 48: unknown directive clocksource\t0 | line 48: unknown directive clocksource\t0
mut/231 err 3 fb8db32ec522943f E_PARSE line 18: unknown net 3 | line 18: unknown net 3
mut/232 err 6 b109069995ebc0d6 E_PARSE line 2: unknown directive domain | line 2: unknown directive domain
mut/233 err 2 a9e102436db74eba E_PARSE line 31: unknown net 2 | line 31: unknown net 2
mut/234 err 1 7b31691fca047cc3 E_PARSE line 79: unknown net 28 | line 79: unknown net 28
mut/235 err 9 25aac9669153036d E_PARSE line 13: unknown directive net | line 13: unknown directive net
mut/236 err 5 efde5d791419366e E_PARSE line 13: unknown net 55 | line 13: unknown net 55
mut/237 err 1 f7dfe310e2717b19 E_PARSE line 81: expected integer, got \"3a\" | line 81: expected integer, got \"3a\"
mut/238 err 1 0adeebc36c564a77 E_PARSE line 20: unknown net -3 | line 20: unknown net -3
mut/239 err 1 2ea0cfe13a81b2ac E_PARSE line 23: expected integer, got \"#\" | line 23: expected integer, got \"#\"|}

let test_reader_pins () =
  Alcotest.(check (list string))
    "of_string_diag over the corpus"
    (String.split_on_char '\n' pins)
    (rendering ())

(* ---- Hardening ---- *)

(* Net ids the reader takes through [int_of_string_opt] rather than its
   decimal fast path: hexadecimal, underscores and a plus sign, declared
   in one spelling and used in another.  Rendered as above; the literals
   were recorded from the reader that kept every file id in one
   hashtable. *)
let int_form_cases =
  [
    ( "int/hex",
      "design t\ndomain c\nnet 0x10 a\ninput a 16 domain 0\noutput o 0x10\n" );
    ( "int/underscore",
      "design t\ndomain c\nnet 1_000 b\nnet 1_001 c\ninput b 1000 domain 0\ngate not g 0x3e9_ 1_0_0_0\noutput o 1001\n" );
    ( "int/underscore-unknown",
      "design t\ndomain c\nnet 1_000 b\ninput b 1000 domain 0\ngate not g 0x3e9_ 1_0_0_0\n" );
    ( "int/plus",
      "design t\ndomain c\nnet +5 c\nnet 6 d\ninput c 5 domain 0\ngate buf g +6 +5\noutput o 6\n" );
    ( "int/mixed",
      "design t\ndomain c\nnet 0x10 a\nnet 1_000 b\nnet +5 c\ninput a 0x10 domain +0\ngate and g 1000 16 0x10\ngate or h +5 1_000 0x10\noutput o 5\n" );
  ]

let int_form_pins =
  [
    "int/hex ok 4390ccedf8d8097f";
    "int/underscore ok 149382ee6be727d9";
    "int/underscore-unknown err 1 024b6d085a25ddae E_PARSE line 5: unknown \
     net 1001 | line 5: unknown net 1001";
    "int/plus ok af99a5f7c4ccee5c";
    "int/mixed ok d187bd71b4d164ec";
  ]

let test_int_forms () =
  Alcotest.(check (list string))
    "int_of_string forms resolve as recorded" int_form_pins
    (List.map (fun (name, text) -> name ^ " " ^ render text) int_form_cases)

let words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Ids at or past the text length, and negative ones, go through the
   reader's hashtable: what a parse allocates follows the text's size,
   not the id's value.  Each text must read as the same design as its
   small-id twin. *)
let test_far_ids () =
  let design a b =
    Printf.sprintf
      "design t\ndomain c\nnet %s a\nnet %s b\ninput a %s domain 0\ngate not g %s %s\noutput o %s\n"
      a b a b a b
  in
  let canonical text =
    match Serial.of_string_diag text with
    | Ok nl -> Serial.to_string nl
    | Error ds -> Alcotest.failf "%S: %s" text (Diag.to_json (List.hd ds))
  in
  let twin = canonical (design "0" "1") in
  let len = String.length (design "0" "1") in
  List.iter
    (fun (a, b) ->
      let text = design a b in
      Alcotest.(check string) ("same design as 0/1: " ^ a ^ " " ^ b) twin
        (canonical text);
      let w0 = words () in
      ignore (Serial.of_string_diag text);
      let spent = words () -. w0 in
      let bound = float_of_int ((16 * String.length text) + 4096) in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: %.0f words <= %.0f" a b spent bound)
        true (spent <= bound))
    [
      ("4611686018427387903", "-7");
      ("-7", "4611686018427387903");
      (string_of_int max_int, string_of_int min_int);
      (string_of_int (len - 1), string_of_int len);
      (string_of_int (len + 2), "0");
    ]

(* A `design' line forgets the file's net ids at the cost of what the
   design before it declared, not of the id table's length: one id just
   under the text's length (the table grows to about the text's size)
   followed by 100 000 `design' lines reads in linear time, and the last
   design does not know the id.  Forgetting by clearing the whole table
   makes this text cost 10^11 writes. *)
let test_many_designs () =
  let far = 899_990 in
  let text =
    String.concat ""
      [
        Printf.sprintf "design t\nnet %d a\n" far;
        String.concat "" (List.init 100_000 (fun _ -> "design x\n"));
        Printf.sprintf "domain c\nnet 0 i\ninput i 0 domain 0\noutput o %d\n"
          far;
      ]
  in
  Alcotest.(check bool) "the id is below the text length" true
    (far < String.length text);
  let t0 = Sys.time () in
  let got = render text in
  let spent = Sys.time () -. t0 in
  let msg = Printf.sprintf "line 100006: unknown net %d" far in
  Alcotest.(check bool)
    (Printf.sprintf "%S ends with the unknown far id" got)
    true
    (String.ends_with ~suffix:(" E_PARSE " ^ msg ^ " | " ^ msg) got
    && String.starts_with ~prefix:"err 1 " got);
  Alcotest.(check bool)
    (Printf.sprintf "two reads in %.2f s of CPU (< 5 s)" spent)
    true (spent < 5.0)

(* Whatever the bytes, the reader answers [Ok] or a non-empty diagnostic
   list and never raises. *)
let reads_cleanly text =
  match Serial.of_string_diag text with
  | Ok _ -> true
  | Error [] -> QCheck.Test.fail_report "Error with no diagnostic"
  | Error (_ :: _) -> true
  | exception e ->
      QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)

let prop_arbitrary_bytes =
  QCheck.Test.make ~name:"arbitrary bytes read cleanly" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 600))
    reads_cleanly

(* Arbitrary lines over the reader's own vocabulary reach past the
   directive dispatch into id resolution and the builder. *)
let vocabulary =
  [|
    "design"; "domain"; "net"; "input"; "clocksource"; "gate"; "latch"; "ff";
    "ram"; "output"; "and"; "not"; "mux"; "dom"; "high"; "low"; "0"; "1"; "2";
    "3"; "-1"; "0x2"; "+1"; "1_0"; "4611686018427387903"; "#"; "\t"; "";
  |]

let vocabulary_text =
  QCheck.Gen.(
    map
      (fun lines -> String.concat "\n" (List.map (String.concat " ") lines))
      (list_size (int_range 0 40)
         (list_size (int_range 0 8) (oneofa vocabulary))))

let prop_vocabulary =
  QCheck.Test.make ~name:"vocabulary lines read cleanly" ~count:500
    (QCheck.make ~print:String.escaped vocabulary_text)
    reads_cleanly

(* One byte of a generator text replaced. *)
let prop_byte_mutations =
  let bases = Array.of_list (base_texts ()) in
  QCheck.Test.make ~name:"single-byte mutations read cleanly" ~count:500
    QCheck.(triple (int_bound (Array.length bases - 1)) (int_bound 100_000) char)
    (fun (k, pos, c) ->
      let base = bases.(k) in
      let b = Bytes.of_string base in
      Bytes.set b (pos mod Bytes.length b) c;
      reads_cleanly (Bytes.to_string b))

let suite =
  [
    Alcotest.test_case "of_string_diag corpus" `Quick test_reader_pins;
    Alcotest.test_case "int_of_string id forms" `Quick test_int_forms;
    Alcotest.test_case "far and negative ids" `Quick test_far_ids;
    Alcotest.test_case "many designs after a far id" `Quick test_many_designs;
    QCheck_alcotest.to_alcotest prop_arbitrary_bytes;
    QCheck_alcotest.to_alcotest prop_vocabulary;
    QCheck_alcotest.to_alcotest prop_byte_mutations;
  ]
