(* ---- Compile-core pins ----

   The partitioner, its crossing index and the lint pass, pinned from
   the implementation that built per-cell neighbour lists, grouped each
   net's foreign consumers in a hash table on every call, and ran lint's
   cross-domain fan-in closure over integer sets.  The flat-array
   implementation has to reproduce every assignment, every crossing and
   every diagnostic byte.

   Partition grid: the 24 cold_compile designs of seed 1 at weight 64;
   the six serve_mix generator families at seeds 21-25, each at weights
   16, 32 and 64; and design1 seed 1 at scale 0.2.  A point renders as
   [spec w<weight> <blocks> <assignment hash> <crossing hash>]: the
   FNV-1a hash of every cell's block in cell order, and of every
   crossing net's foreign consumers (blocks, then each block's terminals
   as cell.pin) in crossing order.

   Lint corpus: the generator designs above plus fig1, fig3, handshake
   and design1/design2 at scale 0.2, then every text of the reader-pins
   corpus that the reader accepts.  A design renders as
   [name <count> <hash>]: the number of diagnostics and the hash of their
   JSON renderings in order.  Lint now reports all of a design's dangling
   nets as one E_DANGLING warning; the lines of designs with more than
   one were re-recorded from the earlier lines' diagnostics with their
   per-net E_DANGLING entries folded into that warning (same position,
   count, lowest net's context, first eight nets listed). *)

open Msched_netlist
module Partition = Msched_partition.Partition
module Design_gen = Msched_gen.Design_gen
module Diag = Msched_diag.Diag

let netlist_of spec =
  match Design_gen.of_spec spec with
  | Ok d -> d.Design_gen.netlist
  | Error d -> Alcotest.failf "bad spec %s: %s" spec d.Diag.message

let assignment_hash nl part =
  let b = Buffer.create 4096 in
  Netlist.iter_cells nl (fun c ->
      Buffer.add_string b
        (string_of_int (Ids.Block.to_int (Partition.block_of_cell part c.Cell.id)));
      Buffer.add_char b ' ');
  Diag.Json.hash_hex (Buffer.contents b)

let crossing_hash part =
  let b = Buffer.create 4096 in
  List.iter
    (fun n ->
      Printf.bprintf b "n%d" (Ids.Net.to_int n);
      List.iter
        (fun (blk, terms) ->
          Printf.bprintf b " b%d" (Ids.Block.to_int blk);
          List.iter
            (fun (tm : Netlist.term) ->
              Printf.bprintf b " %d.%s"
                (Ids.Cell.to_int tm.Netlist.term_cell)
                (match tm.Netlist.term_pin with
                | Netlist.Data_pin i -> string_of_int i
                | Netlist.Trigger_pin -> "t"))
            terms)
        (Partition.foreign_consumers part n);
      Buffer.add_char b '\n')
    (Partition.crossing_nets part);
  Diag.Json.hash_hex (Buffer.contents b)

let cold_specs =
  List.concat
    (List.init 8 (fun k ->
         [
           Printf.sprintf "design1:scale=0.05,seed=%d" (1 + (2 * k));
           Printf.sprintf "design1:scale=0.05,seed=%d" (2 + (2 * k));
           Printf.sprintf "design2:scale=0.05,seed=%d" (1 + k);
         ]))

let mix_specs =
  List.concat
    (List.init 5 (fun i ->
         let s = 21 + i in
         [
           Printf.sprintf "random:domains=3,modules=10,mts=0.20,seed=%d" s;
           Printf.sprintf "gals:islands=4,size=3,seed=%d" s;
           Printf.sprintf "dense:domains=8,density=0.20,seed=%d" s;
           Printf.sprintf "fabric:banks=4,domains=3,seed=%d" s;
           Printf.sprintf "design1:scale=0.02,seed=%d" s;
           Printf.sprintf "design2:scale=0.02,seed=%d" s;
         ]))

let partition_points =
  List.map (fun s -> (s, 64)) cold_specs
  @ List.concat_map (fun s -> [ (s, 16); (s, 32); (s, 64) ]) mix_specs
  @ [ ("design1:scale=0.2,seed=1", 64) ]

let partition_rendering () =
  List.map
    (fun (spec, w) ->
      let nl = netlist_of spec in
      let part = Partition.make nl ~max_weight:w () in
      Printf.sprintf "%s w%d %d %s %s" spec w (Partition.num_blocks part)
        (assignment_hash nl part) (crossing_hash part))
    partition_points

let partition_pins =
  {|design1:scale=0.05,seed=1 w64 30 e89956366c8f7365 8f0f127bf42cd9ba
design1:scale=0.05,seed=2 w64 30 e52a72f62853cc95 c8fd4668b4b23976
design2:scale=0.05,seed=1 w64 21 1b35eca71ebee5b6 9c981051cfdc8fb5
design1:scale=0.05,seed=3 w64 30 f2fed90c54b8330c e0823d5d328fb192
design1:scale=0.05,seed=4 w64 30 8465b8e3b4b934ac 4b95c737a0620dfc
design2:scale=0.05,seed=2 w64 22 25afb4990277e848 38721544aa77f43c
design1:scale=0.05,seed=5 w64 30 4eb07b595a1f582f 97560acd67ec63b3
design1:scale=0.05,seed=6 w64 30 c882cbbbd42f9c28 41edc539d05033d4
design2:scale=0.05,seed=3 w64 22 63cfec6c05d870a6 f046f17335f60bbc
design1:scale=0.05,seed=7 w64 30 abf9e541da25ea13 a9d594db1450999b
design1:scale=0.05,seed=8 w64 30 d51424cfa92da7c5 9d535e855f745018
design2:scale=0.05,seed=4 w64 22 758bc5bee0af3119 41240c585e3004f0
design1:scale=0.05,seed=9 w64 30 7a1f93c210e5788d bd683da4a5b74e66
design1:scale=0.05,seed=10 w64 30 3f21306a05d68cef baa4314f8a306f74
design2:scale=0.05,seed=5 w64 21 166956107602f760 9a0b26ed29533ff0
design1:scale=0.05,seed=11 w64 31 e8d25120cf849afd 19245c003ea5935b
design1:scale=0.05,seed=12 w64 30 0ed9cd41c0f2e1a9 08fef1d536720e5d
design2:scale=0.05,seed=6 w64 22 95c7c341b66fdfd6 cd11d6606f3ea146
design1:scale=0.05,seed=13 w64 30 1bdc4343ac5eb2d9 2906489a59db2f33
design1:scale=0.05,seed=14 w64 30 6bf6b82a99e9c3c0 0db4ce0185a3be69
design2:scale=0.05,seed=7 w64 22 c62b077f8dfc49dd 791382de9dc0a5b3
design1:scale=0.05,seed=15 w64 30 71dff53ca607d305 6ce91a3c91366efb
design1:scale=0.05,seed=16 w64 30 456789d4742bb295 626e1ec883f763eb
design2:scale=0.05,seed=8 w64 22 faac3b847ad97d8f c1c0cf99e548439a
random:domains=3,modules=10,mts=0.20,seed=21 w16 8 02f6e495ab81d664 d5dabe0aa76fb7dd
random:domains=3,modules=10,mts=0.20,seed=21 w32 4 280e98d64d3948ec b1ed0114e316ced7
random:domains=3,modules=10,mts=0.20,seed=21 w64 2 62604054b9f7a734 71dc752140789980
gals:islands=4,size=3,seed=21 w16 11 f7e8d46811fbbffc ec9bd010247f3d61
gals:islands=4,size=3,seed=21 w32 6 86c487634bdf17af fbb467731cb3d924
gals:islands=4,size=3,seed=21 w64 3 2d0ece4e22930bdd e217027feea17ff2
dense:domains=8,density=0.20,seed=21 w16 7 909254fffd52657d 2dc05175d86b235b
dense:domains=8,density=0.20,seed=21 w32 4 2d9ea3146d003514 6a1f67aaa4b279ac
dense:domains=8,density=0.20,seed=21 w64 2 7973f88e5b9785ad cbf29ce484222325
fabric:banks=4,domains=3,seed=21 w16 4 7d3ad8ad11cf76f4 572a7ab4fd967c6d
fabric:banks=4,domains=3,seed=21 w32 2 71e4c46e838f9d6d 75457592060f06cc
fabric:banks=4,domains=3,seed=21 w64 1 a3bba2a0412ce205 cbf29ce484222325
design1:scale=0.02,seed=21 w16 48 03bb0fdf3178fcbe 0f31f0e92a60792d
design1:scale=0.02,seed=21 w32 25 bb54438854f600bf 8e1e3f3f24c81b4a
design1:scale=0.02,seed=21 w64 12 b83520acb2ed8b16 3bd5d82e983ef48a
design2:scale=0.02,seed=21 w16 34 78bef0c802e27797 a07a027a9fec917a
design2:scale=0.02,seed=21 w32 18 dec8877ca54f9426 e0203de2b4131ded
design2:scale=0.02,seed=21 w64 9 f46de70e64a40cc1 48005203adcdda0a
random:domains=3,modules=10,mts=0.20,seed=22 w16 8 ba791aef88b268b3 b8a1b2a53dab4c0b
random:domains=3,modules=10,mts=0.20,seed=22 w32 4 810edc4da39884dc 1389fe619eeff357
random:domains=3,modules=10,mts=0.20,seed=22 w64 2 945267c62225789d 6dc2a92d43ec6091
gals:islands=4,size=3,seed=22 w16 11 0430a8980c800560 625417169cce9180
gals:islands=4,size=3,seed=22 w32 6 2ab7e5c79f6766a5 638d21eb5c8e7e2b
gals:islands=4,size=3,seed=22 w64 3 d4160a5c59754eb6 fdc4302b66129e03
dense:domains=8,density=0.20,seed=22 w16 8 d46248f9dc96142f 308dbd1ddaec2af0
dense:domains=8,density=0.20,seed=22 w32 4 8c2174d1849488f5 847e1cbdb270b14c
dense:domains=8,density=0.20,seed=22 w64 2 0448564267472f4c 57614b2cddb7838a
fabric:banks=4,domains=3,seed=22 w16 4 c465850b8530e71f 40074cfcf69ac170
fabric:banks=4,domains=3,seed=22 w32 2 ccb883c3435a2704 a01d346b80813689
fabric:banks=4,domains=3,seed=22 w64 1 a3bba2a0412ce205 cbf29ce484222325
design1:scale=0.02,seed=22 w16 48 d1bf2712020937bc 71d41a8af0a2704e
design1:scale=0.02,seed=22 w32 24 e4083dc3a2be1bc2 6994520320257718
design1:scale=0.02,seed=22 w64 12 1e4d7e62e42eac94 0d5bd9d8d61f638d
design2:scale=0.02,seed=22 w16 34 73d39957a2ba58d3 0449de880877758d
design2:scale=0.02,seed=22 w32 17 a0543e0ee2e43a22 3e7b87d4c2d75f23
design2:scale=0.02,seed=22 w64 9 c44e9e98a51b24e1 a6f14326bb248a69
random:domains=3,modules=10,mts=0.20,seed=23 w16 8 92466f1e52426ef8 87b70f99901876ae
random:domains=3,modules=10,mts=0.20,seed=23 w32 4 f50903afa42a694d 88daad9895e27dcc
random:domains=3,modules=10,mts=0.20,seed=23 w64 2 d37ab2a4701df935 0b9831883bbc368f
gals:islands=4,size=3,seed=23 w16 11 ce30d1c1037e107c d699d50b214c5358
gals:islands=4,size=3,seed=23 w32 6 0b0d2bba95d6af71 294ec1eb5fdb077e
gals:islands=4,size=3,seed=23 w64 3 07466a1e622ad0de 8912e8875a753c83
dense:domains=8,density=0.20,seed=23 w16 7 00ea69742e7fb76c dc96bc6b988ea82f
dense:domains=8,density=0.20,seed=23 w32 4 334e9f8c4340911e 8a2cd8a1490def3f
dense:domains=8,density=0.20,seed=23 w64 2 dc8d0b23f08a2595 bf966dae1bf0cd8f
fabric:banks=4,domains=3,seed=23 w16 4 9b21799371ba94f6 f085a7f47324ced9
fabric:banks=4,domains=3,seed=23 w32 2 d849f37f1f3cec0c 0aee17e9bbd4d395
fabric:banks=4,domains=3,seed=23 w64 1 a3bba2a0412ce205 cbf29ce484222325
design1:scale=0.02,seed=23 w16 48 2fd74c40fc40807c e40d4b0f30ada83a
design1:scale=0.02,seed=23 w32 24 e3dc3c251028acc7 0a144e2a57d9cb87
design1:scale=0.02,seed=23 w64 12 6a1000e49c1516ea ba0adea9b3abd702
design2:scale=0.02,seed=23 w16 35 bb309412f4da0e3e 33eb7959b0a68b5f
design2:scale=0.02,seed=23 w32 18 e7e4551b08011e01 031f6648d28e0932
design2:scale=0.02,seed=23 w64 9 c56af58d59fdcf8a 795e392f277f9bb3
random:domains=3,modules=10,mts=0.20,seed=24 w16 8 58f1543b55a52256 51648f2200d185ca
random:domains=3,modules=10,mts=0.20,seed=24 w32 4 4fa77a45377b2724 7d27d810e57b3b9f
random:domains=3,modules=10,mts=0.20,seed=24 w64 2 83b40a9c096499bc dd946b5a6c48c5a7
gals:islands=4,size=3,seed=24 w16 11 870af4ce38892b2a 9e59c742880829d6
gals:islands=4,size=3,seed=24 w32 6 13fad9f794861994 e483782421103c15
gals:islands=4,size=3,seed=24 w64 3 3179de78b8bc5064 6936f946ff75f922
dense:domains=8,density=0.20,seed=24 w16 8 24dcab6b3e94c685 a99c15903e4c1075
dense:domains=8,density=0.20,seed=24 w32 4 d3f4f87533ad47a7 c0a542cc1d53adde
dense:domains=8,density=0.20,seed=24 w64 2 c5d4dc87f64403ad f9e84624b232b374
fabric:banks=4,domains=3,seed=24 w16 4 e80be8732562e4ef c77adb42510586af
fabric:banks=4,domains=3,seed=24 w32 2 50ad6061b59f9eb5 5d6878e5f5f116d7
fabric:banks=4,domains=3,seed=24 w64 1 6841e5cf012f6fdd cbf29ce484222325
design1:scale=0.02,seed=24 w16 49 dd68fdc930cc8f4a 49f166649e680afa
design1:scale=0.02,seed=24 w32 24 32d80a107d532061 0614b8bf405adce4
design1:scale=0.02,seed=24 w64 13 e3f25acffffa2561 cf875451975ffecb
design2:scale=0.02,seed=24 w16 35 58345e0ab30568be d52e56e60fb7923d
design2:scale=0.02,seed=24 w32 17 f1715ee21e0f7348 8ccba036e0034cf0
design2:scale=0.02,seed=24 w64 9 a6f745d152dbbc0f 4c3aafe6ddb2439a
random:domains=3,modules=10,mts=0.20,seed=25 w16 8 e31f78be55698c8f 017cac65587b3a5d
random:domains=3,modules=10,mts=0.20,seed=25 w32 4 ac9b455cdb9009f6 8328f7a81238aa86
random:domains=3,modules=10,mts=0.20,seed=25 w64 2 d760e6061cc1a0a4 f61a1206321daa4f
gals:islands=4,size=3,seed=25 w16 11 eaa830616dfbb9c0 9f703fd48f72d867
gals:islands=4,size=3,seed=25 w32 6 c1683a60b58d7901 46e73ff83e6e2720
gals:islands=4,size=3,seed=25 w64 3 80cab774ca87de2f 82b7c73ed5811558
dense:domains=8,density=0.20,seed=25 w16 7 38d6e8322d775e9e 5da398f6c59d4ffe
dense:domains=8,density=0.20,seed=25 w32 4 c8e5447d9af847b4 19bb05e02cc287cb
dense:domains=8,density=0.20,seed=25 w64 2 b09f9e6a90a376cd 9185d5efba8fc373
fabric:banks=4,domains=3,seed=25 w16 4 69dcc6cc7c0a75a4 ee9091f2338367e4
fabric:banks=4,domains=3,seed=25 w32 2 b137c435cf183a45 60c3025e39abe02b
fabric:banks=4,domains=3,seed=25 w64 1 6841e5cf012f6fdd cbf29ce484222325
design1:scale=0.02,seed=25 w16 49 6d368764ec71aa20 de6cfdfffa863414
design1:scale=0.02,seed=25 w32 24 c2ff2c23e74ed70d 1fd4a1e54a49a40b
design1:scale=0.02,seed=25 w64 13 c599b4aabf39fff0 8ae4f7857d977704
design2:scale=0.02,seed=25 w16 35 9aa7c80cbfe2fcea 989bb2e5c2459ed5
design2:scale=0.02,seed=25 w32 17 049a6c5435129692 e297936a1193b27a
design2:scale=0.02,seed=25 w64 9 dbc2e118dc57ca39 ce6682e953c596b5
design1:scale=0.2,seed=1 w64 117 534e3ad885d2b7c5 525451ec28d759d7|}

let test_partition_pins () =
  Alcotest.(check (list string))
    "block assignment and crossing index per design"
    (String.split_on_char '\n' partition_pins)
    (partition_rendering ())

let lint_render nl =
  let ds = Lint.check nl in
  let b = Buffer.create 256 in
  List.iter
    (fun d ->
      Diag.to_json_buf b d;
      Buffer.add_char b '\n')
    ds;
  Printf.sprintf "%d %s" (List.length ds) (Diag.Json.hash_hex (Buffer.contents b))

let lint_generators =
  [ "fig1"; "fig3"; "handshake" ] @ cold_specs @ mix_specs
  @ [ "design1:scale=0.2,seed=1"; "design2:scale=0.2,seed=2" ]

let named = function
  | "fig1" -> (Design_gen.fig1 ()).Design_gen.netlist
  | "fig3" -> (Design_gen.fig3_latch ()).Design_gen.netlist
  | "handshake" -> (Design_gen.handshake ()).Design_gen.netlist
  | spec -> netlist_of spec

let lint_rendering () =
  List.map (fun s -> s ^ " " ^ lint_render (named s)) lint_generators
  @ List.filter_map
      (fun (name, text) ->
        match Serial.of_string_diag text with
        | Ok nl -> Some (name ^ " " ^ lint_render nl)
        | Error _ -> None)
      (Test_reader_pins.cases ())

let lint_pins =
  {|fig1 0 cbf29ce484222325
fig3 0 cbf29ce484222325
handshake 0 cbf29ce484222325
design1:scale=0.05,seed=1 1 b7fdb82bb1e2051c
design1:scale=0.05,seed=2 1 75f0ee8ad0def2a7
design2:scale=0.05,seed=1 1 7438493a375a6350
design1:scale=0.05,seed=3 1 2096d610bad4e795
design1:scale=0.05,seed=4 1 f6340b3070b636da
design2:scale=0.05,seed=2 1 ae703ce0847e035c
design1:scale=0.05,seed=5 1 2c6ee5db68d928ea
design1:scale=0.05,seed=6 1 d556f809c68c55e0
design2:scale=0.05,seed=3 1 c19f33e1880a3c18
design1:scale=0.05,seed=7 1 6df5c86c923e3e13
design1:scale=0.05,seed=8 1 f811fed00e58f91d
design2:scale=0.05,seed=4 1 887ec6e0d00a138d
design1:scale=0.05,seed=9 1 7c18fbd351dab8d5
design1:scale=0.05,seed=10 1 2e04dfb449932202
design2:scale=0.05,seed=5 1 c03f9bfa5acf0149
design1:scale=0.05,seed=11 1 98b8ac615a8ce30e
design1:scale=0.05,seed=12 1 2be65081353f6df7
design2:scale=0.05,seed=6 1 71da5434cb50a5c0
design1:scale=0.05,seed=13 1 0880cb04edab5cde
design1:scale=0.05,seed=14 1 0c195da57c793639
design2:scale=0.05,seed=7 1 df10443c2ab00d1d
design1:scale=0.05,seed=15 1 b2677720c2646757
design1:scale=0.05,seed=16 1 0e6f0e61d707650f
design2:scale=0.05,seed=8 1 8a64cd8e6ae78e0d
random:domains=3,modules=10,mts=0.20,seed=21 1 4b723242013b1e18
gals:islands=4,size=3,seed=21 1 f33200efb69c7e32
dense:domains=8,density=0.20,seed=21 1 d5ebc97a4433c329
fabric:banks=4,domains=3,seed=21 1 9e71498d73c1dda0
design1:scale=0.02,seed=21 1 2aad3e51f8c83d4d
design2:scale=0.02,seed=21 1 d743fdfa4f5644c2
random:domains=3,modules=10,mts=0.20,seed=22 1 9ce52299bb9967b4
gals:islands=4,size=3,seed=22 1 a01f3d218da8f173
dense:domains=8,density=0.20,seed=22 1 eff4ca2508321cf3
fabric:banks=4,domains=3,seed=22 1 575b58101b5a78c8
design1:scale=0.02,seed=22 1 ce1c5c4e86bf4b88
design2:scale=0.02,seed=22 1 cac1d0543fe07c29
random:domains=3,modules=10,mts=0.20,seed=23 1 48bb9ddfd04df2ae
gals:islands=4,size=3,seed=23 1 0d3d464ba1f6d91f
dense:domains=8,density=0.20,seed=23 1 de49d35e33cdaf3f
fabric:banks=4,domains=3,seed=23 1 143f23f25ea24cb7
design1:scale=0.02,seed=23 1 0c801daeb546f6b8
design2:scale=0.02,seed=23 1 004e4511452dbbc4
random:domains=3,modules=10,mts=0.20,seed=24 1 6b71f47aace8866f
gals:islands=4,size=3,seed=24 1 ae0ec54987a65175
dense:domains=8,density=0.20,seed=24 1 787a6dfdef35772d
fabric:banks=4,domains=3,seed=24 1 55fd973ac7d1efb0
design1:scale=0.02,seed=24 1 bff2eeb03994c835
design2:scale=0.02,seed=24 1 0f1f002863e445c9
random:domains=3,modules=10,mts=0.20,seed=25 1 c210f84012582536
gals:islands=4,size=3,seed=25 1 a7b1e038064e5786
dense:domains=8,density=0.20,seed=25 1 6792e50500492fa8
fabric:banks=4,domains=3,seed=25 1 d9fe936bef7286d2
design1:scale=0.02,seed=25 1 aa54499fa746a7f9
design2:scale=0.02,seed=25 1 975084566d998e55
design1:scale=0.2,seed=1 1 168b7c7ced38cff3
design2:scale=0.2,seed=2 1 50f6aabf2bb24385
broken/comb_cycle 1 a26d6c783afe260b
broken/dangling 1 0774eccac47211ad
broken/fanin_storm 3 f901d6dd9ba76243
edge/empty 0 cbf29ce484222325
edge/newlines 0 cbf29ce484222325
edge/crlf-only 0 cbf29ce484222325
edge/form-feed 0 cbf29ce484222325
edge/hash-alone 0 cbf29ce484222325
edge/no-final-newline 0 cbf29ce484222325
edge/sparse-ids 0 cbf29ce484222325
mut/000 0 cbf29ce484222325
mut/011 1 a5a57c2d632b6615
mut/017 1 326645e1595fe541
mut/023 0 cbf29ce484222325
mut/026 1 f9503a95def17085
mut/032 1 a5a57c2d632b6615
mut/039 1 a5a57c2d632b6615
mut/041 1 a44a75f1a5abe6d2
mut/044 0 cbf29ce484222325
mut/048 1 a44a75f1a5abe6d2
mut/050 0 cbf29ce484222325
mut/057 0 cbf29ce484222325
mut/060 1 a5a57c2d632b6615
mut/073 1 326645e1595fe541
mut/083 1 a44a75f1a5abe6d2
mut/088 1 a5a57c2d632b6615
mut/099 0 cbf29ce484222325
mut/107 0 cbf29ce484222325
mut/111 1 a44a75f1a5abe6d2
mut/126 1 07174a3900583864
mut/131 1 f9503a95def17085
mut/136 2 b7be326b4ccb709d
mut/139 1 a44a75f1a5abe6d2
mut/158 1 a5a57c2d632b6615
mut/163 1 3f80cfa57895a963
mut/167 1 a44a75f1a5abe6d2
mut/168 0 cbf29ce484222325
mut/169 0 cbf29ce484222325
mut/176 0 cbf29ce484222325
mut/192 1 326645e1595fe541
mut/195 1 a44a75f1a5abe6d2
mut/200 1 a5a57c2d632b6615
mut/203 0 cbf29ce484222325
mut/209 1 a44a75f1a5abe6d2
mut/225 0 cbf29ce484222325
mut/229 1 f9503a95def17085|}

let test_lint_pins () =
  Alcotest.(check (list string))
    "Lint.check diagnostics per design"
    (String.split_on_char '\n' lint_pins)
    (lint_rendering ())

(* The fan-in closure keeps each net's domain set as a bitset of 63
   domains to a word; the pins above never pass one word.  Here a
   buffered net is sampled by flip-flops of 70 domains, and its input
   net reaches them through the buffer: both must count all 70. *)
let test_lint_many_domains () =
  let b = Netlist.Builder.create () in
  let doms = List.init 70 (fun i -> Netlist.Builder.add_domain b (Printf.sprintf "d%d" i)) in
  let a = Netlist.Builder.add_input b ~name:"A" ~domain:(List.hd doms) () in
  let buf = Netlist.Builder.add_gate b ~name:"B" Cell.Buf [ a ] in
  List.iter
    (fun d ->
      let q = Netlist.Builder.add_flip_flop b ~data:buf ~clock:(Cell.Dom_clock d) () in
      ignore (Netlist.Builder.add_output b q : Ids.Cell.t))
    doms;
  let nl = Netlist.Builder.finalize b in
  let fanin =
    List.filter_map
      (fun (d : Diag.t) ->
        if d.Diag.code = Diag.E_XDOMAIN_FANIN then d.Diag.ctx.Diag.culprit else None)
      (Lint.check nl)
  in
  Alcotest.(check (list string)) "both nets flagged" [ "A"; "B" ] fanin;
  let counted = "sampled by 70 clock domains" in
  let contains s =
    let n = String.length counted in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = counted || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun (d : Diag.t) ->
      if d.Diag.code = Diag.E_XDOMAIN_FANIN then
        Alcotest.(check bool) ("counts 70 domains: " ^ d.Diag.message) true
          (contains d.Diag.message))
    (Lint.check nl)

let suite =
  [
    Alcotest.test_case "partition: assignment and crossing pins" `Quick
      test_partition_pins;
    Alcotest.test_case "lint: diagnostics pins" `Quick test_lint_pins;
    Alcotest.test_case "lint: fan-in count past 63 domains" `Quick
      test_lint_many_domains;
  ]
