open Msched_netlist
module Partition = Msched_partition.Partition
module Placement = Msched_place.Placement
module Domain_analysis = Msched_mts.Domain_analysis

type t = {
  id : Ids.Link.t;
  net : Ids.Net.t;
  src_block : Ids.Block.t;
  dst_block : Ids.Block.t;
  src_fpga : Ids.Fpga.t;
  dst_fpga : Ids.Fpga.t;
  domains : Ids.Dom.t list;
  hard : bool;
}

let build placement analysis ~decompose_mts ~hard_mts =
  let part = Placement.partition placement in
  let nl = Partition.netlist part in
  let links = ref [] in
  let next = ref 0 in
  List.iter
    (fun net ->
      let src_block = Partition.block_of_cell part (Netlist.driver nl net).Cell.id in
      let multi = Domain_analysis.is_multi_transition analysis net in
      let domains =
        if multi && decompose_mts then
          Ids.Dom.Set.elements (Domain_analysis.transitions analysis net)
        else []
      in
      List.iter
        (fun (dst_block, _terms) ->
          let link =
            {
              id = Ids.Link.of_int !next;
              net;
              src_block;
              dst_block;
              src_fpga = Placement.fpga_of_block placement src_block;
              dst_fpga = Placement.fpga_of_block placement dst_block;
              domains;
              hard = hard_mts && multi;
            }
          in
          incr next;
          links := link :: !links)
        (Partition.foreign_consumers part net))
    (Partition.crossing_nets part);
  List.rev !links

let pp ppf t =
  Format.fprintf ppf "%a: %a %a->%a%s%s" Ids.Link.pp t.id Ids.Net.pp t.net
    Ids.Block.pp t.src_block Ids.Block.pp t.dst_block
    (if t.domains = [] then ""
     else
       Format.asprintf " doms={%a}"
         (Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
            Ids.Dom.pp)
         t.domains)
    (if t.hard then " hard" else "")
