module Sink = Msched_obs.Sink
module Diag = Msched_diag.Diag

type key = {
  k_net : int;
  k_src_block : int;
  k_dst_block : int;
  k_domain : int;
}

type t = {
  mutable failed : (key * Diag.t) list;  (* reverse discovery order *)
  forced : (int * int * int, unit) Hashtbl.t;  (* net, src, dst *)
  mutable expansions : int;
}

let create () = { failed = []; forced = Hashtbl.create 16; expansions = 0 }

let clear t =
  t.failed <- [];
  Hashtbl.reset t.forced

let note_failure t key d = t.failed <- (key, d) :: t.failed
let failures t = List.rev t.failed
let clear_failures t = t.failed <- []

let force_hard t key =
  Hashtbl.replace t.forced (key.k_net, key.k_src_block, key.k_dst_block) ()

let is_forced_hard t ~net ~src_block ~dst_block =
  Hashtbl.mem t.forced (net, src_block, dst_block)

let forced_hard_count t = Hashtbl.length t.forced

let note_expansions t n = t.expansions <- t.expansions + n
let expansions t = t.expansions

let record_metrics obs t =
  if Sink.enabled obs then
    Sink.gauge obs "reroute.forced_hard_links"
      (float_of_int (forced_hard_count t))
