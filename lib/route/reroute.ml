module Sink = Msched_obs.Sink
module Diag = Msched_diag.Diag

type key = {
  k_net : int;
  k_src_block : int;
  k_dst_block : int;
  k_domain : int;
}

type entry = {
  e_anchor : int;
  e_len : int;
  e_hops : (int * int) list;
}

type t = {
  ledger : (key, entry) Hashtbl.t;
  mutable failed : (key * Diag.t) list;  (* reverse discovery order *)
  forced : (int * int * int, unit) Hashtbl.t;  (* net, src, dst *)
  mutable expansions : int;
  mutable reused : int;
  mutable ripped : int;
  mutable fresh : int;
}

let create () =
  {
    ledger = Hashtbl.create 1024;
    failed = [];
    forced = Hashtbl.create 16;
    expansions = 0;
    reused = 0;
    ripped = 0;
    fresh = 0;
  }

let clear t =
  Hashtbl.reset t.ledger;
  t.failed <- [];
  Hashtbl.reset t.forced

let lookup t key = Hashtbl.find_opt t.ledger key
let record t key entry = Hashtbl.replace t.ledger key entry
let rip t key = Hashtbl.remove t.ledger key
let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.ledger []
let ledger_size t = Hashtbl.length t.ledger

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
let reused t = t.reused
let ripped t = t.ripped
let fresh t = t.fresh
let note_reused t = t.reused <- t.reused + 1
let note_ripped t = t.ripped <- t.ripped + 1
let note_fresh t = t.fresh <- t.fresh + 1

let record_metrics obs t =
  if Sink.enabled obs then begin
    Sink.gauge obs "reroute.ledger_size" (float_of_int (ledger_size t));
    Sink.gauge obs "reroute.forced_hard_links"
      (float_of_int (forced_hard_count t))
  end
