(** Plain-text netlist serialization.

    A simple line-oriented format, stable under round-trips:

    {v
    design counter
    domain clk0
    net 0 n0
    net 1 q
    input c0 0 domain 0
    gate not c1 1 0
    ff c2 0 1 dom 0
    output c3 1
    v}

    Lines: [design <name>], [domain <name>], [net <id> <name>],
    [input <name> <out> [domain <d>]], [clocksource <d> <out>],
    [gate <kind> <name> <out> <in>...],
    [latch <name> <out> <data> (dom <d> | net <n>) (high|low)],
    [ff <name> <out> <data> (dom <d> | net <n>)],
    [ram <name> <out> <addr_bits> <we> <wdata> <waddr...> <raddr...>
         (dom <d> | net <n>)],
    [output <name> <in>].  [#] starts a comment.  Tokens are separated by
    spaces; blanks at either end of a line are ignored.  A later [design]
    line starts a new design: net ids declared before it are unknown after
    it. *)

val to_string : Netlist.t -> string
val output : Format.formatter -> Netlist.t -> unit

val gate_name : Cell.gate -> string

val canonical : string -> (string, string) result
(** Parse and re-emit: normalizes whitespace, comments, blank lines and
    file-local net numbering while preserving the semantic identity of the
    design (internal id order).  Emitted text is a fixpoint:
    [canonical (canonical s) = canonical s], byte for byte — the property
    that makes it safe to use as a cache-key preimage. *)

val of_string : string -> (Netlist.t, string) result
(** Parse and validate, stopping at the first problem. The error carries a
    line number or validation reason.  Never raises: builder validation
    failures raised mid-parse (a net driven twice) land in [Error] too.
    [Ok] exactly when {!of_string_diag} is [Ok], with the same netlist. *)

val of_string_diag :
  string -> (Netlist.t, Msched_diag.Diag.t list) result
(** Lint-grade parse: collects {e all} problems instead of stopping at the
    first.  Bad lines each yield an [E_PARSE] (or [E_MALFORMED_NET] /
    builder-validation) diagnostic and are skipped; if every line parses,
    structural validation runs accumulating ([E_UNDRIVEN], [E_ARITY], ...).
    Never raises; [Error] lists are non-empty and in discovery order. *)

val of_string_exn : string -> Netlist.t
(** @raise Failure on a parse error. *)
