(** Netlist lint: collect the problems of a design as structured
    diagnostics instead of crashing on the first.

    Three layers of defence, shallowest first:

    + {!Serial.of_string_diag} — parse errors, one diagnostic per bad line
      (with recovery), plus accumulated structural validation;
    + {!Netlist.Builder.finalize_result} — every structural error of a
      builder graph ([E_UNDRIVEN], [E_ARITY], [E_UNKNOWN_DOMAIN], ...);
    + {!check} (this module) — properties finalize does not enforce:
      combinational cycles, dangling nets, unclocked domains.

    Run by [Compile.compile_resilient] before [prepare] so malformed
    designs are reported wholesale rather than dying mid-pipeline. *)

val diag_of_validation_error :
  Netlist.validation_error -> Msched_diag.Diag.t
(** Stable mapping from finalize-time validation errors to diagnostic
    codes (e.g. [Undriven_net] → [E_UNDRIVEN]). *)

val xdomain_fanin_limit : int
(** Largest number of distinct clock domains that may sample (directly or
    through combinational logic) a single net before {!check} warns with
    [E_XDOMAIN_FANIN].  Currently 4: each sampling domain costs one MTS
    transport per crossing plus equal-delay fork padding. *)

val check : Netlist.t -> Msched_diag.Diag.t list
(** Lint a frozen (already structurally valid) netlist.  Combinational
    cycles are errors; dangling nets, clockless [Dom_clock] cells,
    unused domains and cross-domain fanin beyond
    {!xdomain_fanin_limit} are warnings.  All of a design's dangling nets
    make one [E_DANGLING] warning, first in the list: its [net], [cell]
    and [culprit] name the lowest-numbered dangling net, and its message
    gives their count and the first eight in net-id order
    (["3 nets have no consumer: n4 (driven by c3), n9 (driven by c8), n12
    (driven by c11)"], with [" and K more"] past the list); a single
    dangling net reads ["net n4 (driven by c3) has no consumer"].
    Returns diagnostics in deterministic discovery order — never
    raises. *)

val errors : Msched_diag.Diag.t list -> Msched_diag.Diag.t list
val has_errors : Msched_diag.Diag.t list -> bool
