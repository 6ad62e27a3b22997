(** Exporters for a recorded {!Sink.t}.

    Three formats, all total functions of the sink's state (a {!Sink.null}
    sink exports as an empty document):

    - {!pp_summary}: a human-readable span tree with durations, followed by
      the metric catalogue — what [msched profile] prints.
    - {!json_string}: a stable JSON document
      ([{"schema":"msched-obs-1","spans":…,"counters":…,"gauges":…,
      "histograms":…}]) meant to be diffed across runs — what
      [msched profile --json] writes.
    - {!chrome_trace_string}: Chrome trace-event format
      ([{"traceEvents":[…]}]) that loads directly in [chrome://tracing] and
      {{:https://ui.perfetto.dev}Perfetto}: spans become complete ("X")
      events, counters one counter ("C") event each.

    All JSON is hand-emitted (no external dependency) with full string
    escaping; numbers are integers except gauge values and histogram
    means. *)

val pp_summary : Format.formatter -> Sink.t -> unit

val json_string : Sink.t -> string

val chrome_trace_string : Sink.t -> string

val write_file : string -> string -> unit
(** [write_file path contents] — the file writer of the CLI and the
    experiment driver; ["-"] writes to stdout. *)
