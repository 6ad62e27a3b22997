(** Typed compiler diagnostics: stable error codes, severity, culprit
    context, and an accumulating report — the structured replacement for
    the seed's [Compile_error of string] / [failwith] failure style.

    This library depends on nothing, so it can be used from every layer
    (including [Msched_netlist]).  Culprit ids are raw integers; convert
    with [Ids.X.to_int] at the record site.  The catalogue of codes, their
    meaning and their process exit codes is documented in
    [docs/ROBUSTNESS.md]. *)

(** Stable machine-readable error codes.  Never renumber or rename: external
    tooling keys on [code_name] strings and on {!exit_code} classes. *)
type code =
  | E_PARSE  (** Text-format netlist does not parse. *)
  | E_MALFORMED_NET  (** Structural netlist error not covered below. *)
  | E_UNDRIVEN  (** A net has no driver cell. *)
  | E_DANGLING  (** A net drives no consumer (warning-class). *)
  | E_COMB_CYCLE  (** Combinational cycle through gates/latch data. *)
  | E_UNKNOWN_DOMAIN  (** Reference to an undeclared clock domain. *)
  | E_ARITY  (** Wrong input/port count on a cell. *)
  | E_UNSUPPORTED  (** Construct the compiler cannot handle. *)
  | E_CAPACITY  (** Resource exhaustion: pins, wires, block weight. *)
  | E_UNROUTABLE  (** No transport schedule within the slack budget. *)
  | E_HOLD_VIOLATION  (** Hold-safety (Observation 2) verification failure. *)
  | E_VERIFY  (** Any other static-verification failure. *)
  | E_XDOMAIN_FANIN
      (** A net is sampled by more domains than the MTS transport fabric
          comfortably forks to (warning-class: legal, but each crossing
          costs a per-domain transport and equalization padding). *)
  | E_INTERNAL  (** Invariant breakage inside the compiler. *)
  | E_CACHE
      (** A persisted artifact (a delta manifest) is unreadable, corrupt,
          checksum-mismatched or version-skewed.  Warning-class in
          practice: the consumer compiles cold without it. *)
  | E_TIMEOUT
      (** A request exceeded its deadline: the serve dispatcher cancelled
          it while queued, or abandoned the running compile and answered
          the client without it. *)
  | E_OVERLOAD
      (** The serve request queue is full (or the server is draining) and
          the shed policy rejected the request.  Retryable by the client
          once load subsides. *)
  | E_EMPTY_DESIGN
      (** The design has no cells: it parses and lints clean, but there is
          nothing to partition or schedule. *)

val code_name : code -> string
(** ["E_UNROUTABLE"] etc. — stable. *)

val code_of_name : string -> code option
val all_codes : code list

val exit_code : code -> int
(** Documented process exit code of the diagnostic class: 2 verification,
    3 malformed input, 4 infeasible/unroutable, 5 unsupported, 6 internal,
    7 request deadline exceeded, 8 server overloaded. *)

type severity = Error | Warning

val severity_name : severity -> string

type context = {
  net : int option;
  cell : int option;
  domain : int option;
  fpga : int option;
  block : int option;
  slack : int option;  (** Slot budget that was exceeded, when known. *)
  culprit : string option;  (** Human-readable net/cell name. *)
}

val no_context : context

type t = {
  code : code;
  severity : severity;
  message : string;
  ctx : context;
}

val make :
  ?net:int ->
  ?cell:int ->
  ?domain:int ->
  ?fpga:int ->
  ?block:int ->
  ?slack:int ->
  ?culprit:string ->
  severity ->
  code ->
  string ->
  t

val error :
  ?net:int ->
  ?cell:int ->
  ?domain:int ->
  ?fpga:int ->
  ?block:int ->
  ?slack:int ->
  ?culprit:string ->
  code ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [error code fmt ...] — format-string constructor for an error diag. *)

val warning :
  ?net:int ->
  ?cell:int ->
  ?domain:int ->
  ?fpga:int ->
  ?block:int ->
  ?slack:int ->
  ?culprit:string ->
  code ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val is_error : t -> bool
val pp : Format.formatter -> t -> unit
(** [error[E_UNROUTABLE]: message net=3 fpga=1 slack=4096 culprit=n3]. *)

exception Fail of t
(** Structured unwind for deep pipeline contexts; catch at the driver/CLI
    boundary.  Prefer [Result]/report accumulation where control flow
    allows. *)

val fail :
  ?net:int ->
  ?cell:int ->
  ?domain:int ->
  ?fpga:int ->
  ?block:int ->
  ?slack:int ->
  ?culprit:string ->
  code ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** [fail code fmt ...] raises {!Fail} with an error diag. *)

val to_json : t -> string
(** One diagnostic as a JSON object (fields: code, severity, message,
    exit_code, then any present context ids). *)

val to_json_buf : Buffer.t -> t -> unit

(** JSON string escaping shared with report emitters elsewhere, plus a
    minimal reader for the documents this toolchain itself emits (no
    external JSON library anywhere in the dependency cone). *)
module Json : sig
  val escape : Buffer.t -> string -> unit
  val string : string -> string

  val add_int : Buffer.t -> int -> unit
  (** Appends the decimal digits [string_of_int] writes, without
      allocating. *)

  val add_bool : Buffer.t -> bool -> unit
  (** Appends [true] or [false]. *)

  val field : Buffer.t -> first:bool ref -> string -> string -> unit

  type value =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of value list
    | Obj of (string * value) list

  val parse : string -> (value, string) result
  (** Strict single-document parse; [Error] carries the offset of the
      first problem.  Never raises. *)

  val mem : string -> value -> value option
  (** Object member lookup; [None] on missing member or non-object. *)

  val str : value -> string option
  val num : value -> float option
  val arr : value -> value list option
  val int : value -> int option
  (** [num] restricted to integral values. *)

  val hash_hex : string -> string
  (** FNV-1a 64-bit, as 16 lowercase hex digits: document checksums,
      cache keys and block fingerprints all use it. *)

  type digest
  (** {!hash_hex} of a document written into a buffer in pieces, without
      holding the whole document. *)

  val digest : unit -> digest

  val digest_buffer : digest -> Buffer.t -> unit
  (** Feeds what the buffer holds, then clears it. *)

  val digest_hex : digest -> string
  (** {!hash_hex} of everything fed so far. *)

  val hash_hex_lines : string array -> string
  (** {!hash_hex} of the strings joined by newlines, as [String.concat
      "\n"] would join them, without building the joined string. *)

  val hash_hex_slices : (string * int * int) list -> string
  (** {!hash_hex} of the concatenation of the [(s, pos, len)] slices (the
      [len] bytes of [s] at [pos]), without building it.
      @raise Invalid_argument when a slice is outside its string. *)
end

(** Accumulate-don't-crash collection of diagnostics. *)
module Report : sig
  type diag = t
  type t

  val create : unit -> t
  val add : t -> diag -> unit
  val add_list : t -> diag list -> unit
  val to_list : t -> diag list
  (** In insertion order. *)

  val errors : t -> diag list
  val warnings : t -> diag list
  val has_errors : t -> bool
  val is_empty : t -> bool
  val count : t -> int

  val exit_code : t -> int
  (** 0 when error-free, else the {!exit_code} class of the first error. *)

  val pp : Format.formatter -> t -> unit

  val to_json : t -> string
  (** [{"schema":"msched-diag-1","diagnostics":[...]}]. *)

  val to_json_buf : Buffer.t -> t -> unit
  (** Just the diagnostics array, for embedding in larger documents. *)
end
