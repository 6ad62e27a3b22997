(** Time-expanded wire reservation tables.

    Physical wires inside one directed channel are interchangeable, so
    reservations are counted per (channel, reverse slot): a slot can hold at
    most [effective width] concurrent transports.  Hard routing removes whole
    wires from a channel's pool by incrementing its dedicated count.

    Counts live in a dense int array indexed [rslot * channels + channel],
    grown by doubling as reservations reach later slots, up to 2{^20}
    words.  A slot outside that range — negative, or beyond the cap — goes
    to a sparse table instead: frames never reach such slots, but slot
    numbers come from the caller, and they must count like any other slot
    without sizing an allocation by the slot number. *)

type t

val create : Msched_arch.System.t -> t

val dedicate : t -> channel:int -> unit
(** Permanently remove one wire from the channel's multiplexed pool.
    @raise Invalid_argument if the channel has no wires left. *)

val dedicated : t -> channel:int -> int
val effective_width : t -> channel:int -> int
(** Width available to time-multiplexed traffic. *)

val free_at : t -> channel:int -> rslot:int -> bool
(** @raise Invalid_argument on an unknown channel. *)

val reserve : t -> channel:int -> rslot:int -> unit
(** @raise Invalid_argument when the slot is full or the channel
    unknown. *)

val usage_at : t -> channel:int -> rslot:int -> int
(** [0] for an unknown channel. *)

val peak_usage : t -> int array
(** Per channel: the maximum number of wires concurrently used in any slot
    (multiplexed traffic only; add {!dedicated} for total pin pressure). *)

val max_rslot : t -> int
(** Largest reverse slot with any reservation ([-1] when none). *)

(** {2 Search scratch}

    The work arrays of {!Pathfind}'s searches against this table.  They
    live here so that consecutive searches reuse them — no search
    allocates per state — and so that no search state outlives or is
    shared beyond the one table (one schedule, one domain).  A search
    numbers its states and grows the arrays to fit; see {!Pathfind}. *)

type scratch = {
  mutable epoch : int;
      (** Bumped by every search; a state is visited in the current
          search iff its [seen] entry equals it, so nothing is cleared
          between searches. *)
  mutable seen : int array;
      (** State → epoch of the last search that reached it. *)
  mutable parent : int array;  (** State → predecessor state. *)
  mutable via : int array;
      (** State → channel hopped into it, or [-1] (a wait). *)
  mutable queue : int array;  (** FIFO of states; each enters at most once. *)
}

val scratch : t -> scratch
