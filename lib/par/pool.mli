(** Persistent intra-compile worker pool.

    One pool serves many small task batches (the TIERS reverse pass fans
    out hundreds of batches per compile), so the domains are spawned once
    per pool and parked on a condition variable between batches instead
    of paying a [Domain.spawn] per batch.

    Determinism contract: [run] only distributes indices — tasks must not
    rely on execution order, and anything order-sensitive belongs in the
    caller's sequential commit step.  With [jobs <= 1] no domain is ever
    spawned and every task runs inline on the caller ([with_pool ~jobs:1]
    is byte-for-byte the sequential path). *)

type t

val create : jobs:int -> t
(** Spawn [jobs - 1] worker domains (the caller participates as the
    [jobs]-th worker during {!run}).  [jobs <= 1] creates a spawn-free
    inline pool. *)

val jobs : t -> int
(** The parallel width, as requested (>= 1). *)

val run : t -> n:int -> (worker:int -> int -> unit) -> unit
(** [run t ~n f] executes [f ~worker 0 .. f ~worker (n-1)], each exactly
    once, across the pool's domains plus the calling domain, returning
    once all [n] tasks finished.  [worker] identifies the executing domain
    (caller is [0], spawned domains [1 .. jobs-1]) so tasks can write into
    per-worker scratch (e.g. a forked {!Msched_obs.Sink}) without
    synchronization.  Tasks are claimed from a shared atomic cursor, so
    the assignment of indices to workers is nondeterministic.  If any task
    raises, the exception of the lowest-indexed failing task is re-raised
    on the caller (with its backtrace) after the batch quiesces. *)

val shutdown : t -> unit
(** Join the worker domains.  The pool must not be used afterwards;
    idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run the thunk, and [shutdown] even on exceptions. *)
