(** Fork-join worker pool for closed batches: [Server.run_batch] runs a
    corpus on it, one compile per task.

    Each {!run} spawns up to [jobs - 1] domains for that one batch and
    joins them before returning; the caller works as one of the [jobs]
    workers.  Nothing persists between calls, so a pool value is only the
    width.

    Determinism contract: [run] only distributes indices — tasks must not
    rely on execution order, and anything order-sensitive belongs in the
    caller (e.g. writing results into per-index slots).  With [jobs <= 1]
    no domain is ever spawned and every task runs inline on the caller
    ([with_pool ~jobs:1] is byte-for-byte the sequential loop). *)

type t

val jobs : t -> int
(** The parallel width, as requested (>= 1). *)

val run : t -> n:int -> (worker:int -> int -> unit) -> unit
(** [run t ~n f] executes [f ~worker 0 .. f ~worker (n-1)], each exactly
    once, across freshly spawned domains plus the calling domain,
    returning once all [n] tasks finished.  [worker] identifies the
    executing domain (caller is [0], spawned domains [1 .. jobs-1]) so
    tasks can write into per-worker state (e.g. a forked
    {!Msched_obs.Sink}) without synchronization.  Tasks are claimed from a
    shared atomic cursor, so the assignment of indices to workers is
    nondeterministic.  If any task raises, the exception of the
    lowest-indexed failing task is re-raised on the caller (with its
    backtrace) after every task has run; at [jobs <= 1] the first failure
    propagates at once, which is the same task. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** A pool of width [max 1 jobs] for the thunk. *)
