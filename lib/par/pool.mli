(** Fork/join sharding over OCaml 5 domains.

    The one pool primitive, under the sharded fuzz campaign: run a fixed
    number of shards concurrently, each with a static identity, and wait
    for all of them. The calling domain runs shard 0: [jobs = 1] runs
    inline with no domain spawned, [jobs = n] spawns [n - 1].

    Exceptions raised by a shard are re-raised in the calling domain only
    after every shard has finished; no domain is ever left running. *)

(** [Domain.recommended_domain_count ()] — the whole-machine default
    for a [--jobs] flag. *)
val default_jobs : unit -> int

(** [run_shards ~jobs f] runs [f 0], …, [f (jobs-1)] concurrently, shard 0
    on the calling domain and each other shard on its own fresh domain,
    and waits for all of them. The shard index is a {e static} identity:
    use it when the mapping of work to worker must be a deterministic
    function of [jobs] — e.g. worker [w] takes items [w], [w+jobs],
    [w+2*jobs], … [jobs] is not clamped (a shard index must not change
    meaning behind the caller's back), so callers bound it themselves.
    The first exception (by shard index) is re-raised after all shards
    finish. Raises [Invalid_argument] when [jobs < 1]. *)
val run_shards : jobs:int -> (int -> unit) -> unit
