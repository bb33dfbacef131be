(** Parallel map for embarrassingly parallel sweeps, on domains
    spawned per call.

    Campaign rows and bench seed sweeps are seed-deterministic and
    share no state, so they parallelize with no coordination beyond a
    work-stealing counter.  [map] keeps the sequential contract:
    results come back in input order and the first (by input position)
    exception re-raises in the caller, so [map ~jobs:k f xs] is
    observably [List.map f xs] for pure [f] — only faster.

    There is no persistent pool: each [map] spawns up to [jobs - 1]
    helper domains and joins them before it returns.  The model
    checker calls [map] twice per 8,192-state chunk, about 120 spawns
    in one jobs-2 check of RA at n=4, depth 10.  A persistent pool
    measured on that check (2-core VM, median of 5 interleaved calls)
    saved ~8 % (1.22 → 1.12 s), and its live helpers would hold domain
    slots for its lifetime, against OCaml 5.1's limit of 128 live
    domains. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the whole machine. *)

val shard_of : hash:int -> shards:int -> int
(** [shard_of ~hash ~shards] routes a hashed key to its owning shard
    (in [0 .. shards-1]) by the {e high} bits of [hash], so data that
    is also open-address-probed by the low bits of the same hash never
    correlates shard choice with probe position.  The model checker
    routes successor states to per-domain visited-set shards with
    this.  [hash] must already be well mixed.
    @raise Invalid_argument when [shards < 1]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element of [xs] on up to
    [jobs] domains (the caller's domain included) and returns the
    results in input order.

    [~jobs:1] runs exactly [List.map f xs] on the calling domain: no
    domain is spawned, making the serial path bit-for-bit identical to
    pre-pool code.  If one or more applications raise, the exception of
    the smallest input index re-raises (with its backtrace) after all
    workers have drained.

    [f] must be safe to run concurrently with itself ([jobs >= 2]
    executes elements on different domains).

    @raise Invalid_argument when [jobs < 1]. *)
