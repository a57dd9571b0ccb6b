(** Scatter/gather front-end for a serving fleet — the [lapis fleet]
    surface. The router listens through the same {!Frontend} as a
    single {!Server} (same {!Protocol}, both codecs, per-connection
    response ordering) but owns no index: behind it, N shard
    processes serve the index over TCP, each either the whole index or
    one range slice of it (see {e Sliced fleets}). The router turns one
    [completeness] request into N [partial-completeness] requests —
    one contiguous package range per shard: the exact
    {!Query.shard_ranges} partition, or each shard's own slice — and
    merges the partial sums in range order over the shared
    denominator. That is the same float regrouping
    {!Query.eval_syscalls_sharded} performs in-process, so a routed
    answer is within accumulation noise ([<= 1e-12] in the test
    suite) of a single-process one; every shard's denominator is
    asserted equal before merging, so shards serving different worlds
    answer a structured error instead of a silently wrong sum.

    Point ops ([importance], [top], [dependents],
    [partial-completeness]) forward to one shard, round-robin over
    the healthy ones. [ping], [hello] and [stats] answer locally —
    the router's [stats] reports its own gauges (queue depth and
    bound, shard health, cache counters, heap words and VmRSS) and
    latency histograms.

    {b Sliced fleets.} When the shards serve range-sliced images
    (their [stats] gauges report proper [slice_lo]/[slice_hi]
    ranges), the slices must partition the package range exactly and
    become the scatter partition. [dependents] and
    [partial-completeness] then scatter too — each shard only knows
    its own packages — and merge with the single-process comparators;
    [importance] and [top] still forward anywhere, because the
    per-API planes are whole in every slice.

    {b Caching.} Deterministic single-shard responses (results and
    validation errors, never [degraded]) are memoized in
    a router-side LRU keyed on {!Protocol.canonical_key}, so repeated
    point queries answer without touching a shard. Scatter ops never
    cache — a cached scatter would keep answering while a shard is
    down, hiding the degradation its all-shards dependency exists to
    surface.

    {b Admission.} The {!Frontend}'s readers hand every request to
    the router's own pool of gather threads through one bounded job
    queue of [max 128 (workers * 32)] slots; a full queue blocks the
    readers, so a client that outruns the gather threads is slowed
    through TCP rather than refused. Unlike a {!Server}, the router
    cannot answer on the reader: its answers wait on shard sockets,
    and a reader that waited would stall its connection (answering
    inline cut a 2-vCPU host's saturation to ~1,500 requests/s). The
    workers are threads, since they spend their time waiting.

    {b Degradation.} Shard connections are pipelined and correlated
    by router-assigned ids, with a receive timeout so a stalled shard
    fails its in-flight calls instead of hanging them. A failed call
    is retried once (reconnecting); if it fails again the shard is
    marked unhealthy and requests that need it answer a structured
    ["degraded"] error — never a partial sum, never a hang. A health
    thread pings shards every period and restores [healthy] when one
    comes back. *)

type shard_spec = { sh_host : string; sh_port : int }

val shard_spec_of_string : string -> (shard_spec, string) result
(** ["host:port"] where [host] is an IPv4 address, or just ["port"]
    (host 127.0.0.1). A host name is an [Error]: the router dials
    addresses and resolves no names. *)

type config = {
  host : string;  (** bind address; default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port *)
  workers : int;
      (** gather threads — each scatters one request and waits on all
          its shard calls, so this bounds concurrent scatters. The job
          queue holds [max 128 (workers * 32)] requests. *)
  shard_timeout : float;
      (** seconds a shard call may take before it counts as failed *)
  health_period : float;  (** seconds between shard health pings *)
}
(** The router also keeps a 512-entry LRU over deterministic
    responses, keyed on {!Protocol.canonical_key}: repeated point
    queries answer without crossing a shard wire. *)

val default : config
(** Loopback, ephemeral port, 8 workers (so a 256-slot job queue), 5s
    shard timeout, 1s health period. *)

type t

val start : ?config:config -> shard_spec list -> (t, string) result
(** Connect to every shard, probe each with [stats] (all must be
    reachable and must report the same package count — the range
    partition depends on it), then bind and start accepting.
    [Error] if the shard list is empty, a shard is unreachable, the
    shards disagree, or the socket cannot be bound. *)

val port : t -> int
val connections_served : t -> int

val n_shards : t -> int

val healthy_shards : t -> int
(** How many shards currently answer — what the health pings and the
    per-call failures left standing. *)

val signal_stop : t -> unit
(** Async-signal-safe stop request; pair with {!wait}. *)

val wait : t -> unit

val stop : t -> unit
(** Graceful shutdown: stop accepting, answer everything queued,
    close shard connections, join every thread. Idempotent. *)
