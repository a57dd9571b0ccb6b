(** Concurrent TCP front-end for the serve protocol — the
    [lapis serve --tcp PORT] surface, and the process behind each
    shard of a [lapis fleet].

    The wire protocol is {!Protocol}, in either codec: a connection's
    first byte routes it — [0xB1] means length-prefixed binary frames
    (the router↔shard codec), anything else means line-delimited JSON
    (the human/client codec, byte-compatible with the stdin loop of
    {!Serve}). Malformed input produces an error response, never a
    dropped connection; an unframeable binary stream answers one
    error frame and stops reading (binary framing cannot be
    resynchronized). Connections go through the shared {!Frontend}
    (accept, reader thread per connection, a bounded job queue that
    blocks readers when full, per-connection response order, graceful
    drain); what the server adds:

    - a fixed pool of worker {e domains} evaluating queries in
      parallel against the shared immutable {!Query.t} (evaluation
      allocates per-call scratch only, so no locking on the index);
    - one shared {!Lru} cache memoizing typed results across all
      clients and both codecs ({!Protocol.canonical_key} is
      codec-independent).

    The [stats] op answers with live gauges — queue depth and bound,
    connections, epoch id, cache entries/hits/misses — plus the
    per-op latency histograms from the {!Lapis_perf.Histogram}
    registry; this is the observability surface the fleet router
    scrapes.

    Shutdown ({!stop} or SIGINT wired by the CLI) is graceful: stop
    accepting, half-close every connection so readers drain what was
    already sent, finish every queued job, flush, join.

    {b Hot reload.} The index and the response cache live together in
    an {e epoch} behind an atomic pointer. {!reload} installs a new
    epoch — new index, fresh empty cache, next id — and returns once
    every query that started against the old epoch has finished.
    Connections are untouched: a client sees answers from the old
    index up to some point in its stream and from the new one after,
    never a mix within one response, never a stale cache entry (the
    cache is scoped to its epoch and dies with it). *)

type config = {
  host : string;  (** bind address; default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port, see {!port} *)
  workers : int option;
      (** evaluation domains; [None] means the machine's recommended
          domain count (at least 1). The {!Frontend} sizes the job
          queue from it. *)
  cache_capacity : int;  (** response-cache entries; [0] disables *)
}
(** Everything {!start} needs beyond the index. Build one as
    [{ Server.default with workers = Some 4 }]. *)

val default : config
(** Loopback, ephemeral port, recommended workers, cache of 1024. *)

type t

val start : ?config:config -> Query.t -> (t, string) result
(** Bind and start accepting (default config {!default}). Returns
    [Error] with a human-readable message if the socket cannot be
    bound. *)

val port : t -> int
(** The actually bound port — useful with [port = 0] in tests. *)

val stop : t -> unit
(** Graceful shutdown; blocks until every queued request is answered
    and every thread and worker domain has been joined. Idempotent. *)

val signal_stop : t -> unit
(** Async-signal-safe stop request (just an atomic flag store) — this
    is what the SIGINT handler calls; the accept loop notices within
    its poll interval. Pair with {!wait}. *)

val wait : t -> unit
(** Block until the server has fully shut down (via {!stop} or a
    {!signal_stop} noticed by the accept loop). *)

val connections_served : t -> int
(** Total connections accepted since start (for the smoke tests). *)

val reload : t -> Query.t -> unit
(** Atomically swap the serving index. Queries already executing
    finish against the epoch they started with — [reload] blocks
    until the last of them has delivered, so when it returns the old
    index is unreferenced and collectable. The response cache is
    replaced by a fresh one sized like the original [cache_capacity];
    no entry computed against the old index can ever answer a request
    after the swap. Serialized internally: concurrent reloads apply
    one at a time. Connections and queued-but-unstarted jobs are
    unaffected (the latter run against the new epoch). *)

val epoch_id : t -> int
(** Identifier of the currently serving epoch: 0 at {!start},
    incremented by each {!reload}. *)
