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
    (accept, a reader thread per connection, per-connection response
    order, graceful drain); what the server adds:

    - requests are answered on the thread that read them, in order,
      with no queue between reading and evaluating: the hop to a
      worker cost more than the work it handed over. The reader
      threads are spread round-robin over [workers] domains, the
      serving one included, so separate connections evaluate in
      parallel against the shared immutable {!Query.t} (evaluation
      allocates per-call scratch only, so no locking on the index).
      One pipelined connection is answered one request at a time;
    - one shared {!Lru} cache of 1,024 encoded replies across all
      clients ({!Serve.cache}): keyed on the codec and
      {!Protocol.canonical_key}, without the id, so a hit is a lookup
      and an id splice, with no evaluation and no encoding.

    The [stats] op answers with live gauges — workers, connections,
    epoch id, slice range, cache entries/hits/misses, and the
    process's heap words, top-heap words and VmRSS — plus the per-op
    latency histograms from the {!Lapis_perf.Histogram} registry;
    this is the observability surface the fleet router scrapes.

    Shutdown ({!stop} or SIGINT wired by the CLI) is graceful: stop
    accepting, half-close every connection so readers answer what was
    already sent, flush, join.

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
      (** domains the connections are spread over, the serving one
          included; [None] means the machine's recommended domain
          count minus one (at least 1). *)
}
(** Everything {!start} needs beyond the index. Build one as
    [{ Server.default with workers = Some 4 }]. *)

val default : config
(** Loopback, ephemeral port, recommended workers. *)

type t

val start : ?config:config -> Query.t -> (t, string) result
(** Bind and start accepting (default config {!default}). Returns
    [Error] with a human-readable message if the socket cannot be
    bound. *)

val port : t -> int
(** The actually bound port — useful with [port = 0] in tests. *)

val stop : t -> unit
(** Graceful shutdown; blocks until every request already sent is
    answered and every thread and domain has been joined.
    Idempotent. *)

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
    replaced by a fresh empty one; no entry computed against the old
    index can ever answer a request after the swap. Serialized
    internally: concurrent reloads apply one at a time. Connections
    are unaffected; requests not yet started run against the new
    epoch. *)

val epoch_id : t -> int
(** Identifier of the currently serving epoch: 0 at {!start},
    incremented by each {!reload}. *)
