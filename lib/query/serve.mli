(** The protocol evaluator: answers typed {!Protocol.req}s against a
    {!Query.t}, and wraps that in the line-delimited JSON loop that is
    the [lapis serve] stdin surface.

    All wire concerns — parsing, canonical spellings, error shapes,
    codecs — live in {!Protocol}; this module only evaluates. Every
    request accumulates wall time under the ["serve:<op>"] stage and a
    ["serve:<op>"] latency histogram, and bumps the
    ["serve:requests"] counter, which is what lets
    [lapis query --stats] prove a snapshot-backed run spent zero time
    in analysis. *)

type cache = (Protocol.codec * string, string) Lru.t
(** Response cache of encoded replies: keyed on the codec and
    {!Protocol.canonical_key}, holding the complete wire bytes with no
    id, so a hit answers without evaluating or encoding. *)

val handle_req :
  ?gauges:(unit -> (string * float) list) ->
  Query.t ->
  Protocol.req ->
  (Protocol.reply, Protocol.err) result
(** Answer one typed request (timed under ["serve:<op>"]).
    Evaluation-time validation (unknown API names, unknown ops)
    produces [Error]; it never raises.
    [gauges] is sampled by the [stats] op — the host injects
    point-in-time numbers (queue depth, cache hit counts, shard
    health) it alone knows; the per-stage latency histograms are
    appended from the {!Lapis_perf.Histogram} registry. *)

val handle_request :
  ?gauges:(unit -> (string * float) list) ->
  Query.t ->
  Protocol.request ->
  Protocol.response
(** {!handle_req} plus id correlation. *)

val answer :
  cache:cache ->
  ?gauges:(unit -> (string * float) list) ->
  Query.t ->
  Protocol.codec ->
  Protocol.request ->
  string
(** The wire bytes of {!handle_request}'s response in [codec] (see
    {!Protocol.encode_response}). Encoded replies are memoized in
    [cache] under the codec and {!Protocol.canonical_key} — except
    [stats], whose answer depends on live state — and a hit splices
    the request's id into the cached bytes ({!Protocol.splice_id}). *)

val handle_line :
  ?gauges:(unit -> (string * float) list) ->
  Query.t ->
  string ->
  string
(** Answer one raw JSON request line; total. The returned string is a
    single-line JSON response without the trailing newline. Bumps
    ["serve:requests"]. *)

val loop : Query.t -> in_channel -> out_channel -> unit
(** Serve line-delimited JSON until EOF, flushing per response. Blank
    lines are ignored. *)
