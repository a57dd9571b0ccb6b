(** The connection front end shared by {!Server} and {!Router}: one
    accept / read / resequence / drain path, so a fix to any of them
    is made once.

    - {b Accept.} A [select]-polled accept loop on its own thread.
      Every connection gets [TCP_NODELAY] (request and response frames
      are small; Nagle would park each response behind a delayed ACK)
      and a reader thread. Reader threads are spread round-robin over
      [domains] domains, the calling one included, so connections are
      read and answered in parallel. On stop, whatever the listen
      backlog already holds is accepted before the socket closes —
      those clients' handshakes made it in, and closing first would
      RST them unanswered.
    - {b Read.} The reader picks the connection's codec from its first
      byte — {!Protocol.Bin.magic} means binary frames, anything else
      JSON lines — splits messages, gives each the connection's next
      sequence number and calls the caller's [handle msg reply]. An
      unframeable binary stream is answered once ({!Broken}) and
      reading stops: binary framing cannot be resynchronized.
    - {b Answer.} The caller decides where a message is answered.
      {!Server} answers on the reader thread, so one connection's
      messages are answered in order, one at a time; {!Router} hands
      them to its own bounded pool. Either way [reply] is called once
      per message, from any thread.
    - {b Resequence.} A reply that arrives in send order goes on the
      wire at once; one that finished early parks until the replies
      before it are written. The fd closes once, when the reader has
      hit EOF and every message has been answered.
    - {b Stop.} Exactly once, on whichever thread wins: stop
      accepting, half-close every connection so readers drain what
      clients already sent, join the readers, run the caller's
      teardown (which answers whatever it still holds), close, and
      release {!wait}ers. *)

type msg =
  | Line of string  (** one JSON request line, newline stripped *)
  | Frame of string  (** one binary frame payload *)
  | Broken of string
      (** an unrecoverable framing error on a binary stream *)

type config = {
  host : string;  (** an IPv4 address *)
  port : int;  (** [0] picks an ephemeral port, see {!port} *)
  domains : int;
      (** domains the reader threads are spread over, the calling
          domain included: [1] keeps every reader in the caller's
          domain. The listen backlog is 64. *)
  stage : string;
      (** prefix of the {!Lapis_perf.Stage} connection counter *)
}

type t

val listen : config -> (t, string) result
(** Bind and listen; nothing is accepted until {!run}. [Error] with a
    readable message when [host] is not an address or the socket
    cannot be bound. Also makes SIGPIPE ignored, so writing to a gone
    client is an [EPIPE]. *)

val run :
  t ->
  handle:(msg -> (string -> unit) -> unit) ->
  teardown:(unit -> unit) ->
  unit
(** Spawn the reader domains and the accept loop. [handle msg reply]
    runs on the connection's reader thread and must call [reply] once
    with the complete response bytes — newline included for JSON,
    frame included for binary — then or later, on any thread. It
    must not raise; {!answer} is total. [teardown] runs once during
    the drain, after every reader has finished, and must return only
    once every [reply] still owed has been made. *)

val answer : (Protocol.codec -> Protocol.request -> string) -> msg -> string
(** Decode [msg] in its codec and answer it with the handler, which
    returns the response bytes in that codec. Undecodable input gets
    a [parse] (or field-validation) error response; the handler only
    ever sees well-formed requests. An exception from the handler
    becomes an [internal] error response, never a dropped
    connection. *)

val reply : (Protocol.request -> Protocol.response) -> msg -> string
(** {!answer} with a typed handler, whose response is encoded in the
    message's codec. *)

val port : t -> int
(** The bound port. *)

val stopping : t -> bool
(** A stop has been requested. *)

val signal_stop : t -> unit
(** Async-signal-safe stop request (an atomic store); the accept loop
    notices within its 0.1 s poll. Pair with {!wait}. *)

val stop : t -> unit
(** Graceful stop; returns once everything has drained and joined.
    Idempotent. *)

val wait : t -> unit
(** Block until the front end has fully stopped. *)

val connections_served : t -> int

val process_gauges : unit -> (string * float) list
(** The process's memory, for [stats]: [gc_heap_words] and
    [gc_top_heap_words] from [Gc.quick_stat], and [rss_kb] (VmRSS,
    where [/proc/self/status] exists). *)
