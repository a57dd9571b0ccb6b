(** The connection front end shared by {!Server} and {!Router}: one
    accept / read / resequence / drain path, so a fix to any of them
    is made once.

    - {b Accept.} A [select]-polled accept loop on its own thread.
      Every connection gets [TCP_NODELAY] (request and response frames
      are small; Nagle would park each response behind a delayed ACK)
      and a reader thread. On stop, whatever the listen backlog already
      holds is accepted before the socket closes — those clients'
      handshakes made it in, and closing first would RST them
      unanswered.
    - {b Read.} The reader picks the connection's codec from its first
      byte — {!Protocol.Bin.magic} means binary frames, anything else
      JSON lines — and only splits messages and submits them, so an
      idle or slow client never holds a worker. An unframeable binary
      stream is answered once ({!Broken}) and reading stops: binary
      framing cannot be resynchronized.
    - {b Admit.} Each message takes the connection's next sequence
      number and enters one bounded job queue of {!queue_capacity}
      slots. A full queue blocks the reader, so the client is slowed
      through TCP instead of refused.
    - {b Answer.} A fixed pool of workers drains the queue through the
      caller's [answer]. An exception there becomes an [internal]
      error response in the message's own codec, never a dropped
      connection.
    - {b Resequence.} Finished responses park per connection and go
      on the wire in that connection's send order, whatever order the
      pool finished them in. The fd closes once, when the reader has
      hit EOF and every accepted message has been answered.
    - {b Stop.} Exactly once, on whichever thread wins: stop
      accepting, half-close every connection so readers drain what
      clients already sent, let the workers finish every queued job,
      join them, run the caller's teardown, close, and release
      {!wait}ers. *)

type msg =
  | Line of string  (** one JSON request line, newline stripped *)
  | Frame of string  (** one binary frame payload *)
  | Broken of string
      (** an unrecoverable framing error on a binary stream *)

type config = {
  host : string;
  port : int;  (** [0] picks an ephemeral port, see {!port} *)
  workers : int;
      (** the worker pool; it also sizes the job queue to
          [max 128 (workers * 32)] slots. The listen backlog is 64. *)
  spawn : (unit -> unit) -> unit -> unit;
      (** run one worker loop, returning its join: domains when the
          answer is CPU-bound evaluation, threads when it mostly waits
          on other sockets *)
  stage : string;
      (** prefix of the {!Lapis_perf.Stage} connection counter *)
}

type t

val listen : config -> (t, string) result
(** Bind and listen; nothing is accepted until {!run}. [Error] with a
    readable message when the socket cannot be bound. Also makes
    SIGPIPE ignored, so writing to a gone client is an [EPIPE]. *)

val run : t -> answer:(msg -> string) -> teardown:(unit -> unit) -> unit
(** Spawn the workers and the accept loop. [answer] returns the
    complete response bytes — newline included for JSON, frame
    included for binary. [teardown] runs once during the drain, after
    the workers have joined. *)

val reply : (Protocol.request -> Protocol.response) -> msg -> string
(** Decode [msg] in its codec, answer it with the handler, encode the
    response in the same codec. Undecodable input gets a [parse] (or
    field-validation) error response; the handler only ever sees
    well-formed requests. *)

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
val queue_depth : t -> int

val queue_capacity : t -> int
(** The job-queue bound, [max 128 (workers * 32)]. *)
