(** The serve wire protocol: typed requests and responses, and the
    single canonicalization point every entry point shares.

    Before this module existed the request/response surface lived as
    ad-hoc JSON plumbing inside {!Serve} and {!Server}; the fleet
    (router + shard processes) forced the redesign. The protocol now
    has one typed definition and {e two interchangeable codecs}:

    - {b JSON lines} — one request object per line, one response
      object per line; byte-compatible with the pre-fleet wire format
      (responses additionally carry an ["op"] field naming the reply
      shape). This is the human/client surface.
    - {b length-prefixed binary} ({!Bin}) — magic byte [0xB1], u32-LE
      payload length, tagged payload of varints / length-prefixed
      strings / IEEE-754 float bits (the {!Lapis_store.Snapshot.Wire}
      primitives). This is the router↔shard codec, where JSON
      encode/decode is measurable overhead at fleet throughput.

    A connection chooses its codec implicitly by its first byte
    ([0xB1] means binary, anything else means JSON lines). There is
    one protocol version, so nothing is negotiated: a [hello] op is
    an unknown op, and its former binary tags are unknown tags.

    Decoding is total in both codecs: malformed bytes produce
    [Error], never an exception — held to the same
    truncation/bit-flip fuzz discipline as the snapshot formats. *)

(** {2 Codecs} *)

type codec = Json_lines | Binary

(** {2 Typed requests} *)

type req =
  | Ping
  | Stats
  | Importance of { api : string; phase : Query.phase }
  | Completeness of { syscalls : int list; phase : Query.phase }
  | Partial_completeness of {
      syscalls : int list;
      phase : Query.phase;
      lo : int;  (** package range, clamped by the evaluator *)
      hi : int;
    }  (** one shard's share of a scattered completeness query *)
  | Top of int
  | Dependents of { api : string; limit : int option }
  | Unknown of string
      (** an op name this version does not know — kept so the error
          response (and its stage counter) can echo it *)

type request = { rq_id : Json.t option; rq_op : req }
(** [rq_id] is echoed verbatim into the response for correlation. *)

val op_name : req -> string
(** The wire spelling (["ping"], ["partial-completeness"], ...); for
    [Unknown s], [s] itself. *)

(** {2 Typed responses} *)

type err = { e_kind : string; e_msg : string }
(** Structured failure; [e_kind] is one of the stable kind names
    below. *)

val bad_request : string
val bad_api : string
val bad_phase : string
val unknown_op : string
val parse_error : string
val internal_error : string
val overloaded : string
(** A refusal for want of capacity. Neither {!Server} nor {!Router}
    answers it (a full queue blocks their readers instead); it stays a
    kind that clients and load generators recognize. *)

val degraded : string
(** The shard owning part of the answer is unavailable; the router
    refuses to return a silently partial sum. *)

type stats_reply = {
  st_packages : int;
  st_apis : int;
  st_binaries : int;
  st_installs : int;
  st_gauges : (string * float) list;
      (** host-injected point-in-time gauges: queue depth, cache
          hits/misses, shard health, ... *)
  st_hists : (string * Lapis_perf.Histogram.summary) list;
      (** per-stage latency histograms (nanoseconds) *)
}

type reply =
  | Pong
  | Stats_r of stats_reply
  | Importance_r of {
      api : string;
      phase : Query.phase;
      importance : float;
      unweighted : float;
    }
  | Completeness_r of {
      n_syscalls : int;
      phase : Query.phase;
      completeness : float;
    }
  | Partial_r of { lo : int; hi : int; num : float; den : float }
  | Top_r of Query.ranked list
  | Dependents_r of { api : string; packages : (string * float) list }

type response = { rs_id : Json.t option; rs_result : (reply, err) result }

val error_response : ?id:Json.t -> kind:string -> string -> response

(** {2 JSON codec} *)

val request_of_json : Json.t -> (request, response) result
(** Parse a typed request out of a decoded JSON value. The [Error]
    case is a ready-to-send error response (id echoed, stable kind
    and message) — field-presence and type errors are values, never
    exceptions. *)

val json_of_request : request -> Json.t
(** The canonical JSON spelling: fixed field order, the default
    phase omitted. [request_of_json (json_of_request r) = Ok r] for
    every representable request. *)

val json_of_response : response -> Json.t
(** Wire spelling: [{"id"?, "ok": true, "op": ..., fields...}] or
    [{"id"?, "ok": false, "error": {"kind", "msg"}}]. *)

val response_of_json : Json.t -> (response, string) result
(** Inverse of {!json_of_response} (dispatches on the ["op"] field). *)

(** {2 Wire bytes} *)

val canonical_key : request -> string
(** The one canonicalization point for response caches: the id-less
    request in the binary codec's payload encoding. Two requests with
    equal keys get equal responses (every op is a pure function of the
    index), regardless of field order, unknown fields, or how the
    default phase was spelled — and the key is the same whether the
    request arrived as JSON or binary. *)

val encode_response : codec -> response -> string
(** The complete response as it goes on the wire: one JSON line,
    newline included, or one binary frame. *)

val splice_id : codec -> Json.t option -> string -> string
(** [splice_id codec id (encode_response codec { r with rs_id = None })]
    is [encode_response codec { r with rs_id = id }], without encoding
    the reply again: a cached id-less answer gets each request's own
    id back. *)

(** {2 Binary codec} *)

module Bin : sig
  val magic : char
  (** ['\xB1'] — the first byte of every frame, and what routes a
      fresh connection to the binary reader. *)

  val max_frame : int
  (** Frames longer than this decode as errors (corruption guard). *)

  val frame : string -> string
  (** [magic ++ u32-LE length ++ payload]. *)

  val encode_request : request -> string
  (** A complete framed request. *)

  val encode_response : response -> string
  (** A complete framed response. *)

  val decode_request : string -> (request, string) result
  (** Decode one frame {e payload} (no magic/length); total. *)

  val decode_response : string -> (response, string) result

  val input_frame :
    in_channel -> (string, [ `Eof | `Bad of string ]) result
  (** Read one whole frame (magic, length, payload) off a channel and
      return the payload. [`Eof] only at a clean frame boundary;
      mid-frame EOF, a wrong magic byte or an oversized length are
      [`Bad] — the stream cannot be resynchronized. *)

  val input_frame_body :
    in_channel -> (string, [ `Eof | `Bad of string ]) result
  (** Same, when the magic byte has already been consumed (the
      server's codec-detection path). *)
end
