(** Versioned binary snapshots of an analyzed world.

    A snapshot captures everything downstream layers consume — the
    {!Store.t} rows (packages, binaries, footprints, popcon weights)
    and the pipeline's quarantine counters — so the expensive
    analyze phase runs once and every later [lapis query] /
    [lapis serve] / report invocation starts from a file load.

    Wire format (all integers little-endian):

    {v
      offset  size  field
      0       8     magic "LAPISNAP"
      8       4     format version (u32)
      12      16    MD5 of the payload
      28      8     payload length (u64)
      36      -     payload (zigzag-LEB128 varints, raw strings,
                    IEEE-754 float bit patterns)
    v}

    Decoding never raises: anything other than a well-formed
    current-version snapshot comes back as a structured {!error}
    (same taxonomy discipline as {!Lapis_elf.Reader}). *)

val magic : string

val format_version : int
(** Version of full row snapshots (6), the only row format this build
    reads or writes: the earlier row formats 1–3 decode to
    [Unsupported_version]. *)

val delta_version : int
(** Version of delta snapshots (5): decodable only against the base
    snapshot they name by digest — see {!apply_delta}. *)

val image_version : int
(** Version owned by the query engine's mmap-able index image (4):
    shares the header discipline but is not decoded by this module. *)

type meta = {
  version : int;  (** format version the file was written with *)
  seed : int;  (** generator seed the corpus came from *)
  n_packages : int;  (** actual package rows in the store *)
  total_installs : int;
  source_key : string;
      (** hex digest of the generator identity (requested package
          count, seed, popcon total, evolution release): the snapshot
          invalidation rule — regenerate when the key a config would
          produce differs from the one stored. Keyed by the
          {e requested} count because small corpora are padded up to
          the generator's fixed roster. *)
  release : int;
      (** evolution release the snapshotted world was at; every row
          and delta format this build reads carries it *)
}

type t = {
  meta : meta;
  store : Store.t;
  rejects : (string * int) list;
      (** quarantine counters of the producing run, [(kind, count)] *)
}

type error =
  | Not_snapshot  (** magic bytes absent: not a snapshot file at all *)
  | Unsupported_version of int  (** written by an incompatible format *)
  | Truncated of string  (** ran out of bytes decoding the named field *)
  | Digest_mismatch  (** payload bytes do not match the stored MD5 *)
  | Corrupt of string  (** structurally invalid despite a good digest *)
  | Io of string  (** file system error from {!save}/{!load} *)
  | Needs_base of string
      (** a delta snapshot reached a standalone decoder; carries the
          hex digest of the base it needs *)
  | Base_mismatch of string * string
      (** delta applied against the wrong base:
          [(expected_hex, got_hex)] *)

val kind_name : error -> string
(** Stable machine-readable kind, mirroring the reader taxonomy
    (["not-snapshot"], ["truncated"], ...). *)

val pp_error : Format.formatter -> error -> unit

val source_key :
  ?release:int ->
  seed:int ->
  n_packages:int ->
  total_installs:int ->
  unit ->
  string
(** The invalidation key for a generator identity. [release] (default
    0) is the evolution epoch; the release-0 key is byte-identical to
    the key this build always produced, so every existing format 1–4
    file keeps matching its world. *)

val of_analyzed : Pipeline.analyzed -> t
(** Snapshot a pipeline result (shares the store, copies nothing). *)

val matches : ?release:int -> t -> Lapis_distro.Generator.config -> bool
(** Would [config], evolved to [release] (default 0), regenerate the
    world this snapshot holds? False means the snapshot is stale for
    that configuration — in particular, an evolved world never matches
    its release-0 ancestor. *)

val to_string : t -> string
(** Serialize to the wire format. *)

val of_string : string -> (t, error) result
(** Decode and rebuild the store (hash indexes are re-derived, so the
    result is indistinguishable from the pipeline's own store). Total:
    corrupt input yields [Error], never an exception. *)

val save : string -> t -> (unit, error) result
val load : string -> (t, error) result
(** [load] times itself under the ["snapshot-load"] {!Lapis_perf.Stage}. *)

val to_delta_string : base:t -> t -> string
(** Serialize [cur] as a format-5 delta against [base]: the base's
    digest plus positional row instructions ([keep i] for rows the
    base already holds, full rows otherwise). Applying the delta to
    the same base reproduces [cur]'s serialization byte for byte;
    rows untouched between releases make the delta orders of
    magnitude smaller than {!to_string}.

    A row is kept when it equals a base row field for field (floats by
    bit pattern, sets by membership). Cost: a hash and an equality
    check per row, serialization of the changed rows only, plus one
    serialization of [base] to digest it — memoized for the last base
    value, so a stream of deltas against one base pays it once. The
    memo keys on physical identity, which is sound because a snapshot
    and its store are never mutated after construction. *)

val apply_delta : base:t -> string -> (t, error) result
(** Decode a format-5 delta against its base. Total like
    {!of_string}; a wrong base yields [Base_mismatch], a non-delta
    input [Unsupported_version], and out-of-range keep instructions
    [Corrupt]. Cost: decoding the delta's changed rows and rebuilding
    the store, plus the same memoized base digest as
    {!to_delta_string}. *)

val save_delta : string -> base:t -> t -> (unit, error) result

val load_delta : string -> base:t -> (t, error) result
(** [load_delta] times itself under ["snapshot-load"], like {!load}. *)

val file_version : string -> (int, error) result
(** Read just the magic and version word of a file — the router that
    distinguishes decode-and-build row snapshots (version 6)
    from format-4 index images (loaded by the query engine's mapped
    loader) and format-5 deltas (decoded by {!apply_delta} against
    their base). *)

(** The primitive wire codecs (zigzag-LEB128 varints, length-prefixed
    strings, IEEE-754 float bit patterns, API tags), shared with the
    format-4 index image's metadata sections. Readers raise {!Wire.Fail}
    carrying the same structured {!error} taxonomy; writers append to a
    [Buffer.t]. *)
module Wire : sig
  type cursor = { buf : string; mutable pos : int; stop : int }

  exception Fail of error

  val w_varint : Buffer.t -> int -> unit
  val w_int : Buffer.t -> int -> unit
  val w_str : Buffer.t -> string -> unit
  val w_float : Buffer.t -> float -> unit
  val w_api : Buffer.t -> Lapis_apidb.Api.t -> unit

  val cursor : ?pos:int -> ?stop:int -> string -> cursor
  (** A cursor over [buf] from [pos] (default 0) to [stop] (default
      the end). *)

  val r_byte : cursor -> string -> int
  val r_varint : cursor -> string -> int
  val r_int : cursor -> string -> int
  val r_str : cursor -> string -> string
  val r_float : cursor -> string -> float
  val r_api : cursor -> Lapis_apidb.Api.t
end
