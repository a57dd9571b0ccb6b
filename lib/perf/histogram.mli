(** Log-bucketed latency histograms for the serving layer, extending
    the {!Stage} timer/counter registry with distribution shape: a
    stage timer tells you the total and the mean, a histogram tells
    you p50/p95/p99 and the tail — which is what the fleet's SLO gate
    measures under load.

    Buckets are power-of-two ranges split into 16 linear sub-buckets
    (HDR-style), so any observation lands within 1/16 (~6.25%)
    relative error of its bucket's representative value, with a fixed
    1 KiB footprint per histogram regardless of range. Observations
    are non-negative integers — nanoseconds by convention everywhere
    in this codebase.

    Each histogram carries its own mutex, so worker domains and
    reader threads observe concurrently; {!merge_into} lets per-shard
    histograms aggregate at the router. A process-wide registry
    ({!observe}, {!all}) mirrors {!Stage}'s counters: the TCP server
    records queue-wait / eval / total latency under stable names and
    the [stats] protocol op reports every registered histogram. *)

type t

val create : unit -> t
(** An empty histogram (all counts zero). *)

val observe : t -> int -> unit
(** Record one observation ([v >= 0]; negatives clamp to 0). *)

val count : t -> int
(** Observations recorded so far. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [[0,1]]: the representative value of the
    bucket holding the [ceil (q * count)]-th smallest observation,
    clamped to the exact observed [[min, max]]. [0.0] when empty. *)

val merge_into : into:t -> t -> unit
(** Add every bucket of the source into [into] (source unchanged). *)

type summary = {
  h_count : int;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_max : float;
}
(** The fixed percentile set the serve protocol's [stats] op reports
    (values in the unit observed — nanoseconds for the registry). *)

val summary : t -> summary

(** {2 Process-wide registry}

    Named histograms, created on first use, reported in first-seen
    order — the same discipline as {!Stage} counters. *)

val observe_ns : string -> int -> unit
(** Record into the registry histogram of that name. *)

val find : string -> t option
(** The registered histogram, if any observation named it yet. *)

val all : unit -> (string * summary) list
(** Every registered histogram's summary, first-seen order. *)

val reset : unit -> unit
(** Drop every registered histogram (tests and bench reruns). *)
