(** End-to-end measurement pipeline: synthetic distribution bytes in,
    populated store out. Every binary goes through the same steps as
    the paper's tool — parse the ELF, disassemble, build the call
    graph, resolve footprints across shared libraries — and packages
    aggregate per Section 2: footprints are unions over standalone
    executables, scripts inherit their interpreter package's
    footprint. *)

type analyzed = {
  store : Store.t;
  world : Lapis_analysis.Resolve.world;
  dist : Lapis_distro.Package.distribution;
}

type analysis_cache
(** Content-hash analysis cache, three tables:
    - per-binary analysis results, keyed by a digest of the ELF bytes;
    - the classification of every file payload (ELF, script or data),
      keyed the same way. An ELF payload's class comes from the same
      parse as its analysis, so no file is parsed just to classify it;
    - each binary's resolution (resolved footprint, init and serving
      sets, and the ["phase:*"] counter increments it made), keyed by
      its {!Lapis_analysis.Resolve.closure_key}.

    Hand the same cache to successive {!run}s over releases of an
    evolving world and only the binaries whose bytes changed are
    re-analyzed, and only those whose library closure changed (their
    own bytes, a library they reach, or the dynamic linker) are
    resolved again; a reused resolution replays its phase counters.
    Analysis and classification are pure functions of the bytes and
    resolution is a pure function of the closure key, so the
    incremental result is bit-identical to a from-scratch run. A binary
    whose closure holds a library import cycle has no key and is
    resolved every run. No table evicts: a cache grows with every
    distinct payload and closure it has seen. *)

val new_cache : unit -> analysis_cache
(** A fresh, empty cache. *)

val cache_size : analysis_cache -> int
(** Distinct ELF payloads the cache holds analysis results for;
    memoized classifications of scripts and data files, and cached
    resolutions, do not count. *)

type config = {
  mode : Lapis_analysis.Binary.mode;
      (** per-function engine: the CFG dataflow default, or [Linear]
          for the control-flow-blind baseline the precision audit
          measures against *)
  cache : bool;
      (** key per-binary analysis by a digest of the ELF bytes, so
          byte-identical inputs are analyzed once and package-shipped
          copies of world libraries reuse the world's analysis, and
          reuse a resolution for binaries with equal closure keys
          (counted under ["resolve:reused"]). The resulting footprints
          are identical to an uncached run (checked by the test
          suite): with [false] every file occurrence is parsed,
          analyzed and resolved on its own, the uncached reference. *)
  domains : int option;
      (** cap on the domains used for the per-binary analysis fan-out
          ([None]: the runtime's recommended count; the loop degrades
          to sequential on single-core hosts). The world's libraries
          and the package files share one parse-and-analyze pass.
          Aggregation and cross-library resolution always run
          sequentially. *)
  decode_fuel : int option;
      (** per-binary instruction-decode budget ([None]: the
          {!Lapis_analysis.Binary} default) *)
  shared_cache : analysis_cache option;
      (** carry this cache across runs (implies [cache = true]). Each
          distinct payload the run touches is counted once into the
          ["incremental:hits"] (analyzed by a previous run) or
          ["incremental:misses"] (analyzed by this run) Stage
          counters — the cross-release reuse ratio. *)
}

val default : config
(** Dataflow engine, caching on, automatic domain count, default
    fuel. Override single fields: [{ Pipeline.default with mode = Linear }]. *)

val run : ?config:config -> Lapis_distro.Package.distribution -> analyzed
(** Analyze a distribution under [config] (default: {!default}).

    Robustness: a binary that fails to parse — or whose analysis
    raises — is quarantined, not fatal: it is skipped and counted per
    error kind in [world.stats.rejects] (mirrored into the
    ["reject:<kind>"] Stage counters the bench JSON reports). A clean
    corpus reports zero rejects. *)

val quarantined : analyzed -> int
(** Total binaries the run rejected and skipped, summed over
    [world.stats.rejects]. Zero on a clean corpus. *)

type mismatch = {
  mm_package : string;
  mm_missing : Lapis_apidb.Api.t list;
      (** in the generator's ground truth, not recovered *)
  mm_extra : Lapis_apidb.Api.t list;
      (** recovered, but never planted (e.g. dead code leaking in) *)
}

val spot_check : analyzed -> mismatch list
(** The automated Section 2.3 spot check: compare the analyzer's
    ELF-derived package footprints against the generator's ground
    truth. An empty list means static analysis recovered every
    footprint exactly. *)
