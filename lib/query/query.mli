(** Indexed compatibility query engine.

    {!index} precomputes, from an immutable {!Lapis_store.Store.t}:
    per-API survival products (O(1) importance), per-SCC packed
    closure requirement {!Lapis_perf.Bitset}s (arbitrary-subset
    weighted completeness as one word-wise subset test per component
    plus a gated linear sweep), and the Section 3 syscall ranking.
    All results are designed to be bit-identical to the closed-form
    oracles in {!Lapis_metrics} — same fold orders, same comparators —
    and the test suite holds them to [<= 1e-12].

    An index is cheap relative to analysis (milliseconds), built with
    a deterministic {!Lapis_perf.Parmap} fan-out, and fully immutable
    afterwards: evaluation allocates its own scratch per call, so one
    index may be queried concurrently from any number of domains —
    which is what the TCP worker pool in {!Server} does.

    Every metric takes an optional {!phase}: [Init] and [Serving]
    evaluate against the temporal requirement sets attributed by
    {!Lapis_analysis.Phase} (packed into their own closure classes and
    survival products at build time), while the default [All] walks
    the exact structures an unphased build produces — so existing
    callers see bit-identical results. *)

open Lapis_apidb

type t
(** The immutable index. Safe to share across domains. *)

type phase = Init | Serving | All
(** Which temporal requirement set a query evaluates against: the
    APIs packages need during initialization ([Init]), while serving
    ([Serving]), or their union — the whole footprint ([All], the
    default everywhere). Since [init ∪ serving = total] per package,
    phase-filtered completeness is always [>=] the unfiltered value:
    the phased requirement sets are subsets of the total. *)

val phase_to_string : phase -> string
(** ["init"], ["serving"], ["all"] — the serve-protocol / CLI names. *)

val phase_of_string : string -> (phase, string) result
(** Inverse of {!phase_to_string}; [""] means [All]. *)

type ranked = {
  rk_nr : int;
  rk_name : string;
  rk_importance : float;
  rk_unweighted_elf : float;  (** the plateau tie-breaker of Section 3 *)
}

val index : ?domains:int -> Lapis_store.Store.t -> t
(** Build the index (timed under the ["query:index-build"] stage).
    [domains] caps the construction fan-out (default: all); the
    result is bit-identical for every value of it. The index captures
    everything it answers from — dependents, per-binary footprints,
    store meta — so the store itself is not retained. *)

val n_packages : t -> int

val n_apis : t -> int
(** Distinct APIs appearing in any package footprint. *)

val n_components : t -> int
(** Strongly connected components of the dependency graph — the
    number of subset tests one completeness query costs. *)

val n_binaries : t -> int
(** Binary rows carried for the seccomp generator. *)

val total_installs : t -> int
(** The popcon denominator of the producing world. *)

val is_mapped : t -> bool
(** True when the numeric planes alias a mapped format-4 image. *)

val slice_lo : t -> int
val slice_hi : t -> int
(** The global package range [slice_lo, slice_hi) this index's
    per-package planes cover. A full index (every build, every
    unsliced image) covers [0, {!n_packages}). On a range-sliced
    image ({!to_image_string} with [~range]) only queries touching
    in-slice packages see them: {!eval_syscalls_partial} over an
    in-slice range is bit-identical to the full image, point metrics
    (importance, survival, ranking) are whole-world exact, and
    {!dependents_ranked} lists in-slice packages only. *)

val is_sliced : t -> bool
(** [slice_lo t > 0 || slice_hi t < n_packages t]. *)

val image_seed : t -> int
val image_source_key : t -> string
(** The generator identity recorded in the image this index was
    mapped from ([0] / [""] for a fresh build) — pass them back to
    {!save_image} when re-slicing so a slice keeps its source's
    identity. *)

val importance : ?phase:phase -> t -> Api.t -> float
(** Appendix A.1 importance, O(1): [1 - prod(1 - p)] over dependent
    packages. Zero for APIs no package uses. With [~phase], the
    product runs over the packages whose phase requirement set has
    the API — "how much breaks {e in this phase} without it". *)

val survival : ?phase:phase -> t -> Api.t -> float
(** The stored product [prod(1 - p)] itself ([1.0] for unused APIs). *)

val unweighted : t -> Api.t -> float
(** Fraction of packages whose footprint contains the API. *)

val unweighted_elf : t -> Api.t -> float
(** Same, counting only the packages' own ELF executables. *)

val ranking : t -> int list
(** Syscall numbers, most important first — the Section 3 order,
    identical to {!Lapis_metrics.Importance.rank_syscalls}. *)

val top_n : t -> int -> ranked list
(** First [n] of {!ranking} with their metric values attached. *)

val dependents_ranked : ?limit:int -> t -> Api.t -> (string * float) list
(** Packages requiring the API, highest install probability first
    (name order on ties). *)

type scope = Syscalls_only | All_apis
(** Mirrors {!Lapis_metrics.Completeness.scope} (the metrics layer
    sits above this one, so the type is re-declared here). *)

val eval_pred :
  ?scope:scope -> ?phase:phase -> t -> supported:(Api.t -> bool) -> float
(** Weighted completeness of the support predicate, dependency rule
    included — one packed subset test per component. Default scope
    [All_apis], default phase [All]. *)

val eval_syscalls : ?phase:phase -> t -> int list -> float
(** Weighted completeness of a syscall-number set
    ([scope = Syscalls_only]), on the specialized hot path. With the
    default phase, equal to
    {!Lapis_metrics.Completeness.of_syscall_set}, bit for bit; with
    [Init]/[Serving], a package counts as supported when its
    phase-restricted dependency closure fits the set. Each call bumps
    one counter: ["query:eval-gated"] when the set misses a syscall of
    the universal core (every package's closure needs it, so the
    answer is 0.0 without a class test), ["query:eval"] otherwise. *)

val shard_ranges : int -> int -> (int * int) list
(** [shard_ranges n shards]: the contiguous [(lo, hi)] package-range
    partition of [0, n) a fleet router scatters a completeness query
    over (clamped to at most [n] non-empty ranges, in order, covering
    [0, n)). *)

val eval_syscalls_partial :
  ?phase:phase -> t -> int list -> lo:int -> hi:int -> float * float
(** [(partial numerator over packages [lo, hi), world denominator)] —
    the shard side of a scattered completeness query. The component
    subset tests run whole (they are range-independent); the
    probability sweep covers only the clamped range, in the oracle's
    fold order. Summing the partials of a range partition in range
    order and dividing by the (shared) denominator — the router's
    merge — is within accumulation noise ([<= 1e-12] in the test
    suite) of {!eval_syscalls}: the regrouped float additions are the
    only difference. The denominator lets a gatherer assert every
    shard evaluated the same world. *)

val api_to_string : Api.t -> string
(** Stable textual form: [syscall:read], [ioctl:21505],
    [pseudo:/proc/self/stat], [libc:qsort], ... *)

val api_of_string : string -> (Api.t, string) result
(** Inverse of {!api_to_string}; also accepts bare syscall names or
    numbers ([read], [42]). *)

(** {2 Per-binary footprints}

    Carried by the index for the seccomp generator (digest-keyed
    lookup of a binary's phased API sets). On a mapped image these
    decode lazily from the varint bins section on first use — from
    one thread; the serving hot paths never touch them. *)

type bin_sets = {
  bs_digest : Digest.t;
  bs_all : Api.Set.t;  (** the binary's whole resolved footprint *)
  bs_init : Api.Set.t;
  bs_serving : Api.Set.t;
}

val bins : t -> (bin_sets array, Lapis_store.Snapshot.error) result
(** Every binary row. [Error] only on a mapped image whose bins
    section is corrupt (the sections the queries run on are validated
    at load; this one is validated on first decode). *)

val find_bin :
  t -> Digest.t -> (bin_sets option, Lapis_store.Snapshot.error) result
(** The row for a binary's content digest, if any. *)

(** {2 Format-4 index images}

    A built index serialized flat — little-endian, 8-aligned,
    section-tabled — so serving processes map it read-only
    ({!load_image}) and answer queries in place with zero decode,
    bit-identically to a freshly built index. Shares the [LAPISNAP]
    header discipline and {!Lapis_store.Snapshot.error} taxonomy with
    row snapshots; {!Lapis_store.Snapshot.file_version} routes a path
    to the right loader. *)

val image_version : int
(** 4 — the version word distinguishing index images from the
    decode-and-build row snapshot formats 1–3. *)

val to_image_string : ?seed:int -> ?source_key:string -> ?range:int * int -> t -> (string, Lapis_store.Snapshot.error) result
(** Serialize to the image wire format. [seed]/[source_key] stamp the
    producing world's identity into the meta section (defaults [0] /
    [""]). [~range:(lo, hi)] writes a {b range-sliced} image: the
    per-package planes (probs, names, class maps, dependents CSR)
    cover only [lo, hi) of the global package order, while the shared
    per-API planes, class rows and denominator are written whole — a
    shard mapping such a slice answers partial sweeps over in-slice
    ranges bit-identically to the full image at roughly [1/N] the
    mapped bytes. Proper slices drop the per-binary rows. The range
    must lie within the source's own slice (raises
    [Invalid_argument] otherwise); the default writes the source's
    full coverage. [Error] only if a mapped source's bins section is
    corrupt. *)

val save_image : ?seed:int -> ?source_key:string -> ?range:int * int -> string -> t -> (unit, Lapis_store.Snapshot.error) result

val of_image : ?verify:bool -> string -> (t, Lapis_store.Snapshot.error) result
(** Decode an image from memory (the fuzz harness's entry point; the
    payload is copied into fresh backing stores). Total: truncation,
    bit flips, unaligned or out-of-bounds section offsets all come
    back as structured errors, never an exception or a wild read.
    [verify] (default true) checks the payload MD5 — pass [false] to
    exercise the structural validators on flipped payloads. *)

val load_image : ?verify:bool -> string -> (t, Lapis_store.Snapshot.error) result
(** Map an image file read-only ([Unix.map_file]) and validate every
    section offset, length, plane width and cross-reference up front;
    the returned index answers queries straight from the mapping.
    [verify] (default true) streams the payload once to check the MD5
    — skipping it makes loading O(validation), not O(file). Timed
    under the ["image-load"] stage. *)
