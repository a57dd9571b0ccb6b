(** Cross-library footprint resolution (Section 7): for each library
    function an executable relies on, identify the code reachable from
    that entry point in the defining library, recursively through
    further library calls, and aggregate the results. *)


type stats = {
  mutable ld_computations : int;
      (** times the dynamic linker's closure was actually resolved
          (expected: at most 1 per world) *)
  mutable memo_hits : int;
      (** {!export_footprint} calls served from the memo table *)
  mutable memo_misses : int;
      (** {!export_footprint} calls that resolved a closure *)
  mutable rejects : (string * int) list;
      (** quarantined binaries per error kind
          ({!Lapis_elf.Reader.kind_name}, plus "analysis-crash" for
          contained analyzer exceptions), filled in by
          {!Lapis_store.Pipeline.run}; empty on a clean corpus *)
}

type key_state =
  | Keying  (** the library's imports are being hashed right now *)
  | Keyed of Digest.t option  (** its key; [None]: no key *)

type world = {
  libs : (string, Binary.t) Hashtbl.t;  (** soname -> analyzed library *)
  ld_so : Binary.t option;  (** the dynamic linker, if modelled *)
  libc_family : string -> bool;
      (** is this soname part of the C runtime? imports resolving into
          it count as libc-API usage of the importer *)
  def_lib : string -> string option;  (** symbol -> defining soname *)
  memo : (string, Footprint.t) Hashtbl.t;
  in_progress : (string, unit) Hashtbl.t;  (** cycle guard *)
  union_cache : (string, Footprint.t) Hashtbl.t;
      (** pre-unioned import-set footprints keyed by canonical set:
          executables of a package share import sets, so the expensive
          per-import union runs once per distinct set *)
  mutable ld_so_fp : Footprint.t option;
      (** once-per-world cache of the dynamic linker's own footprint *)
  lib_keys : (string, key_state) Hashtbl.t;
      (** once-per-world memo of {!closure_key}'s library keys *)
  import_keys : (string, string option) Hashtbl.t;
      (** once-per-world memo of what {!closure_key} records for an
          import name *)
  stats : stats;  (** resolution-effort counters, for tests and tuning *)
}

val make_world :
  ?ld_so:Binary.t ->
  libc_family:(string -> bool) ->
  (string * Binary.t) list ->
  world

val export_footprint : world -> string -> string -> Footprint.t
(** [export_footprint world soname name] is the transitive footprint
    of calling [name] in [soname]: the direct APIs of every reachable
    local function, unioned with the resolved footprints of every
    import those functions make. Memoized; cycles yield the empty
    footprint at the back-edge. *)

val binary_footprint : world -> Binary.t -> Footprint.t
(** The full resolved footprint of one binary: entry-point closure
    (e_entry for executables, every export for libraries), the
    binary-wide pseudo-file sweep, and — for dynamically-linked
    executables — the dynamic linker's startup work. Imports that
    resolve into the C runtime are additionally recorded as
    {!Lapis_apidb.Api.Libc_sym} usage. *)

val closure_key : world -> Binary.t -> Digest.t option
(** A key for everything {!binary_footprint} and {!phased_footprint}
    read about [bin]: a Merkle hash over the library import graph of
    - its payload digest ({!Binary.t.payload}), which also fixes the
      import names its analysis can meet (its [plt_got] names);
    - for each of those names, the soname [def_lib] gives it, that
      soname's [libc_family] bit and that library's own key (a
      library's key hashes its soname, that bit, its payload and its
      imports the same way, recursively);
    - whether [bin] is part of the C runtime, and whether it is the
      world's own library under its soname;
    - the dynamic linker's payload and imports when [bin] has
      [PT_INTERP].

    Invariant: two binaries with equal keys, in the same world or in
    two different ones, have identical resolved and phased footprints
    and bump the ["phase:*"] counters by the same amounts. That is
    what lets a caller reuse a resolution across releases.

    Cycle rule: [None] when the closure holds a library-level import
    cycle (a library importing its own export included), and for a
    binary whose payload is unknown. A cycle is the only place
    [export_footprint]'s cut makes a memo entry depend on resolution
    order, so such a binary must be resolved afresh. *)

val phased_footprint :
  world ->
  Binary.t ->
  total:Footprint.t ->
  Lapis_apidb.Api.Set.t * Lapis_apidb.Api.Set.t
(** [(init, serving)] — the temporal split of [total] (which must be
    the binary's {!binary_footprint}) per the {!Phase} attribution:
    APIs requestable during initialization versus while serving. The
    invariant [init ∪ serving == total.apis] holds bit-for-bit: items
    the walk cannot place (rodata sweep strings, unresolved dispatch)
    are re-widened into both phases and counted under the
    ["phase:widened"] stage counter; binaries with no transition point
    return [(total, total)] and count under ["phase:no-transition"]. *)

val direct_footprint : Binary.t -> Footprint.t
(** What the binary's own instructions request, before any library
    resolution — the "who issues this call directly" attribution
    behind Tables 1 and 5. *)
