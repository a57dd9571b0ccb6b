(** In-memory relational store over the analysis results — the OCaml
    replacement for the paper's PostgreSQL database (Section 7). Rows
    exist for packages and binaries; the API-dependents index supports
    the recursive aggregation queries behind every experiment.

    The record types are deliberately transparent: the metrics and
    study layers read rows directly. Mutation, however, goes through
    {!build} only — a store is immutable once built, which is what
    lets {!Lapis_query} precompute indexes over it and
    {!Snapshot} serialize it without coherence concerns. *)

open Lapis_apidb
module Footprint = Lapis_analysis.Footprint

type bin_row = {
  br_path : string;
  br_package : string;
  br_class : Lapis_elf.Classify.t;
  br_digest : Digest.t;  (** MD5 of the file bytes, the snapshot-lookup key *)
  br_direct : Footprint.t;  (** intra-binary footprint *)
  br_resolved : Footprint.t;  (** after cross-library closure *)
  br_init : Api.Set.t;  (** APIs requestable during initialization *)
  br_serving : Api.Set.t;
      (** APIs requestable while serving; [br_init] and [br_serving]
          partition [br_resolved.apis] with overlap — their union is
          exactly it, and phase-agnostic binaries carry it in both *)
}

type pkg_row = {
  pr_name : string;
  pr_installs : int;
  pr_prob : float;  (** install probability from popcon counts *)
  pr_deps : string list;
  pr_essential : bool;
  pr_apis : Api.Set.t;  (** package footprint incl. script inheritance *)
  pr_apis_elf : Api.Set.t;  (** footprint from its own ELF executables only *)
  pr_init : Api.Set.t;  (** init-phase slice of [pr_apis] *)
  pr_serving : Api.Set.t;
      (** serving-phase slice of [pr_apis]; the union of the two is
          exactly [pr_apis] (script-inherited APIs count as both) *)
}

type t = {
  packages : pkg_row array;
  pkg_index : (string, int) Hashtbl.t;  (** package name -> array index *)
  bins : bin_row list;
  api_dependents : int list Api.Tbl.t;  (** api -> indexes of packages *)
  total_installs : int;
  n_packages : int;
}

val find : t -> string -> pkg_row option

val dependents : t -> Api.t -> int list
(** Indexes of the packages whose footprint contains the API. *)

val dependent_rows : t -> Api.t -> pkg_row list

val used_apis : t -> Api.t list
(** Every API with at least one dependent package (unordered). *)

val iter_packages : t -> (pkg_row -> unit) -> unit

val build :
  packages:pkg_row list -> bins:bin_row list -> total_installs:int -> t
(** Build the store and its API-dependents index. Package order is
    preserved into the row array (and is the order every aggregate
    metric folds in, so results are reproducible bit for bit). *)
