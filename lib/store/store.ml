(** In-memory relational store over the analysis results — the OCaml
    replacement for the paper's PostgreSQL database (Section 7). Rows
    exist for packages and binaries; the API-dependents index supports
    the recursive aggregation queries behind every experiment. *)

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
  pkg_index : (string, int) Hashtbl.t;
  bins : bin_row list;
  api_dependents : int list Api.Tbl.t;  (** api -> indexes of packages *)
  total_installs : int;
  n_packages : int;
}

let find t name = Hashtbl.find_opt t.pkg_index name |> Option.map (fun i -> t.packages.(i))

let dependents t api =
  Option.value ~default:[] (Api.Tbl.find_opt t.api_dependents api)

let dependent_rows t api = List.map (fun i -> t.packages.(i)) (dependents t api)

(* Every API with at least one dependent package. *)
let used_apis t =
  Api.Tbl.fold (fun api _ acc -> api :: acc) t.api_dependents []

let iter_packages t f = Array.iter f t.packages

let build ~(packages : pkg_row list) ~(bins : bin_row list) ~total_installs =
  let arr = Array.of_list packages in
  let idx = Hashtbl.create (Array.length arr) in
  Array.iteri (fun i p -> Hashtbl.replace idx p.pr_name i) arr;
  (* Accumulate into list refs so each (package, api) pair costs one
     table lookup instead of a find-and-replace pair: this loop runs
     over every API of every package and dominates store build time. *)
  let acc_tbl = Api.Tbl.create 4096 in
  Array.iteri
    (fun i p ->
      Api.Set.iter
        (fun api ->
          match Api.Tbl.find_opt acc_tbl api with
          | Some r -> r := i :: !r
          | None -> Api.Tbl.add acc_tbl api (ref [ i ]))
        p.pr_apis)
    arr;
  let deps_tbl = Api.Tbl.create (Api.Tbl.length acc_tbl) in
  Api.Tbl.iter (fun api r -> Api.Tbl.replace deps_tbl api !r) acc_tbl;
  {
    packages = arr;
    pkg_index = idx;
    bins;
    api_dependents = deps_tbl;
    total_installs;
    n_packages = Array.length arr;
  }
