(** Section 6 footprint statistics and seccomp policy generation. *)

open Lapis_apidb
module Store = Lapis_store.Store

type stats = {
  applications : int;  (** executables considered *)
  distinct_footprints : int;
      (** number of distinct system-call footprints among them *)
  unique_footprints : int;
      (** footprints belonging to exactly one application — the paper
          measures roughly a third of all applications *)
}

val of_store : Store.t -> stats
(** Footprint statistics over every ELF executable in the store. *)

val seccomp_policy : Api.Set.t -> string
(** Render a seccomp-bpf-style allow-list for a footprint: one allow
    line per system call, [default kill] at the end (the Section 6
    application of the data set). *)
