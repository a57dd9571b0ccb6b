(** Monte-Carlo validation of the closed-form metrics: sample concrete
    installations and measure importance and completeness empirically,
    checking the package-independence assumption of Section 2.2. *)

open Lapis_apidb
module Store = Lapis_store.Store
module Rng = Lapis_distro.Rng

val empirical_importance :
  ?samples:int -> seed:int -> Store.t -> Api.t -> float
(** Fraction of sampled installations containing at least one
    dependent of the API — converges to
    {!Lapis_metrics.Importance.importance}. *)

val empirical_completeness :
  ?samples:int -> seed:int -> Store.t -> int list -> float
(** Mean fraction of installed packages whose footprints a syscall set
    covers — converges to
    {!Lapis_metrics.Completeness.of_syscall_set}. *)
