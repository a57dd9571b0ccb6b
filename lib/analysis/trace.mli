(** Dynamic system call tracing — the strace analogue (Section 2.3).

    Executes a binary by interpreting the decoded instruction stream:
    concrete register file, call stack, cross-library control
    transfers through the PLT. Records every system call, vectored
    opcode, pseudo-file reference and symbol import the program
    actually performs along its (single, concrete) execution path. *)

open Lapis_apidb

type limits = { max_steps : int; max_depth : int }

type outcome =
  | Finished  (** the program returned from its entry point *)
  | Step_limit
  | Depth_limit
  | Wild_jump of int  (** control reached an address outside any code *)

type result = {
  footprint : Footprint.t;  (** everything observed during execution *)
  steps : int;  (** instructions executed *)
  outcome : outcome;
}

val run : ?limits:limits -> Resolve.world -> Binary.t -> result
(** Execute [bin] from its entry point within [world]'s shared
    libraries. *)

val static_misses : Resolve.world -> Binary.t -> Api.Set.t
(** The paper's spot-check containment, inverted: system calls,
    pseudo-files and libc symbols observed dynamically that static
    analysis failed to predict (expected: empty). Vectored opcodes are
    excluded from the comparison — a concrete run can issue a vectored
    call with whatever value the opcode register happens to hold,
    which is input-dependent and invisible to any static analysis. *)
