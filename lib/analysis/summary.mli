(** Parameterized function summaries — one round of interprocedural
    dataflow. When a local function performs syscall-style dispatch on
    a value that is an {e argument register at function entry} (the
    libc [syscall()] idiom, or an ioctl wrapper taking the opcode as a
    parameter), the intra-procedural result cannot name the API. The
    {!Dataflow} engine records such sites as a summary; the
    binary-level pass ({!Binary}) then resolves each summary site from
    the constant arguments found at every local call site, attributing
    the recovered APIs to the caller. *)

open Lapis_apidb

type site =
  | Syscall_nr_of of Lapis_x86.Insn.reg
      (** a syscall instruction whose number register holds the entry
          value of this argument register *)
  | Vop_code_of of Api.vector * Lapis_x86.Insn.reg
      (** a vectored call site with a known vector whose opcode
          register holds the entry value of this argument register *)

type t = site list

val empty : t
val is_empty : t -> bool

val param_of : site -> Lapis_x86.Insn.reg
(** The entry argument register a site dispatches on. *)

val resolve_site : site -> int64 list -> Footprint.t option
(** Resolve one summary site against the concrete values an argument
    register holds at a particular call site; [None] when the argument
    is not constant there (the site stays unresolved for that
    caller). *)

val pp : Format.formatter -> t -> unit
