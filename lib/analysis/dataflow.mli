(** CFG-based abstract interpretation of one function.

    This replaces the linear {!Scan} pass for footprint extraction: a
    worklist fixpoint over the basic-block graph of {!Cfg}, with a
    flat constant lattice lifted to bounded constant {e sets} (the
    k-limited disjunctive completion), so a register set to different
    immediates on the two arms of a branch still resolves to both
    values at the merged system call site instead of collapsing to
    unknown. Register-to-register moves propagate values, and SysV
    argument registers at function entry are tracked symbolically: a
    system call dispatched on such a value becomes a {!Summary.site}
    resolved at each call site by {!Binary}. Everything is collected
    from reachable blocks only, so jump-over code islands neither
    pollute register state nor leak phantom APIs. *)

val max_consts : int
(** Widening bound of the constant-set domain: joins whose merged set
    would exceed it collapse to {!Top}. *)

type value =
  | Consts of int64 list  (** sorted, distinct, at most {!max_consts} *)
  | Addr of int  (** rip-relative materialized address *)
  | Param of Lapis_x86.Insn.reg
      (** the value this register held at function entry *)
  | Top

val const : int64 -> value
val join_value : value -> value -> value

type phase_result = {
  ph_has_loop : bool;
      (** the function contains a loop head — a candidate phase
          transition point *)
  ph_pre : Footprint.t;  (** items recorded in [Cfg.Pre] blocks *)
  ph_post : Footprint.t;  (** items recorded in [Cfg.Post] blocks *)
  ph_mixed : Footprint.t;  (** items recorded in [Cfg.Mixed] blocks *)
  ph_calls : (Scan.call_target * Cfg.region) list;
      (** direct call edges tagged with their block's region *)
  ph_call_args :
    (int * Cfg.region * (Lapis_x86.Insn.reg * int64 list) list) list;
      (** [local_call_args] with each site's region — same sites, same
          order *)
}
(** Temporal attribution of one function's recordings, keyed by the
    {!Cfg.region} of the block each item was found in. The totals in
    [result.direct]/[result.calls] are untouched: the phase split is a
    refinement carried alongside, never a replacement. *)

val empty_phase : phase_result

type result = {
  direct : Footprint.t;
      (** APIs resolved from this function's own instructions *)
  calls : Scan.call_target list;  (** direct call edges *)
  lea_code_targets : int list;
      (** lea-taken code addresses (reachable blocks only) *)
  summary : Summary.t;
      (** syscall/vectored sites dispatched on an entry argument *)
  local_call_args : (int * (Lapis_x86.Insn.reg * int64 list) list) list;
      (** per local call site: callee address and the constant values
          of the argument registers at the call — the inputs the
          binary-level pass feeds into callee summaries *)
  phase : phase_result;
      (** temporal split of the recordings above (see {!Phase}) *)
  fuel_exhausted : bool;
      (** the fixpoint stopped at its transfer budget: the recorded
          states are a sound snapshot of an unfinished iteration, so
          the footprint may under-approximate (counted, never silent) *)
}

val analyze :
  ?fuel:int -> Scan.context -> (int * Lapis_x86.Insn.t * int) list -> result
(** Run the fixpoint over one function's decoded instructions
    ((address, instruction, length) triples in address order). *)

val to_scan_result : result -> Scan.result
(** Project onto the linear scanner's result type, for call sites that
    are agnostic to which engine produced the footprint. *)
