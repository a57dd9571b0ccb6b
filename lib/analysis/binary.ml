(** Whole-binary analysis: disassembles every function of an ELF
    image, analyzes each, and exposes reachability queries used by the
    cross-library resolver. Also performs the binary-wide string sweep
    for hard-coded pseudo-file paths (Section 3.4).

    Two per-function engines are available: the control-flow-blind
    {!Scan} baseline ([Linear]) and the CFG fixpoint of {!Dataflow}
    ([Dataflow], the default). In dataflow mode a second, binary-wide
    round resolves the parameterized {!Summary} sites of local wrapper
    functions from the constant arguments found at their call sites,
    attributing the recovered APIs to the callers. A summary site that
    no call site resolves counts as one unresolved syscall of the
    wrapper itself — the same accounting the linear scan applies to an
    unknown number register, so the two modes' unresolved rates are
    directly comparable. *)

open Lapis_elf

module String_set = Footprint.String_set
module Int_map = Map.Make (Int)

type mode = Linear | Dataflow

type fn_info = {
  fi_name : string;
  fi_scan : Scan.result;
  fi_phase : Dataflow.phase_result;
      (** temporal split of [fi_scan.direct], with summary-resolved
          extras folded into the region of the call site that resolved
          them; {!Dataflow.empty_phase} in [Linear] mode *)
}

type t = {
  image : Image.t;
  fns : (string, fn_info) Hashtbl.t;
  fn_by_addr : string Int_map.t;  (** function start address -> name *)
  rodata_strings : Footprint.t;  (** binary-wide pseudo-file sweep *)
  payload : Digest.t option;
      (** digest of the ELF bytes [image] was parsed from, when the
          caller knows them; {!Resolve.closure_key} needs it *)
}

(* Extract printable NUL-terminated strings from .rodata. *)
let rodata_sweep (img : Image.t) =
  let data = img.rodata in
  let n = String.length data in
  let fp = ref Footprint.empty in
  let i = ref 0 in
  while !i < n do
    (match String.index_from_opt data !i '\x00' with
     | Some stop ->
       let s = String.sub data !i (stop - !i) in
       if String.length s >= 4 && Lapis_apidb.Pseudo_files.is_pseudo_path s
       then fp := Footprint.add_pseudo s !fp;
       i := stop + 1
     | None -> i := n)
  done;
  !fp

let string_at (img : Image.t) addr =
  match Image.rodata_offset img addr with
  | None -> None
  | Some off ->
    (match String.index_from_opt img.rodata off '\x00' with
     | Some stop -> Some (String.sub img.rodata off (stop - off))
     | None -> None)

(* Decoder budget: total instructions decoded per binary, across all
   function listings. Valid binaries decode each .text byte at most
   once per covering symbol; a fuzzed symbol table can claim thousands
   of overlapping max-size functions, turning disassembly quadratic.
   The budget caps that promptly — exhaustion truncates the remaining
   listings and is counted, never silent. *)
let default_decode_fuel = 2_000_000

let analyze ?(mode = Dataflow) ?dataflow_fuel
    ?(decode_fuel = default_decode_fuel) ?payload (img : Image.t) : t =
  let fn_by_addr =
    List.fold_left
      (fun m s -> Int_map.add s.Image.sym_addr s.Image.sym_name m)
      Int_map.empty img.symbols
  in
  let resolve_code addr =
    match Int_map.find_opt addr fn_by_addr with
    | Some _ -> Some (Scan.Local_addr addr)
    | None ->
      (* A PLT stub is a jmp through a GOT slot: decode it. *)
      (match Image.text_offset img addr with
       | None -> None
       | Some off ->
         if off + 6 <= String.length img.text then
           match Lapis_x86.Decode.decode_at img.text off with
           | Lapis_x86.Insn.Jmp_mem_rip disp, 6 ->
             let got = addr + 6 + Int32.to_int disp in
             (match Image.import_via_got img got with
              | Some name -> Some (Scan.Import name)
              | None -> None)
           | _ -> None
         else None)
  in
  let ctx = { Scan.resolve_code; string_at = string_at img } in
  (* Disassemble every function into an (address, insn, length)
     listing; the decoder's lengths are what make rip-relative
     displacements exact. *)
  let listings =
    Lapis_perf.Stage.time "disassemble" (fun () ->
        let budget = ref decode_fuel in
        let exhausted = ref false in
        let out =
          List.filter_map
            (fun s ->
              match Image.text_offset img s.Image.sym_addr with
              | None -> None
              | Some off ->
                let stop =
                  min (off + s.Image.sym_size) (String.length img.text)
                in
                let insns = ref [] in
                let pos = ref off in
                while !pos < stop && !budget > 0 do
                  decr budget;
                  let insn, len = Lapis_x86.Decode.decode_at img.text !pos in
                  insns := (img.text_addr + !pos, insn, len) :: !insns;
                  pos := !pos + len
                done;
                if !pos < stop then exhausted := true;
                Some (s.Image.sym_name, List.rev !insns))
            img.symbols
        in
        if !exhausted then
          Lapis_perf.Stage.incr "fuel:decode-exhausted";
        out)
  in
  let fns = Hashtbl.create 64 in
  (match mode with
   | Linear ->
     Lapis_perf.Stage.time "linear-scan" (fun () ->
         List.iter
           (fun (name, insns) ->
             Hashtbl.replace fns name
               { fi_name = name; fi_scan = Scan.scan ctx insns;
                 fi_phase = Dataflow.empty_phase })
           listings)
   | Dataflow ->
     Lapis_perf.Stage.time "dataflow" @@ fun () ->
     let df = Hashtbl.create 64 in
     List.iter
       (fun (name, insns) ->
         Hashtbl.replace df name
           (Dataflow.analyze ?fuel:dataflow_fuel ctx insns))
       listings;
     (* Interprocedural round: resolve callee summary sites from the
        constant arguments at each local call site. APIs land in the
        caller; a site resolved anywhere is settled for good. *)
     let resolved = Hashtbl.create 16 in
     let extra = Hashtbl.create 16 in
     let add_extra name fp =
       let cur =
         Option.value ~default:Footprint.empty (Hashtbl.find_opt extra name)
       in
       Hashtbl.replace extra name (Footprint.union cur fp)
     in
     (* Phased extras: the same footprints, keyed additionally by the
        region of the call site that resolved them, so the phase pass
        can attribute a wrapper's syscalls to the caller's phase. *)
     let extra_ph = Hashtbl.create 16 in
     let add_extra_ph name region fp =
       let pre, post, mixed =
         Option.value
           ~default:(Footprint.empty, Footprint.empty, Footprint.empty)
           (Hashtbl.find_opt extra_ph name)
       in
       Hashtbl.replace extra_ph name
         (match (region : Cfg.region) with
          | Cfg.Pre -> (Footprint.union pre fp, post, mixed)
          | Cfg.Post -> (pre, Footprint.union post fp, mixed)
          | Cfg.Mixed -> (pre, post, Footprint.union mixed fp))
     in
     Hashtbl.iter
       (fun caller (r : Dataflow.result) ->
         List.iter
           (fun (callee_addr, region, args) ->
             match Int_map.find_opt callee_addr fn_by_addr with
             | None -> ()
             | Some callee ->
               (match Hashtbl.find_opt df callee with
                | None -> ()
                | Some (cr : Dataflow.result) ->
                  List.iter
                    (fun site ->
                      match List.assoc_opt (Summary.param_of site) args with
                      | None -> ()
                      | Some values ->
                        (match Summary.resolve_site site values with
                         | None -> ()
                         | Some fp ->
                           add_extra caller fp;
                           add_extra_ph caller region fp;
                           Hashtbl.replace resolved (callee, site) ()))
                    cr.Dataflow.summary))
           r.Dataflow.phase.Dataflow.ph_call_args)
       df;
     Hashtbl.iter
       (fun name (r : Dataflow.result) ->
         let direct =
           match Hashtbl.find_opt extra name with
           | Some fp -> Footprint.union r.Dataflow.direct fp
           | None -> r.Dataflow.direct
         in
         (* Summary sites nobody resolved stay unknown, charged to the
            wrapper once — mirroring the linear scan's accounting. *)
         let direct =
           List.fold_left
             (fun acc site ->
               if Hashtbl.mem resolved (name, site) then acc
               else Footprint.add_unresolved acc)
             direct r.Dataflow.summary
         in
         let phase =
           match Hashtbl.find_opt extra_ph name with
           | None -> r.Dataflow.phase
           | Some (pre, post, mixed) ->
             let ph = r.Dataflow.phase in
             { ph with
               Dataflow.ph_pre = Footprint.union ph.Dataflow.ph_pre pre;
               ph_post = Footprint.union ph.Dataflow.ph_post post;
               ph_mixed = Footprint.union ph.Dataflow.ph_mixed mixed }
         in
         Hashtbl.replace fns name
           {
             fi_name = name;
             fi_scan =
               { (Dataflow.to_scan_result r) with Scan.direct };
             fi_phase = phase;
           })
       df);
  { image = img; fns; fn_by_addr; rodata_strings = rodata_sweep img; payload }

let fn_name_at t addr = Int_map.find_opt addr t.fn_by_addr

(* Local reachability: the set of functions reachable from [start]
   through direct calls and taken function pointers, with the union of
   their direct footprints and outgoing imports. *)
type closure = {
  cl_footprint : Footprint.t;  (** direct APIs of reachable functions *)
  cl_imports : String_set.t;  (** imports called by reachable functions *)
}

let local_closure ?(follow_fnptrs = true) t ~start : closure =
  let visited = Hashtbl.create 16 in
  let fp = ref Footprint.empty in
  let imports = ref String_set.empty in
  let rec visit name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.replace visited name ();
      match Hashtbl.find_opt t.fns name with
      | None -> ()
      | Some fi ->
        fp := Footprint.union !fp fi.fi_scan.Scan.direct;
        List.iter
          (fun target ->
            match target with
            | Scan.Import imp -> imports := String_set.add imp !imports
            | Scan.Local_addr a ->
              (match fn_name_at t a with Some n -> visit n | None -> ()))
          fi.fi_scan.Scan.calls;
        if follow_fnptrs then
          List.iter
            (fun a ->
              match fn_name_at t a with Some n -> visit n | None -> ())
            fi.fi_scan.Scan.lea_code_targets
    end
  in
  visit start;
  { cl_footprint = !fp; cl_imports = !imports }

(* Entry-point function names of the binary: the e_entry function for
   executables, every exported global for shared libraries. *)
let entry_points t =
  match t.image.Image.kind with
  | Image.Exec_static | Image.Exec_dynamic ->
    (match fn_name_at t t.image.Image.entry with
     | Some n -> [ n ]
     | None -> [])
  | Image.Shared_lib ->
    List.filter_map
      (fun s -> if s.Image.sym_global then Some s.Image.sym_name else None)
      t.image.Image.symbols

let exports t =
  List.filter_map
    (fun s -> if s.Image.sym_global then Some s.Image.sym_name else None)
    t.image.Image.symbols
