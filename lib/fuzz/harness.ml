(** Mutational fuzz harness for the binary-ingestion path.

    Drives [Reader.parse -> Binary.analyze -> Resolve -> Trace] over
    seeded mutations of writer-produced ELFs, asserting the robustness
    contract the paper's tool needed across 66,275 real binaries:
    every input terminates promptly with [Ok] or a structured
    [Error] — never an uncaught exception, out-of-bounds read, or
    hang. A campaign is a pure function of its configuration, so any
    crash replays from the printed seed. *)

module Rng = Lapis_distro.Rng
module Reader = Lapis_elf.Reader
module Binary = Lapis_analysis.Binary
module Resolve = Lapis_analysis.Resolve
module Trace = Lapis_analysis.Trace
module Stage = Lapis_perf.Stage
module P = Lapis_distro.Package

type config = {
  seed : int;  (** campaign seed; printed so failures replay *)
  cases : int;  (** mutated inputs to run *)
  base_packages : int;  (** size of the generated seed corpus *)
}

let default_config = { seed = 0xF00D; cases = 1_000; base_packages = 25 }

type crash = {
  c_case : int;  (** case index, for replay *)
  c_kinds : string list;  (** mutation stack that produced the input *)
  c_exn : string;
  c_backtrace : string;
}

type report = {
  r_seed : int;
  r_cases : int;
  r_ok : int;  (** parsed and analyzed to completion *)
  r_rejected : (string * int) list;  (** per {!Reader.kind_name} *)
  r_mutations : (string * int) list;  (** times each mutation applied *)
  r_crashes : crash list;  (** must be empty *)
  r_fuel : (string * int) list;  (** fuel-counter deltas this campaign *)
  r_slowest_case : int;
  r_slowest_ms : float;
}

let fuel_counters =
  [ "fuel:dataflow-exhausted"; "fuel:decode-exhausted";
    "fuel:trace-exhausted" ]

(* Tight tracer limits: the harness cares about termination, not
   coverage, and a 10k-case campaign cannot afford 200k steps each. *)
let trace_limits = { Trace.max_steps = 20_000; Trace.max_depth = 64 }

(* --- seed corpus ---------------------------------------------------- *)

(* Every ELF payload of a small generated distribution: the runtime
   family, the application shared libraries, and each package's
   binaries. These are exactly the writer-produced bytes the clean
   pipeline sees, so mutations explore the neighborhood of real
   inputs instead of random noise. *)
let corpus ~base_packages ~seed : string array =
  let dist =
    Lapis_distro.Generator.generate
      ~config:
        { Lapis_distro.Generator.default_config with
          n_packages = base_packages;
          seed }
      ()
  in
  let elves = ref [] in
  List.iter (fun (_, bytes) -> elves := bytes :: !elves) dist.P.runtime;
  List.iter (fun (_, _, bytes) -> elves := bytes :: !elves) dist.P.shared_libs;
  List.iter
    (fun (pkg : P.t) ->
      List.iter
        (fun (f : P.file) ->
          if String.length f.P.bytes >= 4 && String.sub f.P.bytes 0 4 = "\x7fELF"
          then elves := f.P.bytes :: !elves)
        pkg.P.files)
    dist.P.packages;
  Array.of_list (List.rev !elves)

(* A minimal resolution world so survivors exercise the cross-library
   and tracing paths. Built from pristine runtime bytes: a parse
   failure here would be a bug in the writer, not the fuzz target. *)
let clean_world ~base_packages ~seed : Resolve.world =
  let dist =
    Lapis_distro.Generator.generate
      ~config:
        { Lapis_distro.Generator.default_config with
          n_packages = base_packages;
          seed }
      ()
  in
  let runtime_sonames = List.map fst dist.P.runtime in
  let libs =
    List.filter_map
      (fun (soname, bytes) ->
        match Reader.parse bytes with
        | Ok img -> Some (soname, Binary.analyze img)
        | Error _ -> None)
      dist.P.runtime
  in
  let ld_so = List.assoc_opt "ld-linux-x86-64.so.2" libs in
  Resolve.make_world ?ld_so
    ~libc_family:(fun soname -> List.mem soname runtime_sonames)
    libs

(* --- one case ------------------------------------------------------- *)

type outcome =
  | Survived  (** parsed and analyzed cleanly *)
  | Rejected of string  (** structured error, by kind name *)
  | Crashed of string * string  (** exn, backtrace: the failure mode *)

(* Run the whole ingestion path over one mutated input. The only
   acceptable outcomes are [Survived] and [Rejected]: any exception
   escaping is the bug class this harness exists to find. *)
let run_case world (bytes : string) : outcome =
  match Reader.parse bytes with
  | Error e -> Rejected Reader.(kind_name (kind e))
  | Ok img ->
    (try
       let bin = Binary.analyze ~mode:Binary.Dataflow img in
       ignore (Binary.analyze ~mode:Binary.Linear img : Binary.t);
       ignore (Resolve.binary_footprint world bin : _);
       ignore (Trace.run ~limits:trace_limits world bin : Trace.result);
       Survived
     with e ->
       let bt = Printexc.get_backtrace () in
       Crashed (Printexc.to_string e, bt))
  | exception e ->
    (* Reader.parse returning [result] is itself part of the contract *)
    let bt = Printexc.get_backtrace () in
    Crashed ("Reader.parse raised: " ^ Printexc.to_string e, bt)

(* Deterministic per-case stream: depends only on (seed, case index),
   so one failing case replays without rerunning its predecessors. *)
let case_rng ~seed i = Rng.create ((seed * 1_000_003) + i)

(* The exact input case [i] of a campaign runs, for replay/debugging. *)
let case_input cfg ~corpus:(c : string array) i : string * Mutate.kind list =
  let rng = case_rng ~seed:cfg.seed i in
  let base = c.(Rng.int rng (Array.length c)) in
  Mutate.random rng base

(* --- campaign ------------------------------------------------------- *)

let run ?(config = default_config) () : report =
  let c = corpus ~base_packages:config.base_packages ~seed:config.seed in
  if Array.length c = 0 then invalid_arg "Harness.run: empty seed corpus";
  let world = clean_world ~base_packages:config.base_packages ~seed:config.seed in
  let fuel0 = List.map (fun n -> (n, Stage.counter n)) fuel_counters in
  let rejected : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let mutations : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let ok = ref 0 in
  let crashes = ref [] in
  let slowest_case = ref 0 in
  let slowest_ns = ref 0L in
  for i = 0 to config.cases - 1 do
    let bytes, kinds = case_input config ~corpus:c i in
    List.iter (fun k -> bump mutations (Mutate.name k)) kinds;
    let t0 = Monotonic_clock.now () in
    (match run_case world bytes with
     | Survived -> incr ok
     | Rejected kind -> bump rejected kind
     | Crashed (exn, bt) ->
       crashes :=
         { c_case = i;
           c_kinds = List.map Mutate.name kinds;
           c_exn = exn;
           c_backtrace = bt }
         :: !crashes);
    let dt = Int64.sub (Monotonic_clock.now ()) t0 in
    if Int64.compare dt !slowest_ns > 0 then begin
      slowest_ns := dt;
      slowest_case := i
    end
  done;
  let table tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  {
    r_seed = config.seed;
    r_cases = config.cases;
    r_ok = !ok;
    r_rejected = table rejected;
    r_mutations = table mutations;
    r_crashes = List.rev !crashes;
    r_fuel =
      List.map
        (fun (n, before) -> (n, Stage.counter n - before))
        fuel0;
    r_slowest_case = !slowest_case;
    r_slowest_ms = Int64.to_float !slowest_ns /. 1e6;
  }

let pp_report ppf (r : report) =
  let total_rejected = List.fold_left (fun n (_, v) -> n + v) 0 r.r_rejected in
  Format.fprintf ppf
    "fuzz campaign: seed=%d cases=%d ok=%d rejected=%d crashes=%d@\n"
    r.r_seed r.r_cases r.r_ok total_rejected (List.length r.r_crashes);
  List.iter
    (fun (k, n) -> Format.fprintf ppf "  reject %-12s %6d@\n" k n)
    r.r_rejected;
  List.iter
    (fun (k, n) -> Format.fprintf ppf "  mutate %-15s %6d@\n" k n)
    r.r_mutations;
  List.iter
    (fun (k, n) -> if n > 0 then Format.fprintf ppf "  %-26s %6d@\n" k n)
    r.r_fuel;
  Format.fprintf ppf "  slowest case %d: %.1f ms@\n" r.r_slowest_case
    r.r_slowest_ms;
  List.iter
    (fun cr ->
      Format.fprintf ppf "  CRASH case=%d kinds=[%s]: %s@\n%s@\n" cr.c_case
        (String.concat "," cr.c_kinds) cr.c_exn cr.c_backtrace)
    r.r_crashes

(* --- pipeline quarantine fuzz --------------------------------------- *)

type smoke = {
  s_analyzed : Lapis_store.Pipeline.analyzed;
  s_mutated : int;  (** package files whose bytes were mutated *)
  s_forced : int;  (** of those, truncated hard enough to always reject *)
}

(* End-to-end containment check: corrupt a slice of a distribution's
   package files, run the full pipeline, and let the caller assert the
   run completes with the damage counted in [world.stats.rejects]
   rather than dying. Half the victims get a header truncation that
   can never parse (a lower bound on the expected quarantine count);
   the rest get the full mutation stack, which may or may not still
   parse. *)
let pipeline_smoke ?(seed = 7) ?(packages = 20) ?(victims = 12) () : smoke =
  let dist =
    Lapis_distro.Generator.generate
      ~config:
        { Lapis_distro.Generator.default_config with
          n_packages = packages;
          seed }
      ()
  in
  let rng = Rng.create ((seed * 7_368_787) + 1) in
  let mutated = ref 0 and forced = ref 0 in
  let mutate_file (f : P.file) =
    if
      !mutated < victims
      && String.length f.P.bytes >= 64
      && String.sub f.P.bytes 0 4 = "\x7fELF"
      && Rng.bool rng 0.5
    then begin
      incr mutated;
      let bytes =
        if !mutated mod 2 = 0 then begin
          (* keep the magic, lose the header: unconditionally rejected *)
          incr forced;
          String.sub f.P.bytes 0 (16 + Rng.int rng 40)
        end
        else fst (Mutate.random rng f.P.bytes)
      in
      { f with P.bytes }
    end
    else f
  in
  let dist =
    { dist with
      P.packages =
        List.map
          (fun (pkg : P.t) ->
            { pkg with P.files = List.map mutate_file pkg.P.files })
          dist.P.packages
    }
  in
  {
    (* caching is keyed by content digest, which a fuzz run mutates on
       purpose — run cold so every mutant is analyzed for real *)
    s_analyzed =
      Lapis_store.Pipeline.run
        ~config:{ Lapis_store.Pipeline.default with cache = false }
        dist;
    s_mutated = !mutated;
    s_forced = !forced;
  }

(* --- format-4 index image fuzz -------------------------------------- *)

(* Same contract, different attack surface: seeded mutations of a
   pristine format-4 index image driven through [Query.of_image].
   The loader promises total validation — truncations, bit flips,
   unaligned or oversized section offsets, and corrupt counts must
   all come back as structured [Snapshot.error]s, and any image that
   does load must answer queries without an uncaught exception. Half
   the cases load with digest verification off, because the digest
   would otherwise mask every structural check behind
   [Digest_mismatch]. *)

module Query = Lapis_query.Query
module Snapshot = Lapis_store.Snapshot

type image_report = {
  ii_seed : int;
  ii_cases : int;
  ii_ok : int;  (** mutants that still loaded and answered queries *)
  ii_rejected : (string * int) list;  (** per error constructor *)
  ii_verify_off : int;  (** cases run with digest verification off *)
  ii_crashes : crash list;  (** must be empty *)
}

let snapshot_error_name : Snapshot.error -> string = function
  | Snapshot.Not_snapshot -> "not-snapshot"
  | Snapshot.Unsupported_version _ -> "unsupported-version"
  | Snapshot.Truncated _ -> "truncated"
  | Snapshot.Digest_mismatch -> "digest-mismatch"
  | Snapshot.Corrupt _ -> "corrupt"
  | Snapshot.Io _ -> "io"
  | Snapshot.Needs_base _ -> "needs-base"
  | Snapshot.Base_mismatch _ -> "base-mismatch"

(* Pristine image of a small analyzed world. A failure here is a bug
   in the image writer, not a fuzz finding. *)
let image_bytes ~base_packages ~seed : string =
  let dist =
    Lapis_distro.Generator.generate
      ~config:
        { Lapis_distro.Generator.default_config with
          n_packages = base_packages;
          seed }
      ()
  in
  let analyzed = Lapis_store.Pipeline.run dist in
  let idx = Query.index analyzed.Lapis_store.Pipeline.store in
  match Query.to_image_string ~seed ~source_key:"fuzz" idx with
  | Ok s -> s
  | Error _ ->
    invalid_arg "Harness.image_bytes: pristine image failed to encode"

(* Load one mutated image and, when it loads, answer a few queries —
   including forcing the lazily-decoded per-binary sets, the only
   part of the image [of_image] does not validate up front. *)
let run_image_case ~verify (bytes : string) : outcome =
  match Query.of_image ~verify bytes with
  | Error e -> Rejected (snapshot_error_name e)
  | Ok idx ->
    (try
       ignore (Query.eval_syscalls idx [ 0; 1; 2; 3 ] : float);
       ignore (Query.eval_syscalls ~phase:Query.Init idx [ 0; 1 ] : float);
       ignore (Query.top_n idx 5 : Query.ranked list);
       ignore (Query.bins idx : (Query.bin_sets array, Snapshot.error) result);
       Survived
     with e ->
       let bt = Printexc.get_backtrace () in
       Crashed (Printexc.to_string e, bt))
  | exception e ->
    (* of_image returning [result] is itself part of the contract *)
    let bt = Printexc.get_backtrace () in
    Crashed ("Query.of_image raised: " ^ Printexc.to_string e, bt)

let run_images ?(config = default_config) () : image_report =
  let base =
    image_bytes ~base_packages:config.base_packages ~seed:config.seed
  in
  let rejected : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let bump k =
    Hashtbl.replace rejected k
      (1 + Option.value ~default:0 (Hashtbl.find_opt rejected k))
  in
  let ok = ref 0 and verify_off = ref 0 and crashes = ref [] in
  for i = 0 to config.cases - 1 do
    (* Distinct salt from the ELF campaign so the two case streams
       decorrelate even under the same seed. *)
    let rng = case_rng ~seed:(config.seed lxor 0x1A9E55) i in
    let bytes, kinds = Mutate.random rng base in
    let verify = Rng.bool rng 0.5 in
    if not verify then incr verify_off;
    match run_image_case ~verify bytes with
    | Survived -> incr ok
    | Rejected kind -> bump kind
    | Crashed (exn, bt) ->
      crashes :=
        { c_case = i;
          c_kinds = List.map Mutate.name kinds;
          c_exn = exn;
          c_backtrace = bt }
        :: !crashes
  done;
  {
    ii_seed = config.seed;
    ii_cases = config.cases;
    ii_ok = !ok;
    ii_rejected =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rejected []);
    ii_verify_off = !verify_off;
    ii_crashes = List.rev !crashes;
  }

let pp_image_report ppf (r : image_report) =
  let total_rejected =
    List.fold_left (fun n (_, v) -> n + v) 0 r.ii_rejected
  in
  Format.fprintf ppf
    "image fuzz campaign: seed=%d cases=%d ok=%d rejected=%d \
     (verify off on %d) crashes=%d@\n"
    r.ii_seed r.ii_cases r.ii_ok total_rejected r.ii_verify_off
    (List.length r.ii_crashes);
  List.iter
    (fun (k, n) -> Format.fprintf ppf "  reject %-20s %6d@\n" k n)
    r.ii_rejected;
  List.iter
    (fun cr ->
      Format.fprintf ppf "  CRASH case=%d kinds=[%s]: %s@\n%s@\n" cr.c_case
        (String.concat "," cr.c_kinds) cr.c_exn cr.c_backtrace)
    r.ii_crashes
