(** End-to-end measurement pipeline: synthetic distribution bytes in,
    populated store out. Every binary goes through the same steps as
    the paper's tool: parse the ELF, disassemble, build the call
    graph, resolve footprints across shared libraries, and aggregate
    per package with script-to-interpreter inheritance. *)

open Lapis_apidb
module Binary = Lapis_analysis.Binary
module Resolve = Lapis_analysis.Resolve
module Footprint = Lapis_analysis.Footprint
module P = Lapis_distro.Package
module Classify = Lapis_elf.Classify

let src = Logs.Src.create "lapis.pipeline"
module Log = (val Logs.src_log src : Logs.LOG)

type analyzed = {
  store : Store.t;
  world : Resolve.world;
  dist : P.distribution;
}

let interpreter_package = function
  | Classify.Dash -> Some "dash"
  | Classify.Bash -> Some "bash"
  | Classify.Python -> Some "python2.7"
  | Classify.Perl -> Some "perl"
  | Classify.Ruby -> Some "ruby1.9"
  | Classify.Other_interp _ -> None

module Stage = Lapis_perf.Stage
module Reader = Lapis_elf.Reader

(* Analyze one ELF payload behind the quarantine boundary: a parse
   failure becomes its taxonomy kind, and an exception escaping the
   analyzer (the crash-containment net under the fuzz harness) becomes
   "analysis-crash" — either way the caller counts the binary and
   skips it instead of the whole run dying. The payload's class comes
   from the same parse, so no ELF is parsed just to classify it: bytes
   that fail to parse are [Data], as {!Classify.classify} has it. *)
let analyze_elf ~mode ~decode_fuel ~payload bytes :
    Classify.t * (Binary.t, string) result =
  match Stage.time "elf-parse" (fun () -> Reader.parse bytes) with
  | Ok img ->
    ( Classify.of_kind img.Lapis_elf.Image.kind,
      try Ok (Binary.analyze ~mode ?decode_fuel ~payload img)
      with e ->
        Log.err (fun m ->
            m "analysis crash (quarantined): %s" (Printexc.to_string e));
        Error "analysis-crash" )
  | Error e ->
    Log.warn (fun m ->
        m "unparseable ELF (%s): %a"
          Reader.(kind_name (kind e))
          Reader.pp_error e);
    (Classify.Data, Error Reader.(kind_name (kind e)))

(* A binary's resolution as the store rows carry it, with the phase
   counter increments computing it made, so a reuse can replay them. *)
type resolved = {
  rs_total : Footprint.t;
  rs_init : Api.Set.t;
  rs_serving : Api.Set.t;
  rs_no_transition : int;  (** ["phase:no-transition"] increment *)
  rs_widened : int;  (** ["phase:widened"] increment *)
}

(* The content-hash analysis cache, exposed as an opaque handle so a
   caller re-analyzing successive releases of an evolving world can
   carry one cache across runs: binaries whose bytes a release leaves
   untouched hash to the same digest and are served from the table
   instead of being re-analyzed. Analysis is a pure function of the
   bytes, so the incremental result is bit-identical to a
   from-scratch run (the evolve bench asserts this at every epoch).
   Classification is a pure function of the bytes too: every file's
   class (script and data files included) is memoized next to the
   results, and a digest has a result only once it has a class, so a
   file a release leaves untouched costs one digest and table lookups,
   never an ELF parse. Resolution is a pure function of the closure
   key ({!Resolve.closure_key}), so a binary whose library closure a
   release leaves untouched is not resolved again either. *)
type analysis_cache = {
  results : (Digest.t, (Binary.t, string) result) Hashtbl.t;
  classes : (Digest.t, Classify.t) Hashtbl.t;
  footprints : (Digest.t, resolved) Hashtbl.t;  (** by closure key *)
}

let new_cache () : analysis_cache =
  { results = Hashtbl.create 1024; classes = Hashtbl.create 1024;
    footprints = Hashtbl.create 1024 }

let cache_size (c : analysis_cache) = Hashtbl.length c.results

(* The run configuration record replaces the optional-argument
   accretion ([?mode ?cache ?domains], with [?decode_fuel] next in
   line): callers override one field of [default] and keep source
   compatibility when the next knob lands. *)
type config = {
  mode : Binary.mode;  (** per-function engine: dataflow or linear *)
  cache : bool;  (** content-hash analysis cache over ELF payloads *)
  domains : int option;  (** cap for the per-binary analysis fan-out *)
  decode_fuel : int option;
      (** per-binary decode budget; [None] uses the analyzer default *)
  shared_cache : analysis_cache option;
      (** carry this cache across runs (implies [cache]); hit/miss
          ratios surface as the [incremental:*] counters *)
}

let default =
  { mode = Binary.Dataflow; cache = true; domains = None; decode_fuel = None;
    shared_cache = None }

(* Where a package file's class (and, for an ELF binary, its
   analysis) comes from: this run's parse-and-analyze pass, or the
   cache and the class memo. *)
type slot = Job of int | Cached of Classify.t

let run ?(config = default) (dist : P.distribution) : analyzed =
  let { mode; cache; domains; decode_fuel; shared_cache } = config in
  let cache = cache || shared_cache <> None in
  (* Per-error-kind quarantine counters: every binary the run skipped
     is counted here (and mirrored into the Stage counters, so the
     bench JSON carries them), never silently dropped. Recording
     happens only on the coordinating domain — the parallel section
     returns results and the counting is done after the join. *)
  let rejects : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let record_reject kind =
    Hashtbl.replace rejects kind
      (1 + Option.value ~default:0 (Hashtbl.find_opt rejects kind));
    Stage.incr ("reject:" ^ kind)
  in
  (* Content-hash analysis cache: byte-identical ELF inputs are
     analyzed once. It is seeded with the shared-library world below,
     so a package shipping a library analyzed for the world reuses the
     same Binary.t — which also lets the resolver serve that binary's
     footprint from its per-export memo. When the caller supplies a
     [shared_cache], the same table additionally carries results from
     previous releases of an evolving world, and only the binaries
     whose bytes actually changed are re-analyzed. *)
  let { results = analysis_of; classes; footprints } =
    match shared_cache with Some c -> c | None -> new_cache ()
  in
  (* Incremental accounting (shared cache only): each distinct payload
     the run touches counts once — as a hit if a previous run already
     analyzed it, as a miss if this run had to. Every insertion into
     [analysis_of] below is preceded by [note_payload] on its digest,
     so at a payload's first note the table holds it exactly when a
     previous run analyzed it. Their ratio is the cross-release reuse
     the evolve bench gates on. *)
  let inc_hits = ref 0 and inc_misses = ref 0 in
  let counted : (Digest.t, unit) Hashtbl.t = Hashtbl.create 256 in
  let note_payload d =
    if shared_cache <> None && not (Hashtbl.mem counted d) then begin
      Hashtbl.replace counted d ();
      if Hashtbl.mem analysis_of d then incr inc_hits else incr inc_misses
    end
  in
  (* 1. Collect the jobs of one parse-and-analyze pass: every
     world-library payload and every package file with the ELF magic
     the cache cannot answer for. With the cache a payload is one job
     however often it occurs (first-seen order); without it every
     occurrence is a job of its own. Other files are classified from
     their first bytes, through the class memo. *)
  let jobs = ref [] and n_jobs = ref 0 in
  let job_of : (Digest.t, int) Hashtbl.t = Hashtbl.create 256 in
  let add_job d bytes =
    match if cache then Hashtbl.find_opt job_of d else None with
    | Some i -> i
    | None ->
      let i = !n_jobs in
      incr n_jobs;
      Hashtbl.replace job_of d i;
      jobs := (d, bytes) :: !jobs;
      i
  in
  let lib_job bytes =
    let d = Digest.string bytes in
    if cache then note_payload d;
    if cache && Hashtbl.mem analysis_of d then (d, None)
    else (d, Some (add_job d bytes))
  in
  let runtime_jobs =
    List.map (fun (soname, bytes) -> (soname, lib_job bytes)) dist.P.runtime
  in
  let app_lib_jobs =
    List.map
      (fun (soname, pkg, bytes) -> (soname, pkg, lib_job bytes))
      dist.P.shared_libs
  in
  let file_slot d bytes =
    match if cache then Hashtbl.find_opt classes d else None with
    | Some c -> Cached c
    | None ->
      if Classify.has_elf_magic bytes then Job (add_job d bytes)
      else begin
        let c = Classify.classify bytes in
        Hashtbl.replace classes d c;
        Cached c
      end
  in
  let file_slots =
    List.map
      (fun (pkg : P.t) ->
        ( pkg,
          List.map
            (fun (f : P.file) ->
              let d = Digest.string f.P.bytes in
              (f, d, file_slot d f.P.bytes))
            pkg.P.files ))
      dist.P.packages
  in
  (* 2. The pass, fanned out across domains when the host has more
     than one; then each payload's class and result go into the cache
     (a world library's result whatever its class, a package file's
     only when it is an ELF binary). *)
  let done_ =
    Array.of_list
      (Lapis_perf.Parmap.map ?domains
         (fun (d, bytes) -> analyze_elf ~mode ~decode_fuel ~payload:d bytes)
         (List.rev !jobs))
  in
  let is_elf = function
    | Classify.Elf_static | Classify.Elf_dynamic | Classify.Elf_shared_lib ->
      true
    | Classify.Script _ | Classify.Data -> false
  in
  let lib_result (d, job) =
    match job with
    | None -> Hashtbl.find analysis_of d
    | Some i ->
      let cls, r = done_.(i) in
      if cache then begin
        Hashtbl.replace classes d cls;
        Hashtbl.replace analysis_of d r
      end;
      r
  in
  let runtime_bins =
    List.filter_map
      (fun (soname, dj) ->
        match lib_result dj with
        | Ok b -> Some (soname, fst dj, b)
        | Error kind ->
          record_reject kind;
          None)
      runtime_jobs
  in
  let app_lib_bins =
    List.filter_map
      (fun (soname, pkg, dj) ->
        match lib_result dj with
        | Ok b -> Some (soname, pkg, b)
        | Error kind ->
          record_reject kind;
          None)
      app_lib_jobs
  in
  let files =
    List.map
      (fun (pkg, slots) ->
        ( pkg,
          List.map
            (fun ((f : P.file), d, slot) ->
              let cls =
                match slot with
                | Job i ->
                  let cls, r = done_.(i) in
                  if cache then begin
                    Hashtbl.replace classes d cls;
                    if is_elf cls then begin
                      note_payload d;
                      Hashtbl.replace analysis_of d r
                    end
                  end;
                  cls
                | Cached cls ->
                  if is_elf cls then note_payload d;
                  cls
              in
              (f, d, cls, slot))
            slots ))
      file_slots
  in
  let runtime_world = List.map (fun (s, _, b) -> (s, b)) runtime_bins in
  let ld_so =
    List.assoc_opt "ld-linux-x86-64.so.2" runtime_world
  in
  let runtime_sonames = List.map fst dist.P.runtime in
  let world =
    Resolve.make_world ?ld_so
      ~libc_family:(fun soname -> List.mem soname runtime_sonames)
      (runtime_world @ List.map (fun (s, _, b) -> (s, b)) app_lib_bins)
  in
  (* A binary's resolution, through the closure-key table when caching:
     a binary whose closure key an earlier release (or an earlier row)
     already resolved reuses that resolution and replays its phase
     counters, so rows and counters match a scratch run. Without a key
     (an import cycle in the closure) it is resolved afresh. *)
  let reused = ref 0 in
  let resolve bin ~phased =
    let compute () =
      let total =
        Stage.time "resolve" (fun () -> Resolve.binary_footprint world bin)
      in
      if not phased then
        (* a library has no phase of its own: its items are attributed
           by the phase of its callers *)
        { rs_total = total; rs_init = total.Footprint.apis;
          rs_serving = total.Footprint.apis; rs_no_transition = 0;
          rs_widened = 0 }
      else begin
        let nt0 = Stage.counter "phase:no-transition"
        and w0 = Stage.counter "phase:widened" in
        let init, serving =
          Stage.time "phase:attribute" (fun () ->
              Resolve.phased_footprint world bin ~total)
        in
        { rs_total = total; rs_init = init; rs_serving = serving;
          rs_no_transition = Stage.counter "phase:no-transition" - nt0;
          rs_widened = Stage.counter "phase:widened" - w0 }
      end
    in
    match if cache then Resolve.closure_key world bin else None with
    | None -> compute ()
    | Some key ->
      (match Hashtbl.find_opt footprints key with
       | Some rs ->
         incr reused;
         if rs.rs_no_transition > 0 then
           Stage.incr ~by:rs.rs_no_transition "phase:no-transition";
         if rs.rs_widened > 0 then
           Stage.incr ~by:rs.rs_widened "phase:widened";
         rs
       | None ->
         let rs = compute () in
         Hashtbl.replace footprints key rs;
         rs)
  in
  (* 3. per-package aggregation *)
  let bins = ref [] in
  let script_needs = Hashtbl.create 64 in  (* pkg -> interp pkgs *)
  let elf_apis = Hashtbl.create 256 in  (* pkg -> Api.Set from executables *)
  (* phased slices of [elf_apis]: per-binary temporal attribution
     unioned per package; invariant init ∪ serving == elf_apis *)
  let elf_init = Hashtbl.create 256 in
  let elf_serving = Hashtbl.create 256 in
  List.iter
    (fun ((pkg : P.t), pkg_files) ->
      let apis = ref Api.Set.empty in
      let apis_init = ref Api.Set.empty in
      let apis_serving = ref Api.Set.empty in
      List.iter
        (fun ((f : P.file), d, cls, slot) ->
          match cls with
          | Classify.Elf_static | Classify.Elf_dynamic
          | Classify.Elf_shared_lib ->
            let analysis =
              match slot with
              | Job i -> snd done_.(i)
              | Cached _ -> Hashtbl.find analysis_of d
            in
            (match analysis with
             | Error kind -> record_reject kind
             | Ok bin ->
               (* a shared library is analyzed for attribution only: the
                  package footprint is a union over standalone
                  executables (Section 2) *)
               let exe = cls <> Classify.Elf_shared_lib in
               let rs = resolve bin ~phased:exe in
               if exe then begin
                 apis := Api.Set.union !apis rs.rs_total.Footprint.apis;
                 apis_init := Api.Set.union !apis_init rs.rs_init;
                 apis_serving := Api.Set.union !apis_serving rs.rs_serving
               end;
               bins :=
                 {
                   Store.br_path = f.P.path;
                   br_package = pkg.P.name;
                   br_class = cls;
                   br_digest = d;
                   br_direct = Resolve.direct_footprint bin;
                   br_resolved = rs.rs_total;
                   br_init = rs.rs_init;
                   br_serving = rs.rs_serving;
                 }
                 :: !bins)
          | Classify.Script interp ->
            (match interpreter_package interp with
             | Some ipkg ->
               let cur =
                 Option.value ~default:[]
                   (Hashtbl.find_opt script_needs pkg.P.name)
               in
               (* one entry per interpreter, not per script: the
                  inheritance rounds union the interpreter's whole
                  footprint per entry *)
               if not (List.mem ipkg cur) then
                 Hashtbl.replace script_needs pkg.P.name (ipkg :: cur)
             | None -> ());
            bins :=
              {
                Store.br_path = f.P.path;
                br_package = pkg.P.name;
                br_class = cls;
                br_digest = d;
                br_direct = Footprint.empty;
                br_resolved = Footprint.empty;
                br_init = Api.Set.empty;
                br_serving = Api.Set.empty;
              }
              :: !bins
          | Classify.Data ->
            (* a file with the ELF magic that the classifier demoted
               to Data is a malformed binary: count it by error kind
               instead of letting it vanish from the run *)
            if Classify.has_elf_magic f.P.bytes then begin
              match Reader.parse f.P.bytes with
              | Error e -> record_reject Reader.(kind_name (kind e))
              | Ok _ -> ()
            end)
        pkg_files;
      Hashtbl.replace elf_apis pkg.P.name !apis;
      Hashtbl.replace elf_init pkg.P.name !apis_init;
      Hashtbl.replace elf_serving pkg.P.name !apis_serving)
    files;
  (* runtime binaries belong to libc6, for direct attribution *)
  List.iter
    (fun (soname, d, bin) ->
      bins :=
        {
          Store.br_path = "/lib/x86_64-linux-gnu/" ^ soname;
          br_package = "libc6";
          br_class = Classify.Elf_shared_lib;
          br_digest = d;
          br_direct = Resolve.direct_footprint bin;
          br_resolved = Footprint.empty;
          br_init = Api.Set.empty;
          br_serving = Api.Set.empty;
        }
        :: !bins)
    runtime_bins;
  (* 4. scripts inherit the interpreter package's footprint; two
     rounds cover interpreters that themselves ship scripts *)
  Stage.time "aggregate" @@ fun () ->
  let final_apis = Hashtbl.copy elf_apis in
  for _round = 1 to 2 do
    Hashtbl.iter
      (fun pkg interps ->
        let cur = Option.value ~default:Api.Set.empty (Hashtbl.find_opt final_apis pkg) in
        let augmented =
          List.fold_left
            (fun acc ipkg ->
              match Hashtbl.find_opt final_apis ipkg with
              | Some s -> Api.Set.union acc s
              | None -> acc)
            cur interps
        in
        Hashtbl.replace final_apis pkg augmented)
      script_needs
  done;
  (* 5. store rows *)
  let pkg_rows =
    List.map
      (fun (pkg : P.t) ->
        let get tbl =
          Option.value ~default:Api.Set.empty
            (Hashtbl.find_opt tbl pkg.P.name)
        in
        let apis = get final_apis in
        let apis_elf = get elf_apis in
        (* script-inherited APIs have no call sites to attribute: they
           widen into both phases, preserving init ∪ serving == apis *)
        let inherited = Api.Set.diff apis apis_elf in
        {
          Store.pr_name = pkg.P.name;
          pr_installs = pkg.P.installs;
          pr_prob =
            float_of_int pkg.P.installs /. float_of_int dist.P.total_installs;
          pr_deps = pkg.P.deps;
          pr_essential = pkg.P.essential;
          pr_apis = apis;
          pr_apis_elf = apis_elf;
          pr_init = Api.Set.union (get elf_init) inherited;
          pr_serving = Api.Set.union (get elf_serving) inherited;
        })
      dist.P.packages
  in
  let store =
    Store.build ~packages:pkg_rows ~bins:!bins
      ~total_installs:dist.P.total_installs
  in
  (* cache-effectiveness counters for the bench JSON / CI smoke job *)
  if cache then
    Stage.incr "elf:distinct-payloads" ~by:(Hashtbl.length analysis_of);
  if shared_cache <> None then begin
    Stage.incr "incremental:hits" ~by:!inc_hits;
    Stage.incr "incremental:misses" ~by:!inc_misses
  end;
  Stage.incr "resolve:reused" ~by:!reused;
  Stage.incr "resolve:memo-hits" ~by:world.Resolve.stats.Resolve.memo_hits;
  Stage.incr "resolve:memo-misses"
    ~by:world.Resolve.stats.Resolve.memo_misses;
  Stage.incr "resolve:ld-so-computations"
    ~by:world.Resolve.stats.Resolve.ld_computations;
  (* publish the quarantine counters: zero entries on a clean corpus *)
  world.Resolve.stats.Resolve.rejects <-
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rejects []);
  { store; world; dist }

let quarantined (a : analyzed) =
  List.fold_left
    (fun n (_, v) -> n + v)
    0 a.world.Resolve.stats.Resolve.rejects

(* The automated Section 2.3 spot check: compare the analyzer's
   ELF-derived package footprints against the generator's ground
   truth. Returns the packages where they disagree. *)
type mismatch = {
  mm_package : string;
  mm_missing : Api.t list;  (** in ground truth, not recovered *)
  mm_extra : Api.t list;  (** recovered, not in ground truth *)
}

let spot_check (a : analyzed) : mismatch list =
  Array.to_list a.store.Store.packages
  |> List.filter_map (fun (p : Store.pkg_row) ->
         match Hashtbl.find_opt a.dist.P.truth p.Store.pr_name with
         | None -> None
         | Some truth ->
           let got = p.Store.pr_apis_elf in
           let missing = Api.Set.diff truth got in
           let extra = Api.Set.diff got truth in
           if Api.Set.is_empty missing && Api.Set.is_empty extra then None
           else
             Some
               {
                 mm_package = p.Store.pr_name;
                 mm_missing = Api.Set.elements missing;
                 mm_extra = Api.Set.elements extra;
               })
