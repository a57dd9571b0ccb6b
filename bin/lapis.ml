(* lapis — Linux API study CLI.

   Subcommands:
     generate   synthesize the distribution and write its binaries to disk
     evolve     evolve it release by release: one full snapshot + deltas,
                analyzed incrementally through a shared content-hash cache
     analyze    run the pipeline and dump importance rankings
                (--save-snapshot persists the analyzed world)
     report     regenerate a figure/table of the paper (or all of them)
     footprint  analyze a single ELF file and print its API footprint
     seccomp    emit a seccomp allow-list for an ELF file
     compat     weighted completeness of a user-provided syscall list
     query      one-shot indexed query against a saved snapshot
     serve      line-delimited JSON query loop over stdin/stdout
     fleet      sharded multi-process serving: N serve shards behind a
                scatter/gather router (--slice: one slice per shard)

   analyze/report/compat/seccomp accept --snapshot PATH to start from
   a saved world instead of re-running generation + analysis. *)

open Cmdliner
module Study = Core.Study
module P = Core.Distro.Package
module Snapshot = Core.Db.Snapshot
module Query = Core.Query.Engine
module Json = Core.Query.Json
module Protocol = Core.Query.Protocol
module Serve = Core.Query.Serve
module Server = Core.Query.Server
module Router = Core.Query.Router

let setup_logs () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning)

(* -p/--seed are optional so a snapshot run can tell "defaulted" from
   "explicitly requested" when deciding whether to warn about a
   mismatch between the flags and the snapshot's generator identity. *)
let packages_arg =
  let doc = "Number of packages in the synthetic distribution." in
  Arg.(value & opt (some int) None & info [ "p"; "packages" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Generator seed (the distribution is deterministic per seed)." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

let snapshot_arg =
  let doc =
    "Start from a snapshot saved by $(b,lapis analyze --save-snapshot) \
     instead of generating and analyzing a corpus."
  in
  Arg.(value & opt (some file) None & info [ "snapshot" ] ~docv:"PATH" ~doc)

let base_arg =
  let doc =
    "Full row snapshot a format-5 delta snapshot (written by \
     $(b,lapis evolve)) applies to. Required when --snapshot names a \
     delta; ignored otherwise."
  in
  Arg.(value & opt (some file) None & info [ "base" ] ~docv:"PATH" ~doc)

let stats_arg =
  let doc =
    "Print the per-stage timing/counter report to stderr after answering \
     (shows that snapshot-backed queries spend no time in analysis)."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let print_stage_stats () =
  Fmt.epr "# per-stage breakdown:@\n%a%!" Core.Perf.Stage.pp_report ()

let config packages seed =
  let d = Core.Distro.Generator.default_config in
  {
    d with
    n_packages = Option.value ~default:d.n_packages packages;
    seed = Option.value ~default:d.seed seed;
  }

let load_snapshot path =
  match Snapshot.load path with
  | Ok snap -> snap
  | Error (Snapshot.Unsupported_version v) when v = Query.image_version ->
    Printf.eprintf
      "lapis: %s is a format-4 index image: query/serve/seccomp consume it \
       directly, but this command needs the row snapshot it was built from \
       (lapis analyze --save-snapshot)\n"
      path;
    exit 1
  | Error e ->
    Printf.eprintf "lapis: cannot load snapshot %s: %s [kind: %s]\n" path
      (Fmt.str "%a" Snapshot.pp_error e)
      (Snapshot.kind_name e);
    exit 1

(* A format-5 delta is meaningless alone: route it through the full
   snapshot it was diffed against ([--base]). Anything else goes to
   the plain loader. *)
let load_any_snapshot ?base path =
  if Snapshot.file_version path = Ok Snapshot.delta_version then
    match base with
    | None ->
      Printf.eprintf
        "lapis: %s is a format-5 delta snapshot; pass --base PATH naming \
         the full snapshot it applies to (lapis evolve writes it as \
         base.snap)\n"
        path;
      exit 2
    | Some bpath ->
      let b = load_snapshot bpath in
      (match Snapshot.load_delta path ~base:b with
       | Ok snap -> snap
       | Error e ->
         Printf.eprintf "lapis: cannot apply delta %s to %s: %s [kind: %s]\n"
           path bpath
           (Fmt.str "%a" Snapshot.pp_error e)
           (Snapshot.kind_name e);
         exit 1)
  else load_snapshot path

(* Is [path] a format-4 index image (as opposed to a row snapshot)?
   Unreadable or unrecognizable files fall through to the row-snapshot
   loader, whose errors name the problem. *)
let is_index_image path = Snapshot.file_version path = Ok Query.image_version

let load_image path =
  match Query.load_image path with
  | Ok idx ->
    Printf.eprintf "# mapped index image %s (%d packages, %d apis)\n%!" path
      (Query.n_packages idx) (Query.n_apis idx);
    idx
  | Error e ->
    Printf.eprintf "lapis: cannot map index image %s: %s [kind: %s]\n" path
      (Fmt.str "%a" Snapshot.pp_error e)
      (Snapshot.kind_name e);
    exit 1

(* "LO:HI" — a global package range, validated against the source
   image by [Query.save_image ~range]. *)
let parse_slice_spec s =
  let fail () =
    Printf.eprintf
      "lapis: bad slice %S (expected LO:HI with 0 <= LO <= HI)\n" s;
    exit 2
  in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i ->
    (match
       ( int_of_string_opt (String.sub s 0 i),
         int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
     with
     | Some lo, Some hi when 0 <= lo && lo <= hi -> (lo, hi)
     | _ -> fail ())

let slice_out_path base (lo, hi) = Printf.sprintf "%s.slice-%d-%d" base lo hi

(* Cut a range-sliced image of [idx] at [out] via write-to-temp +
   rename: a concurrent reader sees the old file or the new one, never
   a partial write. The slice keeps the source image's identity. *)
let cut_slice idx ~range out =
  let tmp = out ^ ".tmp" in
  (match
     Query.save_image ~seed:(Query.image_seed idx)
       ~source_key:(Query.image_source_key idx) ~range tmp idx
   with
   | Ok () -> Sys.rename tmp out
   | Error e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     Printf.eprintf "lapis: cannot write slice %s: %s\n" out
       (Fmt.str "%a" Snapshot.pp_error e);
     exit 1
   | exception Invalid_argument msg ->
     (try Sys.remove tmp with Sys_error _ -> ());
     Printf.eprintf "lapis: %s\n" msg;
     exit 2);
  let lo, hi = range in
  Printf.eprintf "# wrote slice [%d,%d) to %s (%d bytes)\n%!" lo hi out
    (Unix.stat out).Unix.st_size

let make_env ?snapshot ?base packages seed =
  setup_logs ();
  match snapshot with
  | Some path ->
    let snap = load_any_snapshot ?base path in
    if (packages <> None || seed <> None)
       && not (Snapshot.matches snap (config packages seed))
    then
      Printf.eprintf
        "# warning: snapshot %s was generated with %d packages (seed %d); \
         ignoring -p/--seed\n%!"
        path snap.Snapshot.meta.Snapshot.n_packages
        snap.Snapshot.meta.Snapshot.seed;
    Printf.eprintf "# loaded snapshot %s (%d packages, seed %d)\n%!" path
      snap.Snapshot.meta.Snapshot.n_packages snap.Snapshot.meta.Snapshot.seed;
    Study.Env.of_snapshot snap
  | None ->
    let config = config packages seed in
    Printf.eprintf "# generating %d packages (seed %d) and analyzing...\n%!"
      config.Core.Distro.Generator.n_packages
      config.Core.Distro.Generator.seed;
    Study.Env.create ~config ()

(* --- generate ---------------------------------------------------------- *)

let generate_cmd =
  let out_arg =
    let doc = "Directory to write the distribution into." in
    Arg.(value & opt string "_distro" & info [ "o"; "output" ] ~docv:"DIR" ~doc)
  in
  let run packages seed out =
    setup_logs ();
    let dist = Core.Distro.Generator.generate ~config:(config packages seed) () in
    let write path bytes =
      let path = Filename.concat out path in
      let rec mkdirs d =
        if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
          mkdirs (Filename.dirname d);
          Sys.mkdir d 0o755
        end
      in
      mkdirs (Filename.dirname path);
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc
    in
    List.iter
      (fun (soname, bytes) -> write ("lib/" ^ soname) bytes)
      dist.P.runtime;
    List.iter
      (fun (pkg : P.t) ->
        List.iter
          (fun (f : P.file) ->
            write (Filename.concat pkg.P.name f.P.path) f.P.bytes)
          pkg.P.files)
      dist.P.packages;
    Printf.printf "wrote %d packages (%d files) under %s\n"
      (P.n_packages dist)
      (List.length (P.all_files dist))
      out
  in
  let doc = "Synthesize the calibrated distribution and write it to disk." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(const run $ packages_arg $ seed_arg $ out_arg)

(* --- evolve ------------------------------------------------------------ *)

let evolve_cmd =
  let releases_arg =
    let doc = "How many releases to evolve past the base (release 0)." in
    Arg.(value & opt int 5 & info [ "releases" ] ~docv:"R" ~doc)
  in
  let churn_arg =
    let doc =
      "Fraction of eligible packages whose behavior changes per release \
       (bumps; re-links, retirements and introductions are derived from \
       it)."
    in
    Arg.(value & opt float 0.05 & info [ "churn" ] ~docv:"FRAC" ~doc)
  in
  let out_arg =
    let doc =
      "Directory for the release stream: $(b,base.snap) (full snapshot of \
       release 0) plus one $(b,delta-rN.snap) (format-5, diffed against \
       the base) per later release."
    in
    Arg.(value & opt string "_releases" & info [ "o"; "output" ] ~docv:"DIR" ~doc)
  in
  let publish_arg =
    let doc =
      "After each release, publish its full snapshot at $(docv) via \
       write-to-temp + rename, so a watching $(b,lapis serve --watch) \
       always sees either the old or the new file, never a partial one."
    in
    Arg.(value & opt (some string) None & info [ "publish" ] ~docv:"PATH" ~doc)
  in
  let run packages seed releases churn out publish stats =
    setup_logs ();
    if releases < 0 then begin
      Printf.eprintf "lapis: --releases must be non-negative\n";
      exit 2
    end;
    let config = config packages seed in
    (* one analysis cache across the whole release sequence: only
       binaries whose bytes changed are re-analyzed, and the
       incremental:* counters below prove the reuse ratio *)
    let cache = Core.Db.Pipeline.new_cache () in
    let pconfig =
      { Core.Db.Pipeline.default with shared_cache = Some cache }
    in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let fail_snap what path e =
      Printf.eprintf "lapis: cannot %s %s: %s\n" what path
        (Fmt.str "%a" Snapshot.pp_error e);
      exit 1
    in
    let publish_snap snap =
      match publish with
      | None -> ()
      | Some path ->
        let tmp = path ^ ".tmp" in
        (match Snapshot.save tmp snap with
         | Error e -> fail_snap "publish" tmp e
         | Ok () ->
           Sys.rename tmp path;
           Printf.eprintf "# published %s\n%!" path)
    in
    let prev_hits = ref 0 and prev_misses = ref 0 in
    let reuse_since_last () =
      let h = Core.Perf.Stage.counter "incremental:hits" in
      let m = Core.Perf.Stage.counter "incremental:misses" in
      let dh = h - !prev_hits and dm = m - !prev_misses in
      prev_hits := h;
      prev_misses := m;
      (dh, dm)
    in
    let base = ref None in
    for r = 0 to releases do
      let dist =
        Core.Distro.Generator.evolve ~config ~churn ~release:r ()
      in
      let analyzed = Core.Db.Pipeline.run ~config:pconfig dist in
      let snap = Snapshot.of_analyzed analyzed in
      let n_pkgs =
        Array.length snap.Snapshot.store.Core.Db.Store.packages
      in
      let hits, misses = reuse_since_last () in
      (match !base with
       | None ->
         let path = Filename.concat out "base.snap" in
         (match Snapshot.save path snap with
          | Error e -> fail_snap "save" path e
          | Ok () -> ());
         let bytes = (Unix.stat path).Unix.st_size in
         base := Some (snap, bytes);
         Printf.printf
           "release 0: %d packages, full snapshot %s (%d bytes; analyzed \
            %d payloads)\n%!"
           n_pkgs path bytes misses
       | Some (b, base_bytes) ->
         let path = Filename.concat out (Printf.sprintf "delta-r%d.snap" r) in
         (match Snapshot.save_delta path ~base:b snap with
          | Error e -> fail_snap "save delta" path e
          | Ok () -> ());
         let delta = (Unix.stat path).Unix.st_size in
         Printf.printf
           "release %d: %d packages, delta %s (%d bytes, %.1f%% of the \
            %d-byte base snapshot; analysis reuse %d/%d)\n%!"
           r n_pkgs path delta
           (100.0 *. float_of_int delta /. float_of_int base_bytes)
           base_bytes hits (hits + misses));
      publish_snap snap
    done;
    if stats then print_stage_stats ()
  in
  let doc =
    "Evolve the distribution release by release and write the stream as \
     one full snapshot plus small per-release deltas; analysis is \
     incremental (content-hash cache) yet bit-identical to re-analyzing \
     each release from scratch."
  in
  Cmd.v
    (Cmd.info "evolve" ~doc)
    Term.(const run $ packages_arg $ seed_arg $ releases_arg $ churn_arg
          $ out_arg $ publish_arg $ stats_arg)

(* --- report ------------------------------------------------------------ *)

let report_cmd =
  let ids_arg =
    let doc =
      "Experiment identifiers (fig1..fig8, table1..table7, table8..table11, \
       section6, ablations). Defaults to all."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let run packages seed snapshot base ids =
    let env = make_env ?snapshot ?base packages seed in
    let selected =
      match ids with
      | [] -> Study.Experiments.all
      | ids ->
        List.map
          (fun id ->
            match Study.Experiments.find id with
            | Some e -> e
            | None ->
              Printf.eprintf "unknown experiment %s; known: %s\n" id
                (String.concat " " Study.Experiments.ids);
              exit 2)
          ids
    in
    List.iter
      (fun (e : Study.Experiments.t) ->
        print_string (e.Study.Experiments.render env))
      selected
  in
  let doc = "Regenerate figures and tables of the paper's evaluation." in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(const run $ packages_arg $ seed_arg $ snapshot_arg $ base_arg
          $ ids_arg)

(* --- analyze ----------------------------------------------------------- *)

let analyze_cmd =
  let top_arg =
    let doc = "How many ranking rows to print." in
    Arg.(value & opt int 50 & info [ "top" ] ~docv:"N" ~doc)
  in
  let save_arg =
    let doc =
      "Write the analyzed world to a snapshot file for later \
       $(b,lapis query) / $(b,lapis serve) runs."
    in
    Arg.(
      value & opt (some string) None & info [ "save-snapshot" ] ~docv:"PATH" ~doc)
  in
  let save_index_arg =
    let doc =
      "Write the built query index as a flat format-4 image: \
       $(b,lapis query) / $(b,lapis serve) / $(b,lapis seccomp) map it \
       read-only and answer with zero decode, bit-identically to a \
       rebuild from the row snapshot."
    in
    Arg.(
      value & opt (some string) None & info [ "save-index" ] ~docv:"PATH" ~doc)
  in
  let run packages seed snapshot base save save_index top =
    let env = make_env ?snapshot ?base packages seed in
    (match save with
     | None -> ()
     | Some path ->
       (match Study.Env.corpus env with
        | Error msg ->
          Printf.eprintf
            "lapis: --save-snapshot needs a freshly analyzed corpus: %s\n" msg;
          exit 2
        | Ok analyzed ->
          (match Snapshot.save path (Snapshot.of_analyzed analyzed) with
           | Ok () -> Printf.eprintf "# saved snapshot to %s\n%!" path
           | Error e ->
             Printf.eprintf "lapis: cannot save snapshot %s: %s\n" path
               (Fmt.str "%a" Snapshot.pp_error e);
             exit 1)))
    ;
    (match save_index with
     | None -> ()
     | Some path ->
       let cfg = config packages seed in
       let idx = env.Study.Env.index in
       let source_key =
         Snapshot.source_key ~seed:cfg.Core.Distro.Generator.seed
           ~n_packages:cfg.Core.Distro.Generator.n_packages
           ~total_installs:(Query.total_installs idx) ()
       in
       (match
          Query.save_image ~seed:cfg.Core.Distro.Generator.seed ~source_key
            path idx
        with
        | Ok () -> Printf.eprintf "# saved index image to %s\n%!" path
        | Error e ->
          Printf.eprintf "lapis: cannot save index image %s: %s\n" path
            (Fmt.str "%a" Snapshot.pp_error e);
          exit 1))
    ;
    let idx = env.Study.Env.index in
    Printf.printf "%-4s %-22s %-10s %-10s\n" "rank" "system call"
      "importance" "unweighted";
    List.iteri
      (fun i nr ->
        if i < top then
          Printf.printf "%-4d %-22s %-10.4f %-10.4f\n" (i + 1)
            (Core.Apidb.Syscall_table.name_of_nr nr)
            (Core.Metrics.Importance.of_index idx (Core.Apidb.Api.Syscall nr))
            (Core.Metrics.Importance.unweighted_of_index idx
               (Core.Apidb.Api.Syscall nr)))
      env.Study.Env.ranking
  in
  let doc = "Print the system call importance ranking." in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(const run $ packages_arg $ seed_arg $ snapshot_arg $ base_arg
          $ save_arg $ save_index_arg $ top_arg)

(* --- footprint / seccomp ------------------------------------------------ *)

let elf_arg =
  let doc = "An ELF file produced by $(b,lapis generate)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"ELF" ~doc)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  b

let with_world packages seed f =
  setup_logs ();
  let dist = Core.Distro.Generator.generate ~config:(config packages seed) () in
  let analyze_elf bytes =
    match Core.Elf.Reader.parse bytes with
    | Ok img -> Some (Core.Analysis.Binary.analyze img)
    | Error _ -> None
  in
  let runtime_sonames = List.map fst dist.P.runtime in
  let libs =
    List.filter_map
      (fun (soname, bytes) ->
        Option.map (fun b -> (soname, b)) (analyze_elf bytes))
      dist.P.runtime
    @ List.filter_map
        (fun (soname, _, bytes) ->
          Option.map (fun b -> (soname, b)) (analyze_elf bytes))
        dist.P.shared_libs
  in
  let ld_so = List.assoc_opt "ld-linux-x86-64.so.2" libs in
  let world =
    Core.Analysis.Resolve.make_world ?ld_so
      ~libc_family:(fun s -> List.mem s runtime_sonames)
      libs
  in
  f world

let footprint_of_file world path =
  match Core.Elf.Reader.parse (read_file path) with
  | Error e ->
    Printf.eprintf "cannot parse %s: %s\n" path
      (Fmt.str "%a" Core.Elf.Reader.pp_error e);
    exit 1
  | Ok img ->
    let bin = Core.Analysis.Binary.analyze img in
    Core.Analysis.Resolve.binary_footprint world bin

(* A snapshot stores every analyzed binary keyed by content digest, so
   a user-supplied file is matched byte-for-byte without re-analysis. *)
let snapshot_bin_row snap path =
  let digest = Digest.string (read_file path) in
  let row =
    List.find_opt
      (fun (b : Core.Db.Store.bin_row) -> b.Core.Db.Store.br_digest = digest)
      snap.Snapshot.store.Core.Db.Store.bins
  in
  match row with
  | Some b -> b
  | None ->
    Printf.eprintf
      "lapis: %s is not in the snapshot (no binary with digest %s); \
       re-run lapis analyze --save-snapshot on the corpus that contains \
       it, or drop --snapshot to analyze it directly\n"
      path (Digest.to_hex digest);
    exit 1

let footprint_cmd =
  let run packages seed path =
    with_world packages seed (fun world ->
        let fp = footprint_of_file world path in
        Printf.printf "# footprint of %s\n" path;
        List.iter
          (fun nr ->
            Printf.printf "syscall %-22s (%d)\n"
              (Core.Apidb.Syscall_table.name_of_nr nr)
              nr)
          (Core.Analysis.Footprint.syscalls fp);
        List.iter
          (fun (v, code) ->
            Printf.printf "vop     %s\n" (Core.Apidb.Vectored.name v code))
          (Core.Analysis.Footprint.vops fp);
        List.iter
          (fun p -> Printf.printf "pseudo  %s\n" p)
          (Core.Analysis.Footprint.pseudo_files fp))
  in
  let doc = "Print the resolved API footprint of one ELF binary." in
  Cmd.v
    (Cmd.info "footprint" ~doc)
    Term.(const run $ packages_arg $ seed_arg $ elf_arg)

let phase_arg =
  let doc =
    "Restrict to one temporal phase: $(b,init) (APIs requestable \
     during initialization, up to the serving-loop transition), \
     $(b,serving) (steady state), or $(b,all) (the whole footprint; \
     default). An init-only policy can be tightened to the serving \
     set once a server finishes starting up."
  in
  let phase_conv =
    Arg.enum
      [ ("init", Query.Init); ("serving", Query.Serving); ("all", Query.All) ]
  in
  Arg.(value & opt phase_conv Query.All & info [ "phase" ] ~docv:"PHASE" ~doc)

let seccomp_cmd =
  let run packages seed snapshot base phase path =
    setup_logs ();
    let pick ~init ~serving ~all =
      match phase with
      | Query.Init -> init
      | Query.Serving -> serving
      | Query.All -> all
    in
    let apis =
      match snapshot with
      | Some snap_path when is_index_image snap_path ->
        let idx = load_image snap_path in
        let digest = Digest.string (read_file path) in
        (match Query.find_bin idx digest with
         | Ok (Some row) ->
           pick ~init:row.Query.bs_init ~serving:row.Query.bs_serving
             ~all:row.Query.bs_all
         | Ok None ->
           Printf.eprintf
             "lapis: %s is not in the index image (no binary with digest \
              %s); regenerate the image from the corpus that contains it, \
              or drop --snapshot to analyze it directly\n"
             path (Digest.to_hex digest);
           exit 1
         | Error e ->
           Printf.eprintf "lapis: index image bins section: %s [kind: %s]\n"
             (Fmt.str "%a" Snapshot.pp_error e)
             (Snapshot.kind_name e);
           exit 1)
      | Some snap_path ->
        let snap = load_any_snapshot ?base snap_path in
        let row = snapshot_bin_row snap path in
        pick ~init:row.Core.Db.Store.br_init
          ~serving:row.Core.Db.Store.br_serving
          ~all:row.Core.Db.Store.br_resolved.Core.Analysis.Footprint.apis
      | None ->
        with_world packages seed (fun world ->
            match Core.Elf.Reader.parse (read_file path) with
            | Error e ->
              Printf.eprintf "cannot parse %s: %s\n" path
                (Fmt.str "%a" Core.Elf.Reader.pp_error e);
              exit 1
            | Ok img ->
              let bin = Core.Analysis.Binary.analyze img in
              let total = Core.Analysis.Resolve.binary_footprint world bin in
              (match phase with
               | Query.All -> total.Core.Analysis.Footprint.apis
               | _ ->
                 let init, serving =
                   Core.Analysis.Resolve.phased_footprint world bin ~total
                 in
                 pick ~init ~serving
                   ~all:total.Core.Analysis.Footprint.apis))
    in
    print_endline (Core.Metrics.Uniqueness.seccomp_policy apis)
  in
  let doc =
    "Emit a seccomp-bpf allow-list for one ELF binary (Section 6), \
     optionally restricted to one temporal phase with $(b,--phase)."
  in
  Cmd.v
    (Cmd.info "seccomp" ~doc)
    Term.(const run $ packages_arg $ seed_arg $ snapshot_arg $ base_arg
          $ phase_arg $ elf_arg)

(* --- compat ------------------------------------------------------------- *)

(* [ranking] is the most-important-first syscall order top:N draws
   from — [Study.Env.ranking] or [Query.ranking] of a mapped image. *)
let parse_syscall_specs ranking names =
  List.concat_map
    (fun s ->
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "top" ->
        let n =
          int_of_string (String.sub s (i + 1) (String.length s - i - 1))
        in
        List.filteri (fun j _ -> j < n) ranking
      | _ ->
        (match int_of_string_opt s with
         | Some nr -> [ nr ]
         | None ->
           (match Core.Apidb.Syscall_table.nr_of_name s with
            | Some nr -> [ nr ]
            | None ->
              Printf.eprintf "unknown system call %s\n" s;
              exit 2)))
    names

let compat_cmd =
  let syscalls_arg =
    let doc =
      "System call names (or numbers) the prototype supports; pass \
       $(b,top:N) for the N most important."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"SYSCALL" ~doc)
  in
  let run packages seed snapshot base names =
    let env = make_env ?snapshot ?base packages seed in
    let nrs = parse_syscall_specs env.Study.Env.ranking names in
    let c =
      Core.Metrics.Completeness.of_syscall_set_index env.Study.Env.index nrs
    in
    Printf.printf
      "supporting %d system calls -> weighted completeness %.2f%%\n"
      (List.length (List.sort_uniq compare nrs))
      (100.0 *. c)
  in
  let doc =
    "Weighted completeness of a prototype supporting the given syscalls."
  in
  Cmd.v
    (Cmd.info "compat" ~doc)
    Term.(const run $ packages_arg $ seed_arg $ snapshot_arg $ base_arg
          $ syscalls_arg)

(* --- query -------------------------------------------------------------- *)

let query_cmd =
  let op_arg =
    let doc =
      "Query: $(b,stats) | $(b,top) [N] | $(b,importance) API | \
       $(b,dependents) API [LIMIT] | $(b,completeness) SYSCALL[,...] \
       (names, numbers or top:N)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let operands_arg =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"ARG")
  in
  let run snapshot base stats phase op operands =
    setup_logs ();
    let path =
      match snapshot with
      | Some p -> p
      | None ->
        Printf.eprintf
          "lapis: query needs --snapshot PATH (save one with lapis analyze \
           --save-snapshot)\n";
        exit 2
    in
    let idx =
      if is_index_image path then load_image path
      else begin
        let env = make_env ~snapshot:path ?base None None in
        env.Study.Env.index
      end
    in
    let request =
      match (op, operands) with
      | "stats", [] -> Json.Obj [ ("op", Json.Str "stats") ]
      | "top", rest ->
        let n =
          match rest with
          | [] -> 10
          | [ n ] ->
            (match int_of_string_opt n with
             | Some n -> n
             | None ->
               Printf.eprintf "lapis: top expects a count, got %S\n" n;
               exit 2)
          | _ ->
            Printf.eprintf "lapis: top takes at most one argument\n";
            exit 2
        in
        Json.Obj [ ("op", Json.Str "top"); ("n", Json.Num (float_of_int n)) ]
      | "importance", [ api ] ->
        Json.Obj
          [
            ("op", Json.Str "importance");
            ("api", Json.Str api);
            ("phase", Json.Str (Query.phase_to_string phase));
          ]
      | "dependents", (api :: rest) ->
        let base =
          [ ("op", Json.Str "dependents"); ("api", Json.Str api) ]
        in
        (match rest with
         | [] -> Json.Obj base
         | [ limit ] ->
           (match int_of_string_opt limit with
            | Some l ->
              Json.Obj (base @ [ ("limit", Json.Num (float_of_int l)) ])
            | None ->
              Printf.eprintf "lapis: dependents limit must be an integer\n";
              exit 2)
         | _ ->
           Printf.eprintf "lapis: dependents takes API [LIMIT]\n";
           exit 2)
      | "completeness", [ spec ] ->
        let nrs =
          parse_syscall_specs (Query.ranking idx) (String.split_on_char ',' spec)
        in
        Json.Obj
          [
            ("op", Json.Str "completeness");
            ("phase", Json.Str (Query.phase_to_string phase));
            ( "syscalls",
              Json.Arr (List.map (fun nr -> Json.Num (float_of_int nr)) nrs) );
          ]
      | _ ->
        Printf.eprintf
          "lapis: bad query; see lapis query --help for the operations\n";
        exit 2
    in
    let response =
      match Protocol.request_of_json request with
      | Error e -> e
      | Ok r -> Serve.handle_request idx r
    in
    let response = Protocol.json_of_response response in
    print_endline (Json.to_string response);
    if stats then print_stage_stats ();
    (match Json.member "ok" response with
     | Some (Json.Bool true) -> ()
     | _ -> exit 1)
  in
  let doc =
    "Answer one indexed query from a snapshot — no generation, no analysis."
  in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(const run $ snapshot_arg $ base_arg $ stats_arg $ phase_arg
          $ op_arg $ operands_arg)

(* --- serve -------------------------------------------------------------- *)

let serve_cmd =
  let tcp_arg =
    let doc =
      "Serve over TCP on 127.0.0.1:$(docv) instead of stdin/stdout: an \
       accept loop hands each connection to a reader thread, which \
       answers its requests in order as it reads them; the readers of \
       concurrent clients run in parallel across the worker domains \
       (same line-delimited JSON protocol). SIGINT shuts down \
       gracefully — every request already sent is answered first."
    in
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)
  in
  let workers_arg =
    let doc =
      "Domains the --tcp connections are spread over, round-robin; \
       the serving process's own domain counts as one, so 1 spawns no \
       other (default: the machine's recommended domain count minus \
       one, at least 1)."
    in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)
  in
  let slice_arg =
    let doc =
      "With $(b,--snapshot) naming a format-4 index image: cut the \
       package range [LO, HI) to $(i,IMAGE).slice-$(i,LO)-$(i,HI) \
       (write-to-temp + rename) and serve that slice instead — the \
       shard maps a ~N-fold smaller file. This is how $(b,lapis fleet \
       --slice) spawns its shards. Partial-completeness answers over \
       in-range packages are bit-identical to the full image; the \
       router scatters dependents and partial-completeness to the \
       shard owning each range."
    in
    Arg.(value & opt (some string) None & info [ "slice" ] ~docv:"LO:HI" ~doc)
  in
  let watch_arg =
    let doc =
      "With $(b,--tcp) and $(b,--snapshot): watch the snapshot file and \
       hot-reload when it changes on disk (or on SIGHUP). The new index \
       is built off the serving path and swapped in atomically — \
       in-flight queries finish against the index they started with, no \
       connection is dropped, and the response cache is replaced so it \
       never answers from a stale index. A failed reload is logged and \
       the old index keeps serving."
    in
    Arg.(value & flag & info [ "watch" ] ~doc)
  in
  (* Reload loader for --watch: same routing as the startup path
     (image / delta + base / full rows), but every failure is a value,
     never an exit — the server must keep serving the old epoch. *)
  let soft_load_index ?base path : (Query.t, string) result =
    let snap_err e = Error (Fmt.str "%a" Snapshot.pp_error e) in
    try
      if is_index_image path then
        match Query.load_image path with
        | Ok idx -> Ok idx
        | Error e -> snap_err e
      else
        let snap =
          if Snapshot.file_version path = Ok Snapshot.delta_version then
            match base with
            | None ->
              Error
                (Printf.sprintf
                   "%s is a format-5 delta; restart with --base PATH" path)
            | Some bpath ->
              (match Snapshot.load bpath with
               | Error e ->
                 Error (Fmt.str "base %s: %a" bpath Snapshot.pp_error e)
               | Ok b ->
                 (match Snapshot.load_delta path ~base:b with
                  | Ok s -> Ok s
                  | Error e -> snap_err e))
          else
            match Snapshot.load path with
            | Ok s -> Ok s
            | Error e -> snap_err e
        in
        Result.map
          (fun s -> (Study.Env.of_snapshot s).Study.Env.index)
          snap
    with e -> Error (Printexc.to_string e)
  in
  let run packages seed snapshot base stats tcp workers watch slice =
    (match slice with
     | None -> ()
     | Some _ ->
       (match snapshot with
        | Some p when is_index_image p -> ()
        | _ ->
          Printf.eprintf
            "lapis: --slice needs --snapshot PATH naming a format-4 index \
             image (lapis analyze --save-index)\n";
          exit 2);
       if watch then begin
         Printf.eprintf
           "lapis: --slice and --watch are exclusive (a reload would \
            re-serve the full image)\n";
         exit 2
       end);
    let idx =
      match snapshot with
      | Some path when is_index_image path ->
        setup_logs ();
        (match slice with
         | None -> load_image path
         | Some spec ->
           let range = parse_slice_spec spec in
           let out = slice_out_path path range in
           let full = load_image path in
           cut_slice full ~range out;
           let idx = load_image out in
           (* drop the full mapping and the cut's garbage before
              serving: the slice is the whole point of the shard's
              small footprint. A full major cycle runs the mapping's
              finalizer; [Gc.compact] on OCaml 5.1 leaves both
              resident (~11 MB of a 600-package shard's ~36 MB) until
              serving's own allocation completes a later cycle. *)
           Gc.full_major ();
           idx)
      | _ -> (make_env ?snapshot ?base packages seed).Study.Env.index
    in
    (match tcp with
     | None ->
       Printf.eprintf
         "# serving line-delimited JSON on stdin/stdout (ops: ping stats \
          importance completeness top dependents); EOF to stop\n%!";
       Serve.loop idx stdin stdout
     | Some port ->
       (match
          Server.start
            ~config:{ Server.default with port; workers }
            idx
        with
        | Error msg ->
          Printf.eprintf "lapis: %s\n" msg;
          exit 1
        | Ok srv ->
          Printf.eprintf
            "# serving line-delimited JSON on 127.0.0.1:%d (ops: ping stats \
             importance completeness top dependents); Ctrl-C to stop\n%!"
            (Server.port srv);
          Sys.set_signal Sys.sigint
            (Sys.Signal_handle
               (fun _ -> Server.signal_stop srv));
          let stop_watch = Atomic.make false in
          let watcher =
            match (watch, snapshot) with
            | false, _ -> None
            | true, None ->
              Printf.eprintf
                "lapis: --watch needs --snapshot PATH; not watching\n%!";
              None
            | true, Some path ->
              let hup = Atomic.make false in
              (try
                 Sys.set_signal Sys.sighup
                   (Sys.Signal_handle (fun _ -> Atomic.set hup true))
               with Invalid_argument _ -> ());
              (* cheap change signal: inode (rename-publish), size,
                 mtime; SIGHUP forces a reload regardless *)
              let file_sig () =
                match Unix.stat path with
                | st -> Some (st.Unix.st_ino, st.Unix.st_size, st.Unix.st_mtime)
                | exception Unix.Unix_error _ -> None
              in
              let reload () =
                match soft_load_index ?base path with
                | Ok idx ->
                  Server.reload srv idx;
                  Printf.eprintf "# reloaded %s (epoch %d)\n%!" path
                    (Server.epoch_id srv)
                | Error msg ->
                  Printf.eprintf
                    "# reload of %s failed (old index keeps serving): %s\n%!"
                    path msg
              in
              Some
                (Thread.create
                   (fun () ->
                     let last = ref (file_sig ()) in
                     while not (Atomic.get stop_watch) do
                       Thread.delay 0.25;
                       if not (Atomic.get stop_watch) then begin
                         let forced = Atomic.exchange hup false in
                         let now = file_sig () in
                         let changed = now <> None && now <> !last in
                         if changed then last := now;
                         if forced || changed then reload ()
                       end
                     done)
                   ())
          in
          Server.wait srv;
          Atomic.set stop_watch true;
          Option.iter Thread.join watcher;
          Printf.eprintf "# served %d connections\n%!"
            (Server.connections_served srv)));
    if stats then print_stage_stats ()
  in
  let doc =
    "Serve indexed queries as line-delimited JSON — over stdin/stdout, or \
     concurrently over TCP with $(b,--tcp) PORT (hot-reloadable with \
     $(b,--watch))."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(const run $ packages_arg $ seed_arg $ snapshot_arg $ base_arg
          $ stats_arg $ tcp_arg $ workers_arg $ watch_arg
          $ slice_arg)

(* --- fleet -------------------------------------------------------------- *)

let fleet_cmd =
  let tcp_arg =
    let doc =
      "Router port. Spawned shards take the $(docv)+1 .. $(docv)+N ports."
    in
    Arg.(value & opt int 7070 & info [ "tcp" ] ~docv:"PORT" ~doc)
  in
  let shards_arg =
    let doc = "How many shard processes to spawn." in
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let connect_arg =
    let doc =
      "Comma-separated $(i,HOST:PORT) list of already-running \
       $(b,lapis serve --tcp) shards to route over, instead of spawning \
       any. $(i,HOST) is an IPv4 address; a host name is refused. All \
       shards must serve the same snapshot."
    in
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"SPECS" ~doc)
  in
  let slice_flag =
    let doc =
      "Spawn each shard on its own range-sliced image ($(b,lapis serve \
       --slice LO:HI) over the fleet's scatter partition) instead of \
       the full snapshot, so per-shard mapped bytes and resident set \
       drop ~N-fold. Needs $(b,--snapshot) naming a format-4 index \
       image. The router learns the slices from the shards' stats \
       gauges and scatters dependents and partial-completeness \
       accordingly; answers stay within 1e-12 of a single process."
    in
    Arg.(value & flag & info [ "slice" ] ~doc)
  in
  (* Poll until the shard accepts TCP connections (it binds only once
     its index is loaded, so accept implies ready). *)
  let wait_ready ~port ~deadline =
    let rec go () =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
      | () ->
        Unix.close fd;
        true
      | exception _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if Unix.gettimeofday () > deadline then false
        else begin
          Thread.delay 0.1;
          go ()
        end
    in
    go ()
  in
  let run snapshot base tcp shards connect slice stats =
    setup_logs ();
    if slice && connect <> None then begin
      Printf.eprintf
        "lapis: --slice applies to spawned shards; with --connect the \
         already-running shards choose their own slices\n";
      exit 2
    end;
    let spawned = ref [] in
    let kill_spawned () =
      List.iter
        (fun (pid, _port) ->
          (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !spawned
    in
    let specs =
      match connect with
      | Some specs ->
        List.map
          (fun s ->
            match Router.shard_spec_of_string (String.trim s) with
            | Ok spec -> spec
            | Error msg ->
              Printf.eprintf "lapis: %s\n" msg;
              exit 2)
          (String.split_on_char ',' specs)
      | None ->
        let path =
          match snapshot with
          | Some p -> p
          | None ->
            Printf.eprintf
              "lapis: fleet needs --snapshot PATH (to spawn shards) or \
               --connect HOST:PORT,... (to join running ones)\n";
            exit 2
        in
        let shards = max 1 shards in
        (* with --slice each shard serves one range of the fleet's
           scatter partition (at most n non-empty ranges, so tiny
           worlds spawn fewer shards than asked) *)
        let plans =
          if not slice then List.init shards (fun i -> (tcp + 1 + i, []))
          else begin
            if not (is_index_image path) then begin
              Printf.eprintf
                "lapis: --slice needs --snapshot PATH naming a format-4 \
                 index image (lapis analyze --save-index)\n";
              exit 2
            end;
            let n = Query.n_packages (load_image path) in
            (* unmap the image: the router serves from its shards *)
            Gc.full_major ();
            List.mapi
              (fun i (lo, hi) ->
                (tcp + 1 + i, [ "--slice"; Printf.sprintf "%d:%d" lo hi ]))
              (Query.shard_ranges n shards)
          end
        in
        let ports = List.map fst plans in
        List.iter
          (fun (port, extra) ->
            let args =
              [ Sys.executable_name; "serve"; "--snapshot"; path;
                "--tcp"; string_of_int port ]
              @ extra
              @ (match base with Some b -> [ "--base"; b ] | None -> [])
            in
            let pid =
              Unix.create_process Sys.executable_name (Array.of_list args)
                Unix.stdin Unix.stderr Unix.stderr
            in
            spawned := !spawned @ [ (pid, port) ];
            Printf.eprintf "# shard pid %d on 127.0.0.1:%d\n%!" pid port)
          plans;
        let deadline = Unix.gettimeofday () +. 60.0 in
        List.iter
          (fun port ->
            if not (wait_ready ~port ~deadline) then begin
              Printf.eprintf
                "lapis: shard on port %d did not come up within 60s\n" port;
              kill_spawned ();
              exit 1
            end)
          ports;
        List.map (fun p -> { Router.sh_host = "127.0.0.1"; sh_port = p }) ports
    in
    match Router.start ~config:{ Router.default with port = tcp } specs with
    | Error msg ->
      Printf.eprintf "lapis: %s\n" msg;
      kill_spawned ();
      exit 1
    | Ok router ->
      Printf.eprintf
        "# fleet serving on 127.0.0.1:%d (%d shards; scatter/gather \
         completeness, JSON or binary protocol); Ctrl-C to stop\n%!"
        (Router.port router) (Router.n_shards router);
      Sys.set_signal Sys.sigint
        (Sys.Signal_handle (fun _ -> Router.signal_stop router));
      Router.wait router;
      (* sampled during [wait]'s return, before shard connections are
         torn down, the healthy count would always read 0 here — so
         the summary reports only what is still meaningful *)
      Printf.eprintf "# fleet served %d connections (%d shards)\n%!"
        (Router.connections_served router)
        (Router.n_shards router);
      kill_spawned ();
      if stats then print_stage_stats ()
  in
  let doc =
    "Serve one snapshot from a fleet: N $(b,lapis serve --tcp) shard \
     processes behind a scatter/gather router. Completeness queries fan \
     out as per-shard package-range partials and merge (within 1e-12 of a \
     single process); point queries round-robin. With $(b,--slice) each \
     shard maps only its own range-sliced image (~N-fold smaller \
     footprint). Under saturation the router slows its clients through \
     TCP, as $(b,lapis serve) does, and it answers $(i,degraded) errors \
     while a shard is down."
  in
  Cmd.v
    (Cmd.info "fleet" ~doc)
    Term.(const run $ snapshot_arg $ base_arg $ tcp_arg $ shards_arg
          $ connect_arg $ slice_flag $ stats_arg)

let () =
  let doc =
    "reproduction of the EuroSys'16 study of Linux API usage and \
     compatibility"
  in
  let info = Cmd.info "lapis" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; evolve_cmd; report_cmd; analyze_cmd; footprint_cmd;
            seccomp_cmd; compat_cmd; query_cmd; serve_cmd;
            fleet_cmd ]))
