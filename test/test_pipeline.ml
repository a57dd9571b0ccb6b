(* Tests for the store and the end-to-end pipeline, including the
   automated Section 2.3 spot check: the analyzer must recover every
   package's ground-truth API set from the ELF bytes alone. *)

module Api = Core.Apidb.Api
module Db = Core.Db
module P = Core.Distro.Package

let analyzed =
  lazy
    (Db.Pipeline.run
       (Core.Distro.Generator.generate
          ~config:
            { Core.Distro.Generator.default_config with
              n_packages = 250; seed = 11 }
          ()))

let store () = (Lazy.force analyzed).Db.Pipeline.store

let test_spot_check () =
  (* the paper spot-checks static analysis against strace; here the
     generator's ground truth plays the role of the runtime trace and
     the match must be exact *)
  let mismatches = Db.Pipeline.spot_check (Lazy.force analyzed) in
  List.iter
    (fun (m : Db.Pipeline.mismatch) ->
      Printf.printf "mismatch %s: missing %d, extra %d\n" m.mm_package
        (List.length m.mm_missing) (List.length m.mm_extra))
    mismatches;
  Alcotest.(check int) "analysis recovers every footprint exactly" 0
    (List.length mismatches)

let test_package_rows () =
  let s = store () in
  Alcotest.(check int) "one row per package" 250 s.Db.Store.n_packages;
  Alcotest.(check bool) "libc6 present" true
    (Option.is_some (Db.Store.find s "libc6"))

let test_index_consistency () =
  let s = store () in
  (* the API-dependents index agrees with the package rows *)
  List.iter
    (fun api ->
      List.iter
        (fun i ->
          let p = s.Db.Store.packages.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "%s really uses %s" p.Db.Store.pr_name
               (Api.to_string api))
            true
            (Api.Set.mem api p.Db.Store.pr_apis))
        (Db.Store.dependents s api))
    (List.filteri (fun i _ -> i < 200) (Db.Store.used_apis s))

let test_script_inheritance () =
  let s = store () in
  (* a package shipping a python script must inherit python2.7's
     footprint *)
  let python = Option.get (Db.Store.find s "python2.7") in
  let carrier =
    Array.to_list s.Db.Store.packages
    |> List.find_opt (fun (p : Db.Store.pkg_row) ->
           p.Db.Store.pr_name <> "python2.7"
           && List.exists
                (fun (b : Db.Store.bin_row) ->
                  b.Db.Store.br_package = p.Db.Store.pr_name
                  && b.Db.Store.br_class
                     = Core.Elf.Classify.Script Core.Elf.Classify.Python)
                s.Db.Store.bins)
  in
  match carrier with
  | None -> ()  (* no python script generated at this size: fine *)
  | Some p ->
    Alcotest.(check bool)
      (p.Db.Store.pr_name ^ " inherits the interpreter footprint") true
      (Api.Set.subset python.Db.Store.pr_apis p.Db.Store.pr_apis)

let test_library_rule () =
  (* Section 2: package footprints come from standalone executables;
     a package's shared-library-only APIs must not appear *)
  let s = store () in
  let libnuma = Option.get (Db.Store.find s "libnuma") in
  let mbind = Core.Apidb.Syscall_table.nr_of_name_exn "mbind" in
  Alcotest.(check bool) "libnuma's own footprint excludes its lib" false
    (Api.Set.mem (Api.Syscall mbind) libnuma.Db.Store.pr_apis);
  (* while the -utils package that exercises it has the call *)
  let utils = Option.get (Db.Store.find s "libnuma-utils") in
  Alcotest.(check bool) "libnuma-utils carries mbind" true
    (Api.Set.mem (Api.Syscall mbind) utils.Db.Store.pr_apis)

let test_runtime_binaries_attributed () =
  let s = store () in
  let libc_bins =
    List.filter
      (fun (b : Db.Store.bin_row) -> b.Db.Store.br_package = "libc6")
      s.Db.Store.bins
  in
  Alcotest.(check bool) "runtime binaries recorded under libc6" true
    (List.length libc_bins >= 5)

let test_bins_classified () =
  let s = store () in
  List.iter
    (fun (b : Db.Store.bin_row) ->
      Alcotest.(check bool) (b.Db.Store.br_path ^ " classified") true
        (b.Db.Store.br_class <> Core.Elf.Classify.Data))
    s.Db.Store.bins

let test_base_footprint_everywhere () =
  (* every dynamically-linked executable inherits the stage-I base *)
  let s = store () in
  let read_api = Api.Syscall 0 in
  List.iter
    (fun (b : Db.Store.bin_row) ->
      if b.Db.Store.br_class = Core.Elf.Classify.Elf_dynamic then
        Alcotest.(check bool)
          (b.Db.Store.br_path ^ " includes read via the runtime") true
          (Api.Set.mem read_api
             b.Db.Store.br_resolved.Core.Analysis.Footprint.apis))
    s.Db.Store.bins

let test_clean_corpus_quarantine () =
  (* every writer-produced binary must ingest cleanly: a nonzero
     reject counter on the generated corpus is a parser or analyzer
     regression, not noise *)
  let a = Lazy.force analyzed in
  Alcotest.(check int) "clean corpus quarantines nothing" 0
    (Db.Pipeline.quarantined a);
  Alcotest.(check bool) "reject table empty" true
    (a.Db.Pipeline.world.Core.Analysis.Resolve.stats
       .Core.Analysis.Resolve.rejects
     = [])

let test_parmap_order () =
  let xs = List.init 1000 Fun.id in
  Alcotest.(check (list int))
    "parallel map preserves input order"
    (List.map (fun x -> x * 3) xs)
    (Core.Perf.Parmap.map ~domains:4 (fun x -> x * 3) xs)

let test_parmap_exception () =
  (* a worker exception must cancel the fan-out and re-raise the
     original exception on the calling domain, not surface as a
     secondary crash from a half-filled result array *)
  match
    Core.Perf.Parmap.map ~domains:4
      (fun i -> if i = 617 then failwith "boom" else i)
      (List.init 1000 Fun.id)
  with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure msg ->
    Alcotest.(check string) "original exception re-raised" "boom" msg

let test_cache_equivalence () =
  (* the digest analysis cache must be invisible in the results:
     cached and uncached runs of the same distribution produce
     identical footprints, package by package and binary by binary *)
  let dist =
    Core.Distro.Generator.generate
      ~config:
        { Core.Distro.Generator.default_config with
          n_packages = 300; seed = 23 }
      ()
  in
  let cached =
    Db.Pipeline.run ~config:{ Db.Pipeline.default with cache = true } dist
  in
  let raw =
    Db.Pipeline.run ~config:{ Db.Pipeline.default with cache = false } dist
  in
  let sc = cached.Db.Pipeline.store and sr = raw.Db.Pipeline.store in
  Alcotest.(check int) "same package count" sr.Db.Store.n_packages
    sc.Db.Store.n_packages;
  Array.iteri
    (fun i (pc : Db.Store.pkg_row) ->
      let pr = sr.Db.Store.packages.(i) in
      Alcotest.(check string) "row order" pr.Db.Store.pr_name
        pc.Db.Store.pr_name;
      Alcotest.(check bool)
        (pc.Db.Store.pr_name ^ " package footprint identical") true
        (Api.Set.equal pc.Db.Store.pr_apis pr.Db.Store.pr_apis);
      Alcotest.(check bool)
        (pc.Db.Store.pr_name ^ " ELF-only footprint identical") true
        (Api.Set.equal pc.Db.Store.pr_apis_elf pr.Db.Store.pr_apis_elf))
    sc.Db.Store.packages;
  Alcotest.(check int) "same binary count"
    (List.length sr.Db.Store.bins)
    (List.length sc.Db.Store.bins);
  List.iter2
    (fun (bc : Db.Store.bin_row) (br : Db.Store.bin_row) ->
      Alcotest.(check string) "binary order" br.Db.Store.br_path
        bc.Db.Store.br_path;
      Alcotest.(check bool)
        (bc.Db.Store.br_path ^ " resolved footprint identical") true
        (Api.Set.equal bc.Db.Store.br_resolved.Core.Analysis.Footprint.apis
           br.Db.Store.br_resolved.Core.Analysis.Footprint.apis);
      Alcotest.(check int)
        (bc.Db.Store.br_path ^ " unresolved-site count identical")
        br.Db.Store.br_resolved.Core.Analysis.Footprint.unresolved_sites
        bc.Db.Store.br_resolved.Core.Analysis.Footprint.unresolved_sites)
    sc.Db.Store.bins sr.Db.Store.bins;
  Alcotest.(check int) "cached run passes the spot check" 0
    (List.length (Db.Pipeline.spot_check cached));
  Alcotest.(check int) "uncached run passes the spot check" 0
    (List.length (Db.Pipeline.spot_check raw))

let test_shared_cache_quarantine () =
  (* A truncated executable keeps the ELF magic, classifies as data
     and is re-parsed for its reject kind at every use site; a second
     package ships the same bytes. A truncated shared library fails in
     the world step, so its [Error] lands in the cache and must still
     be counted on every later run that meets it. Through one shared
     cache, both runs must quarantine exactly what an uncached run
     does, and the cache must hold analyses of ELF payloads only. *)
  let module G = Core.Distro.Generator in
  let dist =
    G.generate ~config:{ G.default_config with n_packages = 20; seed = 5 } ()
  in
  let cut bytes = String.sub bytes 0 (String.length bytes / 2) in
  let exe =
    List.find_map
      (fun (p : P.t) ->
        List.find_opt (fun (f : P.file) -> f.P.kind = P.Executable) p.P.files)
      dist.P.packages
    |> Option.get
  in
  let lib_soname, lib_owner, lib_bytes = List.hd dist.P.shared_libs in
  let bad_exe = cut exe.P.bytes and bad_lib = cut lib_bytes in
  let truncate (f : P.file) =
    if f.P.bytes = exe.P.bytes then { f with P.bytes = bad_exe }
    else if f.P.bytes = lib_bytes then { f with P.bytes = bad_lib }
    else f
  in
  let copy_holder =
    List.find
      (fun (p : P.t) -> not (List.memq exe p.P.files) && p.P.name <> lib_owner)
      dist.P.packages
  in
  let packages =
    List.map
      (fun (p : P.t) ->
        let files = List.map truncate p.P.files in
        if p == copy_holder then
          { p with
            P.files =
              files
              @ [ { P.path = "/usr/bin/truncated-copy"; kind = P.Executable;
                    bytes = bad_exe } ] }
        else { p with P.files })
      dist.P.packages
  in
  let shared_libs =
    List.map
      (fun (soname, pkg, bytes) ->
        if soname = lib_soname && pkg = lib_owner then (soname, pkg, bad_lib)
        else (soname, pkg, bytes))
      dist.P.shared_libs
  in
  let dist = { dist with P.packages; shared_libs } in
  let rejects (a : Db.Pipeline.analyzed) =
    a.Db.Pipeline.world.Core.Analysis.Resolve.stats
      .Core.Analysis.Resolve.rejects
  in
  let raw =
    Db.Pipeline.run ~config:{ Db.Pipeline.default with cache = false } dist
  in
  (* two executable copies, the library's world entry and its file *)
  Alcotest.(check (list (pair string int)))
    "uncached run quarantines every use site" [ ("truncated", 4) ]
    (rejects raw);
  (* the payloads a cache may hold: world libraries and package files
     that classify as ELF *)
  let elf_payloads = Hashtbl.create 256 in
  let note bytes = Hashtbl.replace elf_payloads (Digest.string bytes) () in
  List.iter (fun (_, bytes) -> note bytes) dist.P.runtime;
  List.iter (fun (_, _, bytes) -> note bytes) dist.P.shared_libs;
  List.iter
    (fun (p : P.t) ->
      List.iter
        (fun (f : P.file) ->
          match Core.Elf.Classify.classify f.P.bytes with
          | Core.Elf.Classify.Elf_static | Core.Elf.Classify.Elf_dynamic
          | Core.Elf.Classify.Elf_shared_lib -> note f.P.bytes
          | Core.Elf.Classify.Script _ | Core.Elf.Classify.Data -> ())
        p.P.files)
    dist.P.packages;
  let cache = Db.Pipeline.new_cache () in
  let pc = { Db.Pipeline.default with shared_cache = Some cache } in
  List.iter
    (fun run ->
      let a = Db.Pipeline.run ~config:pc dist in
      Alcotest.(check (list (pair string int)))
        (run ^ ": rejects match the uncached run") (rejects raw) (rejects a);
      Alcotest.(check int)
        (run ^ ": quarantined matches the uncached run")
        (Db.Pipeline.quarantined raw) (Db.Pipeline.quarantined a);
      Alcotest.(check int)
        (run ^ ": cache holds ELF payloads only")
        (Hashtbl.length elf_payloads)
        (Db.Pipeline.cache_size cache))
    [ "first run"; "second run" ]

let () =
  Alcotest.run "pipeline"
    [ ( "pipeline",
        [ Alcotest.test_case "spot check (Section 2.3)" `Slow test_spot_check;
          Alcotest.test_case "package rows" `Quick test_package_rows;
          Alcotest.test_case "index consistency" `Quick
            test_index_consistency;
          Alcotest.test_case "script inheritance" `Quick
            test_script_inheritance;
          Alcotest.test_case "library rule" `Quick test_library_rule;
          Alcotest.test_case "runtime attribution" `Quick
            test_runtime_binaries_attributed;
          Alcotest.test_case "binaries classified" `Quick
            test_bins_classified;
          Alcotest.test_case "base footprint" `Quick
            test_base_footprint_everywhere;
          Alcotest.test_case "clean corpus quarantines nothing" `Quick
            test_clean_corpus_quarantine;
          Alcotest.test_case "parmap preserves order" `Quick
            test_parmap_order;
          Alcotest.test_case "parmap propagates exceptions" `Quick
            test_parmap_exception;
          Alcotest.test_case "cache equivalence" `Slow
            test_cache_equivalence;
          Alcotest.test_case "quarantine through a shared cache" `Quick
            test_shared_cache_quarantine ] ) ]
