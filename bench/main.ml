(* Benchmark and reproduction harness.

   Running this executable regenerates every figure and table of the
   paper's evaluation (paper-vs-measured, Sections 3-6), reports the
   Table 12 implementation-size comparison, and finally runs Bechamel
   micro-benchmarks of the pipeline stages (ELF parsing, disassembly
   and scanning, metric computation, the wire codecs). The query and
   cold-start benches are a separate mode with their speedup floors.
   Serving and release timing lives in benchmark/ (benchmark/run.sh).
   Every report goes through [Report.write] (bench/report.ml), which
   also reads a committed report back for --check-against.

   Usage (--help lists every option; a bad or unknown argument,
   including an unknown experiment id, exits 2):
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- fig3 table6   # selected experiments
     dune exec bench/main.exe -- --no-micro    # skip Bechamel runs
     dune exec bench/main.exe -- --packages 2000
     dune exec bench/main.exe -- --json        # write BENCH_<n>.json
     dune exec bench/main.exe -- --check-against bench/baseline_200.json
     dune exec bench/main.exe -- --query-bench --queries 1000
     dune exec bench/main.exe -- --query-bench --snapshot snap.lapis \
                                  --min-speedup 50
     dune exec bench/main.exe -- --query-bench --cold-start-bench \
                                  --min-cold-speedup 3 *)

module Study = Core.Study
module P = Core.Distro.Package
module Json = Core.Query.Json
module Harness = Lapis_bench.Harness

(* --- command line ------------------------------------------------- *)

let experiments = ref []
let micro = ref true
let packages = ref 1400
let json = ref false
let check_against_path = ref None
let query_bench = ref false
let queries = ref 1000
let snapshot = ref None
let min_speedup = ref None
let cold_start = ref false
let image = ref None
let replicas = ref 4
let min_cold_speedup = ref None

let bad name what v =
  raise (Arg.Bad (Printf.sprintf "%s expects a %s, got %s" name what v))

let count ?(min = 1) name r doc =
  let what = if min = 0 then "non-negative integer" else "positive integer" in
  ( name,
    Arg.Int
      (fun v -> if v >= min then r := v else bad name what (string_of_int v)),
    doc )

let factor name r doc =
  ( name,
    Arg.Float
      (fun x ->
        if x > 0.0 then r := Some x
        else bad name "positive number" (Printf.sprintf "%g" x)),
    doc )

let file name r doc = (name, Arg.String (fun f -> r := Some f), doc)

let specs =
  Arg.align
    [ ("--no-micro", Arg.Clear micro, " skip the Bechamel micro-benchmarks");
      count "--packages" packages "N synthetic distribution size (1400)";
      ("--json", Arg.Set json, " write BENCH_<N>.json");
      file "--check-against" check_against_path
        "FILE fail on a >50% stage regression against this BENCH report";
      ( "--query-bench",
        Arg.Set query_bench,
        " indexed queries vs the closed-form oracle; writes BENCH_QUERY.json"
      );
      count "--queries" queries "N random subset queries (1000)";
      file "--snapshot" snapshot
        "FILE query this saved snapshot instead of a fresh corpus";
      factor "--min-speedup" min_speedup
        "X fail below this indexed-vs-oracle speedup";
      ( "--cold-start-bench",
        Arg.Set cold_start,
        " with --query-bench: mapped image vs decode-and-rebuild" );
      file "--image" image "FILE where the cold-start bench saves its image";
      count "--replicas" replicas "N replicas whose RSS is sampled (4)";
      factor "--min-cold-speedup" min_cold_speedup
        "X fail below this cold-start speedup" ]

let add_experiment id =
  match Study.Experiments.find id with
  | Some e -> experiments := e :: !experiments
  | None ->
    raise
      (Arg.Bad
         (Printf.sprintf "unknown experiment %s; known: %s" id
            (String.concat " " Study.Experiments.ids)))

let usage =
  "usage: bench/main.exe [EXPERIMENT...] [--no-micro] [--packages N] \
   [--json] [--check-against FILE]\n\
  \       bench/main.exe --query-bench [--cold-start-bench] [OPTION...]"

let count_loc () =
  (* Table 12 analogue: measure our own implementation size *)
  let rec walk dir acc =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then
          if entry = "_build" || entry = ".git" then acc else walk path acc
        else if Filename.check_suffix entry ".ml" then (
          let ic = open_in path in
          let lines = ref 0 in
          (try
             while true do
               ignore (input_line ic);
               incr lines
             done
           with End_of_file -> ());
          close_in ic;
          acc + !lines)
        else acc)
      acc (Sys.readdir dir)
  in
  try walk "." 0 with Sys_error _ -> 0

let print_table12 env =
  let dist = Study.Env.dist_exn env in
  let store = env.Study.Env.store in
  let module R = Core.Report.Render in
  let rows =
    [ [ "source lines (paper: Python)"; "3105";
        string_of_int (count_loc ()) ^ " (OCaml, this repo)" ];
      [ "source lines (paper: SQL)"; "2423"; "0 (in-memory store)" ];
      [ "packages scanned"; "30976"; string_of_int (P.n_packages dist) ];
      [ "binaries analyzed"; "66275";
        string_of_int (List.length store.Core.Db.Store.bins) ];
      [ "installations (popcon)"; "2935744";
        string_of_int dist.P.total_installs ] ]
  in
  print_string
    (R.section ~title:"Table 12: implementation and corpus size"
       (R.table ~header:[ "metric"; "paper"; "this reproduction" ] rows))

(* What the binary codec buys on router-shard traffic: one scattered
   completeness exchange (a 32-syscall partial-completeness request and
   its partial response) encoded and decoded through each codec. That
   both codecs round-trip is the test_protocol.ml properties' job. *)
let codec_tests () =
  let open Bechamel in
  let module Pr = Core.Query.Protocol in
  let rng = Core.Distro.Rng.create 0x0c0dec in
  let syscalls = List.init 32 (fun _ -> Core.Distro.Rng.int rng 448) in
  let id = Some (Json.Num 123456.0) in
  let req =
    { Pr.rq_id = id;
      rq_op =
        Pr.Partial_completeness
          { syscalls; phase = Core.Query.Engine.All; lo = 0; hi = 5000 } }
  in
  let resp =
    { Pr.rs_id = id;
      rs_result =
        Ok (Pr.Partial_r { lo = 0; hi = 5000; num = 123.456789; den = 98765.5 })
    }
  in
  (* a binary frame's payload follows its 5-byte header *)
  let payload s = String.sub s 5 (String.length s - 5) in
  [ Test.make ~name:"codec-json-roundtrip" (Staged.stage (fun () ->
        (match Json.parse (Json.to_string (Pr.json_of_request req)) with
         | Ok j -> ignore (Pr.request_of_json j)
         | Error _ -> ());
        match Json.parse (Json.to_string (Pr.json_of_response resp)) with
        | Ok j -> ignore (Pr.response_of_json j)
        | Error _ -> ()));
    Test.make ~name:"codec-bin-roundtrip" (Staged.stage (fun () ->
        ignore (Pr.Bin.decode_request (payload (Pr.Bin.encode_request req)));
        ignore
          (Pr.Bin.decode_response (payload (Pr.Bin.encode_response resp))))) ]

(* Runs the Bechamel micro-benchmarks, printing as it goes, and
   returns [(name, ns_per_run)] estimates for the BENCH JSON. *)
let run_micro env =
  let open Bechamel in
  let dist = Study.Env.dist_exn env in
  let store = env.Study.Env.store in
  let some_exe =
    List.find
      (fun (f : P.file) -> f.P.kind = P.Executable)
      (P.all_files dist)
  in
  let ranking = env.Study.Env.ranking in
  let libc_tests =
    match List.assoc_opt "libc.so.6" dist.P.runtime with
    | Some libc_bytes ->
      [ Test.make ~name:"elf-parse-libc" (Staged.stage (fun () ->
            Core.Elf.Reader.parse libc_bytes)) ]
    | None ->
      prerr_endline
        "bench: warning: generated runtime has no libc.so.6; skipping the \
         elf-parse-libc micro-benchmark";
      []
  in
  let tests =
    [ Test.make ~name:"elf-parse-exe" (Staged.stage (fun () ->
          Core.Elf.Reader.parse some_exe.P.bytes)) ]
    @ libc_tests
    @ [ Test.make ~name:"disasm+scan-exe" (Staged.stage (fun () ->
            match Core.Elf.Reader.parse some_exe.P.bytes with
            | Ok img -> ignore (Core.Analysis.Binary.analyze img)
            | Error _ -> ()));
        Test.make ~name:"importance-all-syscalls" (Staged.stage (fun () ->
            ignore (Core.Metrics.Importance.syscall_importances store)));
        Test.make ~name:"rank-syscalls" (Staged.stage (fun () ->
            ignore (Core.Metrics.Importance.rank_syscalls store)));
        Test.make ~name:"completeness-curve" (Staged.stage (fun () ->
            ignore (Core.Metrics.Completeness.curve store ~ranking)));
        Test.make ~name:"weighted-completeness-top145" (Staged.stage (fun () ->
            let top = List.filteri (fun i _ -> i < 145) ranking in
            ignore (Core.Metrics.Completeness.of_syscall_set store top)));
        Test.make ~name:"uniqueness-stats" (Staged.stage (fun () ->
            ignore (Core.Metrics.Uniqueness.of_store store))) ]
    @ codec_tests ()
  in
  let benchmark test =
    let quota = Time.second 0.5 in
    Benchmark.all (Benchmark.cfg ~quota ~kde:(Some 100) ())
      [ Toolkit.Instance.monotonic_clock ]
      test
  in
  let analyze results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock results
  in
  print_string "\n=============================\n";
  print_string "| Bechamel micro-benchmarks |\n";
  print_string "=============================\n";
  List.concat_map
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.fold
        (fun name ols acc ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
            Printf.printf "  %-32s %12.0f ns/run\n" name est;
            (name, est) :: acc
          | _ ->
            Printf.printf "  %-32s (no estimate)\n" name;
            acc)
        results [])
    tests

(* --- BENCH JSON ---------------------------------------------------

   Each report is a field list handed to [Report.write]; the helpers
   below build its members. *)

let int n = Json.Num (float_of_int n)

(* A list of { "name": ..., [key]: ... } rows. *)
let named key value items =
  Json.Arr
    (List.map
       (fun (name, v) -> Json.Obj [ ("name", Json.Str name); (key, value v) ])
       items)

let stage_seconds names =
  List.fold_left
    (fun acc (l : Core.Perf.Stage.line) ->
      if List.mem l.l_name names then acc +. l.l_seconds else acc)
    0.0
    (Core.Perf.Stage.report ())

let write_json ~binaries ~wall ~micro_results ~source_key path =
  let lines = Core.Perf.Stage.report () in
  Report.write path
    [ ("source_key", Json.Str source_key);
      ("packages", int !packages);
      ("binaries", int binaries);
      ("wall_s", Json.Num wall);
      ( "stage_total_s",
        Json.Num
          (List.fold_left
             (fun a (l : Core.Perf.Stage.line) -> a +. l.l_seconds)
             0.0 lines) );
      Report.stages lines;
      ("counters", named "value" int (Core.Perf.Stage.report_counters ()));
      ("micro_ns", named "ns_per_run" (fun ns -> Json.Num ns) micro_results)
    ]

(* CI regression gate: fail when the pipeline regresses more than 50%
   against the checked-in baseline, or when the run quarantined any
   binary — the generated corpus is clean, so a nonzero reject counter
   means an ingestion regression (a well-formed binary suddenly
   failing to parse or analyze), not noise. The wide timing margin
   absorbs machine-to-machine and run-to-run variance; a real
   complexity regression (the kind this gate exists for) blows well
   past it.

   Baselines drift: a file committed five PRs ago knows nothing about
   stages added since (and may list stages since removed), so the
   timing gate runs over the intersection of stage names — comparing
   totals across different stage sets would either fail every build
   that grows the pipeline or let a regression hide behind a shrunken
   set. One-sided stages are reported, never silently dropped. A
   baseline without stage rows shares none, and fails. *)
let check_against ~quarantined path =
  let baseline =
    match Report.load_stages path with
    | Ok stages -> stages
    | Error msg ->
      Printf.eprintf "bench: cannot read baseline %s: %s\n" path msg;
      exit 1
  in
  let now =
    List.map
      (fun (l : Core.Perf.Stage.line) -> (l.l_name, l.l_seconds))
      (Core.Perf.Stage.report ())
  in
  let v = Report.compare_stages baseline now in
  if v.only_now <> [] then
    Printf.printf
      "Regression check: %d stage(s) newer than the baseline (reported, not \
       gated): %s\n"
      (List.length v.only_now)
      (String.concat " " v.only_now);
  if v.only_baseline <> [] then
    Printf.printf
      "Regression check: %d baseline stage(s) absent from this run: %s\n"
      (List.length v.only_baseline)
      (String.concat " " v.only_baseline);
  if v.shared = [] then begin
    Printf.eprintf
      "bench: FAIL: no stage names shared with baseline %s — nothing to \
       gate on\n"
      path;
    exit 1
  end;
  let what =
    Printf.sprintf "total over %d shared stages" (List.length v.shared)
  in
  let limit = v.shared_baseline_s *. 1.5 in
  Printf.printf "Regression check: %s %.3fs vs baseline %.3fs (limit %.3fs)\n"
    what v.shared_now_s v.shared_baseline_s limit;
  if v.shared_now_s > limit then begin
    Printf.eprintf "bench: FAIL: %s regressed more than 50%% (%.3fs > %.3fs)\n"
      what v.shared_now_s limit;
    exit 1
  end;
  if quarantined > 0 then begin
    Printf.eprintf
      "bench: FAIL: %d binaries quarantined on a clean corpus (see the \
       \"reject:*\" counters in the BENCH JSON)\n"
      quarantined;
    exit 1
  end;
  print_endline "Regression check: OK"

(* --- cold-start bench ---------------------------------------------

   What the format-4 image buys: time from open(2) to the first
   answered query. The decode path loads the row snapshot, rebuilds
   the index in memory and answers once; the map path mmaps the image
   and answers once. Each path runs three times and the best run
   counts, so page-cache warmup noise hits both sides equally.
   Afterwards the mapped index re-answers every benched subset in all
   three phases and must agree with the heap index bit-for-bit
   (gate: cold max_abs_diff == 0, not 1e-12).

   Per-replica memory: N child processes each map the same image,
   answer one probe query, and report their own VmRSS. The mapping is
   file-backed and read-only, so extra replicas should cost little
   beyond the runtime itself. Children are re-exec'd via the hidden
   [--replica-rss IMG] mode rather than forked: the parent has run
   multi-domain Parmap phases by this point, and fork in a
   multi-domain OCaml program is not an option. *)

let probe_nrs = [ 0; 1; 2; 3; 9; 60; 231 ]

let replica_rss_main image =
  match Core.Query.Engine.load_image ~verify:false image with
  | Error e ->
    Printf.eprintf "replica: cannot map %s: %s\n" image
      (Fmt.str "%a" Core.Db.Snapshot.pp_error e);
    exit 1
  | Ok idx ->
    ignore (Core.Query.Engine.eval_syscalls idx probe_nrs);
    (match Lapis_bench.Procfs.status (Unix.getpid ()) "VmRSS" with
     | kb when kb > 0.0 ->
       Printf.printf "%.0f\n" kb;
       exit 0
     | _ ->
       prerr_endline "replica: no VmRSS line in /proc/self/status";
       exit 1)

let measure_replica_rss ~image ~replicas =
  let one i =
    let out, inp = Unix.pipe ~cloexec:false () in
    match
      let pid =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--replica-rss"; image |]
          Unix.stdin inp Unix.stderr
      in
      Unix.close inp;
      let ic = Unix.in_channel_of_descr out in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      (snd (Unix.waitpid [] pid), int_of_string_opt (String.trim line))
    with
    | Unix.WEXITED 0, Some kb -> Some kb
    | status, _ ->
      Printf.eprintf "bench: replica %d failed (%s)\n" i
        (match status with
         | Unix.WEXITED n -> Printf.sprintf "exit %d" n
         | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
         | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n);
      None
    | exception e ->
      (try Unix.close inp with Unix.Unix_error _ -> ());
      (try Unix.close out with Unix.Unix_error _ -> ());
      Printf.eprintf "bench: replica %d failed (%s)\n" i
        (Printexc.to_string e);
      None
  in
  match List.init replicas one |> List.filter_map Fun.id with
  | [] -> None
  | kbs ->
    Some
      (float_of_int (List.fold_left ( + ) 0 kbs)
      /. float_of_int (List.length kbs))

let run_cold_start ~env ~source_key ~subsets =
  let module Engine = Core.Query.Engine in
  let idx = env.Study.Env.index in
  let cleanup = ref [] in
  let temp suffix =
    let path = Filename.temp_file "lapis-cold" suffix in
    cleanup := path :: !cleanup;
    path
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        !cleanup)
  @@ fun () ->
  let snapshot_path =
    match !snapshot with
    | Some path -> path
    | None ->
      let path = temp ".lapis" in
      let snap = Core.Db.Snapshot.of_analyzed (Study.Env.analyzed_exn env) in
      (match Core.Db.Snapshot.save path snap with
       | Ok () -> path
       | Error e ->
         Printf.eprintf "bench: cannot save cold-start snapshot: %s\n"
           (Fmt.str "%a" Core.Db.Snapshot.pp_error e);
         exit 1)
  in
  let image_path =
    match !image with Some path -> path | None -> temp ".idx"
  in
  (match Engine.save_image ~source_key image_path idx with
   | Ok () -> ()
   | Error e ->
     Printf.eprintf "bench: cannot save index image: %s\n"
       (Fmt.str "%a" Core.Db.Snapshot.pp_error e);
     exit 1);
  let image_bytes = (Unix.stat image_path).Unix.st_size in
  let best f =
    let run _ =
      let t0 = Unix.gettimeofday () in
      let answer = f () in
      (Unix.gettimeofday () -. t0, answer)
    in
    match List.init 3 run with
    | first :: rest ->
      List.fold_left
        (fun (bt, ba) (t, a) -> if t < bt then (t, a) else (bt, ba))
        first rest
    | [] -> assert false
  in
  let decode_s, decode_answer =
    best (fun () ->
        match Core.Db.Snapshot.load snapshot_path with
        | Error e ->
          Printf.eprintf "bench: cold decode failed: %s\n"
            (Fmt.str "%a" Core.Db.Snapshot.pp_error e);
          exit 1
        | Ok snap ->
          let idx = Engine.index snap.Core.Db.Snapshot.store in
          Engine.eval_syscalls idx probe_nrs)
  in
  let map_s, (map_answer, mapped) =
    best (fun () ->
        match Engine.load_image image_path with
        | Error e ->
          Printf.eprintf "bench: cold map failed: %s\n"
            (Fmt.str "%a" Core.Db.Snapshot.pp_error e);
          exit 1
        | Ok midx -> (Engine.eval_syscalls midx probe_nrs, midx))
  in
  if not (Float.equal decode_answer map_answer) then begin
    Printf.eprintf
      "bench: FAIL: cold-start probe answers diverge (%.17g vs %.17g)\n"
      decode_answer map_answer;
    exit 1
  end;
  (* Full agreement sweep: the mapped index must reproduce the heap
     index exactly on every benched subset in every phase. *)
  let cold_diff =
    List.fold_left
      (fun acc nrs ->
        List.fold_left
          (fun acc phase ->
            Float.max acc
              (Float.abs
                 (Engine.eval_syscalls ~phase idx nrs
                 -. Engine.eval_syscalls ~phase mapped nrs)))
          acc
          [ Engine.All; Engine.Init; Engine.Serving ])
      0.0 subsets
  in
  let replica_rss_kb =
    match measure_replica_rss ~image:image_path ~replicas:!replicas with
    | Some kb -> kb
    | None ->
      Printf.eprintf "bench: FAIL: no replica produced an RSS sample\n";
      exit 1
  in
  let map_s = Float.max map_s 1e-9 in
  let speedup = decode_s /. map_s in
  Printf.printf
    "Cold start: image %d bytes\n\
    \  decode+rebuild: %.4fs to first answer\n\
    \  mmap image:     %.4fs to first answer (%.1fx)\n\
    \  map-vs-heap max |diff| = %.3e over %d subsets x 3 phases\n\
    \  replica RSS: %.0f kB mean over %d re-exec'd processes\n%!"
    image_bytes decode_s map_s speedup cold_diff (List.length subsets)
    replica_rss_kb !replicas;
  ( speedup,
    cold_diff,
    [ ("image_bytes", int image_bytes);
      ("cold_decode_s", Json.Num decode_s);
      ("cold_map_s", Json.Num map_s);
      ("cold_speedup", Json.Num speedup);
      ("cold_max_abs_diff", Json.Num cold_diff);
      ("replicas", int !replicas);
      ("replica_rss_kb", Json.Num replica_rss_kb) ] )

(* --- query throughput bench ---------------------------------------

   Measures the indexed query engine against the closed-form oracle on
   random syscall subsets: both answer the same [--queries] weighted
   completeness questions, results are compared bit-for-bit (the index
   is built to replicate the oracle's fold orders, so the tolerance is
   1e-12, not "a few ulp per package"), and throughput plus speedup go
   into BENCH_QUERY.json, stamped with the snapshot source_key of the
   corpus the numbers were measured on. *)

let run_query_bench () =
  let env, source_key =
    match !snapshot with
    | Some path ->
      (match Core.Db.Snapshot.load path with
       | Ok snap ->
         Printf.printf "Loaded snapshot %s (%d packages).\n%!" path
           snap.Core.Db.Snapshot.meta.Core.Db.Snapshot.n_packages;
         ( Study.Env.of_snapshot snap,
           snap.Core.Db.Snapshot.meta.Core.Db.Snapshot.source_key )
       | Error e ->
         Printf.eprintf "bench: cannot load snapshot %s: %s\n" path
           (Fmt.str "%a" Core.Db.Snapshot.pp_error e);
         exit 1)
    | None ->
      Printf.printf
        "Building the synthetic distribution (%d packages) for the query \
         bench...\n%!"
        !packages;
      let config =
        { Core.Distro.Generator.default_config with n_packages = !packages }
      in
      let env = Study.Env.create ~config () in
      ( env,
        Core.Db.Snapshot.source_key
          ~seed:config.Core.Distro.Generator.seed
          ~n_packages:config.Core.Distro.Generator.n_packages
          ~total_installs:config.Core.Distro.Generator.total_installs () )
  in
  let store = env.Study.Env.store in
  let idx = env.Study.Env.index in
  let n_packages = Array.length store.Core.Db.Store.packages in
  (* Fixed-seed random subsets: 1..200 distinct syscalls each, drawn
     from the full table so unknown-to-the-corpus numbers are
     exercised too. *)
  let rng = Core.Distro.Rng.create 0x51b3c842 in
  let all_nrs =
    Array.to_list Core.Apidb.Syscall_table.all
    |> List.map (fun (e : Core.Apidb.Syscall_table.entry) ->
           e.Core.Apidb.Syscall_table.nr)
  in
  let n_nrs = List.length all_nrs in
  let subsets =
    List.init !queries (fun _ ->
        let k = 1 + Core.Distro.Rng.int rng (min 200 n_nrs) in
        Core.Distro.Rng.sample rng k all_nrs)
  in
  let time_all f =
    let t0 = Unix.gettimeofday () in
    let results = List.map f subsets in
    (Unix.gettimeofday () -. t0, results)
  in
  let indexed_s, indexed =
    time_all (fun nrs ->
        Core.Metrics.Completeness.of_syscall_set_index idx nrs)
  in
  let oracle_s, oracle =
    time_all (fun nrs -> Core.Metrics.Completeness.of_syscall_set store nrs)
  in
  let max_abs_diff =
    List.fold_left2
      (fun acc a b -> Float.max acc (Float.abs (a -. b)))
      0.0 indexed oracle
  in
  (* Per-op latency distribution (each query timed on its own) and the
     Parmap batch path. The batch evaluates every subset whole on one
     domain, so its results must be identical to the single-query loop
     — checked here, not assumed. *)
  let latencies_us =
    subsets
    |> List.map (fun nrs ->
           let t0 = Unix.gettimeofday () in
           ignore (Core.Metrics.Completeness.of_syscall_set_index idx nrs);
           (Unix.gettimeofday () -. t0) *. 1e6)
    |> Array.of_list
  in
  Array.sort compare latencies_us;
  let batch_t0 = Unix.gettimeofday () in
  let batch = Core.Query.Engine.eval_subsets idx subsets in
  let batch_s = Unix.gettimeofday () -. batch_t0 in
  List.iter2
    (fun a b ->
      if not (Float.equal a b) then begin
        Printf.eprintf
          "bench: FAIL: batch eval diverges from the single-query loop \
           (%.17g vs %.17g)\n"
          a b;
        exit 1
      end)
    batch indexed;
  let indexed_s = Float.max indexed_s 1e-9 in
  let speedup = oracle_s /. indexed_s in
  let indexed_qps = float_of_int !queries /. indexed_s in
  let batch_qps = float_of_int !queries /. Float.max batch_s 1e-9 in
  Printf.printf
    "Query bench: %d subset queries over %d packages\n\
    \  indexed: %.4fs (%.0f q/s)\n\
    \  oracle:  %.4fs (%.0f q/s)\n\
    \  batch:   %.4fs (%.0f q/s)\n\
    \  latency: p50 %.2fus, p95 %.2fus, p99 %.2fus\n\
    \  speedup: %.1fx, max |indexed - oracle| = %.3e\n%!"
    !queries n_packages indexed_s indexed_qps oracle_s
    (float_of_int !queries /. oracle_s)
    batch_s batch_qps
    (Harness.percentile latencies_us 0.50)
    (Harness.percentile latencies_us 0.95)
    (Harness.percentile latencies_us 0.99)
    speedup max_abs_diff;
  let cold =
    if !cold_start then Some (run_cold_start ~env ~source_key ~subsets)
    else None
  in
  let pct q = Json.Num (Harness.percentile latencies_us q) in
  (* Temporal-attribution cost next to the numbers it buys: the
     "phase:attribute" stage (per-binary split into init/serving) and
     the widening counters. Zero/empty on snapshot-backed runs — the
     attribution happened when the snapshot was built, not here. *)
  let phase_counters =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"phase:" name)
      (Core.Perf.Stage.report_counters ())
  in
  Report.write "BENCH_QUERY.json"
    ([ ("source_key", Json.Str source_key);
       ("packages", int n_packages);
       ("queries", int !queries);
       ("load_s", Json.Num (stage_seconds [ "snapshot-load"; "image-load" ]));
       ("index_build_s", Json.Num (stage_seconds [ "query:index-build" ]));
       ("indexed_s", Json.Num indexed_s);
       ("oracle_s", Json.Num oracle_s);
       ("indexed_qps", Json.Num indexed_qps);
       ("oracle_qps", Json.Num (float_of_int !queries /. oracle_s));
       ("speedup", Json.Num speedup);
       ("latency_p50_us", pct 0.50);
       ("latency_p95_us", pct 0.95);
       ("latency_p99_us", pct 0.99);
       ("batch_s", Json.Num batch_s);
       ("batch_qps", Json.Num batch_qps);
       ("batch_vs_single", Json.Num (batch_qps /. indexed_qps));
       ("phase_attribute_s", Json.Num (stage_seconds [ "phase:attribute" ]));
       ("phase_counters", named "value" int phase_counters) ]
    @ (match cold with Some (_, _, fields) -> fields | None -> [])
    @ [ ("max_abs_diff", Json.Num max_abs_diff) ]);
  if max_abs_diff > 1e-12 then begin
    Printf.eprintf
      "bench: FAIL: indexed completeness diverges from the oracle by \
       %.3e (> 1e-12)\n"
      max_abs_diff;
    exit 1
  end;
  (match !min_speedup with
   | Some want when speedup < want ->
     Printf.eprintf
       "bench: FAIL: indexed speedup %.1fx below the required %.1fx\n"
       speedup want;
     exit 1
   | _ -> ());
  (match cold with
   | None -> ()
   | Some (cold_speedup, cold_diff, _) ->
     if cold_diff <> 0.0 then begin
       Printf.eprintf
         "bench: FAIL: mapped index diverges from the heap index by %.3e \
          (must be exactly 0)\n"
         cold_diff;
       exit 1
     end;
     (match !min_cold_speedup with
      | Some want when cold_speedup < want ->
        Printf.eprintf
          "bench: FAIL: cold-start speedup %.1fx below the required %.1fx\n"
          cold_speedup want;
        exit 1
      | _ -> ()));
  print_endline "Query bench: OK"

let () =
  (* Hidden child mode, matched on the exact argv: the cold-start
     bench re-execs [--replica-rss IMG] to sample a replica's VmRSS. *)
  (match Array.to_list Sys.argv with
   | [ _; "--replica-rss"; image ] -> replica_rss_main image
   | _ -> ());
  Arg.parse specs add_experiment usage;
  let experiments = List.rev !experiments in
  if !query_bench then begin
    run_query_bench ();
    exit 0
  end;
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "Building the synthetic distribution (%d packages) and running the \
     full analysis pipeline...\n%!"
    !packages;
  let config =
    { Core.Distro.Generator.default_config with n_packages = !packages }
  in
  let env = Study.Env.create ~config () in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "Pipeline complete in %.1fs.\n%!" wall;
  Fmt.pr "Per-stage breakdown:@\n%a%!" Core.Perf.Stage.pp_report ();
  let mismatches =
    Core.Db.Pipeline.spot_check (Study.Env.analyzed_exn env)
  in
  Printf.printf
    "Spot check (Section 2.3): %d package footprint mismatches between \
     static analysis and ground truth.\n"
    (List.length mismatches);
  let quarantined =
    Core.Db.Pipeline.quarantined (Study.Env.analyzed_exn env)
  in
  Printf.printf
    "Quarantined binaries: %d (expected 0 on the clean corpus).\n"
    quarantined;
  List.iter
    (fun (x : Study.Experiments.t) ->
      print_string (x.Study.Experiments.render env);
      print_newline ())
    (if experiments = [] then Study.Experiments.all else experiments);
  if experiments = [] then print_table12 env;
  let micro_results = if !micro then run_micro env else [] in
  if !json then
    write_json
      ~binaries:(List.length env.Study.Env.store.Core.Db.Store.bins)
      ~wall ~micro_results
      ~source_key:
        (Core.Db.Snapshot.source_key
           ~seed:config.Core.Distro.Generator.seed
           ~n_packages:config.Core.Distro.Generator.n_packages
           ~total_installs:config.Core.Distro.Generator.total_installs ())
      (Printf.sprintf "BENCH_%d.json" !packages);
  Option.iter (check_against ~quarantined) !check_against_path
