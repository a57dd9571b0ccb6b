(* Benchmark and reproduction harness.

   Running this executable regenerates every figure and table of the
   paper's evaluation (paper-vs-measured, Sections 3-6), reports the
   Table 12 implementation-size comparison, and finally runs Bechamel
   micro-benchmarks of the pipeline stages (ELF parsing, disassembly
   and scanning, metric computation, query layer). The query, cold
   start, fleet and evolve benches are separate modes. Every report
   goes through [Report.write] (bench/report.ml), which also reads a
   committed report back for --check-against.

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
     dune exec bench/main.exe -- --evolve-bench --releases 20 --json *)

module Study = Core.Study
module P = Core.Distro.Package
module Json = Core.Query.Json
module Harness = Lapis_bench.Harness
module Loadgen = Lapis_bench.Loadgen

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
let evolve_bench = ref false
let releases = ref 20
let fleet_bench = ref false
let fleet_shards = ref 3

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
      ( "--json",
        Arg.Set json,
        " write BENCH_<N>.json (BENCH_EVOLVE.json with --evolve-bench)" );
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
        "X fail below this cold-start speedup";
      ( "--evolve-bench",
        Arg.Set evolve_bench,
        " incremental vs from-scratch analysis over a release history" );
      count ~min:0 "--releases" releases "R releases after the base (20)";
      ( "--fleet-bench",
        Arg.Set fleet_bench,
        " with --query-bench: sliced fleet memory and latency" );
      count "--fleet-shards" fleet_shards "N fleet bench shards (3)" ]

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
  \       bench/main.exe --query-bench [--cold-start-bench] [--fleet-bench] \
   [OPTION...]\n\
  \       bench/main.exe --evolve-bench [--releases R] [--packages N] [--json]"

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

(* --- query throughput bench ---------------------------------------

   Measures the indexed query engine against the closed-form oracle on
   random syscall subsets: both answer the same [--queries] weighted
   completeness questions, results are compared bit-for-bit (the index
   is built to replicate the oracle's fold orders, so the tolerance is
   1e-12, not "a few ulp per package"), and throughput plus speedup go
   into BENCH_QUERY.json, stamped with the snapshot source_key of the
   corpus the numbers were measured on. *)

(* --- wire-codec micro-bench ---------------------------------------

   What the binary codec buys on router↔shard traffic: one
   representative scattered-completeness exchange (a 32-syscall
   partial-completeness request + its partial response) encoded and
   decoded through both codecs. Round-trips are verified before
   timing — this is a correctness check that happens to be timed. *)

let run_codec_bench () =
  let module Pr = Core.Query.Protocol in
  let rng = Core.Distro.Rng.create 0x0c0dec in
  let syscalls = List.init 32 (fun _ -> Core.Distro.Rng.int rng 448) in
  let req =
    {
      Pr.rq_id = Some (Json.Num 123456.0);
      rq_op =
        Pr.Partial_completeness
          { syscalls; phase = Core.Query.Engine.All; lo = 0; hi = 5000 };
    }
  in
  let resp =
    {
      Pr.rs_id = Some (Json.Num 123456.0);
      rs_result =
        Ok (Pr.Partial_r { lo = 0; hi = 5000; num = 123.456789; den = 98765.5 });
    }
  in
  let json_req = Json.to_string (Pr.json_of_request req) in
  let json_resp = Json.to_string (Pr.json_of_response resp) in
  let bin_req = Pr.Bin.encode_request req in
  let bin_resp = Pr.Bin.encode_response resp in
  let payload s = String.sub s 5 (String.length s - 5) in
  let fail msg =
    Printf.eprintf "bench: FAIL: codec round-trip: %s\n" msg;
    exit 1
  in
  (match Json.parse json_req with
   | Ok j ->
     (match Pr.request_of_json j with
      | Ok r when r = req -> ()
      | _ -> fail "JSON request changed in flight")
   | Error e -> fail e);
  (match Pr.Bin.decode_request (payload bin_req) with
   | Ok r when r = req -> ()
   | _ -> fail "binary request changed in flight");
  (match Pr.Bin.decode_response (payload bin_resp) with
   | Ok r when r = resp -> ()
   | _ -> fail "binary response changed in flight");
  let iters = 20_000 in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let json_ns =
    time (fun () ->
        let rq = Json.to_string (Pr.json_of_request req) in
        (match Json.parse rq with
         | Ok j -> ignore (Pr.request_of_json j)
         | Error _ -> assert false);
        let rs = Json.to_string (Pr.json_of_response resp) in
        match Json.parse rs with
        | Ok j -> ignore (Pr.response_of_json j)
        | Error _ -> assert false)
  in
  let bin_ns =
    time (fun () ->
        ignore (Pr.Bin.decode_request (payload (Pr.Bin.encode_request req)));
        ignore
          (Pr.Bin.decode_response (payload (Pr.Bin.encode_response resp))))
  in
  (* one request+response round-trip each, JSON lines vs binary *)
  let speedup = json_ns /. Float.max bin_ns 1e-9 in
  let json_bytes = String.length json_req + String.length json_resp + 2 in
  let bin_bytes = String.length bin_req + String.length bin_resp in
  Printf.printf
    "Wire codecs: scatter exchange %d B json / %d B binary\n\
    \  json round-trip:   %.0f ns\n\
    \  binary round-trip: %.0f ns (%.1fx cheaper)\n%!"
    json_bytes bin_bytes json_ns bin_ns speedup;
  [ ("codec_json_ns", Json.Num json_ns);
    ("codec_bin_ns", Json.Num bin_ns);
    ("codec_speedup", Json.Num speedup);
    ("codec_json_bytes", int json_bytes);
    ("codec_bin_bytes", int bin_bytes) ]

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

(* Hidden child mode for the fleet bench: serve one mapped image as a
   real shard process — a single-worker TCP server with the response
   cache off — printing the bound port, until the parent kills us.
   Separate processes matter: systhreads in one process share their
   domain's scheduler, so an in-process "fleet" measures lock handoffs
   between the router, the shards and the load clients instead of the
   wire path the real [lapis fleet] runs. *)
let fleet_shard_main image =
  let module Server = Core.Query.Server in
  match Core.Query.Engine.load_image ~verify:false image with
  | Error e ->
    Printf.eprintf "fleet-shard: cannot map %s: %s\n" image
      (Fmt.str "%a" Core.Db.Snapshot.pp_error e);
    exit 1
  | Ok idx ->
    (match
       Server.start
         ~config:{ Server.default with workers = Some 1; cache_capacity = 0 }
         idx
     with
     | Error msg ->
       Printf.eprintf "fleet-shard: %s\n" msg;
       exit 1
     | Ok s ->
       Printf.printf "%d\n%!" (Server.port s);
       Server.wait s)

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

(* --- fleet bench ---------------------------------------------------

   What the sliced fleet buys, measured end to end in one process
   tree. Two questions, two numbers each:

   - memory: per-shard VmRSS when every shard maps the full image vs
     when each maps only its range slice (the slices are cut with
     [save_image ~range] over the exact [shard_ranges] partition the
     router scatters over, same as [lapis fleet --slice]);
   - latency: scatter qps at saturation — [fleet_clients] closed-loop
     connections over a fleet of [fleet_shards] single-worker shard
     processes, each serving a loaded slice — then scatter p99 at a
     fixed open-loop rate below it.

   The load comes from the benchmark's event-loop client
   (benchmark/loadgen.ml), speaking the binary codec: the JSON client
   codec costs an order of magnitude more CPU per exchange (see the
   codec bench), and on a saturated machine that parse time would
   drown the router-shard path this bench exists to compare.

   Shard and router response caches are disabled so later passes
   cannot answer from entries earlier ones warmed. Every routed
   answer is checked against the single-process index within 1e-12
   before it counts — a wrong fast fleet fails the bench, it does not
   win it. *)

let fleet_clients = 16

(* How long the closed-loop saturation pass runs. *)
let fleet_saturation_s = 1.0

(* Completeness requests drawn round-robin from [subsets], each answer
   checked within 1e-12 of the single-process [expected] one. *)
let fleet_stream ~subsets ~expected =
  let module Pr = Core.Query.Protocol in
  let n = Array.length subsets in
  Lapis_bench.Serving.bin_stream
    ~request:(fun id ->
      Pr.Bin.encode_request
        { Pr.rq_id = Some (Core.Query.Json.Num (float_of_int id));
          rq_op =
            Pr.Completeness
              { syscalls = subsets.(id mod n); phase = Core.Query.Engine.All }
        })
    ~check:(fun id r ->
      Harness.check_completeness ~id ~phase:Core.Query.Engine.All
        ~n_syscalls:(List.length subsets.(id mod n))
        ~expected:expected.(id mod n) ~tol:1e-12 r)

(* A phase's qps and p99 in ms, counted only if every answer was
   right; a refused (degraded) answer fails it too. Raises rather than exits, so the
   callers' [Fun.protect] stop the router and the shard processes on
   the way out. *)
let fleet_phase (c : Loadgen.t) (ph : Loadgen.phase) =
  if ph.Loadgen.wrong > 0 || ph.Loadgen.refused > 0 then
    failwith
      (Printf.sprintf
         "bench: FAIL: %d wrong and %d refused fleet answer(s)%s"
         ph.Loadgen.wrong ph.Loadgen.refused
         (match c.Loadgen.first_wrong with
          | Some msg -> ", first: " ^ msg
          | None -> ""));
  (Loadgen.achieved ph, Harness.percentile (Loadgen.ms ph.Loadgen.lat) 0.99)

let run_fleet_bench ~env ~source_key ~subsets =
  let module Engine = Core.Query.Engine in
  let module Server = Core.Query.Server in
  let module Router = Core.Query.Router in
  let idx = env.Study.Env.index in
  let n = Engine.n_packages idx in
  let cleanup = ref [] in
  let temp suffix =
    let path = Filename.temp_file "lapis-fleet" suffix in
    cleanup := path :: !cleanup;
    path
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !cleanup)
  @@ fun () ->
  let save ?range path =
    match Engine.save_image ~source_key ?range path idx with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "bench: cannot save fleet image: %s\n"
        (Fmt.str "%a" Core.Db.Snapshot.pp_error e);
      exit 1
  in
  let full_path = temp ".idx" in
  save full_path;
  let ranges = Engine.shard_ranges n !fleet_shards in
  let shards = List.length ranges in
  let slice_paths =
    List.map
      (fun (lo, hi) ->
        let path = temp (Printf.sprintf ".slice-%d-%d" lo hi) in
        save ~range:(lo, hi) path;
        path)
      ranges
  in
  let image_bytes = (Unix.stat full_path).Unix.st_size in
  let sliced_bytes_total =
    List.fold_left
      (fun acc p -> acc + (Unix.stat p).Unix.st_size)
      0 slice_paths
  in
  (* Per-shard memory: a fleet of N full-image replicas vs one replica
     per slice, each probed once through the same re-exec'd child. *)
  let rss_of what = function
    | Some kb -> kb
    | None ->
      Printf.eprintf "bench: FAIL: no %s replica produced an RSS sample\n"
        what;
      exit 1
  in
  let rss_full_kb =
    rss_of "full-image"
      (measure_replica_rss ~image:full_path ~replicas:shards)
  in
  let rss_sliced_kb =
    let kbs =
      List.map
        (fun p ->
          rss_of "sliced" (measure_replica_rss ~image:p ~replicas:1))
        slice_paths
    in
    List.fold_left ( +. ) 0.0 kbs /. float_of_int (List.length kbs)
  in
  (* The fleet proper: one re-exec'd single-worker shard process per
     slice (see [fleet_shard_main] for why processes, not threads), a
     router in front, response caches off on both layers. *)
  let spawn_shard path =
    let out, inp = Unix.pipe ~cloexec:false () in
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "--fleet-shard"; path |]
        Unix.stdin inp Unix.stderr
    in
    Unix.close inp;
    let ic = Unix.in_channel_of_descr out in
    let port =
      match int_of_string_opt (String.trim (input_line ic)) with
      | Some p -> p
      | None | (exception End_of_file) ->
        Printf.eprintf "bench: shard for %s died before binding\n" path;
        exit 1
    in
    close_in ic;
    (pid, port)
  in
  let shard_procs = List.map spawn_shard slice_paths in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (pid, _) ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        shard_procs)
  @@ fun () ->
  let specs =
    List.map
      (fun (_, port) -> { Router.sh_host = "127.0.0.1"; sh_port = port })
      shard_procs
  in
  let subsets = Array.of_list subsets in
  let expected = Array.map (Engine.eval_syscalls idx) subsets in
  let stream = fleet_stream ~subsets ~expected in
  (* One router per pass, and one load connection per client to it. *)
  let with_load f =
    match
      Router.start
        ~config:
          { Router.default with cache_capacity = 0; workers = fleet_clients }
        specs
    with
    | Error msg ->
      Printf.eprintf "bench: cannot start router: %s\n" msg;
      exit 1
    | Ok router ->
      Fun.protect ~finally:(fun () -> Router.stop router) @@ fun () ->
      let c =
        Loadgen.create
          ~ports:(List.init fleet_clients (fun _ -> Router.port router))
          stream
      in
      Fun.protect ~finally:(fun () -> Loadgen.close c) @@ fun () ->
      fleet_phase c (f c)
  in
  (* The open-loop rate sits well below saturation so the schedule is
     sustainable and the p99 measures how the fleet absorbs arrival
     bursts. Closed-loop clients send in windows, which the router and
     shards serve more cheaply than the same load arriving one request
     at a time: on a 2-vCPU host, 0.7x of the closed-loop rate already
     overran the router's queue. *)
  let sat_qps, sat_p99_ms =
    with_load (fun c ->
        Loadgen.closed_loop c ~window:8 ~seconds:fleet_saturation_s)
  in
  let open_rate = Float.max 1.0 (0.5 *. sat_qps) in
  (* Exactly [queries] slots: the run lasts that many periods, plus
     half of one so the float round trip cannot drop the last slot. *)
  let open_s =
    let period = Harness.period_ns open_rate in
    float_of_int ((!queries * period) + (period / 2)) /. 1e9
  in
  (* A sub-second open-loop run puts ~20 samples above p99, so one
     scheduler hiccup owns the tail; the median of three trials is the
     stable estimate. *)
  let open_p99_ms =
    let trials =
      List.init 3 (fun _ ->
          snd
            (with_load (fun c ->
                 Loadgen.open_loop c ~rate:open_rate ~seconds:open_s)))
    in
    match List.sort compare trials with
    | [ _; med; _ ] -> med
    | _ -> assert false
  in
  Printf.printf
    "Fleet bench: %d shards over %d packages, %d clients\n\
    \  image: full %d B, slices %d B total (%.2fx)\n\
    \  replica RSS: full %.0f kB, sliced %.0f kB per shard\n\
    \  saturation: %.0f q/s, p99 %.2f ms\n\
    \  open loop at %.0f q/s, %d requests: p99 %.2f ms\n%!"
    shards n fleet_clients image_bytes sliced_bytes_total
    (float_of_int sliced_bytes_total /. float_of_int (max 1 image_bytes))
    rss_full_kb rss_sliced_kb sat_qps sat_p99_ms open_rate !queries
    open_p99_ms;
  [ ("fleet_shards", int shards);
    ("fleet_image_bytes", int image_bytes);
    ("fleet_sliced_bytes_total", int sliced_bytes_total);
    ("fleet_rss_full_kb", Json.Num rss_full_kb);
    ("fleet_rss_sliced_kb", Json.Num rss_sliced_kb);
    ("fleet_sat_qps", Json.Num sat_qps);
    ("fleet_open_rate_qps", Json.Num open_rate);
    ("fleet_open_p99_ms", Json.Num open_p99_ms) ]

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
  let fleet =
    if !fleet_bench then run_fleet_bench ~env ~source_key ~subsets else []
  in
  let codec = run_codec_bench () in
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
    @ fleet @ codec
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

(* --- evolve bench --------------------------------------------------

   The living-distribution gate: evolve the world release by release
   and analyze every release twice — from scratch (a fresh per-run
   cache) and incrementally (one content-hash cache carried across
   the whole sequence). The two snapshots must be byte-identical at
   EVERY release; BENCH_EVOLVE.json records the wall-time ratio, the
   cache-reuse counters, the delta-vs-full snapshot sizes, the index
   build time and the delta encode time. *)

let run_evolve_bench () =
  let module G = Core.Distro.Generator in
  let module Pl = Core.Db.Pipeline in
  let module Sn = Core.Db.Snapshot in
  let config = { G.default_config with n_packages = !packages } in
  let cache = Pl.new_cache () in
  let inc_config = { Pl.default with shared_cache = Some cache } in
  Printf.printf
    "Evolve bench: %d releases over %d packages, incremental vs \
     from-scratch...\n%!"
    !releases !packages;
  let base = ref None in
  let rows = ref [] in
  let tot_scratch = ref 0.0 and tot_inc = ref 0.0 in
  let prev_hits = ref 0 and prev_misses = ref 0 and tot_reused = ref 0 in
  for r = 0 to !releases do
    let dist = G.evolve ~config ~release:r () in
    let t0 = Unix.gettimeofday () in
    let scratch = Pl.run dist in
    let t1 = Unix.gettimeofday () in
    let reused0 = Core.Perf.Stage.counter "resolve:reused" in
    let incr = Pl.run ~config:inc_config dist in
    let t2 = Unix.gettimeofday () in
    let reused = Core.Perf.Stage.counter "resolve:reused" - reused0 in
    tot_reused := !tot_reused + reused;
    ignore (Core.Query.Engine.index incr.Pl.store);
    let index_s = Unix.gettimeofday () -. t2 in
    let snap_inc = Sn.of_analyzed incr in
    let b_inc = Sn.to_string snap_inc in
    let b_scratch = Sn.to_string (Sn.of_analyzed scratch) in
    if b_scratch <> b_inc then begin
      Printf.eprintf
        "bench: FAIL: release %d: the incremental snapshot differs from \
         the from-scratch one (%d vs %d bytes) — the shared analysis \
         cache leaked state across releases\n"
        r (String.length b_inc) (String.length b_scratch);
      exit 1
    end;
    let hits = Core.Perf.Stage.counter "incremental:hits" in
    let misses = Core.Perf.Stage.counter "incremental:misses" in
    let dh = hits - !prev_hits and dm = misses - !prev_misses in
    prev_hits := hits;
    prev_misses := misses;
    (* delta bytes and encode time are 0 for the base release *)
    let delta_bytes, delta_s =
      match !base with
      | None ->
        base := Some snap_inc;
        (0, 0.0)
      | Some b ->
        let t0 = Unix.gettimeofday () in
        let d = Sn.to_delta_string ~base:b snap_inc in
        (String.length d, Unix.gettimeofday () -. t0)
    in
    tot_scratch := !tot_scratch +. (t1 -. t0);
    tot_inc := !tot_inc +. (t2 -. t1);
    rows :=
      Json.Obj
        [ ("release", int r);
          ("scratch_s", Json.Num (t1 -. t0));
          ("inc_s", Json.Num (t2 -. t1));
          ("hits", int dh);
          ("misses", int dm);
          ("reused", int reused);
          ("full_bytes", int (String.length b_inc));
          ("delta_bytes", int delta_bytes);
          ("index_s", Json.Num index_s);
          ("delta_s", Json.Num delta_s) ]
      :: !rows;
    Printf.printf
      "  release %2d: identical (%d bytes); scratch %.2fs, incremental \
       %.2fs, index %.3fs, reuse %d/%d, %d resolutions reused%s\n%!"
      r (String.length b_inc) (t1 -. t0) (t2 -. t1) index_s dh (dh + dm)
      reused
      (if delta_bytes = 0 then ""
       else Printf.sprintf ", delta %d bytes in %.3fs" delta_bytes delta_s)
  done;
  let hits = Core.Perf.Stage.counter "incremental:hits" in
  let misses = Core.Perf.Stage.counter "incremental:misses" in
  let ratio = if !tot_scratch > 0.0 then !tot_inc /. !tot_scratch else 0.0 in
  Printf.printf
    "Evolve bench: all %d releases bit-identical; wall %.2fs scratch vs \
     %.2fs incremental (ratio %.2f), cache reuse %d/%d\n%!"
    (!releases + 1) !tot_scratch !tot_inc ratio hits (hits + misses);
  if !json then
    Report.write "BENCH_EVOLVE.json"
      [ ("packages", int !packages);
        ("releases", int !releases);
        ("identical", Json.Bool true);
        ("scratch_wall_s", Json.Num !tot_scratch);
        ("incremental_wall_s", Json.Num !tot_inc);
        ("wall_ratio", Json.Num ratio);
        ("cache_hits", int hits);
        ("cache_misses", int misses);
        ("resolutions_reused", int !tot_reused);
        ( "reuse",
          Json.Num
            (if hits + misses > 0 then
               float_of_int hits /. float_of_int (hits + misses)
             else 0.0) );
        ("rows", Json.Arr (List.rev !rows)) ];
  print_endline "Evolve bench: OK"

let () =
  (* Hidden child modes, matched on the exact argv: the cold-start
     bench re-execs [--replica-rss IMG] to sample a replica's VmRSS,
     the fleet bench re-execs [--fleet-shard IMG] for each shard. *)
  (match Array.to_list Sys.argv with
   | [ _; "--replica-rss"; image ] -> replica_rss_main image
   | [ _; "--fleet-shard"; image ] ->
     fleet_shard_main image;
     exit 0
   | _ -> ());
  Arg.parse specs add_experiment usage;
  let experiments = List.rev !experiments in
  if !query_bench then begin
    run_query_bench ();
    exit 0
  end;
  if !evolve_bench then begin
    run_evolve_bench ();
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
