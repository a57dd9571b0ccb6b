(* Reproduction harness.

   Running this executable regenerates every figure and table of the
   paper's evaluation (paper-vs-measured, Sections 3-6), reports the
   Table 12 implementation-size comparison, and finally runs Bechamel
   micro-benchmarks of the pipeline stages (ELF parsing, disassembly
   and scanning, metric computation, the wire codecs). Serving and
   release timing lives in benchmark/ (benchmark/run.sh); what the
   query index and mapped images must do is checked exactly by the
   Tier-1 tests (test/test_query.ml, test/test_image.ml). Every
   report goes through [Report.write] (bench/report.ml), which also
   reads a committed report back for --check-against.

   Usage (--help lists every option; a bad or unknown argument,
   including an unknown experiment id, exits 2):
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- fig3 table6   # selected experiments
     dune exec bench/main.exe -- --no-micro    # skip Bechamel runs
     dune exec bench/main.exe -- --packages 2000
     dune exec bench/main.exe -- --json        # write BENCH_<n>.json
     dune exec bench/main.exe -- --check-against bench/baseline_200.json *)

module Study = Core.Study
module P = Core.Distro.Package
module Json = Core.Query.Json

(* --- command line ------------------------------------------------- *)

let experiments = ref []
let micro = ref true
let packages = ref 1400
let json = ref false
let check_against_path = ref None

let specs =
  Arg.align
    [ ("--no-micro", Arg.Clear micro, " skip the Bechamel micro-benchmarks");
      ( "--packages",
        Arg.Int
          (fun v ->
            if v >= 1 then packages := v
            else
              raise
                (Arg.Bad
                   (Printf.sprintf
                      "--packages expects a positive integer, got %d" v))),
        "N synthetic distribution size (1400)" );
      ("--json", Arg.Set json, " write BENCH_<N>.json");
      ( "--check-against",
        Arg.String (fun f -> check_against_path := Some f),
        "FILE fail on a >50% stage regression against this BENCH report" ) ]

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
   [--json] [--check-against FILE]"

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

let () =
  Arg.parse specs add_experiment usage;
  let experiments = List.rev !experiments in
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
