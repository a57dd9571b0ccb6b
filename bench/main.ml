(* Benchmark and reproduction harness.

   Running this executable regenerates every figure and table of the
   paper's evaluation (paper-vs-measured, Sections 3-6), reports the
   Table 12 implementation-size comparison, and finally runs Bechamel
   micro-benchmarks of the pipeline stages (ELF parsing, disassembly
   and scanning, metric computation, query layer).

   Usage:
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- fig3 table6   # selected experiments
     dune exec bench/main.exe -- --no-micro    # skip Bechamel runs
     dune exec bench/main.exe -- --packages 2000
     dune exec bench/main.exe -- --json        # write BENCH_<n>.json
     dune exec bench/main.exe -- --check-against bench/baseline_200.json
     dune exec bench/main.exe -- --query-bench --queries 1000
     dune exec bench/main.exe -- --query-bench --snapshot snap.lapis \
                                  --min-speedup 50 *)

module Study = Core.Study
module P = Core.Distro.Package
module Harness = Lapis_bench.Harness
module Loadgen = Lapis_bench.Loadgen

let default_packages = 1400

type args = {
  ids : string list;
  micro : bool;
  packages : int;
  json : bool;
  check_against : string option;
  query_bench : bool;
  queries : int;
  snapshot : string option;
  min_speedup : float option;
  cold_start : bool;
  image : string option;
  replicas : int;
  min_cold_speedup : float option;
  evolve_bench : bool;
  releases : int;
  fleet_bench : bool;
  fleet_shards : int;
}

let usage () =
  prerr_endline
    "usage: bench/main.exe [EXPERIMENT...] [--no-micro] [--packages N] \
     [--json] [--check-against FILE]\n\
    \       bench/main.exe --query-bench [--queries N] [--snapshot FILE] \
     [--min-speedup X] [--packages N]\n\
    \       bench/main.exe --query-bench --cold-start-bench [--image FILE] \
     [--replicas N] [--min-cold-speedup X]\n\
    \       bench/main.exe --evolve-bench [--releases R] [--packages N]\n\
    \       bench/main.exe --query-bench --fleet-bench [--fleet-shards N]";
  exit 2

let parse_args () =
  let ids = ref []
  and micro = ref true
  and packages = ref default_packages
  and json = ref false
  and check_against = ref None
  and query_bench = ref false
  and queries = ref 1000
  and snapshot = ref None
  and min_speedup = ref None
  and cold_start = ref false
  and image = ref None
  and replicas = ref 4
  and min_cold_speedup = ref None
  and evolve_bench = ref false
  and releases = ref 20
  and fleet_bench = ref false
  and fleet_shards = ref 3 in
  let rec go = function
    | [] -> ()
    | "--no-micro" :: rest ->
      micro := false;
      go rest
    | "--packages" :: n :: rest ->
      (match int_of_string_opt n with
       | Some v when v > 0 -> packages := v
       | Some _ | None ->
         Printf.eprintf
           "bench: --packages expects a positive integer, got %S\n" n;
         usage ());
      go rest
    | [ "--packages" ] ->
      prerr_endline "bench: --packages expects an argument";
      usage ()
    | "--json" :: rest ->
      json := true;
      go rest
    | "--check-against" :: file :: rest ->
      check_against := Some file;
      go rest
    | [ "--check-against" ] ->
      prerr_endline "bench: --check-against expects a file argument";
      usage ()
    | "--query-bench" :: rest ->
      query_bench := true;
      go rest
    | "--queries" :: n :: rest ->
      (match int_of_string_opt n with
       | Some v when v > 0 -> queries := v
       | Some _ | None ->
         Printf.eprintf
           "bench: --queries expects a positive integer, got %S\n" n;
         usage ());
      go rest
    | [ "--queries" ] ->
      prerr_endline "bench: --queries expects an argument";
      usage ()
    | "--snapshot" :: file :: rest ->
      snapshot := Some file;
      go rest
    | [ "--snapshot" ] ->
      prerr_endline "bench: --snapshot expects a file argument";
      usage ()
    | "--min-speedup" :: x :: rest ->
      (match float_of_string_opt x with
       | Some v when v > 0.0 -> min_speedup := Some v
       | Some _ | None ->
         Printf.eprintf
           "bench: --min-speedup expects a positive number, got %S\n" x;
         usage ());
      go rest
    | [ "--min-speedup" ] ->
      prerr_endline "bench: --min-speedup expects an argument";
      usage ()
    | "--cold-start-bench" :: rest ->
      cold_start := true;
      go rest
    | "--image" :: file :: rest ->
      image := Some file;
      go rest
    | [ "--image" ] ->
      prerr_endline "bench: --image expects a file argument";
      usage ()
    | "--replicas" :: n :: rest ->
      (match int_of_string_opt n with
       | Some v when v > 0 -> replicas := v
       | Some _ | None ->
         Printf.eprintf
           "bench: --replicas expects a positive integer, got %S\n" n;
         usage ());
      go rest
    | [ "--replicas" ] ->
      prerr_endline "bench: --replicas expects an argument";
      usage ()
    | "--min-cold-speedup" :: x :: rest ->
      (match float_of_string_opt x with
       | Some v when v > 0.0 -> min_cold_speedup := Some v
       | Some _ | None ->
         Printf.eprintf
           "bench: --min-cold-speedup expects a positive number, got %S\n" x;
         usage ());
      go rest
    | [ "--min-cold-speedup" ] ->
      prerr_endline "bench: --min-cold-speedup expects an argument";
      usage ()
    | "--evolve-bench" :: rest ->
      evolve_bench := true;
      go rest
    | "--fleet-bench" :: rest ->
      fleet_bench := true;
      go rest
    | "--fleet-shards" :: n :: rest ->
      (match int_of_string_opt n with
       | Some v when v > 0 -> fleet_shards := v
       | Some _ | None ->
         Printf.eprintf
           "bench: --fleet-shards expects a positive integer, got %S\n" n;
         usage ());
      go rest
    | [ "--fleet-shards" ] ->
      prerr_endline "bench: --fleet-shards expects an argument";
      usage ()
    | "--releases" :: n :: rest ->
      (match int_of_string_opt n with
       | Some v when v >= 0 -> releases := v
       | Some _ | None ->
         Printf.eprintf
           "bench: --releases expects a non-negative integer, got %S\n" n;
         usage ());
      go rest
    | [ "--releases" ] ->
      prerr_endline "bench: --releases expects an argument";
      usage ()
    | id :: rest ->
      if String.length id > 1 && id.[0] = '-' then begin
        Printf.eprintf "bench: unknown option %s\n" id;
        usage ()
      end;
      ids := id :: !ids;
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  {
    ids = List.rev !ids;
    micro = !micro;
    packages = !packages;
    json = !json;
    check_against = !check_against;
    query_bench = !query_bench;
    queries = !queries;
    snapshot = !snapshot;
    min_speedup = !min_speedup;
    cold_start = !cold_start;
    image = !image;
    replicas = !replicas;
    min_cold_speedup = !min_cold_speedup;
    evolve_bench = !evolve_bench;
    releases = !releases;
    fleet_bench = !fleet_bench;
    fleet_shards = !fleet_shards;
  }

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

   Emitted with plain printf (no JSON library in the tree) in a fixed,
   line-oriented shape that [read_baseline] below can scan back:

     {
       "packages": 200,
       "binaries": 512,
       "wall_s": 1.234,
       "stage_total_s": 2.345,
       "stages": [ { "name": "...", "seconds": ..., "entries": ... } ],
       "counters": [ { "name": "...", "value": ... } ],
       "micro_ns": [ { "name": "...", "ns_per_run": ... } ]
     } *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let stage_total lines =
  List.fold_left
    (fun a (l : Core.Perf.Stage.line) -> a +. l.Core.Perf.Stage.l_seconds)
    0.0 lines

let write_json ~packages ~binaries ~wall ~micro_results ~git ~source_key path =
  let module S = Core.Perf.Stage in
  let lines = S.report () in
  let oc = open_out path in
  let pf fmt = Printf.fprintf oc fmt in
  let pp_items pp = function
    | [] -> pf " ]"
    | items ->
      List.iteri
        (fun i x -> pf "%s\n    %t" (if i = 0 then "" else ",") (pp x))
        items;
      pf "\n  ]"
  in
  pf "{\n";
  pf "  \"git\": \"%s\",\n" (json_escape git);
  pf "  \"source_key\": \"%s\",\n" (json_escape source_key);
  pf "  \"packages\": %d,\n" packages;
  pf "  \"binaries\": %d,\n" binaries;
  pf "  \"wall_s\": %.6f,\n" wall;
  pf "  \"stage_total_s\": %.6f,\n" (stage_total lines);
  pf "  \"stages\": [";
  pp_items
    (fun (l : S.line) oc ->
      Printf.fprintf oc
        "{ \"name\": \"%s\", \"seconds\": %.6f, \"entries\": %d }"
        (json_escape l.S.l_name) l.S.l_seconds l.S.l_entries)
    lines;
  pf ",\n  \"counters\": [";
  pp_items
    (fun (name, v) oc ->
      Printf.fprintf oc "{ \"name\": \"%s\", \"value\": %d }"
        (json_escape name) v)
    (S.report_counters ());
  pf ",\n  \"micro_ns\": [";
  pp_items
    (fun (name, ns) oc ->
      Printf.fprintf oc "{ \"name\": \"%s\", \"ns_per_run\": %.1f }"
        (json_escape name) ns)
    micro_results;
  pf "\n}\n";
  close_out oc;
  Printf.printf "Wrote %s\n%!" path

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
   set. One-sided stages are reported, never silently dropped.
   Baselines from before the per-stage rows existed gate on
   stage_total_s as before. *)
let check_against ~stage_total_now ~quarantined path =
  let module B = Core.Perf.Baseline in
  (match B.load path with
   | Error msg ->
     Printf.eprintf "bench: cannot read baseline %s: %s\n" path msg;
     exit 1
   | Ok baseline ->
     let gate ~what ~now ~base =
       let limit = base *. 1.5 in
       Printf.printf "Regression check: %s %.3fs vs baseline %.3fs \
                      (limit %.3fs)\n"
         what now base limit;
       if now > limit then begin
         Printf.eprintf
           "bench: FAIL: %s regressed more than 50%% (%.3fs > %.3fs)\n"
           what now limit;
         exit 1
       end
     in
     (match baseline.B.stages with
      | [] ->
        (match baseline.B.stage_total_s with
         | None ->
           Printf.eprintf
             "bench: baseline %s has neither per-stage rows nor \
              \"stage_total_s\"\n"
             path;
           exit 1
         | Some base ->
           gate ~what:"pipeline stage total" ~now:stage_total_now ~base)
      | _ :: _ ->
        let now =
          List.map
            (fun (l : Core.Perf.Stage.line) ->
              (l.Core.Perf.Stage.l_name, l.Core.Perf.Stage.l_seconds))
            (Core.Perf.Stage.report ())
        in
        let v = B.compare_stages baseline now in
        if v.B.only_now <> [] then
          Printf.printf
            "Regression check: %d stage(s) newer than the baseline \
             (reported, not gated): %s\n"
            (List.length v.B.only_now)
            (String.concat " " v.B.only_now);
        if v.B.only_baseline <> [] then
          Printf.printf
            "Regression check: %d baseline stage(s) absent from this \
             run: %s\n"
            (List.length v.B.only_baseline)
            (String.concat " " v.B.only_baseline);
        if v.B.shared = [] then begin
          Printf.eprintf
            "bench: FAIL: no stage names shared with baseline %s — \
             nothing to gate on\n"
            path;
          exit 1
        end;
        gate
          ~what:
            (Printf.sprintf "total over %d shared stages"
               (List.length v.B.shared))
          ~now:v.B.shared_now_s ~base:v.B.shared_baseline_s));
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
   into BENCH_QUERY.json. *)

(* Identity stamps: the git commit of the working tree (so the
   BENCH_* trajectory is comparable across PRs) and the snapshot
   source_key of the corpus the numbers were measured on.

   Re-stamped BENCH artifacts themselves (BENCH_*.json in the repo
   root) do not count as dirt — the whole point of a bench run is to
   rewrite them — but any other modification taints the stamp with
   "-dirty" and a loud warning, because a "-dirty" hash is
   unreproducible: nobody can check out the code the numbers came
   from. *)
let run_git argv =
  let out, inp = Unix.pipe ~cloexec:false () in
  match
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process "git" (Array.of_list ("git" :: argv)) Unix.stdin inp
        null
    in
    Unix.close null;
    Unix.close inp;
    let ic = Unix.in_channel_of_descr out in
    let b = Buffer.create 256 in
    (try
       while true do
         Buffer.add_channel b ic 1
       done
     with End_of_file -> ());
    close_in ic;
    (snd (Unix.waitpid [] pid), Buffer.contents b)
  with
  | Unix.WEXITED 0, s -> Some s
  | _ -> None
  | exception _ ->
    (try Unix.close inp with Unix.Unix_error _ -> ());
    (try Unix.close out with Unix.Unix_error _ -> ());
    None

let is_bench_artifact path =
  let base = Filename.basename path in
  String.length base > 6
  && String.sub base 0 6 = "BENCH_"
  && Filename.check_suffix base ".json"

let git_stamp () =
  match run_git [ "rev-parse"; "--short"; "HEAD" ] with
  | None -> "unknown"
  | Some head ->
    let head = String.trim head in
    let dirt =
      match run_git [ "status"; "--porcelain" ] with
      | None -> [ "(git status failed)" ]
      | Some status ->
        String.split_on_char '\n' status
        |> List.filter_map (fun line ->
               if String.length line < 4 then None
               else
                 let path = String.sub line 3 (String.length line - 3) in
                 (* "R old -> new" lines: judge the destination. *)
                 let path =
                   match String.index_opt path '>' with
                   | Some i when i > 0 && path.[i - 1] = '-' ->
                     String.trim
                       (String.sub path (i + 1) (String.length path - i - 1))
                   | _ -> path
                 in
                 if is_bench_artifact path then None else Some path)
    in
    (match dirt with
     | [] -> head
     | paths ->
       Printf.eprintf
         "bench: WARNING: stamping a dirty tree (%s-dirty): %d modified \
          path(s) beyond BENCH_*.json (e.g. %s); the recorded numbers \
          cannot be attributed to a commit\n%!"
         head (List.length paths) (List.hd paths);
       head ^ "-dirty")

(* Results of the cold-start comparison: open()-to-first-answer for
   the decode-and-rebuild path vs the mmap-the-image path, plus how
   much resident memory each extra replica of a mapped image costs. *)
type cold_results = {
  cr_image_bytes : int;
  cr_decode_s : float;
  cr_map_s : float;
  cr_speedup : float;
  cr_max_abs_diff : float;
  cr_replicas : int;
  cr_replica_rss_kb : float;
}

(* Results of the fleet bench (see the fleet-bench section below):
   per-shard resident memory with full vs range-sliced images, and
   scatter throughput and p99 over the sliced fleet. *)
type fleet_results = {
  fl_shards : int;
  fl_image_bytes : int;
  fl_sliced_bytes_total : int;
  fl_rss_full_kb : float;
  fl_rss_sliced_kb : float;
  fl_sat_qps : float;
  fl_open_rate_qps : float;
  fl_open_p99_ms : float;  (* open loop at [fl_open_rate_qps] *)
}

let stage_seconds names =
  let module S = Core.Perf.Stage in
  List.fold_left
    (fun acc (l : S.line) ->
      if List.mem l.S.l_name names then acc +. l.S.l_seconds else acc)
    0.0 (S.report ())

(* --- wire-codec micro-bench ---------------------------------------

   What the binary codec buys on router↔shard traffic: one
   representative scattered-completeness exchange (a 32-syscall
   partial-completeness request + its partial response) encoded and
   decoded through both codecs. Round-trips are verified before
   timing — this is a correctness check that happens to be timed. *)

type codec_result = {
  cb_json_ns : float;  (* one request+response round-trip, JSON lines *)
  cb_bin_ns : float;  (* same exchange, length-prefixed binary *)
  cb_speedup : float;
  cb_json_bytes : int;
  cb_bin_bytes : int;
}

let run_codec_bench () =
  let module Pr = Core.Query.Protocol in
  let module J = Core.Query.Json in
  let rng = Core.Distro.Rng.create 0x0c0dec in
  let syscalls = List.init 32 (fun _ -> Core.Distro.Rng.int rng 448) in
  let req =
    {
      Pr.rq_id = Some (J.Num 123456.0);
      rq_op =
        Pr.Partial_completeness
          { syscalls; phase = Core.Query.Engine.All; lo = 0; hi = 5000 };
    }
  in
  let resp =
    {
      Pr.rs_id = Some (J.Num 123456.0);
      rs_result =
        Ok (Pr.Partial_r { lo = 0; hi = 5000; num = 123.456789; den = 98765.5 });
    }
  in
  let json_req = J.to_string (Pr.json_of_request req) in
  let json_resp = J.to_string (Pr.json_of_response resp) in
  let bin_req = Pr.Bin.encode_request req in
  let bin_resp = Pr.Bin.encode_response resp in
  let payload s = String.sub s 5 (String.length s - 5) in
  let fail msg =
    Printf.eprintf "bench: FAIL: codec round-trip: %s\n" msg;
    exit 1
  in
  (match J.parse json_req with
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
        let rq = J.to_string (Pr.json_of_request req) in
        (match J.parse rq with
         | Ok j -> ignore (Pr.request_of_json j)
         | Error _ -> assert false);
        let rs = J.to_string (Pr.json_of_response resp) in
        match J.parse rs with
        | Ok j -> ignore (Pr.response_of_json j)
        | Error _ -> assert false)
  in
  let bin_ns =
    time (fun () ->
        ignore (Pr.Bin.decode_request (payload (Pr.Bin.encode_request req)));
        ignore
          (Pr.Bin.decode_response (payload (Pr.Bin.encode_response resp))))
  in
  let r =
    {
      cb_json_ns = json_ns;
      cb_bin_ns = bin_ns;
      cb_speedup = json_ns /. Float.max bin_ns 1e-9;
      cb_json_bytes = String.length json_req + String.length json_resp + 2;
      cb_bin_bytes = String.length bin_req + String.length bin_resp;
    }
  in
  Printf.printf
    "Wire codecs: scatter exchange %d B json / %d B binary\n\
    \  json round-trip:   %.0f ns\n\
    \  binary round-trip: %.0f ns (%.1fx cheaper)\n%!"
    r.cb_json_bytes r.cb_bin_bytes r.cb_json_ns r.cb_bin_ns r.cb_speedup;
  r

let write_query_json ~packages ~queries ~indexed_s ~oracle_s ~speedup
    ~max_abs_diff ~latencies_us ~batch_s ~cold ~fleet ~codec ~source_key path =
  let module S = Core.Perf.Stage in
  (* Temporal-attribution cost next to the numbers it buys: the
     "phase:attribute" stage (per-binary split into init/serving) and
     the widening counters. Zero/empty on snapshot-backed runs — the
     attribution happened when the snapshot was built, not here. *)
  let phase_attribute_s =
    List.fold_left
      (fun acc (l : S.line) ->
        if l.S.l_name = "phase:attribute" then acc +. l.S.l_seconds else acc)
      0.0 (S.report ())
  in
  let phase_counters =
    List.filter
      (fun (name, _) ->
        String.length name >= 6 && String.sub name 0 6 = "phase:")
      (S.report_counters ())
  in
  let oc = open_out path in
  let pf fmt = Printf.fprintf oc fmt in
  let indexed_qps = float_of_int queries /. indexed_s in
  let batch_qps = float_of_int queries /. Float.max batch_s 1e-9 in
  pf "{\n";
  pf "  \"git\": \"%s\",\n" (json_escape (git_stamp ()));
  pf "  \"source_key\": \"%s\",\n" (json_escape source_key);
  pf "  \"packages\": %d,\n" packages;
  pf "  \"queries\": %d,\n" queries;
  pf "  \"load_s\": %.6f,\n" (stage_seconds [ "snapshot-load"; "image-load" ]);
  pf "  \"index_build_s\": %.6f,\n" (stage_seconds [ "query:index-build" ]);
  pf "  \"indexed_s\": %.6f,\n" indexed_s;
  pf "  \"oracle_s\": %.6f,\n" oracle_s;
  pf "  \"indexed_qps\": %.1f,\n" indexed_qps;
  pf "  \"oracle_qps\": %.1f,\n" (float_of_int queries /. oracle_s);
  pf "  \"speedup\": %.1f,\n" speedup;
  pf "  \"latency_p50_us\": %.3f,\n" (Harness.percentile latencies_us 0.50);
  pf "  \"latency_p95_us\": %.3f,\n" (Harness.percentile latencies_us 0.95);
  pf "  \"latency_p99_us\": %.3f,\n" (Harness.percentile latencies_us 0.99);
  pf "  \"batch_s\": %.6f,\n" batch_s;
  pf "  \"batch_qps\": %.1f,\n" batch_qps;
  pf "  \"batch_vs_single\": %.2f,\n" (batch_qps /. indexed_qps);
  pf "  \"phase_attribute_s\": %.6f,\n" phase_attribute_s;
  pf "  \"phase_counters\": [";
  (match phase_counters with
   | [] -> pf " ],\n"
   | items ->
     List.iteri
       (fun i (name, v) ->
         pf "%s\n    { \"name\": \"%s\", \"value\": %d }"
           (if i = 0 then "" else ",")
           (json_escape name) v)
       items;
     pf "\n  ],\n");
  (match cold with
   | None -> ()
   | Some c ->
     pf "  \"image_bytes\": %d,\n" c.cr_image_bytes;
     pf "  \"cold_decode_s\": %.6f,\n" c.cr_decode_s;
     pf "  \"cold_map_s\": %.6f,\n" c.cr_map_s;
     pf "  \"cold_speedup\": %.1f,\n" c.cr_speedup;
     pf "  \"cold_max_abs_diff\": %.3e,\n" c.cr_max_abs_diff;
     pf "  \"replicas\": %d,\n" c.cr_replicas;
     pf "  \"replica_rss_kb\": %.1f,\n" c.cr_replica_rss_kb);
  (match fleet with
   | None -> ()
   | Some f ->
     pf "  \"fleet_shards\": %d,\n" f.fl_shards;
     pf "  \"fleet_image_bytes\": %d,\n" f.fl_image_bytes;
     pf "  \"fleet_sliced_bytes_total\": %d,\n" f.fl_sliced_bytes_total;
     pf "  \"fleet_rss_full_kb\": %.1f,\n" f.fl_rss_full_kb;
     pf "  \"fleet_rss_sliced_kb\": %.1f,\n" f.fl_rss_sliced_kb;
     pf "  \"fleet_sat_qps\": %.1f,\n" f.fl_sat_qps;
     pf "  \"fleet_open_rate_qps\": %.1f,\n" f.fl_open_rate_qps;
     pf "  \"fleet_open_p99_ms\": %.3f,\n" f.fl_open_p99_ms);
  pf "  \"codec_json_ns\": %.1f,\n" codec.cb_json_ns;
  pf "  \"codec_bin_ns\": %.1f,\n" codec.cb_bin_ns;
  pf "  \"codec_speedup\": %.2f,\n" codec.cb_speedup;
  pf "  \"codec_json_bytes\": %d,\n" codec.cb_json_bytes;
  pf "  \"codec_bin_bytes\": %d,\n" codec.cb_bin_bytes;
  pf "  \"max_abs_diff\": %.3e\n" max_abs_diff;
  pf "}\n";
  close_out oc;
  Printf.printf "Wrote %s\n%!" path

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

let run_cold_start (args : args) ~env ~source_key ~subsets =
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
    match args.snapshot with
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
    match args.image with Some path -> path | None -> temp ".idx"
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
    match measure_replica_rss ~image:image_path ~replicas:args.replicas with
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
    replica_rss_kb args.replicas;
  {
    cr_image_bytes = image_bytes;
    cr_decode_s = decode_s;
    cr_map_s = map_s;
    cr_speedup = speedup;
    cr_max_abs_diff = cold_diff;
    cr_replicas = args.replicas;
    cr_replica_rss_kb = replica_rss_kb;
  }

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
   right; a shed answer fails it too. Raises rather than exits, so the
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

let run_fleet_bench (args : args) ~env ~source_key ~subsets =
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
  let ranges = Engine.shard_ranges n args.fleet_shards in
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
    float_of_int ((args.queries * period) + (period / 2)) /. 1e9
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
    rss_full_kb rss_sliced_kb sat_qps sat_p99_ms open_rate args.queries
    open_p99_ms;
  {
    fl_shards = shards;
    fl_image_bytes = image_bytes;
    fl_sliced_bytes_total = sliced_bytes_total;
    fl_rss_full_kb = rss_full_kb;
    fl_rss_sliced_kb = rss_sliced_kb;
    fl_sat_qps = sat_qps;
    fl_open_rate_qps = open_rate;
    fl_open_p99_ms = open_p99_ms;
  }

let run_query_bench (args : args) =
  let env, source_key =
    match args.snapshot with
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
        args.packages;
      let config =
        { Core.Distro.Generator.default_config with
          n_packages = args.packages }
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
  let packages = Array.length store.Core.Db.Store.packages in
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
    List.init args.queries (fun _ ->
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
  Printf.printf
    "Query bench: %d subset queries over %d packages\n\
    \  indexed: %.4fs (%.0f q/s)\n\
    \  oracle:  %.4fs (%.0f q/s)\n\
    \  batch:   %.4fs (%.0f q/s)\n\
    \  latency: p50 %.2fus, p95 %.2fus, p99 %.2fus\n\
    \  speedup: %.1fx, max |indexed - oracle| = %.3e\n%!"
    args.queries packages indexed_s
    (float_of_int args.queries /. indexed_s)
    oracle_s
    (float_of_int args.queries /. oracle_s)
    batch_s
    (float_of_int args.queries /. Float.max batch_s 1e-9)
    (Harness.percentile latencies_us 0.50)
    (Harness.percentile latencies_us 0.95)
    (Harness.percentile latencies_us 0.99)
    speedup max_abs_diff;
  let cold =
    if args.cold_start then
      Some (run_cold_start args ~env ~source_key ~subsets)
    else None
  in
  let fleet =
    if args.fleet_bench then
      Some (run_fleet_bench args ~env ~source_key ~subsets)
    else None
  in
  let codec = run_codec_bench () in
  write_query_json ~packages ~queries:args.queries ~indexed_s ~oracle_s
    ~speedup ~max_abs_diff ~latencies_us ~batch_s ~cold ~fleet ~codec
    ~source_key "BENCH_QUERY.json";
  if max_abs_diff > 1e-12 then begin
    Printf.eprintf
      "bench: FAIL: indexed completeness diverges from the oracle by \
       %.3e (> 1e-12)\n"
      max_abs_diff;
    exit 1
  end;
  (match args.min_speedup with
   | Some want when speedup < want ->
     Printf.eprintf
       "bench: FAIL: indexed speedup %.1fx below the required %.1fx\n"
       speedup want;
     exit 1
   | _ -> ());
  (match cold with
   | None -> ()
   | Some c ->
     if c.cr_max_abs_diff <> 0.0 then begin
       Printf.eprintf
         "bench: FAIL: mapped index diverges from the heap index by %.3e \
          (must be exactly 0)\n"
         c.cr_max_abs_diff;
       exit 1
     end;
     (match args.min_cold_speedup with
      | Some want when c.cr_speedup < want ->
        Printf.eprintf
          "bench: FAIL: cold-start speedup %.1fx below the required %.1fx\n"
          c.cr_speedup want;
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

type evolve_row = {
  er_release : int;
  er_scratch_s : float;
  er_inc_s : float;
  er_hits : int;
  er_misses : int;
  er_full_bytes : int;
  er_delta_bytes : int;  (* 0 for the base release *)
  er_index_s : float;  (* Query.index wall time on the incremental store *)
  er_delta_s : float;  (* delta encode wall time; 0 for the base release *)
}

let write_evolve_json ~packages ~releases ~rows ~scratch_s ~inc_s ~hits
    ~misses ~git path =
  let oc = open_out path in
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n";
  pf "  \"git\": \"%s\",\n" (json_escape git);
  pf "  \"packages\": %d,\n" packages;
  pf "  \"releases\": %d,\n" releases;
  pf "  \"identical\": true,\n";
  pf "  \"scratch_wall_s\": %.6f,\n" scratch_s;
  pf "  \"incremental_wall_s\": %.6f,\n" inc_s;
  pf "  \"wall_ratio\": %.4f,\n"
    (if scratch_s > 0.0 then inc_s /. scratch_s else 0.0);
  pf "  \"cache_hits\": %d,\n" hits;
  pf "  \"cache_misses\": %d,\n" misses;
  pf "  \"reuse\": %.4f,\n"
    (if hits + misses > 0 then
       float_of_int hits /. float_of_int (hits + misses)
     else 0.0);
  pf "  \"rows\": [";
  List.iteri
    (fun i r ->
      pf "%s\n    { \"release\": %d, \"scratch_s\": %.6f, \"inc_s\": %.6f, \
          \"hits\": %d, \"misses\": %d, \"full_bytes\": %d, \
          \"delta_bytes\": %d, \"index_s\": %.6f, \"delta_s\": %.6f }"
        (if i = 0 then "" else ",")
        r.er_release r.er_scratch_s r.er_inc_s r.er_hits r.er_misses
        r.er_full_bytes r.er_delta_bytes r.er_index_s r.er_delta_s)
    rows;
  pf "\n  ]\n}\n";
  close_out oc;
  Printf.printf "Wrote %s\n%!" path

let run_evolve_bench args =
  let module G = Core.Distro.Generator in
  let module Pl = Core.Db.Pipeline in
  let module Sn = Core.Db.Snapshot in
  let config = { G.default_config with n_packages = args.packages } in
  let cache = Pl.new_cache () in
  let inc_config = { Pl.default with shared_cache = Some cache } in
  Printf.printf
    "Evolve bench: %d releases over %d packages, incremental vs \
     from-scratch...\n%!"
    args.releases args.packages;
  let base = ref None in
  let rows = ref [] in
  let tot_scratch = ref 0.0 and tot_inc = ref 0.0 in
  let prev_hits = ref 0 and prev_misses = ref 0 in
  for r = 0 to args.releases do
    let dist = G.evolve ~config ~release:r () in
    let t0 = Unix.gettimeofday () in
    let scratch = Pl.run dist in
    let t1 = Unix.gettimeofday () in
    let incr = Pl.run ~config:inc_config dist in
    let t2 = Unix.gettimeofday () in
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
      {
        er_release = r;
        er_scratch_s = t1 -. t0;
        er_inc_s = t2 -. t1;
        er_hits = dh;
        er_misses = dm;
        er_full_bytes = String.length b_inc;
        er_delta_bytes = delta_bytes;
        er_index_s = index_s;
        er_delta_s = delta_s;
      }
      :: !rows;
    Printf.printf
      "  release %2d: identical (%d bytes); scratch %.2fs, incremental \
       %.2fs, index %.3fs, reuse %d/%d%s\n%!"
      r (String.length b_inc) (t1 -. t0) (t2 -. t1) index_s dh (dh + dm)
      (if delta_bytes = 0 then ""
       else Printf.sprintf ", delta %d bytes in %.3fs" delta_bytes delta_s)
  done;
  let hits = Core.Perf.Stage.counter "incremental:hits" in
  let misses = Core.Perf.Stage.counter "incremental:misses" in
  Printf.printf
    "Evolve bench: all %d releases bit-identical; wall %.2fs scratch vs \
     %.2fs incremental (ratio %.2f), cache reuse %d/%d\n%!"
    (args.releases + 1) !tot_scratch !tot_inc
    (if !tot_scratch > 0.0 then !tot_inc /. !tot_scratch else 0.0)
    hits (hits + misses);
  if args.json then
    write_evolve_json ~packages:args.packages ~releases:args.releases
      ~rows:(List.rev !rows) ~scratch_s:!tot_scratch ~inc_s:!tot_inc ~hits
      ~misses ~git:(git_stamp ()) "BENCH_EVOLVE.json";
  print_endline "Evolve bench: OK"

let () =
  (* Hidden replica mode: exec'd by the cold-start bench, prints this
     process's VmRSS (kB) after mapping the image and answering once. *)
  (match Array.to_list Sys.argv with
   | [ _; "--replica-rss"; image ] -> replica_rss_main image
   | [ _; "--fleet-shard"; image ] ->
     fleet_shard_main image;
     exit 0
   | _ -> ());
  let args = parse_args () in
  if args.query_bench then begin
    run_query_bench args;
    exit 0
  end;
  if args.evolve_bench then begin
    run_evolve_bench args;
    exit 0
  end;
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "Building the synthetic distribution (%d packages) and running the \
     full analysis pipeline...\n%!"
    args.packages;
  let env =
    Study.Env.create
      ~config:
        { Core.Distro.Generator.default_config with
          n_packages = args.packages }
      ()
  in
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
  let selected =
    match args.ids with
    | [] -> Study.Experiments.all
    | ids -> List.filter_map Study.Experiments.find ids
  in
  List.iter
    (fun (x : Study.Experiments.t) ->
      print_string (x.Study.Experiments.render env);
      print_newline ())
    selected;
  if args.ids = [] then print_table12 env;
  let micro_results = if args.micro then run_micro env else [] in
  if args.json then begin
    let config =
      { Core.Distro.Generator.default_config with n_packages = args.packages }
    in
    write_json ~packages:args.packages
      ~binaries:(List.length env.Study.Env.store.Core.Db.Store.bins)
      ~wall ~micro_results ~git:(git_stamp ())
      ~source_key:
        (Core.Db.Snapshot.source_key
           ~seed:config.Core.Distro.Generator.seed
           ~n_packages:config.Core.Distro.Generator.n_packages
           ~total_installs:config.Core.Distro.Generator.total_installs ())
      (Printf.sprintf "BENCH_%d.json" args.packages)
  end;
  Option.iter
    (check_against
       ~stage_total_now:(stage_total (Core.Perf.Stage.report ()))
       ~quarantined)
    args.check_against
