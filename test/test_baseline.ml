(* Tests for the BENCH report format in bench/report.ml: the committed
   baseline must keep loading, a written report must read back, and
   the drift logic behind [--check-against] must gate only the
   intersection of stage names so baselines survive stages being
   added or removed. *)

(* dune copies the committed baseline into the build tree; under
   [dune runtest] the cwd is _build/default/test, under [dune exec]
   it is the workspace root *)
let baseline_path =
  let candidates =
    [ "../bench/baseline_200.json";
      "bench/baseline_200.json";
      "_build/default/bench/baseline_200.json" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let load_exn path =
  match Report.load_stages path with
  | Ok stages -> stages
  | Error msg -> Alcotest.failf "load %s: %s" path msg

let test_load_committed () =
  let stages = load_exn baseline_path in
  Alcotest.(check int) "committed baseline has 22 stages" 22
    (List.length stages);
  (match List.assoc_opt "resolve" stages with
   | Some s -> Alcotest.(check (float 1e-9)) "resolve seconds" 0.135910 s
   | None -> Alcotest.fail "resolve stage missing");
  if List.mem_assoc "no-such-stage" stages then
    Alcotest.fail "phantom stage parsed"

let test_compare_shared_only () =
  (* the gate sums only stages both sides have; one-sided stages are
     reported, never gated — a later PR adding a stage must not fail
     an old baseline, and a removed stage must not hide a regression *)
  let baseline = [ ("alpha", 0.4); ("beta", 0.5); ("gone", 0.1) ] in
  let now = [ ("alpha", 0.8); ("beta", 0.25); ("brand-new", 9.9) ] in
  let v = Report.compare_stages baseline now in
  Alcotest.(check (float 1e-9)) "baseline side sums shared only" 0.9
    v.shared_baseline_s;
  Alcotest.(check (float 1e-9)) "now side sums shared only" 1.05
    v.shared_now_s;
  Alcotest.(check (list string)) "shared names" [ "alpha"; "beta" ]
    (List.sort compare v.shared);
  Alcotest.(check (list string)) "removed since baseline" [ "gone" ]
    v.only_baseline;
  Alcotest.(check (list string)) "added since baseline" [ "brand-new" ]
    v.only_now

let test_compare_disjoint () =
  (* a fully drifted stage set shares nothing: the caller must detect
     shared = [] and refuse to pass vacuously *)
  let v = Report.compare_stages [ ("old", 1.0) ] [ ("new", 2.0) ] in
  Alcotest.(check (list string)) "nothing shared" [] v.shared;
  Alcotest.(check (float 0.0)) "no gated seconds" 0.0 v.shared_now_s

let with_temp_file f =
  let path = Filename.temp_file "lapis-baseline" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_temp_json body f =
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc body);
      f path)

let test_write_reads_back () =
  (* the stage rows a report writes are exactly what the gate loads *)
  let lines =
    [ { Core.Perf.Stage.l_name = "gen:roster"; l_seconds = 0.000456;
        l_entries = 1 };
      { l_name = "resolve"; l_seconds = 0.1 +. 0.2; l_entries = 382 };
      { l_name = "odd \"name\"\n"; l_seconds = 1e-7; l_entries = 0 } ]
  in
  with_temp_file (fun path ->
      Report.write path
        [ ("packages", Core.Query.Json.Num 200.0); Report.stages lines ];
      Alcotest.(check (list (pair string (float 0.0))))
        "stage rows"
        (List.map
           (fun (l : Core.Perf.Stage.line) -> (l.l_name, l.l_seconds))
           lines)
        (load_exn path))

let test_load_tolerates_unknown () =
  (* fields this reader does not know must not break it *)
  with_temp_json
    {|{
  "mystery": { "nested": [1, 2] },
  "stage_total_s": 0.5,
  "stages": [
    { "name": "one", "seconds": 0.125, "entries": 3, "extra": true }
  ]
}|}
    (fun path ->
      Alcotest.(check (list (pair string (float 1e-9))))
        "one stage" [ ("one", 0.125) ] (load_exn path))

let test_load_rejects_stageless () =
  (* a report without stage rows gives the gate nothing to compare *)
  with_temp_json {|{ "packages": 50, "stage_total_s": 0.25 }|} (fun path ->
      match Report.load_stages path with
      | Ok _ -> Alcotest.fail "loaded a report without stages"
      | Error _ -> ())

let test_load_missing_file () =
  match Report.load_stages "/nonexistent/lapis-baseline.json" with
  | Ok _ -> Alcotest.fail "loaded a file that does not exist"
  | Error _ -> ()

let () =
  Alcotest.run "baseline"
    [ ( "load",
        [ Alcotest.test_case "committed baseline_200" `Quick
            test_load_committed;
          Alcotest.test_case "written report reads back" `Quick
            test_write_reads_back;
          Alcotest.test_case "tolerates unknown fields" `Quick
            test_load_tolerates_unknown;
          Alcotest.test_case "rejects a report without stages" `Quick
            test_load_rejects_stageless;
          Alcotest.test_case "missing file" `Quick test_load_missing_file ]
      );
      ( "compare",
        [ Alcotest.test_case "gates the intersection" `Quick
            test_compare_shared_only;
          Alcotest.test_case "disjoint sets" `Quick test_compare_disjoint ]
      )
    ]
